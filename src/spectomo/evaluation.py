"""Column matching and image-quality metrics for reconstructed maps.

A reconstruction may recover the materials in any column order, so maps
are first paired with the ground truth by a greedy minimum-error matching,
then scored per pair.

Metric conventions (deliberately literal):

* ``mse`` is the *squared Euclidean norm* of the difference, without
  dividing by the pixel count.
* ``psnr`` uses the squared norm in the denominator accordingly, with the
  peak taken from the reference image.  A zero-error pair returns ``inf``;
  the writers cap it at :data:`PSNR_SATURATION_DB`, and their PSNR average
  is the mean of the capped values (``data_io.capped_psnr``).  A nonzero
  error against a reference whose peak is not positive raises
  ``ValueError``: there is no signal to compare it with.
* ``ssim`` is global (whole-image means, variances and cross-covariance,
  no sliding window) with the usual stabilizers for unit dynamic range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: value written to CSV in place of an infinite PSNR
PSNR_SATURATION_DB = 99.0

_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2


def mse(x: np.ndarray, y: np.ndarray) -> float:
    x, y = _pair(x, y)
    return float(np.sum((x - y) ** 2))


def psnr(x: np.ndarray, y: np.ndarray) -> float:
    """Peak signal-to-noise ratio of `x` against the reference `y`, in dB."""
    err = mse(x, y)
    if err == 0.0:
        return np.inf
    peak = float(np.max(y))
    if not peak > 0:
        raise ValueError(f"PSNR needs a reference with a positive peak, got {peak}")
    return 10.0 * np.log10(peak ** 2 / err)


def ssim(x: np.ndarray, y: np.ndarray) -> float:
    x, y = _pair(x, y)
    mx, my = x.mean(), y.mean()
    vx = np.mean((x - mx) ** 2)
    vy = np.mean((y - my) ** 2)
    cov = np.mean((x - mx) * (y - my))
    return float((2 * mx * my + _SSIM_C1) * (2 * cov + _SSIM_C2)
                 / ((mx ** 2 + my ** 2 + _SSIM_C1) * (vx + vy + _SSIM_C2)))


def _pair(x, y):
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    return x, y


@dataclass(frozen=True)
class MatchResult:
    """Greedy pairing of reconstructed and ground-truth columns plus scores."""

    pairs: list[tuple[int, int]]       # (reconstructed column, ground-truth column)
    mse_values: list[float]
    psnr_values: list[float]
    ssim_values: list[float]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("a matching has at least one pair")

    @property
    def mse_avg(self) -> float:
        return float(np.mean(self.mse_values))

    @property
    def ssim_avg(self) -> float:
        return float(np.mean(self.ssim_values))


def greedy_match(A_rec: np.ndarray, A_gt: np.ndarray) -> MatchResult:
    """Pair reconstructed columns with ground-truth columns greedily.

    Builds the matrix of column-wise Euclidean errors, then repeatedly
    takes the global minimum over the still unmatched rows and columns.
    Ties go to the smallest reconstructed index, then the smallest
    ground-truth index.
    """
    A_rec = np.atleast_2d(np.asarray(A_rec, dtype=np.float64))
    A_gt = np.atleast_2d(np.asarray(A_gt, dtype=np.float64))
    if A_rec.shape != A_gt.shape:
        raise ValueError(f"shape mismatch: {A_rec.shape} vs {A_gt.shape}")
    for name, A in (("A_rec", A_rec), ("A_gt", A_gt)):
        if not np.all(np.isfinite(A)):
            raise ValueError(f"{name} contains non-finite entries")
    m = A_rec.shape[1]
    err = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            err[i, j] = np.linalg.norm(A_rec[:, i] - A_gt[:, j])

    masked = err.copy()
    pairs = []
    for _ in range(m):
        best = np.min(masked)
        i, j = np.argwhere(masked == best)[0]        # argwhere is row-major: smallest i, then j
        pairs.append((int(i), int(j)))
        masked[i, :] = np.inf
        masked[:, j] = np.inf

    return MatchResult(
        pairs=pairs,
        mse_values=[mse(A_rec[:, i], A_gt[:, j]) for i, j in pairs],
        psnr_values=[psnr(A_rec[:, i], A_gt[:, j]) for i, j in pairs],
        ssim_values=[ssim(A_rec[:, i], A_gt[:, j]) for i, j in pairs],
    )

