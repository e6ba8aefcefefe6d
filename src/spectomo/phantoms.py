"""Synthetic 2D phantom generators.

Every generator returns a :class:`MaterialMap` whose rows (pixels) sum to
at most one; label phantoms are one-hot per pixel.  Membership is decided
by a hard pixel-center test so constraint membership is exact, and all
shapes are defined in coordinates normalized to the grid extent, so
rendering the same phantom at a finer resolution samples the same
geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tomo import Grid2D

_ROWSUM_SLACK = 1e-12

# classic head phantom: (value, a, b, x0, y0, phi_degrees)
_SHEPP_LOGAN_ELLIPSES = [
    (2.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.98, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.02, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.02, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.01, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.01, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.01, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.01, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.01, 0.0230, 0.0230, 0.00, -0.6060, 0.0),
    (0.01, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
]

# no supported count makes disks overlap: the closest centres are 0.2495
# apart (15 disks) and 0.312 (the 15 pairs of 6 materials), against two
# radii of 0.24; an overlap would show as a row sum above 1 in MaterialMap
_DISK_RING_RADIUS = 0.6
_DISK_RADIUS = 0.12
_MIXED_INNER_RADIUS = 0.38
_MIXED_OUTER_RADIUS = 0.75


@dataclass(frozen=True)
class MaterialMap:
    """Per-pixel material fractions: column m is the spatial map of material m."""

    A: np.ndarray                 # (N, M), >= 0, row sums <= 1
    grid: Grid2D
    labels: list[str]

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        if A.shape[0] != self.grid.n_pixels:
            raise ValueError(f"map has {A.shape[0]} rows for a grid of "
                             f"{self.grid.n_pixels} pixels")
        if A.shape[1] != len(self.labels):
            raise ValueError("one label per material column required")
        if np.any(A < 0):
            raise ValueError("material fractions must be nonnegative")
        if np.any(A.sum(axis=1) > 1.0 + _ROWSUM_SLACK):
            raise ValueError("per-pixel material fractions must sum to <= 1")
        object.__setattr__(self, "A", A)

    @property
    def n_materials(self) -> int:
        return self.A.shape[1]

    def column_image(self, m: int) -> np.ndarray:
        """Material m as a (ny, nx) image."""
        return self.A[:, m].reshape(self.grid.ny, self.grid.nx)


def _pixel_centers(n: int) -> tuple[np.ndarray, np.ndarray]:
    # pixel centers in [-1, 1]^2; row 0 is the top of the image
    x = (2.0 * np.arange(n) + 1.0) / n - 1.0
    y = 1.0 - (2.0 * np.arange(n) + 1.0) / n
    return np.meshgrid(x, y)


def shepp_logan(n: int, n_materials: int, grid: Grid2D | None = None) -> MaterialMap:
    """Head phantom with its grey levels quantized into material classes.

    The summed ellipse intensities produce a handful of distinct grey
    values; ranked by descending grey value they are grouped into
    `n_materials` classes (highest grey -> material 0).
    """
    if n < 16:
        raise ValueError("shepp_logan needs n >= 16")
    if not 2 <= n_materials <= 5:
        raise ValueError("shepp_logan supports 2..5 materials")
    X, Y = _pixel_centers(n)
    grey = np.zeros((n, n))
    for value, a, b, x0, y0, phi_deg in _SHEPP_LOGAN_ELLIPSES:
        phi = np.deg2rad(phi_deg)
        xr = (X - x0) * np.cos(phi) + (Y - y0) * np.sin(phi)
        yr = -(X - x0) * np.sin(phi) + (Y - y0) * np.cos(phi)
        grey[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += value

    levels = np.unique(grey)
    levels = levels[levels != 0.0][::-1]          # descending nonzero greys
    if levels.size < n_materials:
        raise ValueError(
            f"only {levels.size} grey levels present at n={n}; "
            f"cannot form {n_materials} materials")
    A = np.zeros((n * n, n_materials))
    flat = grey.ravel()
    for rank, level in enumerate(levels):
        cls = rank * n_materials // levels.size
        A[flat == level, cls] = 1.0
    return _rendered(A, grid, [f"class_{m}" for m in range(n_materials)], n)


def disks(n: int, n_disks: int, grid: Grid2D | None = None) -> MaterialMap:
    """Equal disks on a circle, one material per disk."""
    if not 1 <= n_disks <= 15:
        raise ValueError("disks supports 1..15 disks")
    centers = _ring_centers(_DISK_RING_RADIUS, n_disks)
    A = np.zeros((n * n, n_disks))
    for m, c in enumerate(centers):
        A[_disk_mask(n, c, _DISK_RADIUS).ravel(), m] = 1.0
    return _rendered(A, grid, [f"disk_{m}" for m in range(n_disks)], n)


def mixed_disks(n: int, n_materials: int, grid: Grid2D | None = None) -> MaterialMap:
    """Pure disks on an inner ring plus all 50/50 pairs on an outer ring."""
    if not 2 <= n_materials <= 6:
        raise ValueError("mixed_disks supports 2..6 materials")
    pairs = [(i, j) for i in range(n_materials) for j in range(i + 1, n_materials)]
    inner = _ring_centers(_MIXED_INNER_RADIUS, n_materials)
    outer = _ring_centers(_MIXED_OUTER_RADIUS, len(pairs))
    A = np.zeros((n * n, n_materials))
    for m, c in enumerate(inner):
        A[_disk_mask(n, c, _DISK_RADIUS).ravel(), m] = 1.0
    for (i, j), c in zip(pairs, outer):
        mask = _disk_mask(n, c, _DISK_RADIUS).ravel()
        A[mask, i] = 0.5
        A[mask, j] = 0.5
    return _rendered(A, grid, [f"material_{m}" for m in range(n_materials)], n)


def _rendered(A, grid: Grid2D | None, labels: list[str], n: int) -> MaterialMap:
    """The n x n render `A` as a map on `grid`, by default ``Grid2D(n, n)``;
    a material that covers no pixel is an error (a disk smaller than a pixel
    can miss every pixel center)."""
    empty = np.flatnonzero(~A.any(axis=0))
    if empty.size:
        raise ValueError(f"{labels[empty[0]]} covers no pixel at n={n}; "
                         "use a larger size")
    return MaterialMap(A=A, grid=Grid2D(n, n) if grid is None else grid,
                       labels=labels)


def _ring_centers(radius: float, count: int) -> list[tuple[float, float]]:
    phi = 2.0 * np.pi * np.arange(count) / count
    return [(radius * np.cos(p), radius * np.sin(p)) for p in phi]


def _disk_mask(n: int, center: tuple[float, float], radius: float) -> np.ndarray:
    X, Y = _pixel_centers(n)
    return (X - center[0]) ** 2 + (Y - center[1]) ** 2 <= radius ** 2
