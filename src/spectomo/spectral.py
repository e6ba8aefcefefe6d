"""Energy binning, photon-count simulation, noise, and log-correction.

The measurement chain: material attenuation curves are sampled at the
energetic center of each detector channel, line integrals of the material
maps are mixed with those per-channel attenuations, and photon counts
follow the exponential attenuation law around a known source intensity.
Log-correcting the counts against the source recovers the linear data
``Y = W A F`` up to noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tomo import Grid2D, ParallelGeometry, TomoOperator
from .phantoms import MaterialMap

#: counts are clamped here before the log so zero-count bins stay finite
COUNT_FLOOR = 1.0

#: most weight slots, zeros included, that one block of the simulation's
#: 2x operator holds: ``n_det * 2 * max(nx, ny)`` per angle of the 2x grid,
#: at about 12 bytes each (6 MiB)
SIMULATE_BLOCK_SLOTS = 2 ** 19


@dataclass(frozen=True)
class AttenuationTable:
    """Per-material attenuation curves sampled on a common energy grid."""

    material_names: list[str]
    energy_grid: np.ndarray          # (E,) ascending, keV
    mu: np.ndarray                   # (n_materials, E), >= 0

    def __post_init__(self):
        e = np.asarray(self.energy_grid, dtype=np.float64)
        mu = np.atleast_2d(np.asarray(self.mu, dtype=np.float64))
        if e.ndim != 1 or e.size < 2:
            raise ValueError("energy_grid must be a 1-D array with >= 2 points")
        if not np.all(np.isfinite(e)) or np.any(np.diff(e) <= 0):
            raise ValueError("energy_grid must be finite and strictly ascending")
        if mu.shape != (len(self.material_names), e.size):
            raise ValueError(f"mu must be ({len(self.material_names)}, {e.size}), "
                             f"got {mu.shape}")
        if not np.all(np.isfinite(mu)) or np.any(mu < 0):
            raise ValueError("attenuation values must be finite and nonnegative")
        object.__setattr__(self, "energy_grid", e)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class ChannelBinning:
    """Detector energy channels, identified by their energetic centers."""

    centers: np.ndarray              # (C,) ascending, keV

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.centers, dtype=np.float64))
        if c.size < 1 or not np.all(np.isfinite(c)) or np.any(np.diff(c) <= 0):
            raise ValueError("channel centers must be nonempty, finite and strictly "
                             "ascending")
        object.__setattr__(self, "centers", c)

    @property
    def n_channels(self) -> int:
        return self.centers.size

    @classmethod
    def equidistant(cls, n_channels: int, e_min: float, e_max: float) -> "ChannelBinning":
        """Channels with centers at `n_channels` equidistant energies."""
        if n_channels < 1:
            raise ValueError("need at least one channel")
        if not e_min < e_max:
            raise ValueError("e_min must be below e_max")
        return cls(np.linspace(e_min, e_max, n_channels))


@dataclass(frozen=True)
class SourceSpectrum:
    """Incident photon intensity per channel (flatfield)."""

    intensity: np.ndarray            # (C,), > 0

    def __post_init__(self):
        i = np.atleast_1d(np.asarray(self.intensity, dtype=np.float64))
        if np.any(i <= 0) or not np.all(np.isfinite(i)):
            raise ValueError("source intensity must be positive and finite")
        object.__setattr__(self, "intensity", i)

    @classmethod
    def flat(cls, n_channels: int, photons_per_channel: float = 1e4) -> "SourceSpectrum":
        return cls(np.full(n_channels, float(photons_per_channel)))


@dataclass(frozen=True)
class SpectralDictionary:
    """Candidate material attenuations per channel, one row per material."""

    T: np.ndarray                    # (D, C), >= 0
    names: list[str]

    def __post_init__(self):
        T = np.atleast_2d(np.asarray(self.T, dtype=np.float64))
        if not np.all(np.isfinite(T)) or np.any(T < 0):
            raise ValueError("dictionary entries must be finite and nonnegative")
        if T.shape[0] != len(self.names):
            raise ValueError("one name per dictionary row required")
        object.__setattr__(self, "T", T)

    @property
    def n_materials(self) -> int:
        return self.T.shape[0]


@dataclass(frozen=True)
class SpectralSinogram:
    """Log-corrected measurements, one column per energy channel."""

    Y: np.ndarray                    # (J, C)

    def __post_init__(self):
        Y = np.atleast_2d(np.asarray(self.Y, dtype=np.float64))
        if not np.all(np.isfinite(Y)):
            raise ValueError("sinogram entries must be finite")
        object.__setattr__(self, "Y", Y)


@dataclass(frozen=True)
class NoiseConfig:
    """Poisson noise acts on counts; Gaussian noise is added to the
    log-corrected data afterwards (see :func:`add_gaussian_noise`)."""

    poisson: bool = False
    gaussian_percent: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.gaussian_percent) and self.gaussian_percent >= 0):
            raise ValueError(f"gaussian_percent must be finite and >= 0, "
                             f"got {self.gaussian_percent}")


def bin_attenuation(table: AttenuationTable, binning: ChannelBinning) -> SpectralDictionary:
    """Sample each material's attenuation curve at the channel centers.

    Linear interpolation on the table's energy grid; centers outside the
    tabulated range are an error (no extrapolation).
    """
    e = table.energy_grid
    c = binning.centers
    if c[0] < e[0] or c[-1] > e[-1]:
        raise ValueError(
            f"channel centers [{c[0]}, {c[-1]}] keV fall outside the "
            f"tabulated range [{e[0]}, {e[-1]}] keV")
    T = np.vstack([np.interp(c, e, row) for row in table.mu])
    return SpectralDictionary(T=T, names=list(table.material_names))


def simulate_counts(phantom_hi: MaterialMap, recon_grid: Grid2D,
                    geometry: ParallelGeometry, F_true: np.ndarray,
                    source: SourceSpectrum, noise: NoiseConfig | None = None,
                    seed: int | None = None) -> np.ndarray:
    """Photon counts for a phantom rendered at twice the reconstruction grid.

    The phantom must live on a grid exactly 2x finer than `recon_grid` per
    axis and covering the same area (same center), so the simulated data
    never reuses the reconstruction discretization.  Counts are
    ``I0 * exp(-(W_hi A_hi F_true))`` per ray and channel, Poisson-sampled
    when `noise.poisson` and deterministic for a fixed `seed`.  ``W_hi`` is
    built anew on every call, in blocks of consecutive angles that are
    assembled and applied one after the other: as few blocks as hold at
    most ``SIMULATE_BLOCK_SLOTS`` weight slots each (a single angle with
    more is a block of its own), of equal sizes up to one angle.  So the
    memory the simulation holds does not grow with the size of ``W_hi``.

    Returns
    -------
    (J, C) float array of counts.
    """
    hi = phantom_hi.grid
    want = recon_grid.refine(2)
    if (hi.nx, hi.ny) != (want.nx, want.ny) or not np.isclose(hi.pixel_size, want.pixel_size):
        raise ValueError(
            f"phantom grid {hi.nx}x{hi.ny}@{hi.pixel_size} is not the 2x refinement "
            f"{want.nx}x{want.ny}@{want.pixel_size} of the reconstruction grid")
    if not np.allclose(hi.origin, want.origin):
        raise ValueError(f"phantom grid origin {hi.origin} differs from the "
                         f"reconstruction grid origin {want.origin}")
    F_true = np.atleast_2d(np.asarray(F_true, dtype=np.float64))
    if not np.all(np.isfinite(F_true)) or np.any(F_true < 0):
        raise ValueError("true spectra must be finite and nonnegative")
    if F_true.shape[0] != phantom_hi.n_materials:
        raise ValueError(f"need one spectrum per material, got {F_true.shape[0]} "
                         f"for {phantom_hi.n_materials} materials")
    if F_true.shape[1] != source.intensity.size:
        raise ValueError(f"true spectra have {F_true.shape[1]} channels, "
                         f"source has {source.intensity.size}")
    # the fewest blocks within the budget, of as equal sizes as possible;
    # rows are independent, so the stacked block forwards equal one full
    # forward bit for bit
    per_block = max(1, SIMULATE_BLOCK_SLOTS // (geometry.n_det * 2 * max(hi.nx, hi.ny)))
    WA_hi = np.vstack([
        TomoOperator(hi, ParallelGeometry(block, geometry.n_det, geometry.det_spacing))
        .forward(phantom_hi.A)
        for block in np.array_split(geometry.angles, -(-geometry.n_angles // per_block))])
    line_integrals = WA_hi @ F_true                               # (J, C)
    mean = source.intensity[None, :] * np.exp(-line_integrals)
    if noise is not None and noise.poisson:
        rng = np.random.default_rng(seed)
        return rng.poisson(mean).astype(np.float64)
    return mean


def log_correct(counts: np.ndarray, source: SourceSpectrum) -> SpectralSinogram:
    """Flatfield-normalized negative log of the counts.

    Counts below ``COUNT_FLOOR`` (one photon) are clamped first, so the
    output is always finite even when Poisson draws hit zero.
    """
    counts = np.atleast_2d(np.asarray(counts, dtype=np.float64))
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    if counts.shape[1] != source.intensity.size:
        raise ValueError(f"counts have {counts.shape[1]} channels, "
                         f"source has {source.intensity.size}")
    Y = -np.log(np.maximum(counts, COUNT_FLOOR) / source.intensity[None, :])
    return SpectralSinogram(Y=Y)


def add_gaussian_noise(Y: np.ndarray, strength_percent: float,
                       seed: int | None = None) -> np.ndarray:
    """Add white noise with standard deviation `strength_percent`/100 of
    the RMS of `Y`."""
    if strength_percent < 0:
        raise ValueError("noise strength must be >= 0")
    Y = np.asarray(Y, dtype=np.float64)
    if strength_percent == 0:
        return Y.copy()
    sigma = strength_percent / 100.0 * float(np.sqrt(np.mean(Y ** 2)))
    rng = np.random.default_rng(seed)
    return Y + rng.normal(0.0, sigma, size=Y.shape)


def channel_pivot_order(T: np.ndarray, k: int) -> np.ndarray:
    """First `k` channels of the (D, C) dictionary array `T` in greedy
    selection order.

    Greedy means: repeatedly take the channel (column) with the largest
    residual norm after orthogonalizing against the already chosen ones,
    i.e. QR with column pivoting.
    """
    T = np.atleast_2d(np.asarray(T, dtype=np.float64))
    C = T.shape[1]
    if not 1 <= k <= C:
        raise ValueError(f"k must be in [1, {C}], got {k}")
    # imported here: loading it costs each process about 8 MB and 0.14 s
    import scipy.linalg

    _, _, piv = scipy.linalg.qr(T, mode="economic", pivoting=True)
    return piv[:k].copy()


def select_channels(T: np.ndarray, k: int) -> np.ndarray:
    """Pick `k` channels spanning the dictionary array `T` as well as
    possible; see :func:`channel_pivot_order`.  Indices are returned sorted
    ascending."""
    return np.sort(channel_pivot_order(T, k))


def kedge_dictionary(n_materials: int, binning: ChannelBinning,
                     peak: float = 0.1, edge_jump: float = 6.0,
                     names: list[str] | None = None) -> SpectralDictionary:
    """Synthetic dictionary with absorption-edge-like steps.

    Each material follows a smooth ``(E_edge / E)^3`` decay with a sharp
    jump at its own edge energy; edges are staggered across the interior of
    the binning range so the columns stay well separated.  Rows are scaled
    to a common `peak` value.
    """
    if n_materials < 1:
        raise ValueError("need at least one material")
    c = binning.centers
    span = c[-1] - c[0]
    if span <= 0 or binning.n_channels < 2:
        raise ValueError("binning must cover a positive energy range")
    edges = c[0] + span * np.linspace(0.2, 0.8, n_materials)
    T = np.empty((n_materials, c.size))
    for d, e_edge in enumerate(edges):
        base = (e_edge / c) ** 3
        base[c >= e_edge] *= edge_jump
        T[d] = base / base.max() * peak
    if names is None:
        names = [f"synthetic_{d:02d}" for d in range(n_materials)]
    return SpectralDictionary(T=T, names=names)


def kedge_attenuation_table(names: list[str], e_min: float, e_max: float,
                            n_energies: int = 200, peak: float = 0.1,
                            edge_jump: float = 6.0) -> AttenuationTable:
    """Fine-grid attenuation table matching :func:`kedge_dictionary`."""
    grid = np.linspace(e_min, e_max, n_energies)
    binning = ChannelBinning(grid)
    d = kedge_dictionary(len(names), binning, peak=peak, edge_jump=edge_jump, names=names)
    return AttenuationTable(material_names=list(names), energy_grid=grid, mu=d.T)
