"""2D parallel-beam projector with a matched adjoint.

The projector is ray-driven with bilinear (Joseph-style) interpolation:
every ray is sampled once per pixel row or column (whichever axis it is
closest to), and each sample interpolates linearly between the two
neighbouring pixel centers.  The weights are assembled once into a sparse
matrix ``W``; forward applies ``W`` and adjoint applies ``W.T``, so the
pair is an exact transpose of one another.

Conventions
-----------
* A projection angle ``theta`` sends rays along ``(-sin(theta), cos(theta))``;
  the detector axis is ``(cos(theta), sin(theta))``.  At ``theta = 0`` rays
  travel vertically and the detector measures offsets along x.
* Detector bin ``k`` is centered at ``(k - (n_det - 1) / 2) * det_spacing``.
* Images are stored row-major: pixel ``(ix, iy)`` maps to ``iy * nx + ix``.
* Sinogram ray index ``j = angle_index * n_det + detector_index``.

Rays that never enter the grid contribute exact zeros.  All computation is
in 64-bit floats.  ``W`` stores only nonzero weights, in arrays of exactly
that length, at about 12 bytes each (a float64 value and an int32 column
index): 57 MiB for a 128x128 grid with 180 angles and 128 detectors.
Assembly briefly holds every slot, zeros included (69 MiB there), and takes
about 70 ms there on one core.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse


def _check_count(name: str, value) -> None:
    """Reject a count that is not an integer (a bool or a float)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Grid2D:
    """Uniform pixel grid; `origin` is the physical location of its center."""

    nx: int
    ny: int
    pixel_size: float = 1.0
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        _check_count("nx", self.nx)
        _check_count("ny", self.ny)
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"grid must have at least one pixel, got {self.nx}x{self.ny}")
        if not 0 < self.pixel_size < np.inf:
            raise ValueError("pixel_size must be positive and finite, "
                             f"got {self.pixel_size}")
        if not (len(self.origin) == 2 and np.all(np.isfinite(self.origin))):
            raise ValueError(f"origin must be two finite numbers, got {self.origin}")

    @property
    def n_pixels(self) -> int:
        return self.nx * self.ny

    def refine(self, factor: int) -> "Grid2D":
        """Grid covering the same physical area with `factor`-times finer pixels."""
        if factor < 1 or int(factor) != factor:
            raise ValueError("refinement factor must be a positive integer")
        return Grid2D(self.nx * int(factor), self.ny * int(factor),
                      self.pixel_size / factor, self.origin)


@dataclass(frozen=True)
class ParallelGeometry:
    """Parallel-beam acquisition: projection angles plus a linear detector."""

    angles: np.ndarray
    n_det: int
    det_spacing: float = 1.0

    def __post_init__(self):
        angles = np.atleast_1d(np.asarray(self.angles, dtype=np.float64))
        if angles.size == 0:
            raise ValueError("angles must be nonempty")
        if not np.all(np.isfinite(angles)):
            raise ValueError("angles must be finite")
        _check_count("n_det", self.n_det)
        if self.n_det < 1:
            raise ValueError(f"n_det must be >= 1, got {self.n_det}")
        if not 0 < self.det_spacing < np.inf:
            raise ValueError("det_spacing must be positive and finite, "
                             f"got {self.det_spacing}")
        object.__setattr__(self, "angles", angles)

    @property
    def n_angles(self) -> int:
        return self.angles.size

    @property
    def n_rays(self) -> int:
        return self.angles.size * self.n_det

    def det_centers(self) -> np.ndarray:
        k = np.arange(self.n_det, dtype=np.float64)
        return (k - (self.n_det - 1) / 2.0) * self.det_spacing


def equispaced_angles(count: int, start: float = 0.0, stop: float = np.pi) -> np.ndarray:
    """`count` equidistant angles in [start, stop), endpoint excluded."""
    if count < 1:
        raise ValueError("angle count must be >= 1")
    return np.linspace(start, stop, count, endpoint=False)


@dataclass(frozen=True)
class TomoOperator:
    """Discrete line-integral operator, assembled once as a sparse matrix.

    ``W`` is a ``(n_rays, n_image)`` CSR matrix holding the Joseph weights
    of every ray, so ``forward`` is ``W @ X`` and ``adjoint`` is
    ``W.T @ Y``.  The operator keeps no other state and is immutable after
    construction, so it is safe for concurrent use.
    """

    grid: Grid2D
    geometry: ParallelGeometry
    W: sparse.csr_array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "W", self._assemble())

    @property
    def n_image(self) -> int:
        return self.grid.n_pixels

    @property
    def n_rays(self) -> int:
        return self.geometry.n_rays

    def forward(self, image: np.ndarray) -> np.ndarray:
        """Line integrals of `image` along every ray.

        Parameters
        ----------
        image : (N,) or (N, K) array
            Flattened image(s); K columns are projected together.

        Returns
        -------
        (J,) or (J, K) array of line integrals.
        """
        x, single = self._check_vec(image, self.n_image, "image")
        if not np.all(np.isfinite(x)):
            raise ValueError("image contains non-finite entries")
        out = self.W @ x
        return out[:, 0] if single else out

    def adjoint(self, sino: np.ndarray) -> np.ndarray:
        """Transpose of `forward` applied to a sinogram (same discrete weights)."""
        y, single = self._check_vec(sino, self.n_rays, "sinogram")
        out = self.W.T @ y
        return out[:, 0] if single else out

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _check_vec(v, n, name):
        v = np.asarray(v, dtype=np.float64)
        single = v.ndim == 1
        if single:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != n:
            raise ValueError(f"{name} must have leading dimension {n}, got shape {v.shape}")
        return np.ascontiguousarray(v), single

    def _assemble(self) -> sparse.csr_array:
        """Fill the CSR arrays in place, one angle at a time.

        Every ray of an angle takes one sample per pixel row (rays closest
        to vertical) or column, and each sample stores its two
        interpolation neighbours next to each other.  A ray therefore has
        exactly ``2 * n_across`` entries, so ``indptr`` is known up front;
        neighbours that fall off the grid get weight 0 and are dropped at
        the end, after which the buffers are cut to the nonzeros.

        Per angle this takes about 20 elementwise passes over a few
        ``n_det x n_across`` temporaries: the sample positions are formed
        in place in one buffer, each neighbour's weight in a contiguous
        temporary that is written to its interleaved slots once, and the
        upper neighbour's index is the lower one's plus a stride, with the
        integer work in the index dtype.  Of the 70 ms at 128x128 with 180
        angles, ``eliminate_zeros`` takes about 13 and page faults on the
        first writes into the fresh buffers about 20.
        """
        g, geom = self.grid, self.geometry
        nx, ny, p = g.nx, g.ny, g.pixel_size
        t = geom.det_centers()[:, None]
        xc = (np.arange(nx) - (nx - 1) / 2.0) * p + g.origin[0]
        yc = (np.arange(ny) - (ny - 1) / 2.0) * p + g.origin[1]
        sin_all = np.sin(geom.angles)
        cos_all = np.cos(geom.angles)
        y_dom = np.abs(cos_all) >= np.abs(sin_all)

        row_nnz = np.repeat(2 * np.where(y_dom, ny, nx), geom.n_det)
        nnz = int(row_nnz.sum())
        index_dtype, unsigned = ((np.int32, np.uint32) if max(nnz, g.n_pixels) < 2 ** 31
                                 else (np.int64, np.uint64))
        indptr = np.zeros(geom.n_rays + 1, dtype=index_dtype)
        np.cumsum(row_nnz, out=indptr[1:])
        indices = np.empty(nnz, dtype=index_dtype)
        data = np.empty(nnz)

        for a, (s, c, dominant_y) in enumerate(zip(sin_all, cos_all, y_dom)):
            if dominant_y:
                # one sample per pixel row, interpolated along x
                across, u, v, o, n_along, stride_along, stride_across = (
                    yc, s, c, g.origin[0], nx, 1, nx)
            else:
                across, u, v, o, n_along, stride_along, stride_across = (
                    xc, c, s, g.origin[1], ny, nx, 1)
            frac = t - across * u                      # (n_det, n_across)
            frac /= v
            if o != 0.0:                               # x - 0.0 and x / 1.0 are x
                frac -= o
            if p != 1.0:
                frac /= p
            frac += (n_along - 1) / 2.0
            step = p / abs(v)

            i = np.floor(frac)
            frac -= i                                  # upper neighbour's share
            # clip in floats so the cast cannot wrap; -2 and n_along stay off the grid
            i = np.clip(i, -2, n_along, out=i).astype(index_dtype)
            rows = np.arange(across.size, dtype=index_dtype) * stride_across

            lo, hi = indptr[a * geom.n_det], indptr[(a + 1) * geom.n_det]
            idx = indices[lo:hi].reshape(geom.n_det, across.size, 2)
            val = data[lo:hi].reshape(geom.n_det, across.size, 2)
            # neighbour k is pixel i + k; off the grid its weight is 0, so
            # eliminate_zeros drops the slot and its index is never read
            np.add(i * stride_along, rows, out=idx[..., 0])
            np.add(idx[..., 0], stride_along, out=idx[..., 1])
            for k, w in enumerate((1.0 - frac, frac)):
                w *= step
                # as unsigned, a negative index is huge: one test, both ends
                np.copyto(w, 0.0, where=(i + k).view(unsigned) >= n_along)
                val[..., k] = w

        shape = (geom.n_rays, g.n_pixels)
        W = sparse.csr_array((data, indices, indptr), shape=shape)
        W.eliminate_zeros()           # compacts in the fill buffers, in place
        # W's arrays are still views of buffers sized for every slot; shrink
        # the buffers in place to the nonzeros (a copy would briefly hold
        # two matrices) and wrap them again.  No view is left when they are
        # resized; refcheck would also count a trace hook's frame locals.
        nnz = W.nnz
        del W, idx, val
        indices.resize(nnz, refcheck=False)
        data.resize(nnz, refcheck=False)
        return sparse.csr_array((data, indices, indptr), shape=shape)
