"""Independent reference implementations used as test oracles.

Everything here is written as plainly as possible (scalar loops, explicit
enumeration) and shares no code with the package internals, so agreement
between the two is meaningful.
"""

from __future__ import annotations

import itertools

import numpy as np


def dense_reference_projector(grid, geometry) -> np.ndarray:
    """Dense ray-driven bilinear projection matrix, one ray at a time."""
    nx, ny, p = grid.nx, grid.ny, grid.pixel_size
    ox, oy = grid.origin
    W = np.zeros((geometry.n_rays, grid.n_pixels))
    dets = geometry.det_centers()
    for a, theta in enumerate(geometry.angles):
        s, c = np.sin(theta), np.cos(theta)
        for kdet, t in enumerate(dets):
            j = a * geometry.n_det + kdet
            if abs(c) >= abs(s):
                length = p / abs(c)
                for iy in range(ny):
                    y = (iy - (ny - 1) / 2.0) * p + oy
                    x = (t - y * s) / c
                    u = (x - ox) / p + (nx - 1) / 2.0
                    i0 = int(np.floor(u))
                    f = u - i0
                    if 0 <= i0 < nx:
                        W[j, iy * nx + i0] += (1.0 - f) * length
                    if 0 <= i0 + 1 < nx:
                        W[j, iy * nx + i0 + 1] += f * length
            else:
                length = p / abs(s)
                for ix in range(nx):
                    x = (ix - (nx - 1) / 2.0) * p + ox
                    y = (t - x * c) / s
                    u = (y - oy) / p + (ny - 1) / 2.0
                    i0 = int(np.floor(u))
                    f = u - i0
                    if 0 <= i0 < ny:
                        W[j, i0 * nx + ix] += (1.0 - f) * length
                    if 0 <= i0 + 1 < ny:
                        W[j, (i0 + 1) * nx + ix] += f * length
    return W


def siddon_row(grid, theta: float, t: float) -> np.ndarray:
    """Exact ray/pixel intersection lengths (parametric plane crossings)."""
    nx, ny, p = grid.nx, grid.ny, grid.pixel_size
    ox, oy = grid.origin
    d = np.array([-np.sin(theta), np.cos(theta)])
    start = t * np.array([np.cos(theta), np.sin(theta)])
    x_edges = ox + (np.arange(nx + 1) - nx / 2.0) * p
    y_edges = oy + (np.arange(ny + 1) - ny / 2.0) * p

    crossings = []
    if abs(d[0]) > 1e-15:
        crossings.append((x_edges - start[0]) / d[0])
    if abs(d[1]) > 1e-15:
        crossings.append((y_edges - start[1]) / d[1])
    svals = np.unique(np.concatenate(crossings))

    row = np.zeros(grid.n_pixels)
    for s0, s1 in zip(svals[:-1], svals[1:]):
        if s1 <= s0:
            continue
        mid = start + d * (s0 + s1) / 2.0
        ix = int(np.floor((mid[0] - ox) / p + nx / 2.0))
        iy = int(np.floor((mid[1] - oy) / p + ny / 2.0))
        if 0 <= ix < nx and 0 <= iy < ny:
            row[iy * nx + ix] += s1 - s0
    return row


def kkt_capped_simplex(z: np.ndarray) -> np.ndarray:
    """Projection onto {x >= 0, sum(x) <= 1} by enumerating KKT patterns."""
    z = np.asarray(z, dtype=np.float64)
    m = z.size
    candidates = []

    x = np.maximum(z, 0.0)
    if x.sum() <= 1.0 + 1e-14:
        candidates.append(x)

    for r in range(1, m + 1):
        for support in itertools.combinations(range(m), r):
            support = list(support)
            lam = (z[support].sum() - 1.0) / len(support)
            if lam < -1e-14:
                continue
            x = np.zeros(m)
            x[support] = z[support] - lam
            if np.any(x[support] < -1e-14):
                continue
            off = [i for i in range(m) if i not in support]
            if off and np.any(z[off] - lam > 1e-14):
                continue
            candidates.append(np.maximum(x, 0.0))

    dists = [np.sum((x - z) ** 2) for x in candidates]
    return candidates[int(np.argmin(dists))]


def _rows_capped(Z):
    return np.vstack([kkt_capped_simplex(row) for row in Z])


def dykstra_doubly_capped(Z: np.ndarray, n_iter: int = 4000,
                          tol: float = 1e-13) -> np.ndarray:
    """Projection onto {X >= 0, row sums <= 1, col sums <= 1} by Dykstra's
    alternating scheme with KKT-enumerated half-projections.

    Stops on the change of the correction terms, not of the iterate: the
    iterate can sit still for a few rounds while corrections build up.
    """
    Z = np.asarray(Z, dtype=np.float64)
    x = Z.copy()
    p = np.zeros_like(Z)
    q = np.zeros_like(Z)
    for _ in range(n_iter):
        y = _rows_capped(x + p)
        p_new = x + p - y
        x = _rows_capped((y + q).T).T
        q_new = y + q - x
        change = np.sqrt(np.sum((p_new - p) ** 2) + np.sum((q_new - q) ** 2))
        p, q = p_new, q_new
        if change <= tol:
            return x
    return x


def greedy_column_selection(T: np.ndarray, k: int) -> list[int]:
    """Greedy max-residual-norm column picking via explicit Gram-Schmidt."""
    R = np.array(T, dtype=np.float64)
    order = []
    for _ in range(k):
        norms = np.linalg.norm(R, axis=0)
        j = int(np.argmax(norms))
        order.append(j)
        if norms[j] > 0:
            u = R[:, j] / norms[j]
            R = R - np.outer(u, u @ R)
        R[:, j] = 0.0
    return order


def greedy_match_bruteforce(err: np.ndarray) -> list[tuple[int, int]]:
    """Greedy minimum matching by explicit scanning, smallest (i, j) ties."""
    m = err.shape[0]
    rows, cols = set(range(m)), set(range(m))
    pairs = []
    for _ in range(m):
        best, best_pair = np.inf, None
        for i in sorted(rows):
            for j in sorted(cols):
                if err[i, j] < best:
                    best, best_pair = err[i, j], (i, j)
        pairs.append(best_pair)
        rows.discard(best_pair[0])
        cols.discard(best_pair[1])
    return pairs


def central_diff_grad(f, X: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a matrix."""
    G = np.zeros_like(X, dtype=np.float64)
    it = np.nditer(X, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        Xp = X.copy()
        Xm = X.copy()
        Xp[idx] += h
        Xm[idx] -= h
        G[idx] = (f(Xp) - f(Xm)) / (2.0 * h)
    return G


def clipped_lstsq(B: np.ndarray, V: np.ndarray) -> np.ndarray:
    """One clipped alternating-least-squares half-step by an SVD solve on
    the tall factor itself: ``max(lstsq(B, V), 0)``."""
    return np.maximum(np.linalg.lstsq(B, V, rcond=None)[0], 0.0)


def interp_oracle(x: float, xs: np.ndarray, ys: np.ndarray) -> float:
    """Piecewise-linear evaluation by explicit bracket search."""
    if x <= xs[0]:
        return float(ys[0])
    if x >= xs[-1]:
        return float(ys[-1])
    for i in range(len(xs) - 1):
        if xs[i] <= x <= xs[i + 1]:
            w = (x - xs[i]) / (xs[i + 1] - xs[i])
            return float((1 - w) * ys[i] + w * ys[i + 1])
    raise AssertionError("bracket not found")
