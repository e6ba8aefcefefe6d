"""Correctness checks on the benchmark's outputs.

Every check tests a property the method must have, or compares against a
computation written here apart from the package (a per-ray projector loop,
the global SSIM formula); none compares against stored output.  Each
function returns a list of failure messages, empty when the check passes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from spectomo.data_io import load_matrix as _load

FEASIBILITY_TOL = 1e-9
_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2


def _history(method_dir: Path) -> np.ndarray:
    """Objective column of `history.csv`."""
    lines = (method_dir / "history.csv").read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",").index("objective")
    return np.array([float(line.split(",")[column]) for line in lines[1:]])


def ray_row(grid, geometry, ray: int) -> np.ndarray:
    """One row of the projection matrix, one pixel line at a time.

    Joseph sampling as the package documents it: the ray at angle theta and
    detector offset t is sampled once per pixel row (or column, whichever
    axis it is closer to), interpolating linearly between the two nearest
    pixel centres, each sample weighted by the path length per line.
    """
    nx, ny, p = grid.nx, grid.ny, grid.pixel_size
    theta = geometry.angles[ray // geometry.n_det]
    t = (ray % geometry.n_det - (geometry.n_det - 1) / 2.0) * geometry.det_spacing
    s, c = np.sin(theta), np.cos(theta)
    row = np.zeros(grid.n_pixels)
    along_x = abs(c) >= abs(s)
    n_lines, n_along = (ny, nx) if along_x else (nx, ny)
    for line in range(n_lines):
        if along_x:
            y = (line - (ny - 1) / 2.0) * p + grid.origin[1]
            u = ((t - y * s) / c - grid.origin[0]) / p + (nx - 1) / 2.0
            weight = p / abs(c)
        else:
            x = (line - (nx - 1) / 2.0) * p + grid.origin[0]
            u = ((t - x * c) / s - grid.origin[1]) / p + (ny - 1) / 2.0
            weight = p / abs(s)
        lo = int(np.floor(u))
        for pos, w in ((lo, 1.0 - (u - lo)), (lo + 1, u - lo)):
            if 0 <= pos < n_along:
                pixel = line * nx + pos if along_x else pos * nx + line
                row[pixel] += w * weight
    return row


def check_operator(op, rng: np.random.Generator, n_rays: int = 6) -> list[str]:
    """Dot-product test and a few rays against the per-ray loop."""
    failures = []
    x = rng.standard_normal((op.n_image, 3))
    y = rng.standard_normal((op.n_rays, 3))
    lhs = float(np.vdot(op.forward(x), y))
    rhs = float(np.vdot(x, op.adjoint(y)))
    if abs(lhs - rhs) > 1e-10 * max(abs(lhs), abs(rhs)):
        failures.append(f"dot-product test: <Wx,y>={lhs!r} vs <x,W^T y>={rhs!r}")

    rays = np.linspace(0, op.n_rays - 1, n_rays).round().astype(int)
    probes = np.zeros((op.n_rays, rays.size))
    probes[rays, np.arange(rays.size)] = 1.0
    rows = op.adjoint(probes)
    for k, ray in enumerate(rays):
        error = np.max(np.abs(rows[:, k] - ray_row(op.grid, op.geometry, ray)))
        if error > 1e-10:
            failures.append(f"ray {ray}: projector row differs by {error:.3e}")
    return failures


def check_adjust(run_dir: Path, method_dir: Path, op) -> list[str]:
    """Feasible maps and coefficients, spectra = coefficients @ dictionary,
    and the last recorded objective equal to 0.5 ||Y - W A R T||^2."""
    failures = []
    A = _load(method_dir / "maps.adjm")
    R = _load(method_dir / "coeffs.adjm")
    F = _load(method_dir / "spectra.adjm")
    T = _load(run_dir / "dictionary.adjm")
    Y = _load(run_dir / "sinogram.adjm")
    if A.min() < -FEASIBILITY_TOL or A.sum(axis=1).max() > 1 + FEASIBILITY_TOL:
        failures.append("adjust: maps leave the row-capped simplex")
    if (R.min() < -FEASIBILITY_TOL or R.sum(axis=1).max() > 1 + FEASIBILITY_TOL
            or R.sum(axis=0).max() > 1 + FEASIBILITY_TOL):
        failures.append("adjust: coefficients leave the doubly capped set")
    if not np.allclose(F, R @ T, rtol=1e-12, atol=1e-15):
        failures.append("adjust: saved spectra differ from coefficients @ dictionary")
    recorded = _history(method_dir)[-1]
    recomputed = 0.5 * float(np.sum((Y - op.forward(A) @ (R @ T)) ** 2))
    if abs(recorded - recomputed) > 1e-9 * recomputed:
        failures.append(f"adjust: last history objective {recorded!r} != "
                        f"recomputed {recomputed!r}")
    return failures


def check_cjoint(method_dir: Path) -> list[str]:
    """Without a feedback term the objective never increases."""
    obj = _history(method_dir)
    rises = np.flatnonzero(obj[1:] > obj[:-1])
    if rises.size:
        k = int(rises[0])
        return [f"cjoint: objective rises at iteration {k + 2}: "
                f"{obj[k]!r} -> {obj[k + 1]!r}"]
    return []


def check_two_step(method: str, method_dir: Path) -> list[str]:
    """Finite, non-negative maps and spectra."""
    failures = []
    for name in ("maps.adjm", "spectra.adjm"):
        X = _load(method_dir / name)
        if not np.all(np.isfinite(X)) or X.min() < 0:
            failures.append(f"{method}: {name} is not finite and non-negative")
    return failures


def ssim(x: np.ndarray, y: np.ndarray) -> float:
    """Global SSIM: whole-image means, variances and covariance."""
    mx, my = x.mean(), y.mean()
    cov = np.mean((x - mx) * (y - my))
    return float((2 * mx * my + _SSIM_C1) * (2 * cov + _SSIM_C2)
                 / ((mx * mx + my * my + _SSIM_C1)
                    * (x.var() + y.var() + _SSIM_C2)))


def check_report(run_dir: Path, method_dir: Path) -> tuple[list[str], float]:
    """Matched pairs form a permutation and their SSIM agrees with the
    formula above.  Returns the failures and the recomputed mean SSIM."""
    failures = []
    report = json.loads((method_dir / "report.json").read_text(encoding="utf-8"))
    A_rec = _load(method_dir / "maps.adjm")
    A_gt = _load(run_dir / "ground_truth.adjm")
    pairs = report["pairs"]
    m = A_gt.shape[1]
    if (sorted(i for i, _ in pairs) != list(range(m))
            or sorted(j for _, j in pairs) != list(range(m))):
        failures.append(f"{report['method']}: matched pairs {pairs} are not a permutation")
        return failures, float("nan")
    values = [ssim(A_rec[:, i], A_gt[:, j]) for i, j in pairs]
    if not np.allclose(values, report["ssim"], rtol=0, atol=1e-9):
        failures.append(f"{report['method']}: reported SSIM {report['ssim']} != "
                        f"recomputed {values}")
    return failures, float(np.mean(values))
