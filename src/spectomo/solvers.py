"""Joint reconstruction and unmixing solvers.

The main solver alternates projected-gradient steps on the material maps
and the dictionary coefficients (one step per block per outer iteration,
step lengths by backtracking), with an optional running-sum-of-errors
feedback term controlled by ``rho``.  With ``rho = 0`` the feedback is off
and the objective decreases monotonically; ``rho > 0`` accelerates the
residual decay at the price of monotonicity.

Also here: the dictionary-free joint baseline (`cjoint`) and the two
sequential baselines `ru` (reconstruct each channel, then factorize the
volume) and `ur` (factorize the sinogram, then reconstruct each material).

All matrix products involving the tomographic operator go through
``op.forward`` / ``op.adjoint``, and predicted data is
always formed as ``(W A) @ (R @ T)`` so repeated evaluations of the same
iterate are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .projections import project_doubly_capped, project_material_map
from .spectral import SpectralDictionary
from .tomo import TomoOperator

SUFFICIENT_DECREASE = 1e-4
MAX_HALVINGS = 30


# ---------------------------------------------------------------------------
# objective and gradients
# ---------------------------------------------------------------------------

def objective(A: np.ndarray, R: np.ndarray, op: TomoOperator,
              T: np.ndarray, Y: np.ndarray) -> float:
    """Least-squares misfit ``0.5 * ||Y - W A R T||_F^2``."""
    T = _dict_matrix(T)
    Yhat = op.forward(A) @ (R @ T)
    return 0.5 * float(np.sum((Y - Yhat) ** 2))


def lagrangian_value(A, R, U, op, T, Y) -> float:
    """Misfit plus the running-sum-of-errors inner product."""
    T = _dict_matrix(T)
    E = Y - op.forward(A) @ (R @ T)
    return 0.5 * float(np.sum(E ** 2)) + float(np.vdot(U, E))


def grad_maps(A, R, U, op, T, Y) -> np.ndarray:
    """Gradient of :func:`lagrangian_value` with respect to the maps:
    ``W^T (W A R T - Y - U) T^T R^T``."""
    T = _dict_matrix(T)
    RT = R @ T
    E = op.forward(A) @ RT - Y - U
    return op.adjoint(E @ RT.T)


def grad_coeffs(A, R, U, op, T, Y) -> np.ndarray:
    """Gradient with respect to the coefficients:
    ``A^T W^T (W A R T - Y - U) T^T``."""
    T = _dict_matrix(T)
    WA = op.forward(A)
    E = WA @ (R @ T) - Y - U
    return WA.T @ E @ T.T


def _dict_matrix(T) -> np.ndarray:
    if isinstance(T, SpectralDictionary):
        return T.T
    return np.asarray(T, dtype=np.float64)


# ---------------------------------------------------------------------------
# backtracking line search
# ---------------------------------------------------------------------------

def backtracking(x: np.ndarray, grad: np.ndarray, project: Callable,
                 value_at: Callable, current_value: float, step0: float):
    """Largest step ``0.5**k * step0`` whose projected update decreases enough.

    Accepts the candidate ``proj(x - step * grad)`` once
    ``f(cand) <= f(x) - 1e-4 * ||cand - x||^2 / step``.  `value_at` returns
    ``(value, aux)`` so callers can keep by-products of the accepted
    evaluation.  If 30 halvings are exhausted the iterate is returned
    unchanged with step 0.

    The starting step is capped so the raw perturbation stays below an RMS
    of 10 per entry: the feasible sets here have unit-scale diameter, so
    projected candidates saturate far below that, and unbounded trial
    points only slow the projections down.

    Returns
    -------
    (x_new, step, value, aux)
    """
    if not step0 > 0:
        raise ValueError("step0 must be positive")
    grad_norm = float(np.linalg.norm(grad))
    step = step0
    if grad_norm > 0:
        step = min(step, 10.0 * np.sqrt(grad.size) / grad_norm)
    for _ in range(MAX_HALVINGS + 1):
        cand = project(x - step * grad)
        value, aux = value_at(cand)
        decrease = SUFFICIENT_DECREASE * float(np.sum((cand - x) ** 2)) / step
        if value <= current_value - decrease:
            return cand, step, value, aux
        step *= 0.5
    return x, 0.0, current_value, None


# ---------------------------------------------------------------------------
# accelerated alternating proximal scheme
# ---------------------------------------------------------------------------

@dataclass
class IterationRecord:
    iteration: int
    objective: float
    eps_abs: float
    eps_rel: float
    alpha: float
    beta: float


@dataclass
class AapmConfig:
    rho: float = 1e-2
    max_iter: int = 1000
    eps_abs_tol: float = 1e-4
    eps_rel_tol: float = 1e-6
    step0: float = 1.0
    seed: Optional[int] = None
    random_init: bool = False
    A0: Optional[np.ndarray] = None
    R0: Optional[np.ndarray] = None
    callback: Optional[Callable] = None

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class AapmResult:
    A: np.ndarray                     # material maps, feasible
    R: np.ndarray                     # dictionary coefficients, feasible
    U: np.ndarray                     # running sum of errors
    F: np.ndarray                     # recovered spectra R @ T
    history: list[IterationRecord]
    converged: bool
    n_iter: int
    step_failures: int


def aapm(op: TomoOperator, T, Y: np.ndarray, n_materials: int,
         config: AapmConfig | None = None) -> AapmResult:
    """Dictionary-constrained joint reconstruction and unmixing.

    Minimizes ``0.5 ||Y - W A R T||_F^2`` over maps ``A`` in the row-capped
    simplex and coefficients ``R`` in the doubly capped set, alternating a
    projected gradient step on ``R`` and then on ``A`` each iteration,
    followed by the running-sum-of-errors update ``U += rho (Y - W A R T)``
    (multiplier ascent on the data-consistency constraint).

    Stops when either the data residual ``||Y - W A R T|| / ||Y||`` falls
    below ``eps_abs_tol``, the iterate movement ``||dA|| + ||dR||`` falls
    below ``eps_rel_tol``, or `max_iter` is reached.

    Parameters
    ----------
    op : TomoOperator
    T : (D, C) array or SpectralDictionary
    Y : (J, C) array of log-corrected data
    n_materials : number of object materials (columns of A), <= D
    config : AapmConfig

    Returns
    -------
    AapmResult with feasible `A`, `R` and the per-iteration history.
    """
    cfg = config or AapmConfig()
    T = _dict_matrix(T)
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    D = T.shape[0]
    M = int(n_materials)
    if M < 1 or M > D:
        raise ValueError(f"need 1 <= n_materials <= {D}, got {M}")
    if Y.shape != (op.n_rays, T.shape[1]):
        raise ValueError(f"data must be {(op.n_rays, T.shape[1])}, got {Y.shape}")

    A, R = _initial_point(op.n_image, M, D, cfg)
    U = np.zeros_like(Y)
    WA = op.forward(A)
    norm_Y = float(np.linalg.norm(Y))
    alpha = beta = cfg.step0
    history: list[IterationRecord] = []
    step_failures = 0
    converged = False

    for k in range(1, cfg.max_iter + 1):
        # coefficient step at (A_k, R_k, U_k); WA is cached from the A step
        RT = R @ T
        E = Y - WA @ RT
        jt = 0.5 * float(np.sum(E ** 2)) + float(np.vdot(U, E))
        if not np.isfinite(jt):
            raise RuntimeError(
                f"non-finite objective at iteration {k}: {jt!r}; "
                "check the data scaling and step sizes")
        G_R = -(WA.T @ (E + U) @ T.T)

        def value_R(Rc):
            Ec = Y - WA @ (Rc @ T)
            return 0.5 * float(np.sum(Ec ** 2)) + float(np.vdot(U, Ec)), Ec

        R_new, a_step, jt, E = _tracked_backtracking(
            R, G_R, project_doubly_capped, value_R, jt, 2.0 * alpha, E)
        if a_step == 0.0:
            step_failures += 1
        elif not np.array_equal(R_new, R):
            # grow the memorized step only on real movement, otherwise a
            # stalled block would double it without bound
            alpha = a_step

        # map step at (A_k, R_{k+1}, U_k)
        RT = R_new @ T
        G_A = op.adjoint(-(E + U) @ RT.T)

        def value_A(Ac):
            WAc = op.forward(Ac)
            Ec = Y - WAc @ RT
            return (0.5 * float(np.sum(Ec ** 2)) + float(np.vdot(U, Ec)),
                    (WAc, Ec))

        A_new, b_step, jt, aux = _tracked_backtracking(
            A, G_A, project_material_map, value_A, jt, 2.0 * beta, (WA, E))
        WA, E = aux
        if b_step == 0.0:
            step_failures += 1
        elif not np.array_equal(A_new, A):
            beta = b_step

        # error feedback and bookkeeping; E = Y - W A R T at the new iterate.
        # Ascent on the multiplier of the data-consistency constraint: the
        # accumulated under-fit is fed back into the data term, which is
        # what accelerates the residual decay.  (The opposite sign winds up
        # and collapses the iterates; see the gradient convention in
        # lagrangian_value.)
        U = U + cfg.rho * E
        # same float chain as objective(): 0.5 * sum(E^2), so an external
        # recomputation at the stored iterate reproduces the record exactly
        obj = 0.5 * float(np.sum(E ** 2))
        resid = np.sqrt(2.0 * obj)
        record = IterationRecord(
            iteration=k,
            objective=obj,
            eps_abs=resid / norm_Y if norm_Y > 0 else (0.0 if resid == 0 else np.inf),
            eps_rel=float(np.linalg.norm(A_new - A) + np.linalg.norm(R_new - R)),
            alpha=a_step,
            beta=b_step,
        )
        history.append(record)
        A, R = A_new, R_new
        if cfg.callback is not None:
            cfg.callback(k, A, R, record)
        if record.eps_abs <= cfg.eps_abs_tol or record.eps_rel <= cfg.eps_rel_tol:
            converged = True
            break

    return AapmResult(A=A, R=R, U=U, F=R @ T, history=history,
                      converged=converged, n_iter=len(history),
                      step_failures=step_failures)


def _tracked_backtracking(x, grad, project, value_at, current, step0, current_aux):
    """Backtracking that falls back to the current iterate's auxiliaries."""
    x_new, step, value, aux = backtracking(x, grad, project, value_at,
                                           current, step0)
    if step == 0.0:
        return x, 0.0, current, current_aux
    return x_new, step, value, aux


def _initial_point(N, M, D, cfg: AapmConfig):
    if cfg.A0 is not None or cfg.R0 is not None:
        if cfg.A0 is None or cfg.R0 is None:
            raise ValueError("provide both A0 and R0 or neither")
        A = project_material_map(np.asarray(cfg.A0, dtype=np.float64))
        R = project_doubly_capped(np.asarray(cfg.R0, dtype=np.float64))
        return A, R
    if cfg.random_init:
        rng = np.random.default_rng(cfg.seed)
        A = project_material_map(rng.uniform(0.0, 1.0, (N, M)))
        R = project_doubly_capped(rng.uniform(0.0, 1.0, (M, D)))
        return A, R
    A = np.full((N, M), 1.0 / (2 * M))
    R = project_doubly_capped(np.full((M, D), 1.0 / (2 * D)))
    return A, R


# ---------------------------------------------------------------------------
# dictionary-free joint baseline
# ---------------------------------------------------------------------------

@dataclass
class CjointConfig:
    max_iter: int = 2000
    tol: float = 1e-4                 # relative residual ||Y - W A F|| / ||Y||
    step0: float = 1.0
    callback: Optional[Callable] = None


@dataclass
class FactorResult:
    A: np.ndarray
    F: np.ndarray
    history: list[IterationRecord]
    converged: bool
    n_iter: int


def cjoint(op: TomoOperator, Y: np.ndarray, n_materials: int,
           config: CjointConfig | None = None) -> FactorResult:
    """Alternating projected-gradient minimization of
    ``0.5 ||Y - W A F||_F^2`` under nonnegativity of both factors."""
    cfg = config or CjointConfig()
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    M = int(n_materials)
    if M < 1:
        raise ValueError("n_materials must be >= 1")
    N, C = op.n_image, Y.shape[1]
    if Y.shape[0] != op.n_rays:
        raise ValueError(f"data must have {op.n_rays} rays, got {Y.shape[0]}")

    clip = lambda X: np.maximum(X, 0.0)
    A = np.full((N, M), 1.0 / (2 * M))
    WA = op.forward(A)
    # scale-matched flat start for F: least-squares optimal constant
    rs = WA.sum(axis=1)
    denom = C * float(np.sum(rs ** 2))
    scale = max(float(rs @ Y.sum(axis=1)) / denom, 0.0) if denom > 0 else 0.0
    F = np.full((M, C), scale)

    norm_Y = float(np.linalg.norm(Y))
    alpha = beta = cfg.step0
    history: list[IterationRecord] = []
    converged = False

    for k in range(1, cfg.max_iter + 1):
        E = Y - WA @ F
        j_cur = 0.5 * float(np.sum(E ** 2))
        if not np.isfinite(j_cur):
            raise RuntimeError(f"non-finite objective at iteration {k}")
        G_F = -(WA.T @ E)

        def value_F(Fc):
            Ec = Y - WA @ Fc
            return 0.5 * float(np.sum(Ec ** 2)), Ec

        F_new, a_step, j_cur, E = _tracked_backtracking(
            F, G_F, clip, value_F, j_cur, 2.0 * alpha, E)
        if a_step > 0 and not np.array_equal(F_new, F):
            alpha = a_step

        G_A = op.adjoint(-(E @ F_new.T))

        def value_A(Ac):
            WAc = op.forward(Ac)
            Ec = Y - WAc @ F_new
            return 0.5 * float(np.sum(Ec ** 2)), (WAc, Ec)

        A_new, b_step, j_cur, aux = _tracked_backtracking(
            A, G_A, clip, value_A, j_cur, 2.0 * beta, (WA, E))
        WA, E = aux
        if b_step > 0 and not np.array_equal(A_new, A):
            beta = b_step

        obj = 0.5 * float(np.sum(E ** 2))
        resid = np.sqrt(2.0 * obj)
        record = IterationRecord(
            iteration=k, objective=obj,
            eps_abs=resid / norm_Y if norm_Y > 0 else (0.0 if resid == 0 else np.inf),
            eps_rel=float(np.linalg.norm(A_new - A) + np.linalg.norm(F_new - F)),
            alpha=a_step, beta=b_step)
        history.append(record)
        A, F = A_new, F_new
        if cfg.callback is not None:
            cfg.callback(k, A, F, record)
        if record.eps_abs <= cfg.tol:
            converged = True
            break

    A, F = _normalize_factor_scale(A, F)
    return FactorResult(A=A, F=F, history=history, converged=converged,
                        n_iter=len(history))


def _normalize_factor_scale(A, F):
    """Fix the factorization's scale freedom: unit-max map columns."""
    A = A.copy()
    F = F.copy()
    for m in range(A.shape[1]):
        peak = A[:, m].max()
        if peak > 0:
            A[:, m] /= peak
            F[m, :] *= peak
    return A, F


# ---------------------------------------------------------------------------
# sequential baselines
# ---------------------------------------------------------------------------

@dataclass
class TwoStepConfig:
    tikhonov_lambda: float = 1e-3
    cg_max_iter: int = 20
    cg_tol: float = 1e-6
    nmf_iters: int = 100
    nmf_restarts: int = 10
    seed: int = 0


def tikhonov_cg(op: TomoOperator, B: np.ndarray, lam: float,
                max_iter: int, tol: float) -> np.ndarray:
    """Solve ``(W^T W + lam I) X = W^T B`` column-wise by conjugate gradients.

    Columns stop updating once their residual drops below ``tol * ||rhs||``.
    """
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    rhs = op.adjoint(B)
    X = np.zeros_like(rhs)
    res = rhs.copy()
    P = res.copy()
    rs = np.sum(res ** 2, axis=0)
    threshold = tol * np.sqrt(np.sum(rhs ** 2, axis=0))
    for _ in range(max_iter):
        active = np.sqrt(rs) > threshold
        if not active.any():
            break
        Q = op.adjoint(op.forward(P)) + lam * P
        pq = np.sum(P * Q, axis=0)
        ok = active & (pq > 0)
        step = np.where(ok, rs / np.where(pq > 0, pq, 1.0), 0.0)
        X += step * P
        res -= step * Q
        rs_new = np.sum(res ** 2, axis=0)
        ratio = np.where(ok, rs_new / np.where(rs > 0, rs, 1.0), 0.0)
        P = res + ratio * P
        rs = rs_new
    return X


def nmf_als(V: np.ndarray, n_components: int, n_iter: int = 100,
            restarts: int = 10, seed: int = 0):
    """Nonnegative factorization ``V ~ A F`` by alternating least squares.

    Each half-step solves the unconstrained least-squares problem and clips
    at zero.  The factorization is nonconvex, so the best of `restarts`
    seeded random initializations is kept.

    Returns
    -------
    (A, F, best_objective) with A (n, k), F (k, m).
    """
    V = np.atleast_2d(np.asarray(V, dtype=np.float64))
    n, m = V.shape
    k = int(n_components)
    best = None
    for child in np.random.SeedSequence(seed).spawn(max(restarts, 1)):
        rng = np.random.default_rng(child)
        scale = np.sqrt(max(V.mean(), 1e-12) / k)
        A = rng.uniform(0.0, 1.0, (n, k)) * scale
        F = rng.uniform(0.0, 1.0, (k, m)) * scale
        for _ in range(n_iter):
            F = np.maximum(np.linalg.lstsq(A, V, rcond=None)[0], 0.0)
            A = np.maximum(np.linalg.lstsq(F.T, V.T, rcond=None)[0].T, 0.0)
        obj = float(np.sum((V - A @ F) ** 2))
        if best is None or obj < best[2]:
            best = (A, F, obj)
    return best


@dataclass
class TwoStepResult:
    A: np.ndarray
    F: np.ndarray
    intermediate: np.ndarray          # spectral volume (ru) or material sinogram (ur)


def ru(op: TomoOperator, Y: np.ndarray, n_materials: int,
       config: TwoStepConfig | None = None) -> TwoStepResult:
    """Reconstruct-then-unmix: per-channel regularized reconstruction of
    the spectral volume, then nonnegative factorization into maps and
    spectra."""
    cfg = config or TwoStepConfig()
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    V = np.maximum(tikhonov_cg(op, Y, cfg.tikhonov_lambda,
                               cfg.cg_max_iter, cfg.cg_tol), 0.0)
    A, F, _ = nmf_als(V, n_materials, cfg.nmf_iters, cfg.nmf_restarts, cfg.seed)
    A, F = _normalize_factor_scale(A, F)
    return TwoStepResult(A=A, F=F, intermediate=V)


def ur(op: TomoOperator, Y: np.ndarray, n_materials: int,
       config: TwoStepConfig | None = None) -> TwoStepResult:
    """Unmix-then-reconstruct: factorize the sinogram into per-material
    projections and spectra, then reconstruct each material map."""
    cfg = config or TwoStepConfig()
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    P, F, _ = nmf_als(Y, n_materials, cfg.nmf_iters, cfg.nmf_restarts, cfg.seed)
    A = np.maximum(tikhonov_cg(op, P, cfg.tikhonov_lambda,
                               cfg.cg_max_iter, cfg.cg_tol), 0.0)
    A, F = _normalize_factor_scale(A, F)
    return TwoStepResult(A=A, F=F, intermediate=P)
