"""Joint reconstruction and unmixing solvers.

The main solver `aapm` alternates projected-gradient steps on the
dictionary coefficients and the material maps (one step per block per outer
iteration, step lengths by backtracking).  With ``rho > 0`` the steps fit
the shifted data ``Y + U``, where the running sum of errors ``U`` gains
``rho`` times the residual each iteration; this speeds the residual decay
but gives up monotonicity, which ``rho = 0`` (fitting ``Y`` itself) keeps.
The dictionary-free joint baseline `cjoint` is the same loop with T = I,
rho = 0 and clipping at zero as both projections.  Also here: the two
sequential baselines `ru` (reconstruct each channel, then factorize the
volume) and `ur` (factorize the sinogram, then reconstruct each material).

All matrix products involving the tomographic operator go through
``op.forward`` / ``op.adjoint``, and predicted data is always formed as
``(W A) @ (R @ T)`` so repeated evaluations of the same iterate are
bit-identical.  Besides the data ``Y``, the loop holds one data-sized
array at ``rho = 0``, the residual, and three at ``rho > 0``: ``U``, the
shifted data and the residual.  Every line-search trial forms its
prediction and residual in the residual's buffer, so a search that finds no
step forms the residual again at the unchanged iterate.  At ``rho = 0``
`aapm` makes its result's all-zero ``U`` after the loop, and `cjoint` makes
none.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .projections import project_doubly_capped, project_material_map
from .tomo import TomoOperator

SUFFICIENT_DECREASE = 1e-4
MAX_HALVINGS = 30


# ---------------------------------------------------------------------------
# objective and gradients
# ---------------------------------------------------------------------------

def objective(A: np.ndarray, R: np.ndarray, op: TomoOperator,
              T: np.ndarray, Y: np.ndarray) -> float:
    """Least-squares misfit ``0.5 * ||Y - W A R T||_F^2``."""
    T = np.asarray(T, dtype=np.float64)
    return _misfit(_residual(op.forward(A), R @ T, Y))


def lagrangian_value(A, R, U, op, T, Y) -> float:
    """Misfit plus the running-sum-of-errors inner product ``<U, E>``."""
    T = np.asarray(T, dtype=np.float64)
    E = _residual(op.forward(A), R @ T, Y)
    return _misfit(E) + float(np.vdot(U, E))


def grad_maps(A, R, U, op, T, Y) -> np.ndarray:
    """Gradient of :func:`lagrangian_value` with respect to the maps:
    ``W^T (W A R T - Y - U) T^T R^T``."""
    RT = R @ np.asarray(T, dtype=np.float64)
    return _grad_maps(op, _residual(op.forward(A), RT, Y + U), RT)


def grad_coeffs(A, R, U, op, T, Y) -> np.ndarray:
    """Gradient with respect to the coefficients:
    ``A^T W^T (W A R T - Y - U) T^T``."""
    T = np.asarray(T, dtype=np.float64)
    WA = op.forward(A)
    return _grad_coeffs(WA, _residual(WA, R @ T, Y + U), T)


# 0.5 ||E||^2 + <U, E> = 0.5 ||Y + U - W A R T||^2 - 0.5 ||U||^2, so the solver
# fits Y + U.  It keeps WA = W A and that residual to repeat no projector call.

def _residual(WA, RT, data, out=None) -> np.ndarray:
    """``data - WA @ RT``, formed in `out` if it is given."""
    E = np.matmul(WA, RT, out=out)
    return np.subtract(data, E, out=E)


def _misfit(E) -> float:
    return 0.5 * float(np.vdot(E, E))


def _grad_coeffs(WA, E, T) -> np.ndarray:
    return -(WA.T @ E @ T.T)


def _grad_maps(op, E, RT) -> np.ndarray:
    return op.adjoint(-(E @ RT.T))


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
        move = cand - x
        decrease = SUFFICIENT_DECREASE * float(np.vdot(move, move)) / step
        if value <= current_value - decrease:
            return cand, step, value, aux
        aux = None                    # free the rejected trial's by-products
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
class FactorResult:
    """What a solve returns: the factors of ``Y ~ W A F``; for `aapm` the
    dictionary coefficients `R` (``F = R @ T``) and the running sum of
    errors `U`; for the alternating solvers the per-iteration history, why
    the loop stopped and how many line searches found no step.  The two-step
    baselines have no loop, so their history is empty and the rest None.
    `stop_reason` is ``residual`` (the data residual reached its tolerance),
    ``stationary`` (the iterate moved less than its tolerance and no line
    search failed), ``stalled`` (both line searches failed, so nothing
    moved) or ``max_iter``."""
    A: np.ndarray
    F: np.ndarray
    R: Optional[np.ndarray] = None
    U: Optional[np.ndarray] = None
    history: list[IterationRecord] = field(default_factory=list)
    stop_reason: Optional[str] = None
    step_failures: Optional[int] = None

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("residual", "stationary")

    @property
    def n_iter(self) -> int:
        return len(self.history)


def _alternating_pg(op, T, Y, A, X, project_A, project_X, rho, max_iter,
                    eps_abs_tol, eps_rel_tol, callback) -> FactorResult:
    """The loop of `aapm` and `cjoint` (`aapm` gives the stopping rule); its
    result holds the coefficient block `X` as `R`, ``X @ T`` as `F`, and
    ``U = None`` at ``rho = 0``."""
    U = np.zeros_like(Y) if rho else None
    Yk = Y.copy() if rho else Y       # the shifted data Y + U, updated in place
    E = np.empty(Y.shape)             # the one residual buffer

    def value(WAc, RTc):
        """Misfit of the trial ``(WAc, RTc)``; its residual overwrites `E`."""
        return _misfit(_residual(WAc, RTc, Yk, out=E)), WAc

    RT = X @ T
    jt, WA = value(op.forward(A), RT)

    def step(x, grad, project, value_at, memory):
        """One block's backtracking from twice its memorized step; the
        accepted trial's `WA` replaces the loop's.  Returns the new block,
        the accepted step (0 if none) and the new memory."""
        nonlocal jt, WA
        x_new, t, jt, WA_new = backtracking(x, grad, project, value_at, jt,
                                            2.0 * memory)
        if t > 0.0:
            WA = WA_new
            # grow the memorized step only on real movement, otherwise a
            # stalled block would double it without bound
            if not np.array_equal(x_new, x):
                memory = t
        else:                         # the rejected trials overwrote E: form
            value(WA, RT)             # it again at the unchanged iterate
        return x_new, t, memory

    norm_Y = float(np.linalg.norm(Y))
    alpha = beta = 1.0                # both blocks' step memories
    history: list[IterationRecord] = []
    step_failures = 0
    stop_reason = None

    while stop_reason is None:
        k = len(history) + 1
        # X step at (A_k, X_k, U_k); WA, E and jt are kept from the A step
        if not np.isfinite(jt):
            raise RuntimeError(f"non-finite objective at iteration {k}: {jt!r}; "
                               "check the data scaling and step sizes")
        X_new, a_step, alpha = step(X, _grad_coeffs(WA, E, T), project_X,
                                    lambda Xc: value(WA, Xc @ T), alpha)
        # A step at (A_k, X_{k+1}, U_k)
        RT = X_new @ T
        A_new, b_step, beta = step(A, _grad_maps(op, E, RT), project_A,
                                   lambda Ac: value(op.forward(Ac), RT), beta)
        failed = int(a_step == 0.0) + int(b_step == 0.0)
        step_failures += failed

        # error feedback, ascent on the multiplier of the data constraint: adding
        # the accumulated under-fit back to the data accelerates the residual
        # decay (the opposite sign winds up and collapses the iterates)
        obj = jt                      # objective() at the new iterate, exactly
        if rho:
            # the true residual at the new iterate
            obj = _misfit(_residual(WA, RT, Y, out=E))
            E *= rho
            U += E
            np.add(Y, U, out=Yk)
            # formed again, not updated, so that a trial which leaves the
            # iterate as it is reproduces jt exactly and is accepted
            jt, _ = value(WA, RT)
        resid = np.sqrt(2.0 * obj)
        record = IterationRecord(
            iteration=k, objective=obj,
            eps_abs=resid / norm_Y if norm_Y > 0 else (0.0 if resid == 0 else np.inf),
            eps_rel=float(np.linalg.norm(A_new - A) + np.linalg.norm(X_new - X)),
            alpha=a_step, beta=b_step)
        history.append(record)
        A, X = A_new, X_new
        if callback is not None:
            callback(k, A, X, record)
        if record.eps_abs <= eps_abs_tol:
            stop_reason = "residual"
        elif not failed and record.eps_rel <= eps_rel_tol:
            stop_reason = "stationary"
        elif failed == 2:
            stop_reason = "stalled"
        elif k >= max_iter:
            stop_reason = "max_iter"
    return FactorResult(A=A, F=X @ T, R=X, U=U, history=history,
                        stop_reason=stop_reason, step_failures=step_failures)


@dataclass
class AapmConfig:
    rho: float = 1e-2
    max_iter: int = 1000
    eps_abs_tol: float = 1e-4
    eps_rel_tol: float = 1e-6
    seed: int = 0
    random_init: bool = True          # kept for the configs that set it
    callback: Optional[Callable] = None

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if not self.random_init:
            raise ValueError("random_init must be true: a flat start keeps "
                             "every material map identical")
        _check_settings(self, ("max_iter",), ("eps_abs_tol", "eps_rel_tol"))


def aapm(op: TomoOperator, T, Y: np.ndarray, n_materials: int,
         config: AapmConfig | None = None) -> FactorResult:
    """Dictionary-constrained joint reconstruction and unmixing.

    Minimizes ``0.5 ||Y - W A R T||_F^2`` over maps ``A`` in the row-capped
    simplex and coefficients ``R`` in the doubly capped set from a start
    drawn with ``config.seed``, alternating a projected gradient step on
    ``R`` and then on ``A`` on the shifted data ``Y + U``; the running sum
    of errors ``U`` starts at zero and grows by ``rho (Y - W A R T)`` after
    each iteration (multiplier ascent).

    Stops when either the data residual ``||Y - W A R T|| / ||Y||`` falls
    below ``eps_abs_tol`` (stop reason ``residual``), the iterate movement
    ``||dA|| + ||dR||`` falls below ``eps_rel_tol`` in an iteration where no
    line search failed (``stationary``), or `max_iter` is reached
    (``max_iter``).  An iteration in which both line searches fail moves
    nothing, so the run stops there (``stalled``); only the first two count
    as converged.

    Parameters
    ----------
    op : TomoOperator
    T : (D, C) dictionary array
    Y : (J, C) array of log-corrected data
    n_materials : number of object materials (columns of A), <= D
    config : AapmConfig

    Returns
    -------
    FactorResult with feasible `A`, `R`, the per-iteration history and the
    stop reason.
    """
    cfg = config or AapmConfig()
    T = np.asarray(T, dtype=np.float64)
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    D = T.shape[0]
    M = int(n_materials)
    if M < 1 or M > D:
        raise ValueError(f"need 1 <= n_materials <= {D}, got {M}")
    if Y.shape != (op.n_rays, T.shape[1]):
        raise ValueError(f"data must be {(op.n_rays, T.shape[1])}, got {Y.shape}")

    A, R = _initial_point(op.n_image, M, D, cfg.seed)
    run = _alternating_pg(
        op, T, Y, A, R, project_material_map, project_doubly_capped,
        cfg.rho, cfg.max_iter, cfg.eps_abs_tol, cfg.eps_rel_tol, cfg.callback)
    if run.U is None:                 # rho = 0 kept no running sum
        run.U = np.zeros_like(Y)
    return run


def _initial_point(N, M, D, seed):
    """Seeded uniform draws, projected onto each block's feasible set: a
    start with identical map columns keeps them identical."""
    rng = np.random.default_rng(seed)
    A = project_material_map(rng.uniform(0.0, 1.0, (N, M)))
    R = project_doubly_capped(rng.uniform(0.0, 1.0, (M, D)))
    return A, R


# ---------------------------------------------------------------------------
# dictionary-free joint baseline
# ---------------------------------------------------------------------------

@dataclass
class CjointConfig:
    max_iter: int = 2000
    tol: float = 1e-4                 # relative residual ||Y - W A F|| / ||Y||
    callback: Optional[Callable] = None

    def __post_init__(self):
        _check_settings(self, ("max_iter",), ("tol",))


def _check_settings(cfg, counts, tolerances) -> None:
    """Reject settings of a solver config that no run can use: each field
    named in `counts` must be an int >= 1, each in `tolerances` finite and
    >= 0."""
    for name in counts:
        value = getattr(cfg, name)
        if type(value) is not int or value < 1:
            raise ValueError(f"{name} must be an int >= 1, got {value!r}")
    for name in tolerances:
        value = getattr(cfg, name)
        if not (np.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


def cjoint(op: TomoOperator, Y: np.ndarray, n_materials: int,
           config: CjointConfig | None = None) -> FactorResult:
    """Alternating projected-gradient minimization of
    ``0.5 ||Y - W A F||_F^2`` under nonnegativity of both factors: the loop
    of :func:`aapm` with T = I, rho = 0 and clipping as both projections."""
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
    # scale-matched flat start for F: least-squares optimal constant
    rs = op.forward(A).sum(axis=1)
    denom = C * float(np.sum(rs ** 2))
    scale = max(float(rs @ Y.sum(axis=1)) / denom, 0.0) if denom > 0 else 0.0
    F = np.full((M, C), scale)

    run = _alternating_pg(
        op, np.eye(C), Y, A, F, clip, clip, 0.0, cfg.max_iter, cfg.tol, 0.0,
        cfg.callback)
    A, F = _normalize_factor_scale(run.A, run.R)          # T = I: R is F
    return replace(run, A=A, F=F, R=None)


def _normalize_factor_scale(A, F):
    """Fix the factorization's scale freedom: unit-max map columns."""
    peak = A.max(axis=0)
    scale = np.where(peak > 0, peak, 1.0)
    return A / scale, F * scale[:, None]


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

    def __post_init__(self):
        if not self.cg_tol > 0:
            raise ValueError(f"cg_tol must be positive, got {self.cg_tol}")
        _check_settings(self, ("cg_max_iter", "nmf_iters", "nmf_restarts"),
                        ("tikhonov_lambda",))


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

    Each half-step solves the unconstrained least-squares problem through
    the k x k Gram matrix of the fixed factor and clips at zero.  The
    factorization is nonconvex, so the best of `restarts` seeded random
    initializations is kept.

    Returns
    -------
    (A, F, best_objective) with A (n, k), F (k, m).
    """
    V = np.atleast_2d(np.asarray(V, dtype=np.float64))
    n, m = V.shape
    k = int(n_components)
    for name, value in (("n_components", k), ("n_iter", n_iter),
                        ("restarts", restarts)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if not np.all(np.isfinite(V)):
        raise ValueError("V must be finite")
    scale = np.sqrt(max(V.mean(), 1e-12) / k)
    best = None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        A = rng.uniform(0.0, 1.0, (n, k)) * scale
        F = rng.uniform(0.0, 1.0, (k, m)) * scale
        for _ in range(n_iter):
            F = _clipped_lstsq(A, V)
            A = _clipped_lstsq(F.T, V.T).T
        obj = float(np.sum((V - A @ F) ** 2))
        if best is None or obj < best[2]:
            best = (A, F, obj)
    return best


def _clipped_lstsq(B, V):
    """``max(pinv(B) V, 0)``, with ``pinv(B) = pinv(B^T B) B^T`` (k x k)."""
    G = B.T @ B
    X = np.linalg.pinv(G) @ (B.T @ V)
    X[G.diagonal() == 0.0] = 0.0      # a zeroed column: exact 0, not SVD rounding
    return np.maximum(X, 0.0)


def ru(op: TomoOperator, Y: np.ndarray, n_materials: int,
       config: TwoStepConfig | None = None) -> FactorResult:
    """Reconstruct-then-unmix: per-channel regularized reconstruction of
    the spectral volume, then nonnegative factorization into maps and
    spectra."""
    cfg = config or TwoStepConfig()
    V = np.maximum(tikhonov_cg(op, Y, cfg.tikhonov_lambda,
                               cfg.cg_max_iter, cfg.cg_tol), 0.0)
    A, F, _ = nmf_als(V, n_materials, cfg.nmf_iters, cfg.nmf_restarts, cfg.seed)
    return FactorResult(*_normalize_factor_scale(A, F))


def ur(op: TomoOperator, Y: np.ndarray, n_materials: int,
       config: TwoStepConfig | None = None) -> FactorResult:
    """Unmix-then-reconstruct: factorize the sinogram into per-material
    projections and spectra, then reconstruct each material map."""
    cfg = config or TwoStepConfig()
    P, F, _ = nmf_als(Y, n_materials, cfg.nmf_iters, cfg.nmf_restarts, cfg.seed)
    A = np.maximum(tikhonov_cg(op, P, cfg.tikhonov_lambda,
                               cfg.cg_max_iter, cfg.cg_tol), 0.0)
    return FactorResult(*_normalize_factor_scale(A, F))
