"""Euclidean projections onto the solver's constraint sets.

Two building blocks: the *capped simplex* ``{x >= 0, sum(x) <= 1}`` applied
to rows or columns of a matrix, and the doubly capped set where both the
row sums and the column sums are bounded by one.  The single-set
projections are exact (sort-based breakpoint solve); the doubly capped
projection alternates them with Dykstra correction terms, which converges
to the exact projection onto the intersection (plain alternation, with or
without averaging, lands on feasible but non-nearest points).
"""

from __future__ import annotations

import warnings

import numpy as np

# Dykstra's stopping rule: the change of its corrections and the row-sum
# excess must both fall to DYKSTRA_TOL within DYKSTRA_MAX_SWEEPS sweeps
DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_SWEEPS = 500


def project_rows_capped_simplex(Z: np.ndarray) -> np.ndarray:
    """Project each row of `Z` onto {x >= 0, sum(x) <= 1}.

    If clipping a row at zero already satisfies the sum bound, the clip is
    the projection.  Otherwise the row is projected onto the probability
    simplex by solving the piecewise-linear equation
    ``sum(max(z - lam, 0)) = 1`` exactly on its sorted breakpoints.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    if not np.all(np.isfinite(Z)):
        raise ValueError("projection input contains non-finite entries")
    X = np.maximum(Z, 0.0)
    over = X.sum(axis=1) > 1.0
    if np.any(over):
        X[over] = _rows_to_unit_simplex(Z[over])
    return X


def project_cols_capped_simplex(Z: np.ndarray) -> np.ndarray:
    """Column version of :func:`project_rows_capped_simplex` (exact transpose)."""
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    return project_rows_capped_simplex(Z.T).T


def _rows_to_unit_simplex(Z: np.ndarray) -> np.ndarray:
    # rows are known to clip-sum above 1, so the projection lands on sum == 1
    n = Z.shape[1]
    U = -np.sort(-Z, axis=1)
    css = np.cumsum(U, axis=1) - 1.0
    j = np.arange(1, n + 1, dtype=np.float64)
    rho = np.count_nonzero(U * j > css, axis=1)
    lam = css[np.arange(Z.shape[0]), rho - 1] / rho
    return np.maximum(Z - lam[:, None], 0.0)


def project_doubly_capped(Z: np.ndarray) -> np.ndarray:
    """Project onto {X >= 0, row sums <= 1, column sums <= 1}.

    Dykstra's alternating scheme over the row- and column-capped sets:

        Y   <- proj_rows(X + P);   P <- X + P - Y
        X   <- proj_cols(Y + Q);   Q <- Y + Q - X

    starting from ``X = Z`` with zero corrections.  Unlike plain alternating
    projection, the correction terms make the limit the exact nearest point
    of the intersection.  Convergence is declared when the corrections stop
    changing (the iterate itself can stall for a few iterations before
    moving again) and the row sums are within `DYKSTRA_TOL` of feasible;
    columns and nonnegativity are exact, being the last projection applied.
    Non-convergence within `DYKSTRA_MAX_SWEEPS` sweeps returns the last
    iterate with a warning rather than raising.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    if not np.all(np.isfinite(Z)):
        raise ValueError("projection input contains non-finite entries")
    X = Z.copy()
    P = np.zeros_like(Z)
    Q = np.zeros_like(Z)
    for _ in range(DYKSTRA_MAX_SWEEPS):
        Y = project_rows_capped_simplex(X + P)
        P_new = X + P - Y
        X = project_cols_capped_simplex(Y + Q)
        Q_new = Y + Q - X
        change = np.sqrt(np.sum((P_new - P) ** 2) + np.sum((Q_new - Q) ** 2))
        P, Q = P_new, Q_new
        if change <= DYKSTRA_TOL and X.sum(axis=1).max() - 1.0 <= DYKSTRA_TOL:
            return X
    warnings.warn(
        f"doubly capped projection did not converge in {DYKSTRA_MAX_SWEEPS} "
        f"sweeps (last correction change {change:.3e})", RuntimeWarning)
    return X


# The material-map constraint set only bounds row sums, so its projection
# is the row projection applied to the N x M map.
project_material_map = project_rows_capped_simplex


def in_capped_rows(X: np.ndarray, tol: float = 1e-9) -> bool:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return bool(np.all(X >= -tol) and np.all(X.sum(axis=1) <= 1.0 + tol))


def in_doubly_capped(X: np.ndarray, tol: float = 1e-9) -> bool:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return bool(np.all(X >= -tol)
                and np.all(X.sum(axis=1) <= 1.0 + tol)
                and np.all(X.sum(axis=0) <= 1.0 + tol))
