import json
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import nnls

import spectomo.solvers as solvers
from spectomo import (AapmConfig, ChannelBinning, CjointConfig, Grid2D,
                      ParallelGeometry, TomoOperator, TwoStepConfig, aapm,
                      backtracking, cjoint, disks, grad_coeffs, grad_maps,
                      in_capped_rows, in_doubly_capped, kedge_dictionary,
                      lagrangian_value, nmf_als, objective, ru, tikhonov_cg,
                      ur)

from oracles import central_diff_grad, clipped_lstsq, dense_reference_projector


def small_problem(n=8, n_angles=6, M=2, D=3, C=4, seed=0, peak=0.3):
    grid = Grid2D(n, n)
    geom = ParallelGeometry(angles=np.linspace(0, np.pi, n_angles, endpoint=False),
                            n_det=n)
    op = TomoOperator(grid, geom)
    T = kedge_dictionary(D, ChannelBinning.equidistant(C, 5, 35), peak=peak).T
    rng = np.random.default_rng(seed)
    A = rng.uniform(0, 1.0 / M, size=(op.n_image, M))
    R = rng.uniform(0, 1.0 / D, size=(M, D))
    U = rng.normal(size=(op.n_rays, C))
    Y = rng.normal(size=(op.n_rays, C))
    return op, T, A, R, U, Y


def exact_instance(n=16, n_angles=8, D=4, C=6, peak=0.3):
    """Noiseless data generated with the same operator (residual-zero truth)."""
    grid = Grid2D(n, n)
    geom = ParallelGeometry(angles=np.linspace(0, np.pi, n_angles, endpoint=False),
                            n_det=n)
    op = TomoOperator(grid, geom)
    T = kedge_dictionary(D, ChannelBinning.equidistant(C, 5, 35), peak=peak).T
    A_true = disks(n, 2).A
    R_true = np.zeros((2, D))
    R_true[0, 0] = 1.0
    R_true[1, 2] = 1.0
    Y = op.forward(A_true) @ (R_true @ T)
    assert np.linalg.norm(Y) > 1.0          # guard against an empty phantom
    return op, T, A_true, R_true, Y


class TestObjective:
    def test_zero_everything(self):
        op, T, A, R, U, Y = small_problem()
        assert objective(0 * A, 0 * R, op, T, 0 * Y) == 0.0

    def test_ground_truth_residual_is_zero(self):
        op, T, A_true, R_true, Y = exact_instance()
        val = objective(A_true, R_true, op, T, Y)
        assert val <= 1e-16 * np.sum(Y ** 2)

    def test_matches_dense_matrix_evaluation(self):
        op, T, A, R, U, Y = small_problem()
        W = dense_reference_projector(op.grid, op.geometry)
        dense = 0.5 * np.sum((Y - W @ A @ R @ T) ** 2)
        assert objective(A, R, op, T, Y) == pytest.approx(dense, rel=1e-12)


class TestGradients:
    def test_finite_differences(self):
        op, T, A, R, U, Y = small_problem(n=6, n_angles=4, M=2, D=3, C=4, seed=3)
        gA = grad_maps(A, R, U, op, T, Y)
        gR = grad_coeffs(A, R, U, op, T, Y)
        fdA = central_diff_grad(lambda X: lagrangian_value(X, R, U, op, T, Y), A)
        fdR = central_diff_grad(lambda X: lagrangian_value(A, X, U, op, T, Y), R)
        assert np.max(np.abs(gA - fdA)) <= 1e-6 * max(np.max(np.abs(gA)), 1e-12)
        assert np.max(np.abs(gR - fdR)) <= 1e-6 * max(np.max(np.abs(gR)), 1e-12)

    def test_stationarity_at_exact_solution(self):
        op, T, A_true, R_true, Y = exact_instance()
        U = np.zeros_like(Y)
        scale = np.linalg.norm(Y)
        assert np.linalg.norm(grad_maps(A_true, R_true, U, op, T, Y)) <= 1e-8 * scale
        assert np.linalg.norm(grad_coeffs(A_true, R_true, U, op, T, Y)) <= 1e-8 * scale

    def test_lagrangian_is_misfit_on_shifted_data(self):
        # the identity the solver loop relies on to fit Y + U
        op, T, A, R, U, Y = small_problem(seed=7)
        shifted = objective(A, R, op, T, Y + U) - 0.5 * np.sum(U ** 2)
        assert lagrangian_value(A, R, U, op, T, Y) == pytest.approx(shifted, rel=1e-12)

    def test_linearity_in_feedback_term(self):
        op, T, A, R, U, Y = small_problem(seed=4)
        rng = np.random.default_rng(5)
        U2 = rng.normal(size=U.shape)
        zero = np.zeros_like(U)
        for g in (grad_maps, grad_coeffs):
            combined = g(A, R, U + U2, op, T, Y)
            split = (g(A, R, U, op, T, Y) + g(A, R, U2, op, T, Y)
                     - g(A, R, zero, op, T, Y))
            assert np.allclose(combined, split, atol=1e-10)


class TestBacktracking:
    def test_quadratic_accepted_step_lower_bound(self):
        L = 4.0
        x = np.array([1.0])

        def value_at(c):
            return 0.5 * L * float(c[0] ** 2), None

        grad = np.array([L * x[0]])
        cur, _ = value_at(x)
        x_new, step, val, _ = backtracking(x, grad, lambda z: z, value_at, cur,
                                           step0=10.0 / L)
        assert step >= 1.0 / (2 * L)
        assert val < cur

    def test_descent_guaranteed(self):
        rng = np.random.default_rng(6)
        Q = rng.normal(size=(5, 5))
        Q = Q @ Q.T + np.eye(5)
        x = rng.normal(size=5)

        def value_at(c):
            return 0.5 * float(c @ Q @ c), None

        grad = Q @ x
        cur, _ = value_at(x)
        x_new, step, val, _ = backtracking(x, grad, lambda z: z, value_at, cur, 1.0)
        assert val <= cur
        assert step > 0

    def test_zero_gradient_accepts_immediately(self):
        x = np.array([0.25, 0.25])

        def value_at(c):
            return float(np.sum((c - 0.25) ** 2)), None

        x_new, step, val, _ = backtracking(x, np.zeros(2), lambda z: z,
                                           value_at, 0.0, step0=7.0)
        assert step == 7.0
        assert np.array_equal(x_new, x)

    def test_exhaustion_returns_unchanged(self):
        # value function that never decreases forces all halvings to fail
        x = np.array([1.0])

        def value_at(c):
            return 1e9, None

        x_new, step, val, _ = backtracking(x, np.array([1.0]), lambda z: z,
                                           value_at, 0.0, 1.0)
        assert step == 0.0
        assert np.array_equal(x_new, x)

    def test_bad_step0(self):
        with pytest.raises(ValueError):
            backtracking(np.zeros(1), np.zeros(1), lambda z: z,
                         lambda c: (0.0, None), 0.0, 0.0)


class TestAapm:
    def test_paper_default_settings(self):
        cfg = AapmConfig()
        assert cfg.rho == pytest.approx(1e-2)
        assert cfg.max_iter == 1000
        assert cfg.eps_abs_tol == pytest.approx(1e-4)
        assert cfg.eps_rel_tol == pytest.approx(1e-6)
        assert cfg.seed == 0

    def test_rho_range_validated(self):
        with pytest.raises(ValueError):
            AapmConfig(rho=1.0)
        with pytest.raises(ValueError):
            AapmConfig(rho=-0.1)
        AapmConfig(rho=0.0)                    # boundary value is allowed

    def test_default_start_splits_the_materials(self):
        # a flat start would keep every map column identical for good
        op, T, A_true, R_true, Y = exact_instance()
        res = aapm(op, T, Y, 2, AapmConfig(max_iter=20))
        assert np.max(np.abs(res.A[:, 0] - res.A[:, 1])) > 0.1
        seeded = aapm(op, T, Y, 2, AapmConfig(max_iter=20, random_init=True,
                                              seed=0))
        assert np.array_equal(res.A, seeded.A)

    def test_flat_start_refused(self):
        with pytest.raises(ValueError, match="random_init must be true"):
            AapmConfig(random_init=False)

    def test_zero_data_zero_start_is_fixed_point(self):
        op, T, A, R, U, Y = small_problem()
        cfg = AapmConfig(max_iter=50)

        def aapm_from_zero(data):
            """`aapm`'s loop and settings, started at A = 0, R = 0."""
            return solvers._alternating_pg(
                op, T, data, np.zeros_like(A), np.zeros_like(R),
                solvers.project_material_map, solvers.project_doubly_capped,
                cfg.rho, cfg.max_iter, cfg.eps_abs_tol, cfg.eps_rel_tol, None)

        res = aapm_from_zero(0 * Y)
        assert res.n_iter == 1
        assert res.converged and res.stop_reason == "residual"
        assert res.history[0].eps_rel == 0.0
        assert np.all(res.A == 0) and np.all(res.R == 0)
        # both gradients vanish at A = 0, R = 0 whatever the data, so on
        # nonzero data the run stops there too, far from fitting it
        res = aapm_from_zero(Y)
        assert res.n_iter == 1 and np.all(res.A == 0) and np.all(res.R == 0)
        assert res.history[0].eps_abs > cfg.eps_abs_tol
        assert res.converged and res.stop_reason == "stationary"

    def test_material_count_validated(self):
        op, T, A, R, U, Y = small_problem()
        with pytest.raises(ValueError):
            aapm(op, T, Y, T.shape[0] + 1)

    def test_data_shape_validated(self):
        op, T, A, R, U, Y = small_problem()
        with pytest.raises(ValueError):
            aapm(op, T, Y[:, :-1], 2)

    def test_iterates_stay_feasible(self):
        op, T, A_true, R_true, Y = exact_instance()
        seen = []

        def check(k, A, R, record):
            assert in_capped_rows(A, tol=1e-9)
            assert in_doubly_capped(R, tol=1e-9)
            seen.append(k)

        aapm(op, T, Y, 2, AapmConfig(max_iter=40, callback=check,
                                     random_init=True, seed=0))
        assert len(seen) == 40 or seen[-1] < 40

    def test_palm_objective_monotone_by_recomputation(self):
        op, T, A_true, R_true, Y = exact_instance(n=12, n_angles=10)
        iterates = []

        def keep(k, A, R, record):
            iterates.append((A.copy(), R.copy(), record.objective))

        aapm(op, T, Y, 2, AapmConfig(rho=0.0, max_iter=60, callback=keep,
                                     random_init=True, seed=1))
        objs = [objective(A, R, op, T, Y) for A, R, _ in iterates]
        for prev, nxt in zip(objs[:-1], objs[1:]):
            assert nxt <= prev
        # the recomputed value equals the recorded one bit for bit
        for (A, R, recorded), rec_obj in zip(iterates, objs):
            assert recorded == rec_obj

    def test_feedback_history_records_true_objective(self):
        # with feedback the loop fits Y + U; the record must hold the misfit
        # to Y itself at the iterate handed to the callback
        op, T, A, R, U, Y = small_problem()
        recorded = []

        def keep(k, A, R, record):
            recorded.append((record.objective, objective(A, R, op, T, Y)))

        aapm(op, T, Y, 2, AapmConfig(rho=0.05, max_iter=30, callback=keep,
                                     random_init=True, seed=4))
        assert len(recorded) == 30
        for value, recomputed in recorded:
            assert value == pytest.approx(recomputed, rel=1e-12)

    def test_running_sum_recurrence(self):
        op, T, A_true, R_true, Y = exact_instance()
        rho = 0.05
        iterates = []

        def keep(k, A, R, record):
            iterates.append((A.copy(), R.copy()))

        res = aapm(op, T, Y, 2, AapmConfig(rho=rho, max_iter=25, callback=keep,
                                           random_init=True, seed=2))
        U_ref = np.zeros_like(Y)
        for A, R in iterates:
            U_ref = U_ref + rho * (Y - op.forward(A) @ (R @ T))
        assert np.max(np.abs(U_ref - res.U)) <= 1e-10 * max(1.0, np.abs(res.U).max())

    def test_rho_zero_running_sum_is_all_zero(self):
        op, T, A_true, R_true, Y = exact_instance()
        res = aapm(op, T, Y, 2, AapmConfig(rho=0.0, max_iter=3, random_init=True,
                                           seed=2))
        assert res.U.shape == Y.shape and res.U.dtype == np.float64
        assert not np.any(res.U)

    def test_history_csv_fields_populated(self):
        op, T, A_true, R_true, Y = exact_instance()
        res = aapm(op, T, Y, 2, AapmConfig(max_iter=5, random_init=True, seed=3))
        rec = res.history[-1]
        assert rec.iteration == len(res.history)
        assert np.isfinite(rec.objective)
        assert np.isfinite(rec.eps_abs) and np.isfinite(rec.eps_rel)

    def test_deterministic_given_seed(self):
        op, T, A_true, R_true, Y = exact_instance()
        a = aapm(op, T, Y, 2, AapmConfig(max_iter=15, random_init=True, seed=9))
        b = aapm(op, T, Y, 2, AapmConfig(max_iter=15, random_init=True, seed=9))
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.R, b.R)

    def test_nonfinite_objective_aborts_with_diagnostic(self):
        op, T, A, R, U, Y = small_problem()
        huge = np.full_like(Y, 1e200)            # misfit overflows on purpose
        with np.errstate(over="ignore"), \
                pytest.raises(RuntimeError, match="non-finite objective"):
            aapm(op, T, huge, 2, AapmConfig(max_iter=3))


class TestCjoint:
    def test_flat_zero_spectra_on_nonpositive_data_are_stationary(self):
        # the flat start sets F = 0 when the data sum is not positive; then
        # the map gradient is zero and clipping undoes every spectrum step
        op, T, A_true, R_true, Y = exact_instance()
        res = cjoint(op, -Y, 2, CjointConfig(max_iter=50))
        assert res.n_iter == 1 and not res.F.any()
        assert res.converged and res.stop_reason == "stationary"

    def test_residual_decreases(self):
        op, T, A_true, R_true, Y = exact_instance()
        res = cjoint(op, Y, 2, CjointConfig(max_iter=100))
        assert res.history[-1].objective < res.history[0].objective

    def test_default_settings(self):
        cfg = CjointConfig()
        assert cfg.max_iter == 2000
        assert cfg.tol == pytest.approx(1e-4)

    def test_scaling_leaves_objective_unchanged(self):
        op, T, A_true, R_true, Y = exact_instance()
        rng = np.random.default_rng(10)
        A = rng.uniform(0.2, 0.8, size=(op.n_image, 2))
        F = rng.uniform(0.1, 0.5, size=(2, Y.shape[1]))

        def j(Amat, Fmat):
            return 0.5 * np.sum((Y - op.forward(Amat) @ Fmat) ** 2)

        base = j(A, F)
        for alpha in (0.5, 2.0, 10.0):
            scaled = j(alpha * A, F / alpha)
            assert abs(scaled - base) <= 1e-12 * base

    def test_final_objective_close_to_dense_nnls_oracle(self):
        # noiseless, well-determined 16x16 instance with two materials
        op, T, A_true, R_true, Y = exact_instance(n=16, n_angles=12, D=4, C=4)
        M = 2
        res = cjoint(op, Y, M, CjointConfig(max_iter=800))
        j_cjoint = 0.5 * np.sum((Y - op.forward(res.A) @ res.F) ** 2)

        W = dense_reference_projector(op.grid, op.geometry)
        rng = np.random.default_rng(11)
        A = rng.uniform(0, 1, size=(op.n_image, M))
        F = rng.uniform(0, 1, size=(M, Y.shape[1]))
        for _ in range(20):
            WA = W @ A
            for c in range(Y.shape[1]):
                F[:, c], _ = nnls(WA, Y[:, c])
            design = np.kron(F.T, W)                       # vec(WAF) = design @ vec(A)
            sol, _ = nnls(design, Y.T.ravel())
            A = sol.reshape(M, op.n_image).T
        j_oracle = 0.5 * np.sum((Y - W @ A @ F) ** 2)
        slack = 1e-8 * np.sum(Y ** 2)
        assert j_cjoint <= 1.05 * j_oracle + slack


# the two alternating solvers share one loop, so they share its checks
ALTERNATING = [
    pytest.param(lambda op, T, Y, n: aapm(op, T, Y, 2, AapmConfig(max_iter=n)),
                 id="aapm"),
    pytest.param(lambda op, T, Y, n: cjoint(op, Y, 2, CjointConfig(max_iter=n)),
                 id="cjoint"),
]


@pytest.mark.parametrize("solve", ALTERNATING)
def test_iteration_budget_validated(solve):
    op, T, A_true, R_true, Y = exact_instance()
    with pytest.raises(ValueError, match="max_iter"):
        solve(op, T, Y, 0)


@pytest.mark.parametrize("config, field, bad", [
    (AapmConfig, "eps_abs_tol", -1e-4), (AapmConfig, "eps_rel_tol", np.nan),
    (CjointConfig, "max_iter", 0), (CjointConfig, "tol", np.inf),
    (AapmConfig, "max_iter", 5.5), (CjointConfig, "max_iter", True),
])
def test_loop_config_rejects_bad_values(config, field, bad):
    with pytest.raises(ValueError, match=field):
        config(**{field: bad})


@pytest.mark.parametrize("solve", ALTERNATING)
def test_stall_is_not_convergence(solve, monkeypatch):
    # both line searches fail, so nothing moves: stop at once, unconverged
    def never_accept(x, grad, project, value_at, current_value, step0):
        return x, 0.0, current_value, None

    monkeypatch.setattr(solvers, "backtracking", never_accept)
    op, T, A_true, R_true, Y = exact_instance()
    res = solve(op, T, Y, 20)
    assert not res.converged and res.stop_reason == "stalled"
    assert res.n_iter == 1
    assert res.history[0].alpha == res.history[0].beta == 0.0
    assert res.step_failures == 2


@pytest.mark.parametrize("solve", ALTERNATING)
def test_budget_exhausted_is_not_convergence(solve):
    op, T, A_true, R_true, Y = exact_instance()
    res = solve(op, T, Y, 3)
    assert not res.converged and res.stop_reason == "max_iter"
    assert res.n_iter == len(res.history) == 3


@pytest.mark.parametrize("solve", [
    pytest.param(lambda op, T, Y: aapm(op, T, Y, 2, AapmConfig(eps_abs_tol=0.6)),
                 id="aapm"),
    pytest.param(lambda op, T, Y: cjoint(op, Y, 2, CjointConfig(tol=0.6)),
                 id="cjoint"),
])
def test_residual_tolerance_stops_converged(solve):
    op, T, A_true, R_true, Y = exact_instance()
    res = solve(op, T, Y)
    assert res.converged and res.stop_reason == "residual"
    assert res.history[-1].eps_abs <= 0.6 and res.n_iter > 1
    assert all(r.eps_abs > 0.6 for r in res.history[:-1])


def test_one_failed_block_is_counted_as_int(monkeypatch):
    # only the map step fails: the coefficient step still moves, so the run
    # goes on, and each failure adds a Python int, not a numpy bool
    real = solvers.backtracking

    def maps_fail(x, grad, project, value_at, current_value, step0):
        if project is solvers.project_material_map:
            return x, 0.0, current_value, None
        x_new, step, value, aux = real(x, grad, project, value_at,
                                       current_value, step0)
        return x_new, np.float64(step), value, aux

    monkeypatch.setattr(solvers, "backtracking", maps_fail)
    op, T, A_true, R_true, Y = exact_instance()
    res = aapm(op, T, Y, 2, AapmConfig(max_iter=5))
    assert res.n_iter == 5 and res.stop_reason == "max_iter"
    assert all(r.alpha > 0.0 and r.beta == 0.0 for r in res.history)
    assert type(res.step_failures) is int and res.step_failures == 5
    assert json.loads(json.dumps({"step_failures": res.step_failures})) == {
        "step_failures": 5}


@pytest.mark.parametrize("solve, bound", [
    pytest.param(lambda op, T, Y: aapm(op, T, Y, 3, AapmConfig(
        rho=0.05, max_iter=5, random_init=True, seed=1)), 3.5, id="aapm-rho0.05"),
    pytest.param(lambda op, T, Y: aapm(op, T, Y, 3, AapmConfig(
        rho=0.0, max_iter=5, random_init=True, seed=1)), 1.5, id="aapm-rho0"),
    pytest.param(lambda op, T, Y: cjoint(op, Y, 3, CjointConfig(max_iter=5)),
                 1.5, id="cjoint"),
])
def test_loop_transient_memory_bounded(solve, bound):
    # above its inputs the loop holds the residual, in which every trial is
    # formed, and at rho > 0 also U and the shifted data, each the size of Y;
    # at rho = 0 aapm's result gets a zero U after the loop has freed the
    # residual, and cjoint's gets none.
    # The half array of slack covers the map- and coefficient-sized arrays
    op = TomoOperator(Grid2D(32, 32), ParallelGeometry(
        angles=np.linspace(0, np.pi, 45, endpoint=False), n_det=32))
    T = kedge_dictionary(8, ChannelBinning.equidistant(64, 5, 35), peak=0.3).T
    Y = op.forward(disks(32, 3).A) @ T[[0, 3, 6]]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = solve(op, T, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_iter == 5
    assert peak - start <= bound * Y.nbytes


@pytest.mark.parametrize("solve", ALTERNATING)
def test_failed_search_leaves_the_residual_of_the_iterate(solve, monkeypatch):
    # every trial overwrites the loop's one residual buffer, so a search that
    # finds no step must form the residual again at the unchanged iterate;
    # a run whose failing searches evaluate a trial first then runs as one
    # whose failing searches evaluate none
    real = solvers.backtracking

    def fail_first(evaluate):
        searches = []

        def search(x, grad, project, value_at, current_value, step0):
            searches.append(None)
            if len(searches) in (1, 4):     # first R step, second A step
                if evaluate:
                    value_at(project(x - step0 * grad))
                return x, 0.0, current_value, None
            return real(x, grad, project, value_at, current_value, step0)
        return search

    op, T, A_true, R_true, Y = exact_instance()
    runs = []
    for evaluate in (False, True):
        monkeypatch.setattr(solvers, "backtracking", fail_first(evaluate))
        runs.append(solve(op, T, Y, 4))
    plain, evaluated = runs
    assert plain.step_failures == evaluated.step_failures == 2
    assert np.array_equal(plain.A, evaluated.A)
    assert np.array_equal(plain.F, evaluated.F)
    assert ([r.objective for r in plain.history]
            == [r.objective for r in evaluated.history])


class TestTwoStep:
    def test_default_settings(self):
        cfg = TwoStepConfig()
        assert cfg.tikhonov_lambda == pytest.approx(1e-3)
        assert cfg.cg_max_iter == 20
        assert cfg.cg_tol == pytest.approx(1e-6)
        assert cfg.nmf_iters == 100
        assert cfg.nmf_restarts == 10

    def test_tikhonov_normal_equation_residual(self):
        op, T, A_true, R_true, Y = exact_instance()
        lam, tol = 1e-3, 1e-6
        X = tikhonov_cg(op, Y, lam, max_iter=500, tol=tol)
        rhs = op.adjoint(Y)
        lhs = op.adjoint(op.forward(X)) + lam * X
        for c in range(Y.shape[1]):
            assert (np.linalg.norm(lhs[:, c] - rhs[:, c])
                    <= tol * np.linalg.norm(rhs[:, c]) + 1e-14)

    def test_nmf_recovers_exact_one_hot_factorization(self):
        A = np.zeros((40, 3))
        A[:10, 0] = 1.0
        A[10:20, 1] = 1.0
        A[25:40, 2] = 1.0
        F = np.diag([0.5, 1.0, 2.0])
        V = A @ F
        _, _, best = nmf_als(V, 3, n_iter=100, restarts=10, seed=0)
        assert best <= 1e-8

    def test_nmf_deterministic(self):
        rng = np.random.default_rng(12)
        V = rng.uniform(size=(20, 6))
        a1 = nmf_als(V, 2, n_iter=30, restarts=4, seed=5)
        a2 = nmf_als(V, 2, n_iter=30, restarts=4, seed=5)
        assert np.array_equal(a1[0], a2[0])
        assert a1[2] == a2[2]

    @pytest.mark.parametrize("seed", range(4))
    def test_als_half_steps_match_clipped_lstsq(self, seed):
        # the F step solves with the tall A, the A step with F^T on V^T
        rng = np.random.default_rng(seed)
        A = rng.uniform(size=(200, 5))
        F = rng.uniform(size=(5, 30))
        V = rng.uniform(size=(200, 30))
        for B, W in ((A, V), (F.T, V.T)):
            want = clipped_lstsq(B, W)
            got = solvers._clipped_lstsq(B, W)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("seed", range(12))
    def test_als_half_step_zero_column(self, seed):
        # a factor column that clipping zeroed gets exactly zero weight,
        # where an SVD-based solve leaves rounding in that row
        rng = np.random.default_rng(seed)
        B = rng.uniform(size=(50 + 20 * seed, 4))
        j = seed % 4
        B[:, j] = 0.0
        V = rng.uniform(size=(B.shape[0], 7))
        want = clipped_lstsq(B, V)
        got = solvers._clipped_lstsq(B, V)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        assert np.all(got[j] == 0.0)

    @pytest.mark.parametrize("bad, name", [
        pytest.param({"n_components": 0}, "n_components", id="n_components"),
        pytest.param({"n_iter": 0}, "n_iter", id="n_iter"),
        pytest.param({"restarts": 0}, "restarts", id="restarts"),
        pytest.param({"V": np.array([[1.0, np.nan], [0.5, 2.0]])},
                     "V must be finite", id="nan"),
        pytest.param({"V": np.array([[1.0, np.inf], [0.5, 2.0]])},
                     "V must be finite", id="inf"),
    ])
    def test_nmf_rejects_bad_arguments(self, bad, name):
        args = {"V": np.ones((4, 3)), "n_components": 2, "n_iter": 5,
                "restarts": 2, **bad}
        with pytest.raises(ValueError, match=name):
            nmf_als(**args)

    @pytest.mark.parametrize("field, bad", [
        ("tikhonov_lambda", -1e-3), ("tikhonov_lambda", np.inf),
        ("tikhonov_lambda", np.nan), ("cg_max_iter", 0), ("cg_tol", 0.0),
        ("cg_tol", -1e-6), ("nmf_iters", 0), ("nmf_restarts", 0),
        ("cg_max_iter", 2.5), ("nmf_iters", 2.5), ("nmf_restarts", True),
    ])
    def test_config_rejects_bad_values_before_any_work(self, field, bad,
                                                       monkeypatch):
        calls = []
        monkeypatch.setattr(solvers, "tikhonov_cg",
                            lambda *args: calls.append(args))
        op, T, A_true, R_true, Y = exact_instance()
        with pytest.raises(ValueError, match=field):
            ru(op, Y, 2, TwoStepConfig(**{field: bad}))
        assert calls == []

    def test_ru_outputs_shapes_and_nonnegativity(self):
        op, T, A_true, R_true, Y = exact_instance()
        res = ru(op, Y, 2, TwoStepConfig(nmf_restarts=3))
        assert res.A.shape == A_true.shape
        assert res.F.shape == (2, Y.shape[1])
        assert np.all(res.A >= 0) and np.all(res.F >= 0)

    def test_ur_outputs_shapes_and_nonnegativity(self):
        op, T, A_true, R_true, Y = exact_instance()
        res = ur(op, Y, 2, TwoStepConfig(nmf_restarts=3))
        assert res.A.shape == A_true.shape
        assert np.all(res.A >= 0) and np.all(res.F >= 0)

    def test_ur_exact_factorization_reaches_zero(self):
        op, T, A_true, R_true, Y = exact_instance()
        P = np.zeros((op.n_rays, 2))
        P[: op.n_rays // 2, 0] = 1.0
        P[op.n_rays // 2:, 1] = 1.0
        F = np.array([[0.3, 0.6, 0.1, 0.0, 0.2, 0.5],
                      [0.8, 0.1, 0.4, 0.9, 0.0, 0.3]])
        _, _, best = nmf_als(P @ F, 2, n_iter=100, restarts=10, seed=1)
        assert best <= 1e-8

    def test_factor_scale_normalization(self):
        op, T, A_true, R_true, Y = exact_instance()
        res = ru(op, Y, 2, TwoStepConfig(nmf_restarts=2))
        peaks = res.A.max(axis=0)
        assert np.all((np.isclose(peaks, 1.0)) | (peaks == 0.0))


class TestBiconvexity:
    def test_midpoint_convexity_in_each_block(self):
        op, T, A, R, U, Y = small_problem(n=6, n_angles=4, seed=13)
        rng = np.random.default_rng(14)
        for _ in range(200):
            A1 = rng.normal(size=A.shape)
            A2 = rng.normal(size=A.shape)
            mid = objective((A1 + A2) / 2, R, op, T, Y)
            avg = (objective(A1, R, op, T, Y) + objective(A2, R, op, T, Y)) / 2
            assert mid <= avg + 1e-12 * max(1.0, abs(avg))
            R1 = rng.normal(size=R.shape)
            R2 = rng.normal(size=R.shape)
            mid = objective(A, (R1 + R2) / 2, op, T, Y)
            avg = (objective(A, R1, op, T, Y) + objective(A, R2, op, T, Y)) / 2
            assert mid <= avg + 1e-12 * max(1.0, abs(avg))
