import numpy as np
import pytest

from spectomo import projections
from spectomo import (in_capped_rows, in_doubly_capped,
                      project_cols_capped_simplex, project_doubly_capped,
                      project_material_map, project_rows_capped_simplex)

from oracles import dykstra_doubly_capped, kkt_capped_simplex


class TestRowProjection:
    def test_feasible_row_unchanged(self):
        out = project_rows_capped_simplex(np.array([[0.2, 0.3]]))
        assert np.array_equal(out, [[0.2, 0.3]])

    def test_single_overshoot(self):
        out = project_rows_capped_simplex(np.array([[2.0, 0.0]]))
        ref = kkt_capped_simplex(np.array([2.0, 0.0]))
        assert np.allclose(out[0], [1.0, 0.0], atol=1e-14)
        assert np.allclose(out[0], ref, atol=1e-14)

    def test_diagonal_overshoot(self):
        out = project_rows_capped_simplex(np.array([[0.6, 0.8]]))
        ref = kkt_capped_simplex(np.array([0.6, 0.8]))
        assert np.allclose(out[0], [0.4, 0.6], atol=1e-14)
        assert np.allclose(out[0], ref, atol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_kkt_oracle(self, m):
        rng = np.random.default_rng(10 + m)
        Z = rng.normal(scale=1.5, size=(200, m))
        out = project_rows_capped_simplex(Z)
        for row, z in zip(out, Z):
            assert np.max(np.abs(row - kkt_capped_simplex(z))) <= 1e-10

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            project_rows_capped_simplex(np.array([[np.nan, 0.0]]))

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        Z = rng.normal(size=(50, 4))
        once = project_rows_capped_simplex(Z)
        twice = project_rows_capped_simplex(once)
        assert np.max(np.abs(once - twice)) <= 1e-12

    def test_material_map_alias(self):
        assert project_material_map is project_rows_capped_simplex


class TestColProjection:
    def test_identity_is_feasible(self):
        out = project_cols_capped_simplex(np.eye(3))
        assert np.array_equal(out, np.eye(3))

    def test_column_overshoot(self):
        out = project_cols_capped_simplex(np.array([[2.0], [0.0]]))
        assert np.allclose(out, [[1.0], [0.0]], atol=1e-14)

    def test_transpose_symmetry_exact(self):
        rng = np.random.default_rng(2)
        Z = rng.normal(size=(5, 7))
        lhs = project_cols_capped_simplex(Z)
        rhs = project_rows_capped_simplex(Z.T).T
        assert np.array_equal(lhs, rhs)


class TestDoublyCapped:
    def test_feasible_point_is_fixed(self):
        Z = np.array([[0.3, 0.2], [0.1, 0.4]])
        out = project_doubly_capped(Z)
        assert np.array_equal(out, Z)

    def test_all_ones_square(self):
        # symmetry forces equal entries, and both sum bounds bind at 0.5
        out = project_doubly_capped(np.ones((2, 2)))
        assert np.allclose(out, 0.5, atol=1e-9)

    def test_matches_alternating_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            Z = rng.normal(scale=1.2, size=(3, 5))
            out = project_doubly_capped(Z)
            ref = dykstra_doubly_capped(Z)
            assert np.linalg.norm(out - ref) <= 1e-4

    def test_membership(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            Z = rng.normal(scale=2.0, size=(4, 6))
            out = project_doubly_capped(Z)
            assert in_doubly_capped(out, tol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(3, 5))
        once = project_doubly_capped(Z)
        twice = project_doubly_capped(once)
        assert np.max(np.abs(once - twice)) <= 1e-12

    def test_firmly_nonexpansive_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(3, 4))
            pa = project_doubly_capped(a)
            pb = project_doubly_capped(b)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_closer_than_random_feasible_points(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m, d = rng.integers(2, 6), rng.integers(2, 6)
            Z = rng.normal(scale=1.5, size=(m, d))
            proj = project_doubly_capped(Z)
            best = np.linalg.norm(proj - Z)
            for _ in range(100):
                X = rng.uniform(0.0, 1.0, size=(m, d))
                scale = min(1.0, 1.0 / X.sum(axis=1).max(),
                            1.0 / X.sum(axis=0).max())
                X *= scale
                assert best <= np.linalg.norm(X - Z) + 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            project_doubly_capped(np.array([[0.2, bad], [0.1, 0.4]]))

    def test_nonconvergence_warns_not_raises(self, monkeypatch):
        monkeypatch.setattr(projections, "DYKSTRA_MAX_SWEEPS", 1)
        Z = np.full((3, 3), 5.0)
        with pytest.warns(RuntimeWarning):
            out = project_doubly_capped(Z)
        assert out.shape == (3, 3)


class TestMembershipHelpers:
    def test_in_capped_rows(self):
        assert in_capped_rows(np.array([[0.5, 0.5], [0.0, 0.0]]))
        assert not in_capped_rows(np.array([[0.8, 0.5]]))
        assert not in_capped_rows(np.array([[-0.1, 0.2]]))

    def test_in_doubly_capped(self):
        assert in_doubly_capped(np.eye(3))
        assert not in_doubly_capped(np.array([[0.7], [0.7]]))
