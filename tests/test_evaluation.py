import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from spectomo import (PSNR_SATURATION_DB, MatchResult, greedy_match, mse,
                      psnr, ssim)
from spectomo.data_io import capped_psnr

from oracles import greedy_match_bruteforce


class TestMetricFixtures:
    """Hand-computed values on a 4-pixel image."""

    gt = np.array([0.0, 0.5, 1.0, 0.25])

    def test_mse_identity(self):
        assert mse(self.gt, self.gt) == 0.0

    def test_psnr_identity_is_infinite(self):
        assert psnr(self.gt, self.gt) == np.inf

    def test_ssim_identity(self):
        assert ssim(self.gt, self.gt) == 1.0

    def test_constant_offset(self):
        rec = self.gt + 0.1
        # squared-norm error: 4 pixels x 0.1^2
        assert mse(rec, self.gt) == pytest.approx(0.04, abs=1e-15)
        assert psnr(rec, self.gt) == pytest.approx(10 * np.log10(1.0 / 0.04), abs=1e-12)

    def test_psnr_against_a_zero_peak_rejected(self):
        zero = np.zeros(4)
        assert psnr(zero, zero) == np.inf
        with pytest.raises(ValueError, match="positive peak"):
            psnr(self.gt, zero)

    def test_worked_ssim(self):
        x = np.array([0.0, 1.0, 0.0, 1.0])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        mx = my = 0.5
        vx = vy = 0.25
        cov = np.mean((x - mx) * (y - my))      # = -0.25... computed below
        c1, c2 = 0.01 ** 2, 0.03 ** 2
        expected = ((2 * mx * my + c1) * (2 * cov + c2)
                    / ((mx ** 2 + my ** 2 + c1) * (vx + vy + c2)))
        assert ssim(x, y) == pytest.approx(expected, rel=1e-14)

    def test_ssim_constant_images(self):
        c = np.full(6, 0.3)
        assert ssim(c, c) == 1.0

    def test_ssim_bounds_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.normal(size=16)
            y = rng.normal(size=16)
            assert -1.0 <= ssim(x, y) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.ones(3), np.ones(4))


class TestGreedyMatch:
    def test_identity(self):
        rng = np.random.default_rng(1)
        A = rng.uniform(size=(20, 4))
        m = greedy_match(A, A)
        assert m.pairs == [(i, i) for i in range(4)]
        assert all(v == 0.0 for v in m.mse_values)
        assert all(v == np.inf for v in m.psnr_values)
        assert all(v == 1.0 for v in m.ssim_values)

    def test_permutation_recovered(self):
        rng = np.random.default_rng(2)
        A = rng.uniform(size=(30, 3))
        perm = [2, 0, 1]
        m = greedy_match(A[:, perm], A)
        recovered = {i: j for i, j in m.pairs}
        for i, j in recovered.items():
            assert perm[i] == j

    def test_all_permutations_match_bruteforce(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(size=(8, 3))
        noise = rng.normal(scale=0.05, size=base.shape)
        for perm in itertools.permutations(range(3)):
            rec = base[:, list(perm)] + noise
            m = greedy_match(rec, base)
            err = np.array([[np.linalg.norm(rec[:, i] - base[:, j])
                             for j in range(3)] for i in range(3)])
            assert m.pairs == greedy_match_bruteforce(err)

    def test_random_instance_against_oracles(self):
        rng = np.random.default_rng(4)
        rec = rng.uniform(size=(8, 3))
        gt = rng.uniform(size=(8, 3))
        m = greedy_match(rec, gt)
        err = np.array([[np.linalg.norm(rec[:, i] - gt[:, j])
                         for j in range(3)] for i in range(3)])
        assert m.pairs == greedy_match_bruteforce(err)
        greedy_total = sum(err[i, j] for i, j in m.pairs)
        ri, ci = linear_sum_assignment(err)
        assert greedy_total >= err[ri, ci].sum() - 1e-12

    def test_tie_breaking_smallest_indices(self):
        rec = np.zeros((4, 2))
        gt = np.zeros((4, 2))
        m = greedy_match(rec, gt)                # all errors tie at 0
        assert m.pairs == [(0, 0), (1, 1)]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            greedy_match(np.ones((4, 2)), np.ones((4, 3)))

    @pytest.mark.parametrize("bad", ["A_rec", "A_gt"])
    def test_nonfinite_maps_rejected(self, bad):
        maps = {"A_rec": np.ones((4, 2)), "A_gt": np.ones((4, 2))}
        maps[bad][1, 0] = np.nan
        with pytest.raises(ValueError, match=f"{bad} contains non-finite"):
            greedy_match(**maps)
        maps[bad][1, 0] = np.inf
        with pytest.raises(ValueError, match=f"{bad} contains non-finite"):
            greedy_match(**maps)

    def test_permutation_invariance_of_averages(self):
        rng = np.random.default_rng(5)
        rec = rng.uniform(size=(16, 4))
        gt = rng.uniform(size=(16, 4))
        perm = [3, 1, 0, 2]
        a = greedy_match(rec, gt)
        b = greedy_match(rec[:, perm], gt[:, perm])
        assert a.mse_avg == pytest.approx(b.mse_avg, rel=1e-12)
        assert a.ssim_avg == pytest.approx(b.ssim_avg, rel=1e-12)


class TestAggregate:
    """The averages of a `MatchResult`; the PSNR average is the capped one
    of `data_io.capped_psnr`."""

    def test_perfect_reconstruction(self):
        A = np.random.default_rng(6).uniform(size=(10, 3))
        m = greedy_match(A, A)
        assert m.mse_avg == 0.0
        assert m.psnr_values == [np.inf] * 3
        assert capped_psnr(m) == ([PSNR_SATURATION_DB] * 3, PSNR_SATURATION_DB)
        assert m.ssim_avg == 1.0

    def test_only_an_exact_match_is_capped(self):
        m = MatchResult(pairs=[(0, 0), (1, 1)], mse_values=[1.0, 0.0],
                        psnr_values=[-np.inf, np.inf], ssim_values=[0.0, 1.0])
        assert capped_psnr(m) == ([-np.inf, PSNR_SATURATION_DB], -np.inf)

    def test_single_material_equals_pair_value(self):
        rng = np.random.default_rng(7)
        rec = rng.uniform(size=(12, 1))
        gt = rng.uniform(size=(12, 1))
        m = greedy_match(rec, gt)
        assert (m.mse_avg, m.ssim_avg) == (m.mse_values[0], m.ssim_values[0])

    def test_means_match_independent_recomputation(self):
        rng = np.random.default_rng(8)
        rec = rng.uniform(size=(10, 3))
        gt = rng.uniform(size=(10, 3))
        m = greedy_match(rec, gt)
        assert m.mse_avg == pytest.approx(sum(m.mse_values) / 3, rel=1e-14)
        assert m.ssim_avg == pytest.approx(sum(m.ssim_values) / 3, rel=1e-14)

    def test_empty_matching_rejected(self):
        from spectomo import MatchResult
        with pytest.raises(ValueError):
            MatchResult(pairs=[], mse_values=[], psnr_values=[], ssim_values=[])
