import numpy as np
import pytest
from scipy.optimize import nnls

from spectomo import Grid2D, disks, mixed_disks, shepp_logan
from spectomo.phantoms import (_DISK_RADIUS, _DISK_RING_RADIUS, MaterialMap)


class TestSheppLogan:
    def test_rows_are_one_hot_or_zero(self):
        m = shepp_logan(64, 3)
        sums = m.A.sum(axis=1)
        assert set(np.unique(sums)) <= {0.0, 1.0}
        assert np.all((m.A == 0) | (m.A == 1))

    def test_corner_pixel_is_empty(self):
        m = shepp_logan(64, 3)
        assert np.all(m.A[0] == 0.0)          # top-left corner, outside all ellipses
        assert np.all(m.A[-1] == 0.0)

    def test_five_materials_at_paper_resolution(self):
        m = shepp_logan(512, 5)
        populated = np.count_nonzero(m.A.sum(axis=0) > 0)
        assert populated == 5

    def test_material_count_validation(self):
        with pytest.raises(ValueError):
            shepp_logan(64, 1)
        with pytest.raises(ValueError):
            shepp_logan(64, 6)
        with pytest.raises(ValueError):
            shepp_logan(8, 2)

    def test_deterministic(self):
        a = shepp_logan(64, 4)
        b = shepp_logan(64, 4)
        assert np.array_equal(a.A, b.A)

    def test_descending_grey_maps_to_ascending_material(self):
        m = shepp_logan(256, 5)
        # material 0 is the brightest structure: the outer shell
        shell = m.column_image(0)
        assert shell[128, 4] == 0.0            # outside
        assert shell.sum() > 0

    def test_all_classes_populated(self):
        for M in (2, 3, 4, 5):
            m = shepp_logan(256, M)
            assert np.all(m.A.sum(axis=0) > 0)


class TestDisks:
    def test_eight_disks_as_in_experiments(self):
        m = disks(128, 8)
        assert m.n_materials == 8
        assert np.all(m.A.sum(axis=0) > 0)

    def test_disjoint_membership(self):
        m = disks(96, 12)
        assert np.all(m.A.sum(axis=1) <= 1.0)
        assert np.all((m.A == 0) | (m.A == 1))

    def test_disk_area_within_perimeter_band(self):
        n = 128
        m = disks(n, 8)
        r = _DISK_RADIUS * n / 2.0             # radius in pixels
        expected = np.pi * r ** 2
        band = 2.0 * np.pi * r + 4.0
        for col in range(8):
            count = m.A[:, col].sum()
            assert abs(count - expected) <= band

    def test_count_validation(self):
        with pytest.raises(ValueError):
            disks(64, 0)
        with pytest.raises(ValueError):
            disks(64, 16)

    def test_overlap_guard_fails_closed(self):
        from spectomo.phantoms import _check_disjoint
        with pytest.raises(ValueError, match="overlap"):
            _check_disjoint([(0.2, (0.0, 0.0)), (0.2, (0.3, 0.0))])

    @pytest.mark.parametrize("count", [1, 2, 8, 15])
    def test_material_on_no_pixel_rejected(self, count):
        # at 8^2 no pixel center falls inside disk 0, centered at (0.6, 0)
        with pytest.raises(ValueError, match="disk_0 covers no pixel at n=8"):
            disks(8, count)

    def test_fifteen_disks_fit(self):
        m = disks(256, 15)
        assert np.all(m.A.sum(axis=0) > 0)
        assert np.all(m.A.sum(axis=1) <= 1.0)

    def test_total_mass_scales_with_resolution(self):
        base = disks(64, 5).A.sum()
        fine = disks(128, 5).A.sum()
        assert fine == pytest.approx(4 * base, rel=0.08)


class TestMixedDisks:
    def test_pair_count_for_five_materials(self):
        m = mixed_disks(128, 5)
        # 5 pure disks plus C(5,2) = 10 mixed disks
        half_rows = np.isclose(m.A, 0.5).any(axis=1)
        mixed_regions = set()
        for row in m.A[half_rows]:
            mixed_regions.add(tuple(np.flatnonzero(row)))
        assert len(mixed_regions) == 10

    def test_mixture_rows_sum_to_one_exactly(self):
        m = mixed_disks(96, 4)
        sums = m.A.sum(axis=1)
        mixture = np.isclose(m.A, 0.5).any(axis=1)
        assert np.all(sums[mixture] == 1.0)

    def test_nnls_recovers_half_half_weights(self):
        m = mixed_disks(128, 3)
        mixture_rows = np.isclose(m.A, 0.5).any(axis=1)
        blocks = {}
        for row in m.A[mixture_rows]:
            blocks.setdefault(tuple(np.flatnonzero(row)), []).append(row)
        for pair, rows in blocks.items():
            stacked = np.asarray(rows)
            design = np.ones((stacked.shape[0], 1))
            for mat in pair:
                w, _ = nnls(design, stacked[:, mat])
                assert w[0] == pytest.approx(0.5, abs=1e-12)

    def test_material_count_validation(self):
        with pytest.raises(ValueError):
            mixed_disks(64, 1)
        with pytest.raises(ValueError):
            mixed_disks(64, 7)

    def test_material_on_no_pixel_rejected(self):
        with pytest.raises(ValueError, match="material_0 covers no pixel at n=8"):
            mixed_disks(8, 2)

    def test_six_materials_fit(self):
        m = mixed_disks(256, 6)          # 6 pure + 15 mixed disks
        assert np.all(m.A.sum(axis=0) > 0)
        assert np.all(m.A.sum(axis=1) <= 1.0)


class TestResolutionConsistency:
    @pytest.mark.parametrize("make", [
        lambda n, g: disks(n, 6, grid=g),
        lambda n, g: shepp_logan(n, 3, grid=g),
        lambda n, g: mixed_disks(n, 4, grid=g),
    ])
    def test_block_average_of_fine_render_matches_at_interior(self, make):
        n = 64
        base = make(n, Grid2D(n, n))
        fine = make(2 * n, Grid2D(2 * n, 2 * n, 0.5))
        for col in range(base.n_materials):
            coarse = base.column_image(col)
            avg = fine.column_image(col).reshape(n, 2, n, 2).mean(axis=(1, 3))
            diff = np.abs(avg - coarse) > 0
            # disagreements may only occur where the coarse map is not
            # locally uniform (a one-pixel band around class boundaries)
            interior = np.ones_like(coarse, dtype=bool)
            interior[1:-1, 1:-1] = True
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    shifted = np.roll(np.roll(coarse, dy, axis=0), dx, axis=1)
                    interior[1:-1, 1:-1] &= (shifted == coarse)[1:-1, 1:-1]
            assert not np.any(diff & interior)


class TestMaterialMapValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MaterialMap(A=np.array([[-0.1]]), grid=Grid2D(1, 1), labels=["x"])

    def test_row_sum_above_one_rejected(self):
        with pytest.raises(ValueError):
            MaterialMap(A=np.array([[0.7, 0.7]]), grid=Grid2D(1, 1), labels=["x", "y"])

    def test_wrong_pixel_count_rejected(self):
        with pytest.raises(ValueError):
            MaterialMap(A=np.zeros((3, 1)), grid=Grid2D(2, 2), labels=["x"])
