import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectomo
from spectomo import (AttenuationTable, ChannelBinning, Grid2D, NoiseConfig,
                      ParallelGeometry, SourceSpectrum, SpectralDictionary,
                      TomoOperator, add_gaussian_noise, bin_attenuation, disks,
                      kedge_dictionary, log_correct, select_channels,
                      simulate_counts)
from spectomo.phantoms import MaterialMap
from spectomo import spectral
from spectomo.spectral import COUNT_FLOOR, SIMULATE_BLOCK_SLOTS, channel_pivot_order

from oracles import dense_reference_projector, greedy_column_selection, interp_oracle


def table(energies, mu_rows, names=None):
    mu = np.atleast_2d(mu_rows)
    names = names or [f"m{i}" for i in range(mu.shape[0])]
    return AttenuationTable(material_names=names, energy_grid=np.asarray(energies, float), mu=mu)


class TestBinning:
    def test_constant_spectrum(self):
        t = table([5.0, 20.0, 35.0], [[5.0, 5.0, 5.0]])
        d = bin_attenuation(t, ChannelBinning.equidistant(7, 6.0, 34.0))
        assert np.allclose(d.T, 5.0)

    def test_midpoint(self):
        t = table([10.0, 20.0], [[1.0, 3.0]])
        d = bin_attenuation(t, ChannelBinning(np.array([15.0])))
        assert d.T[0, 0] == pytest.approx(2.0, abs=1e-15)

    def test_kedge_table_matches_independent_interpolation(self):
        rng = np.random.default_rng(0)
        energies = np.linspace(5.0, 35.0, 40)
        mu = (30.0 / energies) ** 3
        mu[energies >= 17.3] *= 6.0            # step between grid points
        t = table(energies, [mu])
        centers = np.sort(rng.uniform(5.5, 34.5, size=20))
        d = bin_attenuation(t, ChannelBinning(centers))
        for c, got in zip(centers, d.T[0]):
            assert got == pytest.approx(interp_oracle(c, energies, mu), rel=1e-12)

    def test_center_outside_range_rejected(self):
        t = table([10.0, 20.0], [[1.0, 2.0]])
        with pytest.raises(ValueError):
            bin_attenuation(t, ChannelBinning(np.array([25.0])))

    def test_scaling_homogeneity(self):
        energies = np.linspace(5, 35, 11)
        mu = np.vstack([(20 / energies) ** 2, np.linspace(1, 2, 11)])
        binning = ChannelBinning.equidistant(6, 6, 34)
        base = bin_attenuation(table(energies, mu), binning).T
        scaled = bin_attenuation(table(energies, 3.5 * mu), binning).T
        assert np.allclose(scaled, 3.5 * base, rtol=1e-14)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            table([10.0, 10.0], [[1.0, 2.0]])           # not ascending
        for bad in (-2.0, np.nan, np.inf):              # negative or non-finite mu
            with pytest.raises(ValueError, match="attenuation values must be finite"):
                table([10.0, 20.0], [[1.0, bad]])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="energy_grid must be finite"):
                table([10.0, bad], [[1.0, 2.0]])


def simulation_setup(n=16, n_angles=8, channels=4, peak=0.15):
    grid = Grid2D(n, n)
    geom = ParallelGeometry(angles=np.linspace(0, np.pi, n_angles, endpoint=False),
                            n_det=n)
    binning = ChannelBinning.equidistant(channels, 5.0, 35.0)
    dic = kedge_dictionary(4, binning, peak=peak)
    phantom_hi = disks(2 * n, 2, grid=grid.refine(2))
    F_true = dic.T[[0, 2]]
    source = SourceSpectrum.flat(channels, 1e4)
    return grid, geom, binning, dic, phantom_hi, F_true, source


class TestSimulateCounts:
    def test_empty_phantom_gives_flatfield(self):
        grid, geom, binning, dic, ph, F, src = simulation_setup()
        empty = MaterialMap(A=np.zeros_like(ph.A), grid=ph.grid, labels=ph.labels)
        counts = simulate_counts(empty, grid, geom, F, src)
        assert np.allclose(counts, src.intensity[None, :], rtol=0, atol=0)

    def test_single_disk_center_ray_matches_chord(self):
        n = 16
        grid = Grid2D(n, n)
        geom = ParallelGeometry(angles=np.array([0.0]), n_det=n)
        hi = grid.refine(2)
        # one disk centered on the grid, one channel
        X, Y = np.meshgrid((2 * np.arange(2 * n) + 1) / (2 * n) - 1,
                           1 - (2 * np.arange(2 * n) + 1) / (2 * n))
        inside = (X ** 2 + Y ** 2 <= 0.5 ** 2).ravel()
        A_hi = inside[:, None].astype(float)
        phantom = MaterialMap(A=A_hi, grid=hi, labels=["disk"])
        mu = 0.05
        src = SourceSpectrum.flat(1, 1e4)
        counts = simulate_counts(phantom, grid, geom, np.array([[mu]]), src)
        W_hi = dense_reference_projector(hi, geom)
        chord = (W_hi @ A_hi[:, 0])
        expected = 1e4 * np.exp(-mu * chord)
        assert np.allclose(counts[:, 0], expected, rtol=1e-12)

    @pytest.mark.parametrize("n, n_angles", [
        pytest.param(16, 1, id="1"), pytest.param(16, 2, id="2"),
        pytest.param(16, 7, id="7"),
        # 2x grid 128x128: blocks of 24, 23 and 23 angles
        pytest.param(64, 70, id="three-blocks"),
    ])
    def test_blocked_simulation_equals_one_forward(self, n, n_angles):
        # the simulator forwards the 2x operator in blocks of angles; the
        # noiseless counts must equal those of the whole operator exactly
        grid, geom, binning, dic, ph, F, src = simulation_setup(n=n, n_angles=n_angles)
        counts = simulate_counts(ph, grid, geom, F, src)
        line_integrals = TomoOperator(ph.grid, geom).forward(ph.A) @ F
        expected = src.intensity[None, :] * np.exp(-line_integrals)
        assert np.array_equal(counts, expected)

    def test_poisson_seed_reproducible(self):
        grid, geom, binning, dic, ph, F, src = simulation_setup()
        noise = NoiseConfig(poisson=True)
        a = simulate_counts(ph, grid, geom, F, src, noise=noise, seed=42)
        b = simulate_counts(ph, grid, geom, F, src, noise=noise, seed=42)
        assert np.array_equal(a, b)
        c = simulate_counts(ph, grid, geom, F, src, noise=noise, seed=43)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n, n_angles, slots, sizes", [
        pytest.param(64, 60, SIMULATE_BLOCK_SLOTS, [30, 30], id="64x64-60"),
        pytest.param(64, 70, SIMULATE_BLOCK_SLOTS, [24, 23, 23], id="64x64-70"),
        pytest.param(16, 7, 3 * 16 * 2 * 32, [3, 2, 2], id="uneven"),
        pytest.param(16, 3, 1000, [1, 1, 1], id="one-angle-over-budget"),
    ])
    def test_blocks_stay_within_slot_budget(self, monkeypatch, n, n_angles, slots,
                                            sizes):
        # the fewest blocks whose operators hold at most the budgeted weight
        # slots (n_det * 2 * max(nx, ny) per angle), unless one angle alone
        # exceeds it, and the blocks run through the angles in order
        built = []

        class Recording(TomoOperator):
            def __post_init__(self):
                built.append(self.geometry)
                super().__post_init__()

        monkeypatch.setattr(spectral, "SIMULATE_BLOCK_SLOTS", slots)
        monkeypatch.setattr(spectral, "TomoOperator", Recording)
        grid, geom, binning, dic, ph, F, src = simulation_setup(n=n, n_angles=n_angles)
        simulate_counts(ph, grid, geom, F, src)
        per_angle = geom.n_det * 2 * max(ph.grid.nx, ph.grid.ny)
        assert [b.n_angles for b in built] == sizes
        assert all(b.n_angles == 1 or b.n_angles * per_angle <= slots for b in built)
        assert np.array_equal(np.concatenate([b.angles for b in built]), geom.angles)
        assert all((b.n_det, b.det_spacing) == (geom.n_det, geom.det_spacing)
                   for b in built)

    def test_grid_ratio_mismatch_rejected(self):
        grid, geom, binning, dic, ph, F, src = simulation_setup()
        wrong = disks(grid.nx, 2, grid=grid)        # not refined
        with pytest.raises(ValueError):
            simulate_counts(wrong, grid, geom, F, src)

    def test_grid_origin_mismatch_rejected(self):
        # right size and pixel size, but centered elsewhere: the rays would
        # cross the phantom off its place
        grid, geom, binning, dic, ph, F, src = simulation_setup()
        shifted = disks(32, 2, grid=Grid2D(32, 32, 0.5, origin=(3.0, -2.0)))
        with pytest.raises(ValueError, match=r"\(3\.0, -2\.0\).*\(0\.0, 0\.0\)"):
            simulate_counts(shifted, grid, geom, F, src)

    @pytest.mark.parametrize("n_source", [1, 3])
    def test_source_channel_mismatch_rejected(self, n_source):
        # a one-channel source would broadcast over every channel unnoticed
        grid, geom, binning, dic, ph, F, src = simulation_setup(channels=4)
        with pytest.raises(ValueError, match="true spectra have 4 channels, source has"):
            simulate_counts(ph, grid, geom, F, SourceSpectrum.flat(n_source))

    def test_negative_spectra_rejected(self):
        grid, geom, binning, dic, ph, F, src = simulation_setup()
        with pytest.raises(ValueError):
            simulate_counts(ph, grid, geom, -F, src)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_spectra_rejected(self, bad):
        grid, geom, binning, dic, ph, F, src = simulation_setup()
        F = F.copy()
        F[1, 2] = bad
        with pytest.raises(ValueError, match="true spectra must be finite"):
            simulate_counts(ph, grid, geom, F, src)


class TestLogCorrect:
    def test_flatfield_gives_zero(self):
        src = SourceSpectrum.flat(3, 1e4)
        counts = np.full((5, 3), 1e4)
        assert np.all(log_correct(counts, src).Y == 0.0)

    def test_one_absorption_length(self):
        src = SourceSpectrum.flat(2, 1e4)
        counts = np.full((4, 2), 1e4 / np.e)
        assert np.allclose(log_correct(counts, src).Y, 1.0, rtol=1e-14)

    def test_zero_counts_clamped_finite(self):
        src = SourceSpectrum.flat(1, 1e4)
        Y = log_correct(np.zeros((3, 1)), src).Y
        assert np.all(np.isfinite(Y))
        assert np.allclose(Y, -np.log(COUNT_FLOOR / 1e4))

    def test_uniform_rescaling_invariance(self):
        rng = np.random.default_rng(1)
        counts = rng.uniform(50.0, 500.0, size=(6, 3))
        src = SourceSpectrum(np.array([100.0, 200.0, 300.0]))
        src2 = SourceSpectrum(7.0 * src.intensity)
        a = log_correct(counts, src).Y
        b = log_correct(7.0 * counts, src2).Y
        assert np.allclose(a, b, rtol=1e-14)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            log_correct(np.array([[-1.0]]), SourceSpectrum.flat(1))

    def test_noiseless_round_trip(self):
        grid, geom, binning, dic, ph, F, src = simulation_setup(n=16, channels=6)
        counts = simulate_counts(ph, grid, geom, F, src)
        Y = log_correct(counts, src).Y
        from spectomo import TomoOperator
        op_hi = TomoOperator(ph.grid, geom)
        ref = op_hi.forward(ph.A) @ F
        assert np.linalg.norm(Y - ref) <= 1e-10 * np.linalg.norm(ref)


class TestGaussianNoise:
    def test_zero_strength_identity(self):
        Y = np.arange(12.0).reshape(3, 4)
        out = add_gaussian_noise(Y, 0.0, seed=0)
        assert np.array_equal(out, Y)

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            add_gaussian_noise(np.ones((2, 2)), -1.0)

    def test_seed_reproducible(self):
        Y = np.ones((10, 10))
        assert np.array_equal(add_gaussian_noise(Y, 5.0, seed=7),
                              add_gaussian_noise(Y, 5.0, seed=7))

    def test_empirical_std_matches_target(self):
        rng = np.random.default_rng(2)
        Y = rng.uniform(0.5, 2.0, size=(1000, 1000))
        strength = 10.0
        out = add_gaussian_noise(Y, strength, seed=3)
        target = strength / 100.0 * np.sqrt(np.mean(Y ** 2))
        measured = np.std(out - Y)
        assert abs(measured - target) <= 0.01 * target


class TestSelectChannels:
    def test_full_selection_is_everything(self):
        dic = kedge_dictionary(3, ChannelBinning.equidistant(8, 5, 35))
        assert np.array_equal(select_channels(dic.T, 8), np.arange(8))

    def test_duplicate_columns_not_both_kept(self):
        rng = np.random.default_rng(4)
        T = rng.uniform(0.1, 1.0, size=(4, 6))
        T[:, 5] = T[:, 2]
        picked = select_channels(T, 5)
        assert not (2 in picked and 5 in picked)

    def test_matches_gram_schmidt_oracle(self):
        rng = np.random.default_rng(5)
        T = rng.uniform(0.0, 1.0, size=(5, 8))
        order = channel_pivot_order(T, 3)
        assert list(order) == greedy_column_selection(T, 3)
        assert np.array_equal(select_channels(T, 3), np.sort(order))

    def test_scipy_linalg_loaded_only_by_channel_selection(self):
        # a fresh process: this one has long loaded scipy.linalg
        code = (
            "import json, sys\n"
            "import numpy as np\n"
            "import spectomo.cli\n"
            "loaded = ['scipy.linalg' in sys.modules]\n"
            "T = np.random.default_rng(5).uniform(0.0, 1.0, size=(5, 8))\n"
            "picked = spectomo.spectral.select_channels(T, 3).tolist()\n"
            "loaded.append('scipy.linalg' in sys.modules)\n"
            "order = spectomo.spectral.channel_pivot_order(T, 3).tolist()\n"
            "print(json.dumps([loaded, order, picked]))\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(spectomo.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        loaded, order, picked = json.loads(out)
        assert loaded == [False, True]
        T = np.random.default_rng(5).uniform(0.0, 1.0, size=(5, 8))
        assert order == greedy_column_selection(T, 3)
        assert picked == sorted(order)

    def test_k_out_of_range(self):
        T = np.ones((2, 4))
        with pytest.raises(ValueError):
            select_channels(T, 0)
        with pytest.raises(ValueError):
            select_channels(T, 5)


class TestSyntheticDictionary:
    def test_shape_and_nonnegativity(self):
        binning = ChannelBinning.equidistant(30, 5, 35)
        dic = kedge_dictionary(12, binning, peak=0.2)
        assert dic.T.shape == (12, 30)
        assert np.all(dic.T >= 0)
        assert dic.T.max() == pytest.approx(0.2)

    def test_rows_are_distinct(self):
        binning = ChannelBinning.equidistant(50, 5, 35)
        dic = kedge_dictionary(8, binning)
        for i in range(8):
            for j in range(i + 1, 8):
                assert np.linalg.norm(dic.T[i] - dic.T[j]) > 1e-3

    def test_each_row_has_a_step(self):
        binning = ChannelBinning.equidistant(100, 5, 35)
        dic = kedge_dictionary(5, binning, edge_jump=6.0)
        for row in dic.T:
            # the smooth 1/E^3 decay moves a few percent per channel; the
            # edge multiplies the local value several-fold
            local_jumps = np.diff(row) / row[:-1]
            assert local_jumps.max() > 1.0


class TestValidationTypes:
    def test_source_positive(self):
        with pytest.raises(ValueError):
            SourceSpectrum(np.array([1.0, 0.0]))

    def test_dictionary_nonnegative(self):
        with pytest.raises(ValueError):
            SpectralDictionary(T=np.array([[-1.0]]), names=["x"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_dictionary_finite(self, bad):
        with pytest.raises(ValueError, match="dictionary entries must be finite"):
            SpectralDictionary(T=np.array([[0.5, bad]]), names=["x"])

    def test_binning_ascending(self):
        with pytest.raises(ValueError):
            ChannelBinning(np.array([2.0, 1.0]))

    @pytest.mark.parametrize("centers", [[np.nan], [1.0, np.inf], [np.nan, 2.0]])
    def test_binning_finite(self, centers):
        with pytest.raises(ValueError, match="channel centers must be nonempty, finite"):
            ChannelBinning(np.array(centers))

    def test_noise_config_nonnegative(self):
        with pytest.raises(ValueError):
            NoiseConfig(gaussian_percent=-2.0)
