import hashlib
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from spectomo import cli, data_io, evaluation, projections, solvers, spectral
from spectomo.data_io import parse_config
from spectomo.tomo import TomoOperator


def tiny_config(**overrides):
    raw = {
        "config_version": 1,
        "seed": 11,
        "output_dir": "run",
        "phantom": {"kind": "disks", "size": 24, "count": 2},
        "geometry": {"angles": {"count": 12, "start": 0.0, "stop": np.pi},
                     "detectors": 24},
        "binning": {"channels": 5, "energy_min": 5.0, "energy_max": 35.0},
        "dictionary": {"type": "synthetic", "materials": 4, "peak": 0.2},
        "source": {"type": "flat", "photons": 10000.0},
        "noise": {"poisson": True, "gaussian_percent": 0.0},
        "method": "adjust",
        "method_params": {"max_iter": 15, "random_init": True},
    }
    raw.update(overrides)
    return raw


def csv_config(tmp_path, **overrides):
    """`tiny_config` with a dictionary and a source read from CSV files,
    written to `tmp_path` as ``mu.csv`` and ``source.csv``."""
    (tmp_path / "mu.csv").write_text(
        "energy_keV,a,b,c,d\n0,4.5,3,2.25,1\n20,1.25,4,1,0.5\n40,0.5,1.25,2,0.25\n")
    (tmp_path / "source.csv").write_text("energy_keV,intensity\n0,9000\n40,7000\n")
    return tiny_config(dictionary={"type": "csv", "path": "mu.csv"},
                       source={"type": "csv", "path": "source.csv"}, **overrides)


def assert_error_line(capsys, argv, message):
    """`cli.main(argv)` exits with status 2 and writes one line to stderr,
    the error whose text starts with the regular expression `message`."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.match(f"spectomo: error: {message}", err), err


@pytest.fixture()
def run_dir(tmp_path):
    cfg = parse_config(tiny_config())
    out = tmp_path / "run"
    cli.cmd_simulate(cfg, out)
    return out


@pytest.fixture()
def no_operator(monkeypatch):
    """Fail the test if a command builds the projector."""
    def fail(*args, **kwargs):
        raise AssertionError("operator built before the parameters were checked")

    monkeypatch.setattr(cli, "TomoOperator", fail)


class TestSimulate:
    def test_artifacts_written(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        for name in manifest["files"].values():
            assert (run_dir / name).exists()
        Y = data_io.load_matrix(run_dir / "sinogram.adjm")
        assert Y.shape == (12 * 24, 5)
        A = data_io.load_matrix(run_dir / "ground_truth.adjm")
        assert A.shape == (24 * 24, 2)
        T = data_io.load_matrix(run_dir / "dictionary.adjm")
        assert T.shape == (4, 5)
        F = data_io.load_matrix(run_dir / "spectra_true.adjm")
        assert F.shape == (2, 5)

    def test_byte_identical_reruns(self, tmp_path):
        # the benchmark's set-ups pass one RunConfig to simulate many times
        for name, raw in [("synthetic", tiny_config()),
                          ("csv", csv_config(tmp_path,
                                             channel_selection={"count": 3}))]:
            cfg = parse_config(raw, base_dir=tmp_path)
            a, b = tmp_path / name / "a", tmp_path / name / "b"
            cli.cmd_simulate(cfg, a)
            cli.cmd_simulate(cfg, b)
            files = sorted(path.name for path in a.iterdir())
            assert files == sorted(path.name for path in b.iterdir())
            for file in files:
                assert (a / file).read_bytes() == (b / file).read_bytes(), file

    def test_seed_changes_counts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.cmd_simulate(parse_config(tiny_config(seed=1)), a)
        cli.cmd_simulate(parse_config(tiny_config(seed=2)), b)
        assert (a / "sinogram.adjm").read_bytes() != (b / "sinogram.adjm").read_bytes()

    def test_each_csv_read_once(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(csv_config(tmp_path,
                                                  output_dir=str(tmp_path / "run"))))
        reads = []
        read = data_io._read_csv_lines

        def counted(path):
            reads.append(Path(path).name)
            return read(path)

        monkeypatch.setattr(data_io, "_read_csv_lines", counted)
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
        assert reads == ["mu.csv", "source.csv"]

    def test_csv_rewritten_after_the_check_is_not_read_again(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(csv_config(tmp_path)))
        binning = spectral.ChannelBinning.equidistant(5, 5.0, 35.0)
        checked = spectral.bin_attenuation(
            data_io.load_attenuation_csv(tmp_path / "mu.csv"), binning).T
        source = data_io.source_from_csv(tmp_path / "source.csv", binning)
        cfg = data_io.load_config(cfg_path)
        (tmp_path / "mu.csv").write_text(
            "energy_keV,a,b,c,d\n0,1,1,1,1\n40,2,2,2,2\n")
        (tmp_path / "source.csv").write_text("energy_keV,intensity\n0,5\n40,5\n")
        manifest = cli.cmd_simulate(cfg, tmp_path / "run")
        np.testing.assert_array_equal(
            data_io.load_matrix(tmp_path / "run" / "dictionary.adjm"), checked)
        assert manifest["source_intensity"] == source.intensity.tolist()

    def test_phantom_generator_limit_writes_nothing(self, tmp_path):
        cfg = parse_config(tiny_config(
            phantom={"kind": "shepp_logan", "size": 8, "materials": 2}))
        with pytest.raises(ValueError, match="n >= 16"):
            cli.cmd_simulate(cfg, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_gaussian_noise_applied_after_log(self, tmp_path):
        clean_dir, noisy_dir = tmp_path / "clean", tmp_path / "noisy"
        base = tiny_config(noise={"poisson": False, "gaussian_percent": 0.0})
        cli.cmd_simulate(parse_config(base), clean_dir)
        noisy = tiny_config(noise={"poisson": False, "gaussian_percent": 5.0})
        cli.cmd_simulate(parse_config(noisy), noisy_dir)
        Yc = data_io.load_matrix(clean_dir / "sinogram.adjm")
        Yn = data_io.load_matrix(noisy_dir / "sinogram.adjm")
        sigma = np.std(Yn - Yc)
        target = 0.05 * np.sqrt(np.mean(Yc ** 2))
        assert sigma == pytest.approx(target, rel=0.1)


class TestReconstructEvaluate:
    @pytest.mark.parametrize("method,params", [
        ("adjust", {"max_iter": 15, "random_init": True}),
        ("cjoint", {"max_iter": 15}),
        ("ru", {"nmf_restarts": 2, "nmf_iters": 20}),
        ("ur", {"nmf_restarts": 2, "nmf_iters": 20}),
    ])
    def test_each_method_end_to_end(self, run_dir, method, params):
        method_dir = cli.cmd_reconstruct(run_dir, method=method,
                                         method_params=params)
        assert (method_dir / "maps.adjm").exists()
        assert (method_dir / "spectra.adjm").exists()
        assert (method_dir / "history.csv").exists()
        # only the dictionary solver has coefficients
        assert (method_dir / "coeffs.adjm").exists() == (method == "adjust")
        report = cli.cmd_evaluate(run_dir, method=method)
        assert 0.0 <= report["ssim_avg"] <= 1.0
        for path in report["artifacts"]["images"]:
            assert Path(path).exists()

    @pytest.mark.parametrize("method,params,reason,failures", [
        ("adjust", {"max_iter": 3, "random_init": True}, "max_iter", 0),
        ("cjoint", {"max_iter": 3}, "max_iter", 0),
        ("ru", {"nmf_restarts": 1, "nmf_iters": 5}, None, None),
    ], ids=["adjust", "cjoint", "ru"])
    def test_meta_records_why_the_solver_stopped(self, run_dir, method, params,
                                                 reason, failures):
        method_dir = cli.cmd_reconstruct(run_dir, method=method,
                                         method_params=params)
        meta = json.loads((method_dir / "reconstruct_meta.json").read_text())
        assert list(meta) == ["method", "seconds", "params", "seed",
                              "stop_reason", "step_failures"]
        assert meta["stop_reason"] == reason
        assert meta["step_failures"] == failures

    def test_reconstruct_hands_free_heap_pages_back(self, run_dir, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_MALLOC_TRIM", calls.append)
        cli.cmd_reconstruct(run_dir, method="ru",
                            method_params={"nmf_restarts": 1, "nmf_iters": 5})
        assert calls == [0]

    def test_history_has_iteration_rows(self, run_dir):
        method_dir = cli.cmd_reconstruct(run_dir, method="adjust",
                                         method_params={"max_iter": 6,
                                                        "random_init": True})
        lines = (method_dir / "history.csv").read_text().splitlines()
        assert lines[0] == "iter,objective,eps_abs,eps_rel,alpha,beta"
        assert len(lines) == 7

    def test_unknown_method_params_rejected(self, run_dir, no_operator):
        with pytest.raises(ValueError, match="unknown method parameters"):
            cli.cmd_reconstruct(run_dir, method="adjust",
                                method_params={"bogus": 1})
        assert not (run_dir / "adjust").exists()

    @pytest.mark.parametrize("method,params,message", [
        ("adjust", {"rho": 2.0}, "rho must lie in"),
        ("ru", {"nmf_restarts": 0}, "nmf_restarts must be >= 1"),
    ])
    def test_bad_override_fails_before_any_work(self, run_dir, no_operator,
                                                method, params, message):
        with pytest.raises(ValueError, match=message):
            cli.cmd_reconstruct(run_dir, method=method, method_params=params)
        assert not (run_dir / method).exists()

    def test_flat_start_in_the_manifest_writes_nothing(self, run_dir, capsys,
                                                       no_operator):
        # a run directory whose config still asks for the flat start
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["config"]["method_params"]["random_init"] = False
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        before = sorted(run_dir.rglob("*"))
        assert_error_line(capsys, ["reconstruct", "--out", str(run_dir)],
                          "random_init must be true")
        assert sorted(run_dir.rglob("*")) == before

    def test_reconstruct_without_simulate_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="simulate"):
            cli.cmd_reconstruct(tmp_path / "empty")

    def test_evaluate_without_reconstruction_fails(self, run_dir):
        with pytest.raises(FileNotFoundError, match="no reconstruction"):
            cli.cmd_evaluate(run_dir, method="ur")

    @pytest.mark.parametrize("name,shape,expected", [
        ("sinogram.adjm", (12 * 24, 3), (12 * 24, 5)),
        ("dictionary.adjm", (4, 3), (4, 5)),
    ], ids=["sinogram", "dictionary"])
    def test_reconstruct_rejects_a_file_of_another_shape(self, run_dir, capsys,
                                                         no_operator, name,
                                                         shape, expected):
        data_io.save_matrix(run_dir / name, np.ones(shape))
        assert_error_line(capsys, ["reconstruct", "--out", str(run_dir)], re.escape(
            f"{run_dir / name}: holds a {shape} matrix, expected {expected}\n"))
        assert not (run_dir / "adjust").exists()

    @pytest.mark.parametrize("name", ["sinogram.adjm", "dictionary.adjm"],
                             ids=["sinogram", "dictionary"])
    def test_reconstruct_refuses_a_non_finite_input(self, run_dir, capsys, name):
        A = data_io.load_matrix(run_dir / name)
        A[3, 1] = np.nan
        data_io.save_matrix(run_dir / name, A)
        assert_error_line(capsys, ["reconstruct", "--out", str(run_dir)], re.escape(
            f"{run_dir / name}: holds non-finite entries\n"))
        assert not (run_dir / "adjust").exists()

    def test_evaluate_rejects_maps_of_another_run(self, run_dir, capsys):
        # re-simulating a 16x16 config into the 24x24 run leaves its maps stale
        cli.cmd_reconstruct(run_dir, method_params={"max_iter": 2})
        cli.cmd_simulate(parse_config(tiny_config(
            phantom={"kind": "disks", "size": 16, "count": 2},
            geometry={"angles": {"count": 12, "stop": np.pi}})), run_dir)
        assert_error_line(capsys, ["evaluate", "--out", str(run_dir)], re.escape(
            f"{run_dir / 'adjust' / 'maps.adjm'}: holds a (576, 2) matrix, "
            "expected (256, 2)\n"))
        assert not (run_dir / "adjust" / "results.csv").exists()

    def test_evaluate_rejects_spectra_of_another_shape(self, run_dir, capsys):
        method_dir = cli.cmd_reconstruct(run_dir, method_params={"max_iter": 2})
        data_io.save_matrix(method_dir / "spectra.adjm", np.ones((2, 3)))
        assert_error_line(capsys, ["evaluate", "--out", str(run_dir)], re.escape(
            f"{method_dir / 'spectra.adjm'}: holds a (2, 3) matrix, "
            "expected (2, 5)\n"))
        assert not (method_dir / "results.csv").exists()

    @pytest.mark.parametrize("name,message", [
        ("ground_truth.adjm", "PSNR needs a reference with a positive peak, got 0.0"),
        ("adjust/maps.adjm", "holds non-finite entries"),
        ("adjust/spectra.adjm", "holds non-finite entries"),
    ], ids=["zero-peak-truth", "non-finite-maps", "non-finite-spectra"])
    def test_evaluate_refuses_a_run_it_cannot_score(self, run_dir, capsys,
                                                     name, message):
        method_dir = cli.cmd_reconstruct(run_dir, method_params={"max_iter": 2})
        A = data_io.load_matrix(run_dir / name)
        A[:, 1] = 0.0 if name == "ground_truth.adjm" else np.nan
        data_io.save_matrix(run_dir / name, A)
        assert_error_line(capsys, ["evaluate", "--out", str(run_dir)],
                          re.escape(f"{run_dir / name}: {message}\n"))
        assert not (method_dir / "results.csv").exists()

    def test_malformed_meta_names_file_and_line(self, run_dir):
        method_dir = cli.cmd_reconstruct(run_dir, method="ru",
                                         method_params={"nmf_restarts": 1,
                                                        "nmf_iters": 5})
        path = method_dir / "reconstruct_meta.json"
        path.write_text('{\n  "seconds": }')
        with pytest.raises(data_io.FormatError,
                           match=f"^{re.escape(str(path))}:2: invalid JSON"):
            cli.cmd_evaluate(run_dir, method="ru")

    def test_perfect_reconstruction_scores_one(self, run_dir):
        gt = data_io.load_matrix(run_dir / "ground_truth.adjm")
        method_dir = run_dir / "adjust"
        method_dir.mkdir(exist_ok=True)
        data_io.save_matrix(method_dir / "maps.adjm", gt)
        data_io.save_matrix(method_dir / "spectra.adjm",
                            data_io.load_matrix(run_dir / "spectra_true.adjm"))
        report = cli.cmd_evaluate(run_dir, method="adjust")
        assert report["ssim_avg"] == 1.0
        assert report["mse_avg"] == 0.0
        assert report["psnr_avg"] == evaluation.PSNR_SATURATION_DB

    def test_psnr_avg_is_mean_of_capped_values(self, run_dir):
        # one exact map (infinite PSNR, capped) and one halved map: both files
        # give the mean of the capped values, not the cap of the mean
        gt = data_io.load_matrix(run_dir / "ground_truth.adjm")
        rec = gt.copy()
        rec[:, 1] *= 0.5
        method_dir = run_dir / "adjust"
        method_dir.mkdir(exist_ok=True)
        data_io.save_matrix(method_dir / "maps.adjm", rec)
        data_io.save_matrix(method_dir / "spectra.adjm",
                            data_io.load_matrix(run_dir / "spectra_true.adjm"))
        report = cli.cmd_evaluate(run_dir, method="adjust")
        psnr = report["psnr"]
        assert sorted(psnr)[1] == evaluation.PSNR_SATURATION_DB > sorted(psnr)[0]
        assert report["psnr_avg"] == float(np.mean(psnr))
        assert report["psnr_avg"] < evaluation.PSNR_SATURATION_DB
        average = (method_dir / "results.csv").read_text().splitlines()[-1]
        assert float(average.split(",")[4]) == report["psnr_avg"]
        saved = json.loads((method_dir / "report.json").read_text())
        assert saved["psnr_avg"] == report["psnr_avg"]

    def test_permuted_columns_score_identically(self, run_dir):
        gt = data_io.load_matrix(run_dir / "ground_truth.adjm")
        method_dir = run_dir / "adjust"
        method_dir.mkdir(exist_ok=True)
        data_io.save_matrix(method_dir / "maps.adjm", gt[:, ::-1])
        data_io.save_matrix(method_dir / "spectra.adjm",
                            data_io.load_matrix(run_dir / "spectra_true.adjm"))
        report = cli.cmd_evaluate(run_dir, method="adjust")
        assert report["ssim_avg"] == 1.0

    def test_output_bytes_match_recorded_run(self, run_dir):
        # digests and text recorded from a run of the same inputs before the
        # evaluate writers moved into data_io
        gt = data_io.load_matrix(run_dir / "ground_truth.adjm")
        method_dir = run_dir / "adjust"
        method_dir.mkdir(exist_ok=True)
        data_io.save_matrix(method_dir / "maps.adjm", gt[:, ::-1])
        data_io.save_matrix(method_dir / "spectra.adjm",
                            np.arange(10.0).reshape(2, 5) / 3)
        cli.cmd_evaluate(run_dir, method="adjust")
        assert (method_dir / "spectra_recovered.csv").read_text() == (
            "channel,energy_keV,material_0,material_1\n"
            "0,5,0,1.6666666666666667\n"
            "1,12.5,0.33333333333333331,2\n"
            "2,20,0.66666666666666663,2.3333333333333335\n"
            "3,27.5,1,2.6666666666666665\n"
            "4,35,1.3333333333333333,3\n")
        assert (method_dir / "results.csv").read_text() == (
            "method,material_rec,material_gt,mse,psnr,ssim\n"
            "adjust,0,1,0,99,1\n"
            "adjust,1,0,0,99,1\n"
            "adjust,average,average,0,99,1\n")
        report = json.loads((method_dir / "report.json").read_text())
        del report["evaluate_seconds"], report["artifacts"]
        digests = {
            "map_00.pgm": "c1793fb39e7026582454e313ba7572c3b6861dbbd7a78c8086c1d617375be4e0",
            "map_01.pgm": "68c702ee477c1b662431b91bccd91c17ee85fb1012f46055ddf7878d39feb8a5",
        }
        for name, digest in digests.items():
            assert hashlib.sha256((method_dir / name).read_bytes()).hexdigest() == digest
        assert hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest() == (
            "65f2f8db675dfaaaad19f00eb659b9f12218797a8737a39d3314ccfff4478cd8")

    def test_metrics_match_library_recomputation(self, run_dir):
        cli.cmd_reconstruct(run_dir, method="ru",
                            method_params={"nmf_restarts": 2, "nmf_iters": 20})
        report = cli.cmd_evaluate(run_dir, method="ru")
        A_rec = data_io.load_matrix(run_dir / "ru" / "maps.adjm")
        A_gt = data_io.load_matrix(run_dir / "ground_truth.adjm")
        match = evaluation.greedy_match(A_rec, A_gt)
        assert report["mse_avg"] == pytest.approx(match.mse_avg, rel=1e-12)
        assert report["ssim_avg"] == pytest.approx(match.ssim_avg, rel=1e-12)

    def test_report_references_existing_files(self, run_dir):
        cli.cmd_reconstruct(run_dir, method="cjoint",
                            method_params={"max_iter": 10})
        report = cli.cmd_evaluate(run_dir, method="cjoint")
        arts = report["artifacts"]
        for key in ("results_csv", "spectra_csv", "history_csv"):
            assert Path(arts[key]).exists()
        for img in arts["images"]:
            assert Path(img).exists()


class TestSweepRho:
    def test_one_history_per_rho(self, run_dir):
        paths = cli.cmd_sweep_rho(run_dir, rho_list=(0.0, 0.05), max_iter=8)
        assert len(paths) == 2
        for p in paths:
            lines = p.read_text().splitlines()
            assert len(lines) == 9

    def test_identical_seeds_identical_histories(self, run_dir):
        a = cli.cmd_sweep_rho(run_dir, rho_list=(0.01,), max_iter=6)[0].read_text()
        b = cli.cmd_sweep_rho(run_dir, rho_list=(0.01,), max_iter=6)[0].read_text()
        assert a == b

    def test_same_history_format_as_reconstruct(self, run_dir):
        method_dir = cli.cmd_reconstruct(run_dir, method="adjust",
                                         method_params={"rho": 0.01,
                                                        "max_iter": 6})
        path = cli.cmd_sweep_rho(run_dir, rho_list=(0.01,), max_iter=6)[0]
        assert path.read_bytes() == (method_dir / "history.csv").read_bytes()

    def test_unknown_method_params_rejected(self, run_dir):
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["method_params"] = {"bogus": 1}
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unknown method parameters"):
            cli.cmd_sweep_rho(run_dir, rho_list=(0.01,), max_iter=2)

    def test_bad_rho_fails_before_any_work(self, run_dir, no_operator):
        with pytest.raises(ValueError, match="rho must lie in"):
            cli.cmd_sweep_rho(run_dir, rho_list=(0.01, 2.0), max_iter=2)
        assert not (run_dir / "sweep").exists()

    def test_each_distinct_rho_solved_once(self, run_dir, capsys, monkeypatch):
        calls = []
        real = cli._solve

        def counted(method, problem, params, seed, history_path):
            calls.append(params["rho"])
            return real(method, problem, params, seed, history_path)

        monkeypatch.setattr(cli, "_solve", counted)
        assert cli.main(["sweep-rho", "--out", str(run_dir), "--rhos",
                         "0.01,0.01,0.010", "--max-iter", "2"]) == 0
        assert calls == [0.01]
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {run_dir / 'sweep' / 'history_rho_0.01.csv'}"]
        paths = cli.cmd_sweep_rho(run_dir, rho_list=(0.1, 0.0, 0.1, 0.0),
                                  max_iter=2)
        assert calls == [0.01, 0.1, 0.0]
        assert [p.name for p in paths] == ["history_rho_0.1.csv",
                                           "history_rho_0.csv"]

    def test_rhos_sharing_a_file_name_fail_before_any_work(self, run_dir,
                                                           no_operator):
        with pytest.raises(data_io.FormatError,
                           match="0.01 and 0.01000001 would both write "
                                 "history_rho_0.01.csv"):
            cli.cmd_sweep_rho(run_dir, rho_list=(0.01, 0.01000001), max_iter=2)
        assert not (run_dir / "sweep").exists()

    def test_palm_history_monotone(self, run_dir):
        path = cli.cmd_sweep_rho(run_dir, rho_list=(0.0,), max_iter=10)[0]
        objs = [float(line.split(",")[1])
                for line in path.read_text().splitlines()[1:]]
        assert all(b <= a for a, b in zip(objs[:-1], objs[1:]))


class TestRunDirectory:
    """The later commands read the run directory `simulate` wrote, never the
    config again."""

    @pytest.mark.parametrize("geometry,preset", [
        ({"angles": {"list": [0.0, 0.4, 1.3, 2.9, 4.0]}, "detectors": 30,
          "detector_spacing": 0.7}, None),
        (None, "limited-view"),
    ], ids=["explicit-angles", "limited-view"])
    def test_operator_comes_from_the_manifest(self, tmp_path, geometry, preset):
        raw = tiny_config()
        raw["phantom"]["pixel_size"] = 0.3
        if geometry is not None:
            raw["geometry"] = geometry
        if preset is not None:
            raw = cli.apply_preset(raw, preset)
        cfg = parse_config(raw)
        manifest = cli.cmd_simulate(cfg, tmp_path / "run")
        op = cli._load_problem(tmp_path / "run", manifest)[0]
        expected = TomoOperator(cfg.grid(), cfg.parallel_geometry())
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(op.W, name),
                                          getattr(expected.W, name))

    def test_later_commands_never_parse_the_config(self, run_dir, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("config parsed again")

        monkeypatch.setattr(data_io, "parse_config", fail)
        assert "parse_config" not in vars(cli)
        assert cli.main(["reconstruct", "--out", str(run_dir)]) == 0
        assert cli.main(["evaluate", "--out", str(run_dir)]) == 0
        assert cli.main(["sweep-rho", "--out", str(run_dir), "--rhos", "0.01",
                         "--max-iter", "2"]) == 0

    def test_moved_csv_files_do_not_break_later_commands(self, tmp_path):
        energies = np.arange(0.0, 61.0, 2.0)
        mu = np.array([np.exp(-energies / s) + 0.01 for s in (5, 10, 20, 40)])
        table = spectral.AttenuationTable(["a", "b", "c", "d"], energies, mu)
        data_io.save_attenuation_csv(tmp_path / "mu.csv", table)
        (tmp_path / "source.csv").write_text(
            "energy_keV,intensity\n0,10000\n60,20000\n")
        cfg = parse_config(tiny_config(
            dictionary={"type": "csv", "path": "mu.csv"},
            source={"type": "csv", "path": "source.csv"}), base_dir=tmp_path)
        run = tmp_path / "run"
        cli.cmd_simulate(cfg, run)
        moved = tmp_path / "moved"
        moved.mkdir()
        for name in ("mu.csv", "source.csv"):
            (tmp_path / name).rename(moved / name)

        method_dir = cli.cmd_reconstruct(run, method_params={"max_iter": 3})
        assert (method_dir / "maps.adjm").exists()
        assert 0.0 <= cli.cmd_evaluate(run)["ssim_avg"] <= 1.0
        assert len(cli.cmd_sweep_rho(run, rho_list=(0.01,), max_iter=2)) == 1

    def test_csv_inputs_output_bytes_match_recorded_run(self, tmp_path):
        # digests recorded from a run of the same inputs while the source
        # CSV still had a reader of its own; a blank line and a scale too
        (tmp_path / "mu.csv").write_text(
            "energy_keV,a,b,c,d\n"
            "0,4.5,3,2.25,1\n"
            "10,2.5,1.75,1.5,0.75\n"
            "20,1.25,4,1,0.5\n"
            "30,0.75,2,3.5,0.375\n"
            "40,0.5,1.25,2,0.25\n")
        (tmp_path / "source.csv").write_text(
            "energy_keV,intensity\n0,9000\n\n20,11000.5\n40,7000.25\n")
        cfg = parse_config(tiny_config(
            dictionary={"type": "csv", "path": "mu.csv"},
            source={"type": "csv", "path": "source.csv", "scale": 1.5}),
            base_dir=tmp_path)
        run = tmp_path / "run"
        cli.cmd_simulate(cfg, run)
        digests = {
            "sinogram.adjm": "4b43b73c8f4ae8a4afc00824e198586e62757fc066f7726c10101dbf8dee16f2",
            "ground_truth.adjm": "7559aa6fc7be38954818e45bf6594ba5386dabe46b3112de1e8794e1711b8ca0",
            "spectra_true.adjm": "f0a6b685338ec6d4b362e296dcfe911d20391838610b44ea211095b2e432a486",
            "dictionary.adjm": "e70a294f6bcfcaac59c417f8af267bd0ee07d118bc7fb88f26ba417890476ecb",
        }
        for name, digest in digests.items():
            assert hashlib.sha256((run / name).read_bytes()).hexdigest() == digest
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["source_intensity"] == [
            14250.1875, 15375.46875, 16500.75, 14250.609375, 12000.46875]
        del manifest["config"]["dictionary"]["path"]
        del manifest["config"]["source"]["path"]
        assert hashlib.sha256(json.dumps(manifest, indent=2).encode()).hexdigest() == (
            "e156b80e70f365dc6d89cbc69f588ceb89f40679b6abf9e5e80bbde0c5592aec")

    def test_config_only_locates_the_run_directory(self, tmp_path):
        energies = np.arange(0.0, 61.0, 2.0)
        mu = np.array([np.exp(-energies / s) + 0.01 for s in (5, 10, 20, 40)])
        table = spectral.AttenuationTable(["a", "b", "c", "d"], energies, mu)
        data_io.save_attenuation_csv(tmp_path / "mu.csv", table)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(
            output_dir=str(tmp_path / "run"),
            dictionary={"type": "csv", "path": "mu.csv"})))
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
        (tmp_path / "mu.csv").rename(tmp_path / "moved.csv")
        for argv in (["reconstruct"], ["evaluate"],
                     ["sweep-rho", "--rhos", "0.01", "--max-iter", "2"]):
            assert cli.main([*argv, "--config", str(cfg_path)]) == 0
        assert (tmp_path / "run" / "sweep" / "history_rho_0.01.csv").exists()


class TestPresets:
    def test_full(self):
        raw = cli.apply_preset(tiny_config(), "full")
        assert raw["geometry"]["angles"]["count"] == 180
        assert raw["noise"]["poisson"] is True

    def test_sparse_angle(self):
        raw = cli.apply_preset(tiny_config(), "sparse-angle")
        assert raw["geometry"]["angles"]["count"] == 10

    def test_limited_view(self):
        raw = cli.apply_preset(tiny_config(), "limited-view")
        ang = raw["geometry"]["angles"]
        assert ang["count"] == 60
        assert ang["stop"] == pytest.approx(2 * np.pi / 3)

    def test_sparse_channel(self, tmp_path):
        raw = cli.apply_preset(tiny_config(), "sparse-channel")
        raw["binning"]["channels"] = 9
        cfg = parse_config(raw)
        out = tmp_path / "sc"
        manifest = cli.cmd_simulate(cfg, out)
        assert manifest["selected_channels"] is not None
        assert len(manifest["selected_channels"]) == 4     # dictionary size
        Y = data_io.load_matrix(out / "sinogram.adjm")
        assert Y.shape[1] == 4

    def test_noisy_preset(self):
        raw = cli.apply_preset(tiny_config(), "noisy-10")
        assert raw["noise"]["gaussian_percent"] == 10.0
        assert raw["noise"]["poisson"] is True

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            cli.apply_preset(tiny_config(), "bogus")

    # the whole config each preset makes of one with no noise section and a
    # channel selection of its own, recorded before the presets became a
    # table; json.dumps compares the key order too, which the manifest keeps
    @pytest.mark.parametrize("preset,count,stop,noise,selection", [
        ("full", 180, 3.141592653589793, {"poisson": True}, None),
        ("sparse-angle", 10, 3.141592653589793, {"poisson": True}, None),
        ("limited-view", 60, 2.0943951023931953, {"poisson": True}, None),
        ("sparse-channel", 60, 3.141592653589793, {"poisson": True},
         {"count": "dictionary"}),
        ("noisy-10", 180, 3.141592653589793,
         {"poisson": True, "gaussian_percent": 10.0}, None),
    ])
    def test_whole_config_as_recorded(self, preset, count, stop, noise,
                                      selection):
        raw = tiny_config(channel_selection={"count": 2})
        del raw["noise"]
        before = json.dumps(raw)
        expected = tiny_config()
        del expected["noise"]
        expected["geometry"]["angles"] = {"count": count, "start": 0.0,
                                          "stop": stop}
        expected["noise"] = noise
        if selection is not None:
            expected["channel_selection"] = selection
        assert json.dumps(cli.apply_preset(raw, preset)) == json.dumps(expected)
        assert json.dumps(raw) == before              # the input is copied


class TestMainEntry:
    def test_pipeline_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = tiny_config(output_dir=str(tmp_path / "out"))
        cfg["method_params"] = {"max_iter": 6, "random_init": True}
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(["pipeline", "--config", str(cfg_path), "--rhos", "0,0.01"])
        assert rc == 0
        out = tmp_path / "out"
        assert (out / "adjust" / "report.json").exists()
        assert (out / "sweep" / "history_rho_0.csv").exists()
        assert (out / "sweep" / "history_rho_0.01.csv").exists()
        assert "pipeline finished" in capsys.readouterr().out

    def test_simulate_then_reconstruct_then_evaluate_cli(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = tiny_config(output_dir=str(tmp_path / "out"))
        cfg["method_params"] = {"max_iter": 5, "random_init": True}
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
        assert cli.main(["reconstruct", "--out", str(tmp_path / "out")]) == 0
        assert cli.main(["evaluate", "--out", str(tmp_path / "out")]) == 0
        assert "ssim_avg" in capsys.readouterr().out

    def test_seed_override_flag(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(output_dir=str(tmp_path / "o1"))))
        cli.main(["simulate", "--config", str(cfg_path), "--seed", "99",
                  "--out", str(tmp_path / "o1")])
        manifest = json.loads((tmp_path / "o1" / "manifest.json").read_text())
        assert manifest["seed"] == 99

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    @pytest.mark.parametrize("override", [
        {"method_params": {"rho": 2.0}},
        {"channel_selection": {"count": 0}},
        {"dictionary": {"type": "bogus"}},
        {"source": {"type": "bogus"}},
        {"noise": {"poisson": True, "gaussian_percent": -1.0}},
        {"material_rows": [0, 9]},
        {"channel_selection": {"count": "dictionary"},     # 8 entries, 5 channels
         "dictionary": {"type": "synthetic", "materials": 8}},
    ], ids=["method_params", "channel_selection", "dictionary", "source", "noise",
            "material_rows", "channel_selection-dictionary"])
    def test_bad_config_writes_nothing(self, tmp_path, capsys, command, override):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            tiny_config(output_dir=str(tmp_path / "out"), **override)))
        section = next(iter(override))
        assert_error_line(capsys, [command, "--config", str(cfg_path)],
                          f"{section} section")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,message", [
        (["reconstruct", "--out", "{run}", "--method", "bogus"],
         "unknown method 'bogus'"),
        (["simulate", "--config", "{cfg}", "--preset", "bogus"],
         "unknown preset 'bogus'"),
        (["sweep-rho", "--out", "{run}", "--max-iter", "0"],
         "max_iter must be an int >= 1"),
        (["sweep-rho", "--out", "{run}", "--rhos", "1.5"],
         r"rho must lie in \[0, 1\)"),
        (["reconstruct", "--out", "{run}", "--seed", "-3"],
         "seed must be a non-negative integer"),
    ], ids=["method", "preset", "max-iter", "rhos", "seed"])
    def test_bad_flag_value_leaves_the_run_as_it_was(self, run_dir, capsys,
                                                     argv, message):
        cli.cmd_reconstruct(run_dir, method_params={"max_iter": 3})
        cfg_path = run_dir.parent / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(output_dir=str(run_dir))))

        def snapshot():
            return {p: p.read_bytes() if p.is_file() else None
                    for p in run_dir.rglob("*")}

        before = snapshot()
        assert (run_dir / "adjust" / "history.csv") in before
        assert_error_line(capsys, [a.format(run=run_dir, cfg=cfg_path)
                                   for a in argv], message)
        assert snapshot() == before

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_malformed_config_file_names_path(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text('{\n  "seed": 1,\n  broken\n}')
        assert_error_line(capsys, [command, "--config", str(cfg_path)],
                          f"{re.escape(str(cfg_path))}:3: invalid JSON")

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_config_file_not_an_object_names_path(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "list.json"
        cfg_path.write_text("[1, 2]")
        assert_error_line(capsys, [command, "--config", str(cfg_path),
                                   "--preset", "full"],
                          f"{re.escape(str(cfg_path))}: a config must "
                          "be a JSON object, got list")

    def test_missing_phantom_section_is_one_error_line(self, tmp_path, capsys):
        raw = tiny_config(output_dir=str(tmp_path / "out"))
        del raw["phantom"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert_error_line(capsys, ["simulate", "--config", str(cfg_path)],
                          "config missing required section 'phantom'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("preset", ["full", "noisy-5"])
    @pytest.mark.parametrize("section, value", [
        ("geometry", None), ("geometry", [1]), ("noise", [1]),
    ], ids=["no-geometry", "geometry-list", "noise-list"])
    def test_preset_on_a_bad_section_is_the_same_error(self, tmp_path, capsys,
                                                       preset, section, value):
        raw = tiny_config(output_dir=str(tmp_path / "out"))
        if value is None:
            del raw[section]
        else:
            raw[section] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        argv = ["simulate", "--config", str(cfg_path)]
        with pytest.raises(SystemExit):
            cli.main(argv)
        plain = capsys.readouterr().err
        assert section in plain
        assert_error_line(capsys, argv + ["--preset", preset], re.escape(
            plain.removeprefix("spectomo: error: ")))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["reconstruct", "evaluate", "sweep-rho"])
    def test_missing_run_directory_is_one_error_line(self, tmp_path, capsys,
                                                     command):
        assert_error_line(capsys, [command, "--out", str(tmp_path / "none")],
                          ".*manifest.json not found; run `spectomo "
                          "simulate` first")

    @pytest.mark.parametrize("command", [cli.cmd_reconstruct, cli.cmd_evaluate,
                                         cli.cmd_sweep_rho],
                             ids=["reconstruct", "evaluate", "sweep-rho"])
    def test_truncated_manifest_names_file_and_line(self, run_dir, command):
        path = run_dir / "manifest.json"
        path.write_text('{"seed": 1,')
        with pytest.raises(data_io.FormatError,
                           match=f"^{re.escape(str(path))}:1: invalid JSON"):
            command(run_dir)

    @pytest.mark.parametrize("argv", [
        ["reconstruct", "--preset", "bogus"],
        ["evaluate", "--seed", "5"],
        ["evaluate", "--preset", "bogus"],
        ["sweep-rho", "--seed", "5"],
        ["sweep-rho", "--method", "ru"],
        ["sweep-rho", "--preset", "bogus"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_flag_the_command_does_not_read_is_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path)])
        assert exc.value.code != 0

    def test_unknown_flag_is_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--bogus", "x"])
        assert exc.value.code != 0

    @pytest.mark.parametrize("command", ["sweep-rho", "pipeline"])
    @pytest.mark.parametrize("rhos", ["0,x", "", ","],
                             ids=["text", "empty", "comma"])
    def test_bad_rho_list_is_usage_error(self, run_dir, capsys, command, rhos):
        cfg_path = run_dir.parent / "cfg.json"
        cfg_path.write_text(json.dumps(
            tiny_config(output_dir=str(run_dir.parent / "out"))))
        where = (["--out", str(run_dir)] if command == "sweep-rho"
                 else ["--config", str(cfg_path)])
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *where, "--rhos", rhos])
        assert exc.value.code == 2
        assert "--rhos" in capsys.readouterr().err
        assert not (run_dir / "sweep").exists()
        assert not (run_dir.parent / "out").exists()

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for sub in ("simulate", "reconstruct", "evaluate", "sweep-rho", "pipeline"):
            assert sub in text

    @pytest.mark.parametrize("command", ["reconstruct", "evaluate", "sweep-rho"])
    def test_missing_run_directory_flag_is_one_error_line(self, tmp_path,
                                                          monkeypatch, capsys,
                                                          command):
        monkeypatch.chdir(tmp_path)
        assert_error_line(capsys, [command], re.escape(
            "--out (or --config with output_dir) is required"))
        assert list(tmp_path.iterdir()) == []

    def test_phantom_generator_limit_is_one_error_line(self, tmp_path, capsys):
        raw = tiny_config(output_dir=str(tmp_path / "out"),
                          phantom={"kind": "shepp_logan", "size": 8,
                                   "materials": 3})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert_error_line(capsys, ["simulate", "--config", str(cfg_path)],
                          "phantom section invalid: shepp_logan needs n >= 16")
        assert not (tmp_path / "out").exists()

    def test_phantom_material_on_no_pixel_is_one_error_line(self, tmp_path,
                                                            capsys):
        raw = tiny_config(output_dir=str(tmp_path / "out"),
                          phantom={"kind": "disks", "size": 8, "count": 2})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert_error_line(capsys, ["simulate", "--config", str(cfg_path)],
                          "phantom section invalid: disk_0 covers no pixel at n=8")
        assert not (tmp_path / "out").exists()

    def test_missing_config_reports_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert_error_line(capsys, ["simulate"],
                          "--config is required for this command$")
        assert list(tmp_path.iterdir()) == []


def load_benchmark_module(name):
    """The module ``benchmarks/<name>.py``, loaded by path."""
    path = Path(__file__).parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_a_tiny_pipeline(tmp_path):
    # benchmarks/tracing.py patches package names from outside the package;
    # a name it no longer finds would make its counters read zero
    tracing = load_benchmark_module("tracing")
    originals = (solvers.backtracking, projections.project_rows_capped_simplex,
                 TomoOperator.forward)
    cfg = parse_config(tiny_config())
    tracer = tracing.Tracer(cfg.grid().n_pixels)
    tracer.install()
    try:
        cli.cmd_simulate(cfg, tmp_path / "run")
        method_dir = cli.cmd_reconstruct(tmp_path / "run", "adjust")
    finally:
        tracer.uninstall()
    assert (solvers.backtracking, projections.project_rows_capped_simplex,
            TomoOperator.forward) == originals
    metrics = tracer.layer_metrics()
    for name in ("solvers.linesearch_trials", "projections.dykstra_sweeps",
                 "tomo.forward_calls"):
        assert metrics[name] > 0, name
    last = (method_dir / "history.csv").read_text().splitlines()[-1]
    assert metrics["solvers.final_eps_abs"] == float(last.split(",")[2])


def test_benchmark_round_runs_and_passes_its_checks(tmp_path, monkeypatch):
    # benchmarks/run.py drives RunConfig and the cmd_* functions from outside
    # the package; a change to either must not break only the benchmark.  The
    # thread variables are set first, so monkeypatch undoes run.py's writes
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    run = load_benchmark_module("run")
    checks = load_benchmark_module("checks")
    workload = {"size": 16, "preset": None, "setups": 2, "ssim_floor": None,
                "methods": {"adjust": {"rho": 0.01, "random_init": True,
                                       "max_iter": 3},
                            "cjoint": {"max_iter": 3},
                            "ru": {"nmf_restarts": 1}, "ur": {"nmf_restarts": 1}}}
    cfg = data_io.parse_config(run.raw_config(workload, 5, cli))
    rnd = run.run_round(workload, cfg, tmp_path / "round", None, cli)
    assert (rnd.attempted, rnd.failed, len(rnd.setup_s)) == (10, 0, 2)
    op = TomoOperator(cfg.grid(), cfg.parallel_geometry())
    failures, ssims = run.check_round(rnd, workload, op, checks)
    assert failures == []
    assert set(ssims) == set(workload["methods"])
    assert run.solver_figures(rnd.run_dir)[1] == 3


def test_benchmark_workload_inputs_are_accepted(monkeypatch):
    # the round test above runs its own small workload; this one checks that
    # every workload BENCHMARK.json declares still passes the package's checks
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    run = load_benchmark_module("run")
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(run.WORKLOADS) == {w["name"] for w in declared}
    for name, workload in run.WORKLOADS.items():
        data_io.parse_config(run.raw_config(workload, 1, cli))
        for method, params in workload["methods"].items():
            data_io.method_config(method, params, run.RECONSTRUCT_SEED)
