"""Command-line driver for the simulate / reconstruct / evaluate pipeline.

Commands operate on a run directory: `simulate` fills it with measurement
artifacts, `reconstruct` adds per-method outputs, `evaluate` scores them
against the ground truth, `sweep-rho` compares solver acceleration
settings on the same data, and `pipeline` chains all four.  Every command
is reproducible: the same config and seed produce byte-identical numeric
outputs when run with the same BLAS thread count (with another count, a
misfit can sum in another order and differ in its last digit).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import data_io, evaluation, solvers, spectral
from .data_io import FormatError, RunConfig, load_config
from .tomo import Grid2D, ParallelGeometry, TomoOperator

# each measurement preset's angle count over [0, stop) and whether it keeps
# one channel per dictionary entry; noisy-<p> is full plus p percent of
# Gaussian noise, and every preset turns Poisson noise on unless it is set
PRESETS = {"full": (180, np.pi, False), "sparse-angle": (10, np.pi, False),
           "limited-view": (60, 2.0 * np.pi / 3.0, False),
           "sparse-channel": (60, np.pi, True)}
_PRESET_CHOICES = f"{', '.join(PRESETS)} or noisy-<percent>"
DEFAULT_RHO_SWEEP = (0.0, 0.01, 0.1)
# the keys of manifest.json that `reconstruct`, `evaluate` and `sweep-rho`
# read, a dot marking a key of an object within it
MANIFEST_KEYS = ("grid.nx", "grid.ny", "grid.pixel_size", "angles", "n_det",
                 "det_spacing", "n_materials", "seed", "channel_centers",
                 "files.sinogram", "files.dictionary", "files.ground_truth",
                 "config.method", "dictionary_names")

# glibc's malloc keeps freed pages inside its heap (all but a large enough
# free top), and how many depends on where the arrays happened to land: the
# operator's weight buffer goes on the heap or into its own mapping as the
# heap's free space allows.  malloc_trim(0) hands every whole free page
# back; None where the C library has no such call.
_MALLOC_TRIM = (getattr(ctypes.CDLL(None), "malloc_trim", None)
                if sys.platform.startswith("linux") else None)


def apply_preset(raw: dict, name: str) -> dict:
    """A copy of a raw config dict rewritten to one of the measurement
    setups of `PRESETS`; an unknown name raises `FormatError`."""
    raw = json.loads(json.dumps(raw))            # deep copy, JSON-safe
    percent = None
    if name.startswith("noisy-"):
        try:
            percent = float(name[len("noisy-"):])
        except ValueError:
            raise FormatError(f"bad noise preset {name!r}; use noisy-<percent>") from None
        name = "full"
    if name not in PRESETS:
        raise FormatError(f"unknown preset {name!r}; choose from {_PRESET_CHOICES}")
    geometry, noise = raw.get("geometry"), raw.setdefault("noise", {})
    if not (isinstance(geometry, dict) and isinstance(noise, dict)):
        return raw          # the config check rejects it as it does without a preset
    noise.setdefault("poisson", True)
    if percent is not None:
        noise["gaussian_percent"] = percent
    raw.pop("channel_selection", None)
    count, stop, per_entry = PRESETS[name]
    geometry["angles"] = {"count": count, "start": 0.0, "stop": stop}
    if per_entry:
        raw["channel_selection"] = {"count": "dictionary"}
    return raw


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: RunConfig, out_dir: Path) -> dict:
    """Render the phantom at twice the target resolution, simulate counts,
    log-correct, and write all artifacts the later stages need.  Nothing is
    written until the phantoms are rendered."""
    out_dir = Path(out_dir)
    grid = cfg.grid()
    geom = cfg.parallel_geometry()
    phantom_lo = cfg.phantom_map(grid)
    phantom_hi = cfg.phantom_map(grid.refine(2))

    T = cfg.dictionary.T
    F_true = T[cfg.material_rows]
    counts = spectral.simulate_counts(phantom_hi, grid, geom, F_true, cfg.source,
                                      noise=cfg.noise, seed=cfg.seed)
    Y = spectral.add_gaussian_noise(spectral.log_correct(counts, cfg.source).Y,
                                    cfg.noise.gaussian_percent, seed=cfg.seed + 1)

    selected = None
    centers = cfg.binning.centers
    intensity = cfg.source.intensity
    if cfg.channel_count is not None:
        selected = spectral.select_channels(T, cfg.channel_count)
        Y = Y[:, selected]
        T = T[:, selected]
        F_true = F_true[:, selected]
        centers = centers[selected]
        intensity = intensity[selected]

    out_dir.mkdir(parents=True, exist_ok=True)
    files = {"sinogram": "sinogram.adjm", "ground_truth": "ground_truth.adjm",
             "spectra_true": "spectra_true.adjm", "dictionary": "dictionary.adjm"}
    data_io.save_matrix(out_dir / files["sinogram"], Y)
    data_io.save_matrix(out_dir / files["ground_truth"], phantom_lo.A)
    data_io.save_matrix(out_dir / files["spectra_true"], F_true)
    data_io.save_matrix(out_dir / files["dictionary"], T)

    manifest = {
        "config_version": data_io.CONFIG_VERSION,
        "config": cfg.raw,
        "seed": cfg.seed,
        "grid": {"nx": grid.nx, "ny": grid.ny, "pixel_size": grid.pixel_size},
        "angles": geom.angles.tolist(),
        "n_det": geom.n_det,
        "det_spacing": geom.det_spacing,
        "channel_centers": centers.tolist(),
        "source_intensity": intensity.tolist(),
        "selected_channels": None if selected is None else selected.tolist(),
        "n_materials": cfg.material_rows.size,
        "material_rows": cfg.material_rows.tolist(),
        "material_labels": list(phantom_lo.labels),
        "dictionary_names": list(cfg.dictionary.names),
        "files": files,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def cmd_reconstruct(out_dir: Path, method: str | None = None,
                    method_params: dict | None = None,
                    seed: int | None = None) -> Path:
    """Run one solver on a simulated run directory; writes maps, spectra,
    the coefficients of a dictionary solve, an iteration history CSV and
    ``reconstruct_meta.json`` with the solve time and why the loop stopped."""
    out_dir = Path(out_dir)
    manifest, grid, geometry = _load_manifest(out_dir)
    method = method or manifest["config"]["method"]
    params = {**_configured_params(manifest["config"], method),
              **(method_params or {})}
    if seed is None:
        seed = manifest["seed"]
    data_io.method_config(method, params, seed)   # fail before any work

    problem = _load_problem(out_dir, manifest, grid, geometry)
    method_dir = out_dir / method
    method_dir.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    result = _solve(method, problem, params, seed, method_dir / "history.csv")
    elapsed = time.perf_counter() - t0
    # the operator and the solver's temporaries are freed here; hand their
    # pages back, so the commands after this one in the process do not keep them
    del problem
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)

    if result.R is not None:
        data_io.save_matrix(method_dir / "coeffs.adjm", result.R)
    data_io.save_matrix(method_dir / "maps.adjm", result.A)
    data_io.save_matrix(method_dir / "spectra.adjm", result.F)
    # the two-step baselines have no loop, so no stop reason
    with open(method_dir / "reconstruct_meta.json", "w", encoding="utf-8") as fh:
        json.dump({"method": method, "seconds": elapsed, "params": params,
                   "seed": seed, "stop_reason": result.stop_reason,
                   "step_failures": result.step_failures}, fh, indent=2)
    return method_dir


def cmd_evaluate(out_dir: Path, method: str | None = None) -> dict:
    """Match reconstructed maps to the ground truth and score them; writes
    the results CSV, per-material images, recovered spectra, and a report.
    Maps, spectra or a ground truth that cannot be scored (a non-finite
    entry, or a ground-truth column with no positive peak), or a
    ``reconstruct_meta.json`` without its ``seconds``, raise a `FormatError`
    that names the file, before anything is written."""
    out_dir = Path(out_dir)
    manifest, grid, _ = _load_manifest(out_dir)
    method = method or manifest["config"]["method"]
    method_dir = out_dir / method
    maps_path = method_dir / "maps.adjm"
    if not maps_path.exists():
        raise FileNotFoundError(f"no reconstruction for {method!r} in {out_dir}")

    t0 = time.perf_counter()
    gt_path = out_dir / manifest["files"]["ground_truth"]
    A_gt = _load_finite(gt_path)
    _check_shape(maps_path, A_gt.shape)
    _check_shape(method_dir / "spectra.adjm",
                 (manifest["n_materials"], len(manifest["channel_centers"])))
    A_rec = _load_finite(maps_path)
    F_rec = _load_finite(method_dir / "spectra.adjm")
    try:
        match = evaluation.greedy_match(A_rec, A_gt)
    except ValueError as exc:         # a ground-truth column with no positive peak
        raise FormatError(f"{gt_path}: {exc}") from exc
    meta_path = method_dir / "reconstruct_meta.json"
    solve_seconds = None
    if meta_path.exists():
        solve_seconds = _read_object(meta_path, ("seconds",))["seconds"]

    results_path = method_dir / "results.csv"
    data_io.write_results_csv(results_path, method, match)

    image_paths = []
    for m in range(A_rec.shape[1]):
        img = A_rec[:, m].reshape(grid.ny, grid.nx)
        vmax = max(1.0, float(img.max()))
        path = method_dir / f"map_{m:02d}.pgm"
        data_io.export_pgm16(path, img, 0.0, vmax)
        image_paths.append(str(path))

    spectra_path = method_dir / "spectra_recovered.csv"
    data_io.write_spectra_csv(spectra_path, F_rec, manifest["channel_centers"])

    psnr, psnr_avg = data_io.capped_psnr(match)
    report = {
        "config": manifest["config"],
        "method": method,
        "pairs": [list(p) for p in match.pairs],
        "mse": match.mse_values,
        "psnr": psnr,
        "ssim": match.ssim_values,
        "mse_avg": match.mse_avg,
        "psnr_avg": psnr_avg,
        "ssim_avg": match.ssim_avg,
        "solve_seconds": solve_seconds,
        "evaluate_seconds": time.perf_counter() - t0,
        "artifacts": {
            "results_csv": str(results_path),
            "spectra_csv": str(spectra_path),
            "images": image_paths,
            "history_csv": str(method_dir / "history.csv"),
        },
    }
    with open(method_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return report


def cmd_sweep_rho(out_dir: Path, rho_list=DEFAULT_RHO_SWEEP,
                  max_iter: int | None = None) -> list[Path]:
    """Run the dictionary solver once per distinct feedback weight, in the
    order first given, on the same data; one history CSV per value,
    directly comparable across the sweep."""
    out_dir = Path(out_dir)
    manifest, grid, geometry = _load_manifest(out_dir)
    params = {**_configured_params(manifest["config"], "adjust")}
    if max_iter is not None:
        params["max_iter"] = max_iter
    names = {}                                    # file name -> rho
    for rho in dict.fromkeys(rho_list):           # fail before any work
        data_io.method_config("adjust", {**params, "rho": rho})
        # the shortest form that reads back as rho: distinct values, distinct names
        names[f"history_rho_{str(float(rho)).removesuffix('.0')}.csv"] = rho

    problem = _load_problem(out_dir, manifest, grid, geometry)
    sweep_dir = out_dir / "sweep"
    sweep_dir.mkdir(exist_ok=True)
    for name, rho in names.items():
        _solve("adjust", problem, {**params, "rho": rho}, manifest["seed"],
               sweep_dir / name)
    return [sweep_dir / name for name in names]


def cmd_pipeline(cfg: RunConfig, out_dir: Path,
                 rho_list=DEFAULT_RHO_SWEEP) -> dict:
    """simulate -> reconstruct -> evaluate -> sweep-rho, in sequence."""
    cmd_simulate(cfg, out_dir)
    cmd_reconstruct(out_dir)
    report = cmd_evaluate(out_dir)
    cmd_sweep_rho(out_dir, rho_list=rho_list)
    return report


def _configured_params(config: dict, method: str):
    """The `method_params` of the raw config `config` if `method` is its
    `method`: they apply to no other method."""
    return config.get("method_params", {}) if method == config.get("method") else {}


def _load_problem(out_dir: Path, manifest: dict, grid: Grid2D,
                  geometry: ParallelGeometry):
    """The operator, data, dictionary and material count of a simulated run,
    read from what `_load_manifest` returns and the run's files alone; a
    file whose shape disagrees with the manifest fails before the operator
    is built, and one with a non-finite entry before anything is solved.
    The data are loaded after the build, whose transients they would
    otherwise add to."""
    files = manifest["files"]
    n_channels = len(manifest["channel_centers"])
    _check_shape(out_dir / files["sinogram"], (geometry.n_rays, n_channels))
    _check_shape(out_dir / files["dictionary"],
                 (len(manifest["dictionary_names"]), n_channels))
    return (TomoOperator(grid, geometry),
            _load_finite(out_dir / files["sinogram"]),
            _load_finite(out_dir / files["dictionary"]),
            manifest["n_materials"])


def _load_finite(path: Path) -> np.ndarray:
    """The matrix file `path` of the run directory; a `FormatError` naming
    it if an entry is not finite."""
    A = data_io.load_matrix(path)
    if not np.all(np.isfinite(A)):
        raise FormatError(f"{path}: holds non-finite entries")
    return A


def _check_shape(path: Path, shape: tuple) -> None:
    """Raise a `FormatError` naming both shapes if the matrix file `path` of
    the run directory is not of `shape`."""
    found = data_io.matrix_shape(path)
    if found != shape:
        raise FormatError(f"{path}: holds a {found} matrix, expected {shape}")


def _solve(method: str, problem, params: dict, seed: int, history_path: Path):
    """Run one method on ``(op, Y, T, M)`` and return the solver's result;
    `adjust` and `cjoint` stream their iteration history to `history_path`,
    which the two-step baselines leave with the header only."""
    op, Y, T, M = problem
    with data_io.history_csv(history_path) as write_row:
        def log_record(_k, _A, _X, record):
            write_row(record)

        config = data_io.method_config(method, params, seed, log_record)
        if method == "adjust":
            return solvers.aapm(op, T, Y, M, config)
        return getattr(solvers, method)(op, Y, M, config)


def _load_manifest(out_dir: Path) -> tuple[dict, Grid2D, ParallelGeometry]:
    """The run directory's manifest, with the grid and geometry built from
    it: a JSON object holding every key of `MANIFEST_KEYS`, with an
    `n_materials` from 1 to the number of `dictionary_names`, `angles` and
    `channel_centers` each a nonempty list of numbers, and values that
    `Grid2D` and `ParallelGeometry` accept; anything else raises a
    `FormatError` naming the file."""
    path = Path(out_dir) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(
            f"{path} not found; run `spectomo simulate` first")
    manifest = _read_object(path, MANIFEST_KEYS)
    n, names = manifest["n_materials"], manifest["dictionary_names"]
    if not (type(n) is int and isinstance(names, list) and 1 <= n <= len(names)):
        raise FormatError(f"{path}: n_materials must be an integer from 1 to "
                          f"the number of dictionary_names, got {n!r}")
    for key in ("angles", "channel_centers"):
        values = manifest[key]
        if not (isinstance(values, list) and values
                and all(type(v) in (int, float) for v in values)):
            raise FormatError(f"{path}: {key} must be a nonempty list of numbers")
    g = manifest["grid"]
    try:
        grid = Grid2D(g["nx"], g["ny"], g["pixel_size"])
        geometry = ParallelGeometry(angles=manifest["angles"], n_det=manifest["n_det"],
                                    det_spacing=manifest["det_spacing"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from None
    return manifest, grid, geometry


def _read_object(path: Path, keys) -> dict:
    """The JSON object in the file at `path`, holding each of `keys` (``a.b``
    is key ``b`` of the object at ``a``); another JSON value or a missing
    key raises a `FormatError` naming the file and the key."""
    value = data_io.read_json(path)
    if not isinstance(value, dict):
        raise FormatError(f"{path}: must hold a JSON object")
    for key in keys:
        owner = value
        for part in key.split("."):
            if not (isinstance(owner, dict) and part in owner):
                raise FormatError(f"{path}: missing key {key!r}")
            owner = owner[part]
    return value


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _rho_list(text: str) -> list[float]:
    """The ``--rhos`` value: one or more comma-separated numbers."""
    try:
        rhos = [float(r) for r in text.split(",") if r != ""]
    except ValueError:
        rhos = []
    if not rhos:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}")
    return rhos


# each subcommand's help text and the flags it reads
_COMMANDS = {
    "simulate": ("generate measurement artifacts",
                 ("--config", "--out", "--seed", "--method", "--preset")),
    "reconstruct": ("run a solver on a simulated run",
                    ("--config", "--out", "--seed", "--method")),
    "evaluate": ("score a reconstruction against truth",
                 ("--config", "--out", "--method")),
    "sweep-rho": ("compare acceleration settings",
                  ("--config", "--out", "--rhos", "--max-iter")),
    "pipeline": ("simulate, reconstruct, evaluate, and sweep-rho in sequence",
                 ("--config", "--out", "--seed", "--method", "--preset", "--rhos")),
}
_FLAGS = {
    "--config": {"help": "path to a JSON run configuration"},
    "--out": {"help": "run directory (overrides config output_dir)"},
    "--seed": {"type": int, "help": "override the config seed"},
    "--method": {"help": f"solver: {', '.join(data_io.METHOD_PARAMS)}"},
    "--preset": {"help": f"measurement preset: {_PRESET_CHOICES}"},
    "--rhos": {"type": _rho_list, "default": DEFAULT_RHO_SWEEP,
               "help": "comma-separated feedback weights"},
    "--max-iter": {"type": int, "help": "iteration budget for each sweep run"},
}


def _resolve_config(args) -> tuple[RunConfig, Path]:
    if not args.config:
        raise FormatError("--config is required for this command")

    def override(raw):
        if args.preset:
            raw = apply_preset(raw, args.preset)
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.method:
            raw["method_params"] = _configured_params(raw, args.method)
            raw["method"] = args.method
        return raw

    cfg = load_config(args.config, override)
    out_dir = Path(args.out) if args.out else Path(cfg.raw["output_dir"])
    return cfg, out_dir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spectomo",
        description="Simulate multi-energy tomographic measurements and "
                    "reconstruct per-material maps and spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            cfg, out_dir = _resolve_config(args)
            manifest = cmd_simulate(cfg, out_dir)
            print(f"simulated {manifest['files']['sinogram']} and ground truth "
                  f"in {out_dir}")
        elif args.command == "reconstruct":
            out_dir = _required_out(args)
            method_dir = cmd_reconstruct(out_dir, method=args.method,
                                         seed=args.seed)
            print(f"reconstruction written to {method_dir}")
        elif args.command == "evaluate":
            out_dir = _required_out(args)
            report = cmd_evaluate(out_dir, method=args.method)
            print(f"{report['method']}: mse_avg={report['mse_avg']:.6g} "
                  f"psnr_avg={report['psnr_avg']:.4g} "
                  f"ssim_avg={report['ssim_avg']:.6g}")
        elif args.command == "sweep-rho":
            out_dir = _required_out(args)
            paths = cmd_sweep_rho(out_dir, rho_list=args.rhos,
                                  max_iter=args.max_iter)
            for path in paths:
                print(f"wrote {path}")
        elif args.command == "pipeline":
            cfg, out_dir = _resolve_config(args)
            report = cmd_pipeline(cfg, out_dir, rho_list=args.rhos)
            print(f"pipeline finished: ssim_avg={report['ssim_avg']:.6g} "
                  f"({out_dir})")
    except (data_io.FormatError, FileNotFoundError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    return 0


def _required_out(args) -> Path:
    if args.out:
        return Path(args.out)
    if args.config:
        return Path(data_io.config_output_dir(args.config))
    raise FormatError("--out (or --config with output_dir) is required")


if __name__ == "__main__":
    sys.exit(main())
