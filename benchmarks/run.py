"""End-to-end and per-layer benchmark of simulate -> reconstruct -> evaluate.

Usage (from the repository root):

    python3 benchmarks/run.py --workload adjust64 --seed 1 --seconds 42 --trace 0

One run is one process.  It repeats whole rounds of the workload on a
throw-away run directory until the next round would end past `--seconds`;
a round is `setups - 1` extra `cli.cmd_simulate` calls, then the timed
pipeline `cmd_simulate`, `cmd_reconstruct` per method and `cmd_evaluate`
per method.  `--seed` sets the simulation (Poisson) seed; the solvers'
initialisation seed is fixed.  With `--trace 0` the run prints the
end-to-end metrics; with `--trace 1` it alternates traced and untraced
rounds and prints the per-layer metrics of the traced ones, plus the
tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See benchmarks/README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: on two cores the default
# two OpenBLAS threads made LAPACK-bound steps slower and noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / ".runs"
RESULTS_DIR = BENCH_DIR / "results"

RECONSTRUCT_SEED = 3

# Shared make-up of every workload: the five-disk phantom, 32 channels over
# 5-35 keV, a 12-entry k-edge dictionary, material rows [1, 3, 5, 7, 9] and
# Poisson noise at 1e4 photons per channel.
_ADJUST = {"rho": 0.01, "random_init": True}
WORKLOADS = {
    # criterion-6 instance: small tables that stay in cache, many iterations
    "adjust64": {"size": 64, "preset": None, "setups": 8, "ssim_floor": 0.90,
                 "methods": {"adjust": dict(_ADJUST, max_iter=200)}},
    # paper scale: the projector's tables fall out of cache, set-up is heavy
    "paper128": {"size": 128, "preset": "full", "setups": 3, "ssim_floor": None,
                 "methods": {"adjust": dict(_ADJUST, max_iter=4)}},
    # the adjust64 instance through the three baselines
    "baselines64": {"size": 64, "preset": None, "setups": 8, "ssim_floor": None,
                    "methods": {"cjoint": {"max_iter": 60}, "ru": {"nmf_restarts": 3},
                                "ur": {"nmf_restarts": 3}}},
}
ITERATIVE = ("adjust", "cjoint")


def metric_units(group: str) -> dict:
    """Metric name -> unit for `end_to_end` or `per_layer`, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[group]}


def raw_config(workload: dict, seed: int, cli) -> dict:
    n = workload["size"]
    raw = {
        "config_version": 1,
        "seed": seed,
        "output_dir": "unused",
        "phantom": {"kind": "disks", "size": n, "count": 5},
        "geometry": {"angles": {"count": 60, "start": 0.0, "stop": 3.141592653589793}},
        "binning": {"channels": 32, "energy_min": 5.0, "energy_max": 35.0},
        "dictionary": {"type": "synthetic", "materials": 12, "peak": 0.12},
        "source": {"type": "flat", "photons": 10000.0},
        "noise": {"poisson": True},
        "method": next(iter(workload["methods"])),
        "method_params": {},
        "material_rows": [1, 3, 5, 7, 9],
    }
    if workload["preset"]:
        raw = cli.apply_preset(raw, workload["preset"])
    return raw


def cpu_steal_ticks():
    """Machine-wide steal ticks from /proc/stat, or None where unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


@dataclass
class Round:
    """One round's run directory, timings and operation counts."""

    run_dir: Path
    traced: bool
    attempted: int
    failed: int = 0
    setup_s: list = field(default_factory=list)
    reconstruct_s: dict = field(default_factory=dict)   # per method
    pipeline_s: float | None = None
    round_s: float | None = None
    layers: dict | None = None      # per-layer metrics of a traced round
    spans: dict | None = None       # calls, total and self time per span name

    def to_json(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k not in ("run_dir", "layers")}


def run_round(workload: dict, cfg, run_dir: Path, tracer, cli) -> Round:
    """Extra set-ups, then the pipeline (traced when `tracer` is given).
    An operation that raises is reported, and it and the rest of the round
    count as failed."""
    methods = workload["methods"]
    ops = ([("setup", cli.cmd_simulate, (cfg, run_dir))] * (workload["setups"] - 1)
           + [("simulate", cli.cmd_simulate, (cfg, run_dir))]
           + [("reconstruct", cli.cmd_reconstruct, (run_dir, m, p, RECONSTRUCT_SEED))
              for m, p in methods.items()]
           + [("evaluate", cli.cmd_evaluate, (run_dir, m)) for m in methods])
    rnd = Round(run_dir, tracer is not None, len(ops))
    round_start = time.perf_counter()
    pipeline_start = None
    try:
        for done, (kind, command, args) in enumerate(ops):
            if kind == "simulate":
                if tracer is not None:
                    tracer.install()
                pipeline_start = time.perf_counter()
            start = time.perf_counter()
            try:
                if tracer is not None and kind != "setup":
                    tracer.call(f"cli.{kind}", command, *args)
                else:
                    command(*args)
            except Exception:
                traceback.print_exc()
                rnd.failed = len(ops) - done
                return rnd
            elapsed = time.perf_counter() - start
            if kind in ("setup", "simulate"):
                rnd.setup_s.append(elapsed)
            elif kind == "reconstruct":
                rnd.reconstruct_s[args[1]] = elapsed
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    rnd.pipeline_s = end - pipeline_start
    rnd.round_s = end - round_start
    if tracer is not None:
        rnd.layers = tracer.layer_metrics()
        rnd.spans = tracer.table()
    return rnd


def solver_figures(run_dir: Path) -> tuple[float, int]:
    """(ms per outer iteration, outer iterations) of the iterative solver,
    from the solve time `cmd_reconstruct` records and its history."""
    for method in ITERATIVE:
        method_dir = run_dir / method
        if method_dir.is_dir():
            seconds = json.loads((method_dir / "reconstruct_meta.json").read_text())["seconds"]
            n_iter = len((method_dir / "history.csv").read_text().splitlines()) - 1
            return 1e3 * seconds / n_iter, n_iter
    raise RuntimeError(f"no iterative solver output in {run_dir}")


def check_round(rnd: Round, workload: dict, op, checks) -> tuple[list[str], dict]:
    """Correctness of one round's outputs; returns failures and the
    recomputed mean SSIM per method."""
    failures, ssims = [], {}
    for method in workload["methods"]:
        method_dir = rnd.run_dir / method
        if method == "adjust":
            failures += checks.check_adjust(rnd.run_dir, method_dir, op)
        elif method == "cjoint":
            failures += checks.check_cjoint(method_dir)
        else:
            failures += checks.check_two_step(method, method_dir)
        report_failures, ssims[method] = checks.check_report(rnd.run_dir, method_dir)
        failures += report_failures
    floor = workload["ssim_floor"]
    if floor is not None and not min(ssims.values()) >= floor:
        failures.append(f"SSIM {ssims} below the floor {floor}")
    return failures, ssims


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "spectomo" / "__init__.py"
    if not package.is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {package} or BENCHMARK.json not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    from spectomo import cli, data_io
    from spectomo.tomo import TomoOperator
    import checks
    from tracing import Tracer

    workload = WORKLOADS[args.workload]
    cfg = data_io.parse_config(raw_config(workload, args.seed, cli))
    scratch = RUNS_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"

    steal0, cpu0 = cpu_steal_ticks(), time.process_time()
    start = time.perf_counter()
    rounds: list[Round] = []
    failures: list[str] = []
    ssims: list[dict] = []
    solver: list[tuple[float, int]] = []
    try:
        # whole rounds, until the next one would end past --seconds
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 0
            tracer = Tracer(workload["size"] ** 2) if traced else None
            rounds.append(run_round(workload, cfg, scratch / f"round{len(rounds)}",
                                    tracer, cli))
            elapsed = time.perf_counter() - start
            typical = elapsed / len(rounds)
            if elapsed + typical > args.seconds:
                break
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        steal1 = cpu_steal_ticks()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # correctness, outside the timed rounds
        good = [r for r in rounds if not r.failed]
        if good:
            op = TomoOperator(cfg.grid(), cfg.parallel_geometry())
            failures += checks.check_operator(op, np.random.default_rng(args.seed))
            for rnd in good:
                round_failures, ssim = check_round(rnd, workload, op, checks)
                failures += round_failures
                ssims.append(ssim)
                solver.append(solver_figures(rnd.run_dir))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    overhead = None
    if good and not args.trace:
        values = {
            "setup_s": statistics.median(s for r in good for s in r.setup_s),
            "reconstruct_s": statistics.median(sum(r.reconstruct_s.values()) for r in good),
            "pipeline_s": statistics.median(r.pipeline_s for r in good),
            "solver_iter_ms": statistics.median(ms for ms, _ in solver),
            "solver_n_iter": statistics.median(n for _, n in solver),
            "solver_ssim": statistics.median(statistics.fmean(v.values()) for v in ssims),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
    traced_rounds = [r for r in good if r.traced]
    if traced_rounds:
        metrics = {name: {"value": statistics.median(r.layers[name] for r in traced_rounds),
                          "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
        untraced = [r for r in good if not r.traced]
        if untraced:
            overhead = (statistics.median(r.pipeline_s for r in traced_rounds)
                        - statistics.median(r.pipeline_s for r in untraced))
            print(f"trace overhead: {overhead:+.4f} s per pipeline (median traced "
                  f"minus median untraced pipeline_s, {len(traced_rounds)} and "
                  f"{len(untraced)} rounds)")
        else:
            print("trace overhead: not measured, no untraced round fitted in the run")

    steal = None if steal0 is None or steal1 is None else steal1 - steal0
    load = os.getloadavg()
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(rounds)} rounds, "
          f"{wall:.2f} s wall, {cpu:.2f} s cpu, steal {steal} ticks, "
          f"load {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {float(m['value'])!r} {m['unit']}")

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "attempted": attempted, "failed": failed,
        "noise": {"wall_s": wall, "cpu_s": cpu, "steal_ticks": steal,
                  "loadavg": list(load)},
        "trace_overhead_s": overhead, "failures": failures,
        "ssim_per_round": ssims, "solver_per_round": solver,
        "metrics": metrics, "rounds": [r.to_json() for r in rounds],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (RESULTS_DIR / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    correct = not failures and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
