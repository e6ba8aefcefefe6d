"""Per-layer tracing for the benchmark, installed from outside the package.

Each spectomo module is a layer.  `install` replaces the public functions
of every layer with timing wrappers, under the names their callers look up
at call time (for example `solvers.project_doubly_capped`, which `solvers`
imports by name, and `projections.project_rows_capped_simplex`, which
`project_doubly_capped` reaches through its own module), and `uninstall`
puts the originals back.  Nothing under `src/` is changed.

Spans are kept in memory as (name, duration, self time), where self time is
the duration minus the time covered by directly nested spans.  A layer's
self time is the sum of the self times of its spans.  Counters (columns,
bytes, line-search trials, Dykstra sweeps) are recorded at the same
boundaries.  `layer_metrics` turns one traced pipeline into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import os
import time
import warnings
from collections import defaultdict

from spectomo import data_io, evaluation, phantoms, projections, solvers, spectral
from spectomo.tomo import TomoOperator

_MB = 2.0 ** 20
_PAGE = os.sysconf("SC_PAGE_SIZE")


class Tracer:
    """Spans and counters of one traced pipeline."""

    def __init__(self, n_image: int):
        self.n_image = n_image          # rows of the map block, to tell A from R
        self.spans: list[tuple[str, float, float]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.final_eps_abs = None       # last eps_abs of aapm or cjoint
        self._stack: list[list] = []    # open spans: [name, start, child time]
        self._mark = 0.0                # end of the last solver phase
        self._patches: list[tuple[object, str, object]] = []
        try:
            self._statm = os.open("/proc/self/statm", os.O_RDONLY)
        except OSError:
            self._statm = None

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> float:
        name, start, child = self._stack.pop()
        end = time.perf_counter()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((name, duration, duration - child))
        return end

    def call(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def rss_bytes(self) -> int | None:
        if self._statm is None:
            return None
        return int(os.pread(self._statm, 128, 0).split()[1]) * _PAGE

    # -- installing the wrappers --------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer's public functions where their callers find them."""
        timed = self._timed
        for name in ("disks", "shepp_logan", "mixed_disks"):
            self._patch(phantoms, name, timed("phantoms.render", getattr(phantoms, name)))
        self._patch(spectral, "simulate_counts",
                    timed("spectral.simulate", spectral.simulate_counts))
        self._patch(spectral, "log_correct",
                    timed("spectral.log_correct", spectral.log_correct))

        self._patch(TomoOperator, "__post_init__",
                    timed("tomo.build", TomoOperator.__post_init__))
        self._patch(TomoOperator, "forward", self._operator("forward", TomoOperator.forward))
        self._patch(TomoOperator, "adjoint", self._operator("adjoint", TomoOperator.adjoint))

        rows = self._rows(projections.project_rows_capped_simplex)
        doubly = self._doubly(projections.project_doubly_capped)
        self._patch(projections, "project_rows_capped_simplex", rows)
        self._patch(projections, "project_cols_capped_simplex",
                    timed("projections.cols", projections.project_cols_capped_simplex))
        self._patch(projections, "project_doubly_capped", doubly)
        self._patch(solvers, "project_material_map", rows)
        self._patch(solvers, "project_doubly_capped", doubly)

        for name in ("aapm", "cjoint", "ru", "ur"):
            self._patch(solvers, name, self._solver(getattr(solvers, name)))
        self._patch(solvers, "tikhonov_cg", timed("solvers.tikhonov_cg", solvers.tikhonov_cg))
        self._patch(solvers, "nmf_als", timed("solvers.nmf_als", solvers.nmf_als))
        self._patch(solvers, "backtracking", self._linesearch(solvers.backtracking))
        for name in ("AapmConfig", "CjointConfig"):
            self._patch(solvers, name, self._config(getattr(solvers, name)))

        for name in ("save_matrix", "export_pgm16", "write_results_csv",
                     "write_history_csv"):
            self._patch(data_io, name, self._io("write", "written", getattr(data_io, name)))
        self._patch(data_io, "load_matrix", self._io("read", "read", data_io.load_matrix))

        self._patch(evaluation, "greedy_match",
                    timed("evaluation.match", evaluation.greedy_match))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._statm is not None:
            os.close(self._statm)
            self._statm = None

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _operator(self, kind, fn):
        name = f"tomo.{kind}"

        @functools.wraps(fn)
        def wrapper(op, values):
            before = self.rss_bytes()
            out = self.call(name, fn, op, values)
            after = self.rss_bytes()
            self.counts[f"{name}_cols"] += 1 if out.ndim == 1 else out.shape[1]
            if before is not None:
                # resident growth the call leaves behind, beyond its result
                self.counts["tomo.retained_bytes"] += max(0, after - before - out.nbytes)
            return out
        return wrapper

    def _rows(self, fn):
        @functools.wraps(fn)
        def wrapper(Z):
            if self.parent() == "projections.doubly_capped":
                self.counts["projections.dykstra_sweeps"] += 1
            return self.call("projections.rows", fn, Z)
        return wrapper

    def _doubly(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # no solver records this warning; count it, then pass it on
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = self.call("projections.doubly_capped", fn, *args, **kwargs)
            for w in caught:
                if issubclass(w.category, RuntimeWarning):
                    self.counts["projections.dykstra_unconverged"] += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return out
        return wrapper

    def _solver(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._mark = time.perf_counter()
            result = self.call("solvers.solve", fn, *args, **kwargs)
            history = getattr(result, "history", None)
            if history:
                self.final_eps_abs = history[-1].eps_abs
            return result
        return wrapper

    def _linesearch(self, fn):
        @functools.wraps(fn)
        def wrapper(x, grad, project, value_at, current_value, step0):
            trials = 0

            def counted_value_at(candidate):
                nonlocal trials
                trials += 1
                return value_at(candidate)

            self.enter("solvers.linesearch")
            try:
                out = fn(x, grad, project, counted_value_at, current_value, step0)
            finally:
                end = self.exit()
            # one block step runs from the end of the previous phase to the
            # end of its line search, so it includes its gradient
            block = "a" if x.shape[0] == self.n_image else "r"
            self.counts[f"solvers.{block}_step_s"] += end - self._mark
            self._mark = end
            self.counts["solvers.linesearch_trials"] += trials
            if out[1] > 0:
                self.counts["solvers.linesearch_accepted"] += 1
            else:
                self.counts["solvers.step_failures"] += 1
            return out
        return wrapper

    def _config(self, cls):
        def make(*args, **kwargs):
            callback = kwargs.get("callback")
            if callback is not None:
                def traced_callback(*cb_args):
                    self.enter("cli.callback")
                    try:
                        return callback(*cb_args)
                    finally:
                        self._mark = self.exit()
                kwargs["callback"] = traced_callback
            return cls(*args, **kwargs)
        return make

    def _io(self, kind, counter, fn):
        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            out = self.call(f"data_io.{kind}", fn, path, *args, **kwargs)
            self.counts[f"data_io.bytes_{counter}"] += os.path.getsize(path)
            return out
        return wrapper

    # -- results ----------------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name."""
        out: dict[str, dict[str, float]] = {}
        for name, duration, self_time in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += self_time
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json for this traced pipeline."""
        table = self.table()
        counts = self.counts

        def calls(name):
            return table.get(name, {}).get("calls", 0)

        def total(name):
            return table.get(name, {}).get("total_s", 0.0)

        def layer_self(layer):
            return sum(row["self_s"] for name, row in table.items()
                       if name.startswith(layer + "."))

        def per_col_ms(kind):
            cols = counts[f"tomo.{kind}_cols"]
            return 1e3 * total(f"tomo.{kind}") / cols if cols else 0.0

        trials = counts["solvers.linesearch_trials"]
        return {
            "tomo.build_s": total("tomo.build"),
            "tomo.forward_calls": calls("tomo.forward"),
            "tomo.forward_cols": int(counts["tomo.forward_cols"]),
            "tomo.forward_s": total("tomo.forward"),
            "tomo.forward_ms_per_col": per_col_ms("forward"),
            "tomo.adjoint_calls": calls("tomo.adjoint"),
            "tomo.adjoint_cols": int(counts["tomo.adjoint_cols"]),
            "tomo.adjoint_s": total("tomo.adjoint"),
            "tomo.adjoint_ms_per_col": per_col_ms("adjoint"),
            "tomo.retained_mb": counts["tomo.retained_bytes"] / _MB,
            "projections.doubly_capped_calls": calls("projections.doubly_capped"),
            "projections.doubly_capped_s": total("projections.doubly_capped"),
            "projections.dykstra_sweeps": int(counts["projections.dykstra_sweeps"]),
            "projections.dykstra_unconverged": int(counts["projections.dykstra_unconverged"]),
            "projections.rows_calls": calls("projections.rows"),
            "projections.rows_s": total("projections.rows"),
            "solvers.solve_s": total("solvers.solve"),
            "solvers.self_s": layer_self("solvers"),
            "solvers.linesearch_calls": calls("solvers.linesearch"),
            "solvers.linesearch_trials": int(trials),
            "solvers.linesearch_accept_ratio": (
                counts["solvers.linesearch_accepted"] / trials if trials else 0.0),
            "solvers.step_failures": int(counts["solvers.step_failures"]),
            "solvers.r_step_s": counts["solvers.r_step_s"],
            "solvers.a_step_s": counts["solvers.a_step_s"],
            "solvers.tikhonov_cg_s": total("solvers.tikhonov_cg"),
            "solvers.nmf_als_s": total("solvers.nmf_als"),
            "solvers.final_eps_abs": self.final_eps_abs,
            "spectral.simulate_s": total("spectral.simulate"),
            "spectral.log_correct_s": total("spectral.log_correct"),
            "phantoms.render_s": total("phantoms.render"),
            "data_io.write_s": total("data_io.write"),
            "data_io.read_s": total("data_io.read"),
            "data_io.bytes_written": int(counts["data_io.bytes_written"]),
            "data_io.bytes_read": int(counts["data_io.bytes_read"]),
            "evaluation.match_s": total("evaluation.match"),
            "cli.self_s": layer_self("cli"),
        }
