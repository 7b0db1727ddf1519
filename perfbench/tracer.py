"""Span recording around calls into lossyphase's public functions.

The benchmark measures every layer from outside the program: `Tracer.install`
rebinds each reference to an entry point listed in ENTRY_POINTS, inside every
loaded lossyphase module (module globals and module-level dicts such as the
optimizer's evaluator table), to a wrapper that records one span per call.
`Tracer.uninstall` puts the original functions back.

A span is (name, start, end, parent span); spans of one run share the run id
and stay in memory until `write` saves them.  A layer's self time is its
spans' durations minus the part covered by their direct child spans and by
the harness's own bookkeeping done inside them; the rest of the timed section
is harness time, so self times plus harness time add up to the traced wall
time.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

ENTRY_POINTS = {
    "cli": ("main",),
    "optimizer": ("optimize", "sql_baseline"),
    "sequences": ("evaluate_exact", "evaluate_exact_with_speedup",
                  "evaluate_monte_carlo"),
    "_engine": ("numeric_theta_batch", "closed_form_theta_batch",
                "advance_batch", "advance_selected", "outcome_probabilities",
                "table_matrix", "first_harmonic"),
    "detection": ("build_likelihood_table", "evaluate_outcome"),
    "states": ("make_loss_resistant", "make_single_photon",
               "make_exact_optimal4"),
    "feedback": ("optimal_theta_numeric", "optimal_theta_single_photon"),
    "posterior": ("bayes_update",),
    "fisher": ("max_fisher_over_chi", "max_fisher_exact_optimal4",
               "fisher_information"),
}

# Batch kernels, with the position and name of the argument whose first
# axis is the number of batch rows the call works on.
ROW_ARG = {
    "_engine.numeric_theta_batch": (0, "batch"),
    "_engine.closed_form_theta_batch": (0, "batch"),
    "_engine.advance_batch": (0, "batch"),
    "_engine.advance_selected": (0, "batch"),
    "_engine.outcome_probabilities": (1, "x"),
    "_engine.first_harmonic": (0, "batch"),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in ENTRY_POINTS.items() for fn in fns)


class Tracer:
    """Records spans while `enabled`; a disabled wrapper only forwards."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.rows = dict.fromkeys(ROW_ARG, 0)
        self.children_made = 0
        self.children_alive = 0
        self.table_keys: set = set()
        self._name: list[int] = []
        self._parent: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._excluded: dict[int, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point wherever a lossyphase module refers to it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "lossyphase" or k.startswith("lossyphase.")]
        for idx, name in enumerate(NAMES):
            mod, fn = name.rsplit(".", 1)
            orig = getattr(sys.modules[f"lossyphase.{mod}"], fn)
            wrapper = self._wrap(idx, name, orig)
            for module in modules:
                space = vars(module)
                for key, val in list(space.items()):
                    if val is orig:
                        self._patch(space, key, wrapper)
                    elif isinstance(val, dict):
                        for k2, v2 in list(val.items()):
                            if v2 is orig:
                                self._patch(val, k2, wrapper)

    def _patch(self, container: dict, key, value) -> None:
        self._patched.append((container, key, container[key]))
        container[key] = value

    def uninstall(self) -> None:
        for container, key, orig in reversed(self._patched):
            container[key] = orig
        self._patched.clear()

    def _wrap(self, idx: int, name: str, fn):
        row_arg = ROW_ARG.get(name)
        observe = {
            "_engine.advance_batch": self._observe_children,
            "detection.build_likelihood_table": self._observe_table,
        }.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if row_arg is not None:
                pos, key = row_arg
                rows = args[pos] if len(args) > pos else kwargs[key]
                self.rows[name] += np.shape(rows)[0]
            sid = len(self._name)
            self._name.append(idx)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._end.append(0.0)
            self._stack.append(sid)
            self._start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end[sid] = clock()
                self._stack.pop()
            if observe is not None:
                t0 = clock()
                observe(args, kwargs, out)
                if self._stack:
                    parent = self._stack[-1]
                    self._excluded[parent] = (
                        self._excluded.get(parent, 0.0) + clock() - t0)
            return out

        return traced

    def _observe_children(self, args, kwargs, out) -> None:
        rows = out.reshape(-1, out.shape[-1])
        self.children_made += rows.shape[0]
        self.children_alive += int(np.count_nonzero(rows.any(axis=1)))

    def _observe_table(self, args, kwargs, out) -> None:
        state = args[0] if args else kwargs["state"]
        eta = args[1] if len(args) > 1 else kwargs["eta"]
        self.table_keys.add((state.amplitudes.tobytes(), float(eta)))

    # -- results ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self._name, dtype=np.int32),
            "parent": np.array(self._parent, dtype=np.int64),
            "start": np.array(self._start, dtype=float),
            "end": np.array(self._end, dtype=float),
        }

    def self_times(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(calls per name, self seconds per name, covered seconds).

        `covered` is the time inside top-level spans that belongs to some
        span's self time; harness time is the traced wall time minus it.
        """
        s = self.spans()
        dur = s["end"] - s["start"]
        nested = s["parent"] >= 0
        child = np.zeros(dur.size)
        np.add.at(child, s["parent"][nested], dur[nested])
        excluded = np.zeros(dur.size)
        for sid, t in self._excluded.items():
            excluded[sid] = t
        own = dur - child - excluded
        calls = np.bincount(s["name"], minlength=len(NAMES))
        self_s = np.bincount(s["name"], weights=own, minlength=len(NAMES))
        return calls, self_s, float(own.sum())

    def layer_metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced section, keyed by metric name."""
        calls, self_s, covered = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.self_pct"] = (100.0 * float(self_s[i]) / wall_s, "%")
        for name, rows in self.rows.items():
            out[f"{name}.rows"] = (int(rows), "count")
        adv = NAMES.index("_engine.advance_batch")
        build = NAMES.index("detection.build_likelihood_table")
        out["_engine.advance_batch.rows_per_call"] = (
            self.rows["_engine.advance_batch"] / max(int(calls[adv]), 1),
            "rows/call")
        out["_engine.advance_batch.alive_ratio"] = (
            self.children_alive / max(self.children_made, 1), "ratio")
        out["detection.build_likelihood_table.distinct_ratio"] = (
            len(self.table_keys) / max(int(calls[build]), 1), "ratio")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.harness_pct"] = (100.0 * (wall_s - covered) / wall_s, "%")
        out["trace.spans"] = (len(self._name), "count")
        return out

    def write(self, path) -> None:
        np.savez_compressed(path, run_id=np.array(self.run_id),
                            names=np.array(NAMES), **self.spans())
