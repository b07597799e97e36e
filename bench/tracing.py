"""Spans and counters recorded around the dhb functions each module looks
up at call time.

The program itself is not changed: `Probe.installed` swaps the public
functions for wrappers and restores them on exit. Spans live in flat
in-memory columns and are written out once, after the measured calls.
"""

import contextlib
import csv
import functools
import hashlib
import inspect
import os
import time
from array import array
from collections import defaultdict

import numpy as np

from dhb import analysis, consensus, engines, graph, harness, objectives, weights

# The src/dhb modules that count as layers; `cli` is a thin front over
# `harness` and is never entered by the benchmark.
LAYERS = ("graph", "weights", "objectives", "engines", "analysis",
          "consensus", "harness")


def _engine_run_key(cfg, x0, max_iter, stop_residual):
    """Canonical identity of an engine run: `ab` is `abm` with beta = 0."""
    betas = np.zeros_like(cfg.betas) if cfg.kind == "ab" else cfg.betas
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(cfg.alphas).tobytes())
    h.update(np.ascontiguousarray(betas).tobytes())
    for m in (cfg.A, cfg.B, cfg.W):
        h.update(b"-" if m is None else m.entries.tobytes())
    x0_digest = hashlib.sha256(np.ascontiguousarray(x0).tobytes()).hexdigest()
    kind = "abm" if cfg.kind == "ab" else cfg.kind
    return kind, h.hexdigest(), x0_digest, int(max_iter), float(stop_residual)


class Probe:
    """Counters always; spans too when `traced`.

    Counters are kept per workload call (`begin_call` resets them), so a
    count such as `engines.unique_iterations` is a property of one call.
    """

    def __init__(self, traced):
        self.traced = traced
        self.names = []
        self._name_ids = {}
        # span columns: call id, span id, parent span id, name id, start, end
        self.cols = tuple(array("q") for _ in range(4)) + (array("d"), array("d"))
        self._stack = []
        self._next_span = 0
        self.call_id = -1
        self.begin_call()

    def begin_call(self):
        self.call_id += 1
        self._call_start = len(self.cols[0])
        self.counts = defaultdict(int)
        self._seen_runs = set()

    # -- counters fed from return values --------------------------------

    def _on_engine_run(self, bound, trace):
        iters = trace.records[-1].k
        c = self.counts
        c["engines.runs"] += 1
        c["engines.iterations"] += iters
        c["engines.agent_iterations"] += iters * bound["suite"].n
        c["engines.diverged_runs"] += int(trace.diverged)
        key = _engine_run_key(bound["cfg"], bound["x0"], bound["max_iter"],
                              bound["stop_residual"])
        if key not in self._seen_runs:
            self._seen_runs.add(key)
            c["engines.unique_iterations"] += iters

    def _on_consensus_run(self, bound, trace):
        iters = trace.records[-1].k
        self.counts["consensus.iterations"] += iters
        self.counts["consensus.agent_iterations"] += iters * bound["sys_"].n

    def _on_csv(self, bound, _result):
        self.counts["analysis.csv_bytes"] += os.path.getsize(bound["path"])

    # -- wrapping --------------------------------------------------------

    def wrap(self, name, fn, on_return=None):
        """`fn` with a span named `name` (when traced) and a counter hook."""
        sig = inspect.signature(fn) if on_return else None
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        calls, sids, parents, name_ids, starts, ends = self.cols
        stack = self._stack
        clock = time.perf_counter
        traced = self.traced

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if traced:
                sid = self._next_span
                self._next_span += 1
                parent = stack[-1] if stack else -1
                stack.append(sid)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    calls.append(self.call_id)
                    sids.append(sid)
                    parents.append(parent)
                    name_ids.append(name_id)
                    starts.append(t0)
                    ends.append(t1)
            else:
                result = fn(*args, **kwargs)
            if on_return is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(bound.arguments, result)
            return result

        return wrapper

    def _targets(self):
        """(owner, attribute, span name, counter hook) for every wrapped
        function. Owners are modules, classes, or the step-function table."""
        counted = [
            (engines, "run", "engines.run", self._on_engine_run),
            (consensus, "consensus_run", "consensus.run", self._on_consensus_run),
        ]
        if not self.traced:
            return counted
        traced_only = [
            (graph, "generate_nearest_neighbor", "graph.generate", None),
            (weights, "perron_vectors", "weights.perron", None),
            (weights, "uniform_row_stochastic", "weights.build", None),
            (weights, "uniform_column_stochastic", "weights.build", None),
            (weights, "laplacian_doubly_stochastic", "weights.build", None),
            (objectives.ObjectiveSuite, "stacked_gradient",
             "objectives.stacked_gradient", None),
            (objectives, "global_minimizer", "objectives.minimizer", None),
            (engines, "tune_parameters", "engines.tune", None),
            (harness, "iterations_to_threshold", "analysis.postprocess", None),
            (harness, "fit_linear_rate", "analysis.postprocess", None),
            (analysis.Trace, "to_csv", "analysis.csv", self._on_csv),
            (consensus, "effective_radius", "consensus.radius", None),
            (consensus, "abmc_build", "consensus.build", None),
            (consensus, "surplus_build", "consensus.build", None),
        ]
        steps = [(engines.STEP_FUNCTIONS, kind, "engines.step", None)
                 for kind in engines.STEP_FUNCTIONS]
        return counted + traced_only + steps

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its wrapper; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, hook in self._targets():
                if isinstance(owner, dict):
                    saved.append((owner, attr, owner[attr]))
                    owner[attr] = self.wrap(name, owner[attr], hook)
                else:
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def write_spans(self, path):
        """One row per span; times are seconds on the process's
        perf_counter clock."""
        calls, sids, parents, name_ids, starts, ends = self.cols
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["call", "span", "parent", "name", "start_s", "end_s"])
            names = self.names
            writer.writerows(
                (c, s, p, names[n], repr(t0), repr(t1))
                for c, s, p, n, t0, t1 in zip(calls, sids, parents, name_ids,
                                              starts, ends)
            )

    def layer_metrics(self, root_name):
        """Per-layer metrics of the current workload call, from its spans
        and its counters."""
        _, sids, parents, name_ids, starts, ends = self.cols
        idx = range(self._call_start, len(sids))
        name_of = {sids[i]: self.names[name_ids[i]] for i in idx}
        dur = {sids[i]: ends[i] - starts[i] for i in idx}
        self_time = dict(dur)
        for i in idx:
            if parents[i] in self_time:
                self_time[parents[i]] -= dur[sids[i]]
        total = defaultdict(float)
        count = defaultdict(int)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        final_run_s = 0.0
        for i in idx:
            sid = sids[i]
            name = name_of[sid]
            total[name] += dur[sid]
            count[name] += 1
            layer_self[name.split(".")[0]] += self_time[sid]
            if name == "engines.run" and name_of.get(parents[i]) != "engines.tune":
                final_run_s += dur[sid]
        roots = [sid for sid, name in name_of.items() if name == root_name]
        if len(roots) != 1:
            raise RuntimeError(f"call {self.call_id} has {len(roots)} "
                               f"{root_name} spans")

        c = self.counts
        iters = c["engines.iterations"]
        steps = count["engines.step"]
        grads = count["objectives.stacked_gradient"]
        run_us = 1e6 * total["engines.run"] / iters if iters else 0.0
        step_us = 1e6 * total["engines.step"] / steps if steps else 0.0
        metrics = {
            "graph.generate_s": (total["graph.generate"], "s"),
            "weights.perron_s": (total["weights.perron"], "s"),
            "weights.build_s": (total["weights.build"], "s"),
            "objectives.stacked_gradient_us": (
                1e6 * total["objectives.stacked_gradient"] / grads if grads else 0.0,
                "us/call"),
            "objectives.gradient_calls": (grads, "count"),
            "objectives.minimizer_s": (total["objectives.minimizer"], "s"),
            "engines.runs": (c["engines.runs"], "count"),
            "engines.iterations": (iters, "count"),
            "engines.diverged_runs": (c["engines.diverged_runs"], "count"),
            "engines.unique_iterations": (c["engines.unique_iterations"], "count"),
            "engines.unique_ratio": (
                c["engines.unique_iterations"] / iters if iters else 0.0, "ratio"),
            "engines.tune_s": (total["engines.tune"], "s"),
            "engines.final_run_s": (final_run_s, "s"),
            "engines.run_us_per_iter": (run_us, "us/iter"),
            "engines.step_us_per_iter": (step_us, "us/iter"),
            "engines.record_us_per_iter": (run_us - step_us, "us/iter"),
            "analysis.postprocess_s": (total["analysis.postprocess"], "s"),
            "analysis.csv_s": (total["analysis.csv"], "s"),
            "analysis.csv_bytes": (c["analysis.csv_bytes"], "bytes"),
            "consensus.radius_s": (total["consensus.radius"], "s"),
            "consensus.radius_calls": (count["consensus.radius"], "count"),
            "consensus.build_s": (total["consensus.build"], "s"),
            "consensus.run_s": (total["consensus.run"], "s"),
            "consensus.iterations": (c["consensus.iterations"], "count"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
        metrics["trace.wall_s"] = (dur[roots[0]], "s")
        return metrics
