"""Experiment orchestration: config parsing, runs, sweeps, and CSV output."""

import csv
import json
import math
import os
from numbers import Integral, Real

import numpy as np

from . import consensus as cns
from . import engines as eng
from . import graph as gr
from . import weights as wt
from .analysis import AnalysisError, fit_linear_rate, iterations_to_threshold
from .errors import DhbError
from .objectives import quadratic_suite, logistic_suite, synthesize_logistic_data


class ConfigError(DhbError):
    pass


_GRID = "a non-empty list of numbers"
_PER_AGENT = "a number or a list of one number per agent"
_TYPE_NAMES = {Integral: "an integer", Real: "a number", bool: "true or false",
               str: "a string", dict: "an object", list: "a list"}
# section -> (required keys, optional keys), each with the type of its
# value; an objective's schema is its kind's. The graph section's keys, and
# an objective's but kind, are the parameters of the section's builders
_SCHEMA = {
    "config": ({"graph": dict, "run": dict},
               {"objective": dict, "engines": list, "consensus": dict}),
    "graph": ({"n": Integral, "ring_degree": Integral,
               "extra_link_fraction": Real, "directed": bool,
               "seed": Integral}, {}),
    "quadratic": ({"kind": str, "p": Integral, "condition_number": Real,
                   "seed": Integral}, {}),
    "logistic": ({"kind": str, "m_i": Integral, "p": Integral, "reg": Real,
                  "seed": Integral}, {}),
    "engine": ({"kind": str}, {"alpha": _PER_AGENT, "beta": _PER_AGENT,
                               "tune": dict}),
    "tune": ({"alpha_grid": _GRID}, {"beta_grid": _GRID}),
    "run": ({"max_iter": Integral, "stop_residual": Real, "seed": Integral,
             "out_dir": str}, {}),
    "consensus": ({"alpha_grid": _GRID, "max_iter": Integral, "tol": Real,
                   "seed": Integral}, {"beta_grid": _GRID}),
}

# the least value of each key with a range, in every section that has it;
# the values must also be finite
_MINIMUM = {"seed": 0, "p": 1, "m_i": 1, "max_iter": 0, "stop_residual": 0,
            "tol": 0, "condition_number": 1}


def _has_type(value, kind):
    if kind is _PER_AGENT:
        return _has_type(value, Real) or _has_type(value, _GRID)
    if kind is _GRID:
        return (isinstance(value, list) and len(value) > 0
                and all(_has_type(v, Real) for v in value))
    # a bool is an Integral and a Real to Python, and neither here
    return isinstance(value, kind) and (kind is bool
                                        or not isinstance(value, bool))


def _check_keys(section, data, schema=None):
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be an object, not {data!r}")
    required, optional = _SCHEMA[schema or section]
    types = {**required, **optional}
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {sorted(unknown)}")
    missing = set(required) - set(data)
    if missing:
        raise ConfigError(f"missing keys in {section}: {sorted(missing)}")
    for key, value in data.items():
        if not _has_type(value, types[key]):
            what = _TYPE_NAMES.get(types[key], types[key])
            raise ConfigError(f"{section}.{key} must be {what}, not {value!r}")
        if key in _MINIMUM:
            _check_minimum(f"{section}.{key}", value, _MINIMUM[key])
        if types[key] is _GRID and not all(0 <= v < math.inf for v in value):
            raise ConfigError(f"{section}.{key} entries must be finite and "
                              f"nonnegative, not {value!r}")


def _check_minimum(name, value, low):
    """ConfigError unless low <= value < inf (NaN is neither)."""
    if not low <= value < math.inf:
        raise ConfigError(f"{name} must be a finite number >= {low}, "
                          f"not {value!r}")


def parse_config(path, overrides=()):
    """The config file with each (section, key, value) of `overrides` set,
    then validated; a None value, or a section that is not an object, is
    left to validation."""
    with open(path) as f:
        data = json.load(f)
    for section, key, value in overrides:
        if (value is not None and isinstance(data, dict)
                and isinstance(data.get(section), dict)):
            data[section][key] = value
    return validate_config(data)


def validate_config(data):
    _check_keys("config", data)
    _check_keys("graph", data["graph"])
    n = data["graph"]["n"]
    if "objective" in data:
        kind = data["objective"].get("kind")
        if kind not in ("quadratic", "logistic"):
            raise ConfigError(f"unknown objective kind {kind!r}")
        _check_keys("objective", data["objective"], kind)
    for i, e in enumerate(data.get("engines", [])):
        _check_keys(f"engines[{i}]", e, "engine")
        for key in ("alpha", "beta"):
            if isinstance(e.get(key), list) and len(e[key]) != n:
                raise ConfigError(f"engines[{i}].{key} must have one entry "
                                  f"per agent ({n}), not {len(e[key])}")
        if e["kind"] not in eng.ENGINE_WEIGHTS:
            raise ConfigError(f"unknown engine kind {e['kind']!r}")
        if "tune" in e:
            _check_keys(f"engines[{i}].tune", e["tune"], "tune")
            fixed = sorted({"alpha", "beta"} & set(e))
            if fixed:
                raise ConfigError(f"engines[{i}] sets {fixed} and a tune "
                                  "grid; give one or the other")
        elif "beta" in e and "alpha" not in e:
            raise ConfigError(f"engines[{i}] sets beta without alpha; give "
                              "alpha too, or a tune grid")
        if "W" in eng.ENGINE_WEIGHTS[e["kind"]] and data["graph"]["directed"]:
            raise ConfigError(
                f"engine {e['kind']!r} needs doubly-stochastic weights and "
                "therefore an undirected graph; set graph.directed to false"
            )
    _check_keys("run", data["run"])
    if data["run"]["stop_residual"] == 0 and any(
            "tune" in e for e in data.get("engines", [])):
        raise ConfigError("a tune grid needs run.stop_residual > 0: tuning "
                          "counts the iterations to that residual")
    if "consensus" in data:
        _check_keys("consensus", data["consensus"])
    return data


def build_graph(gcfg):
    return gr.generate_nearest_neighbor(**gcfg)  # gcfg: a graph section


def build_quadratic(n, p, condition_number, seed):
    """Quadratic suite whose global Hessian spectrum is log-spaced between
    1 and the target condition number (so mu = 1, l = condition_number)."""
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # inf targets: quadratic_suite refuses
        targets = 0.5 * n * np.logspace(0, np.log10(condition_number), p)
    shares = rng.uniform(0.5, 1.5, size=(n, p))
    shares *= targets / shares.sum(axis=0)
    b_vecs = rng.standard_normal((n, p))
    return quadratic_suite(shares, b_vecs)


def build_objective(ocfg, n):
    # the section's keys but kind are its builders' parameters, as keywords
    params = {key: v for key, v in ocfg.items() if key != "kind"}
    if ocfg["kind"] == "quadratic":
        return build_quadratic(n, **params)
    reg = params.pop("reg")
    return logistic_suite(*synthesize_logistic_data(n, **params), reg)


def build_weights(g, kinds_needed):
    # each builder looked up by name at each call, so a wrapper put on
    # `weights` after import (as the benchmark's probe does) runs
    return {slot: getattr(wt, name)(g) for slot, (_, name) in
            wt.SLOTS.items() if slot in kinds_needed}


def _objective(cfg):
    if "objective" not in cfg:
        raise ConfigError("config has no objective section")
    return cfg["objective"]


def _prepare(cfg):
    """Suite, weight matrices and initial iterate of an engine experiment;
    the matrices are those the configured engines read."""
    ocfg = _objective(cfg)
    if not cfg.get("engines"):
        raise ConfigError("config lists no engines")
    kinds = [e["kind"] for e in cfg["engines"]]
    if len(set(kinds)) < len(kinds):
        raise ConfigError("config lists an engine kind more than once")
    for kind, e in zip(kinds, cfg["engines"]):
        if not ({"alpha", "tune"} & e.keys() or eng.ENGINES[kind].defaults):
            raise ConfigError(f"engine {kind!r} needs alpha or a tune grid")
    g = build_graph(cfg["graph"])
    mats = build_weights(g, {s for k in kinds for s in eng.ENGINE_WEIGHTS[k]})
    suite = build_objective(ocfg, g.n)
    rng = np.random.default_rng(cfg["run"]["seed"])
    return suite, mats, rng.standard_normal((g.n, suite.p))


def _out_dir(cfg, out_dir):
    """out_dir, else the config's run.out_dir, created if missing."""
    out_dir = out_dir or cfg["run"]["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _resolve_engines(cfg, suite, mats, x0, cache):
    """(kind, alpha, beta, engine config) of each engine, in config order: at
    its tune grid's best point, else its alpha and beta (0 when left out),
    else its kind's defaults. make_config checks every entry without a grid
    before any entry is tuned; tuning runs through `cache`."""
    def resolve(ecfg):
        kind = ecfg["kind"]
        if "tune" in ecfg:
            alpha, beta, _ = eng.tune_parameters(
                kind, suite, x0, ecfg["tune"]["alpha_grid"],
                ecfg["tune"].get("beta_grid", [0.0]), cfg["run"]["max_iter"],
                cfg["run"]["stop_residual"], cache=cache, **mats,
            )
            if alpha is None:
                raise ConfigError(
                    f"tuning found no convergent parameters for {kind!r}"
                )
        elif "alpha" in ecfg:
            alpha, beta = ecfg["alpha"], ecfg.get("beta", 0.0)
        else:
            alpha, beta = eng.ENGINES[kind].defaults(suite)
        engine_cfg = eng.make_config(kind, suite.n, alpha, beta, **mats)
        # report the largest alpha and beta the engine runs with;
        # make_config zeroes beta for ab, gd
        return (kind, float(np.max(engine_cfg.alphas)),
                float(np.max(engine_cfg.betas)), engine_cfg)

    fixed = [None if "tune" in e else resolve(e) for e in cfg["engines"]]
    return [r or resolve(e) for r, e in zip(fixed, cfg["engines"])]


def _run_engines(cfg, suite, mats, x0):
    """(summary row, trace) of each engine's final run, after every engine
    is resolved; a row holds the engine, alpha, beta and
    iterations_to_threshold columns. Tuning and final runs share one run
    cache, so a trajectory is computed once per pass (ab's runs are abm's
    at beta = 0, and a tuned winner was run while tuning)."""
    max_iter, threshold = cfg["run"]["max_iter"], cfg["run"]["stop_residual"]
    cache = {}
    runs = []
    for kind, alpha, beta, engine_cfg in _resolve_engines(
            cfg, suite, mats, x0, cache):
        trace = eng.run(engine_cfg, suite, x0, max_iter, threshold,
                        cache=cache)
        iters = iterations_to_threshold(trace, threshold)
        runs.append(({"engine": kind, "alpha": alpha, "beta": beta,
                      "iterations_to_threshold": "" if iters is None
                      else iters}, trace))
    return runs


def tune_engines(cfg):
    """Resolve every engine as run_experiment does, without the final runs:
    one (kind, alpha, beta) per engine, alpha and beta None for an engine
    without a tune grid."""
    suite, mats, x0 = _prepare(cfg)
    return [(kind, alpha, beta) if "tune" in e else (kind, None, None)
            for e, (kind, alpha, beta, _) in zip(
                cfg["engines"], _resolve_engines(cfg, suite, mats, x0, {}))]


def run_experiment(cfg, out_dir=None):
    """One figure's worth of runs: a trace CSV per engine, a summary CSV,
    and a plot script rendering all engines on one log-residual axes."""
    suite, mats, x0 = _prepare(cfg)
    runs = _run_engines(cfg, suite, mats, x0)
    out_dir = _out_dir(cfg, out_dir)

    traces = {}
    summary = []
    for row, trace in runs:
        trace.to_csv(os.path.join(out_dir, f"trace_{row['engine']}.csv"))
        traces[row["engine"]] = trace
        try:
            rate, _ = fit_linear_rate(trace)
        except AnalysisError:
            rate = float("nan")
        summary.append({**row, "fitted_rate": rate,
                        "termination": trace.meta["termination"]})
    _write_table(summary, os.path.join(out_dir, "summary.csv"))
    with open(os.path.join(out_dir, "plot_traces.py"), "w") as f:
        f.write(_PLOT_TEMPLATE.format(
            engines=repr([e["kind"] for e in cfg["engines"]])))
    return traces, summary


def run_condition_sweep(cfg, condition_numbers, out_dir=None):
    """Tune every engine for each condition number; one summary row per
    (condition number, engine). The suites are quadratics with the
    objective's p and seed."""
    ocfg = _objective(cfg)
    if ocfg["kind"] != "quadratic":
        raise ConfigError("a condition-number sweep needs a quadratic "
                          f"objective, not {ocfg['kind']!r}")
    if not condition_numbers:
        raise ConfigError("a condition-number sweep needs at least one "
                          "condition number")
    for q in condition_numbers:
        _check_minimum("a condition number", q, 1)
    _, mats, x0 = _prepare(cfg)

    rows = []
    for q in condition_numbers:
        suite = build_objective(dict(ocfg, condition_number=q), len(x0))
        rows += [{"condition_number": q, **row}
                 for row, _ in _run_engines(cfg, suite, mats, x0)]
    _write_table(rows, os.path.join(_out_dir(cfg, out_dir),
                                    "sweep_summary.csv"))
    return rows


def run_consensus_experiment(cfg, out_dir=None):
    """Grid-search both consensus forms on the same directed graph, run both
    from the same initial values, and emit traces plus radius grids."""
    if "consensus" not in cfg:
        raise ConfigError("config has no consensus section")
    out_dir = _out_dir(cfg, out_dir)
    ccfg = cfg["consensus"]
    A, B = build_weights(build_graph(cfg["graph"]), {"A", "B"}).values()
    values = np.random.default_rng(ccfg["seed"]).standard_normal((A.n, 1))

    results = {}
    for form in ("abmc", "surplus"):
        alpha, beta, radius, rows = cns.grid_search_params(
            A, B, ccfg["alpha_grid"], ccfg.get("beta_grid", [0.0]), form)
        _write_table(
            [{"alpha": a, "beta": b, "radius": r} for a, b, r in rows],
            os.path.join(out_dir, f"radius_grid_{form}.csv"),
        )
        trace = cns.consensus_run(cns.build_system(A, B, alpha, beta, form),
                                  values, ccfg["max_iter"], ccfg["tol"])
        trace.to_csv(os.path.join(out_dir, f"trace_consensus_{form}.csv"))
        results[form] = {"alpha": alpha, "beta": beta, "radius": radius,
                         "trace": trace}
    return results


def _write_table(rows, path):
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
# Renders log-residual vs iteration for every engine trace in this directory.
import csv
import os

import matplotlib.pyplot as plt

HERE = os.path.dirname(os.path.abspath(__file__))
ENGINES = {engines}

fig, ax = plt.subplots()
for name in ENGINES:
    ks, rs = [], []
    with open(os.path.join(HERE, f"trace_{{name}}.csv")) as f:
        reader = csv.reader(f)
        next(reader)
        for row in reader:
            ks.append(int(row[0]))
            rs.append(float(row[1]))
    ax.semilogy(ks, rs, label=name)
ax.set_xlabel("iteration")
ax.set_ylabel("average residual")
ax.legend()
fig.savefig(os.path.join(HERE, "residuals.png"), dpi=150)
print("wrote", os.path.join(HERE, "residuals.png"))
"""
