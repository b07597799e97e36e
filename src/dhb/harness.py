"""Experiment orchestration: config parsing, runs, sweeps, and CSV output."""

import csv
import json
import os

import numpy as np

from . import consensus as cns
from . import engines as eng
from . import graph as gr
from . import weights as wt
from .analysis import AnalysisError, fit_linear_rate, iterations_to_threshold
from .objectives import quadratic_suite, logistic_suite, synthesize_logistic_data


class ConfigError(Exception):
    pass


_GRAPH_KEYS = {"n", "ring_degree", "extra_link_fraction", "directed", "seed"}
_QUAD_KEYS = {"kind", "p", "condition_number", "seed"}
_LOGI_KEYS = {"kind", "m_i", "p", "reg", "seed"}
_ENGINE_KEYS = {"kind", "alpha", "beta", "tune"}
_TUNE_KEYS = {"alpha_grid", "beta_grid"}
_RUN_KEYS = {"max_iter", "stop_residual", "seed", "out_dir"}
_CONSENSUS_KEYS = {"alpha_grid", "beta_grid", "max_iter", "tol", "seed"}
_TOP_KEYS = {"graph", "objective", "engines", "run", "consensus"}


def _check_keys(section, data, allowed, required=()):
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {sorted(unknown)}")
    missing = set(required) - set(data)
    if missing:
        raise ConfigError(f"missing keys in {section}: {sorted(missing)}")


def parse_config(path):
    with open(path) as f:
        data = json.load(f)
    return validate_config(data)


def validate_config(data):
    _check_keys("config", data, _TOP_KEYS, required=("graph", "run"))
    _check_keys("graph", data["graph"], _GRAPH_KEYS,
                required=("n", "ring_degree", "extra_link_fraction",
                          "directed", "seed"))
    if "objective" in data:
        obj = data["objective"]
        kind = obj.get("kind")
        if kind == "quadratic":
            _check_keys("objective", obj, _QUAD_KEYS,
                        required=("kind", "p", "condition_number", "seed"))
        elif kind == "logistic":
            _check_keys("objective", obj, _LOGI_KEYS,
                        required=("kind", "m_i", "p", "reg", "seed"))
        else:
            raise ConfigError(f"unknown objective kind {kind!r}")
    for i, e in enumerate(data.get("engines", [])):
        _check_keys(f"engines[{i}]", e, _ENGINE_KEYS, required=("kind",))
        if e["kind"] not in eng.ENGINE_WEIGHTS:
            raise ConfigError(f"unknown engine kind {e['kind']!r}")
        if "tune" in e:
            _check_keys(f"engines[{i}].tune", e["tune"], _TUNE_KEYS,
                        required=("alpha_grid",))
        if "W" in eng.ENGINE_WEIGHTS[e["kind"]] and data["graph"]["directed"]:
            raise ConfigError(
                f"engine {e['kind']!r} needs doubly-stochastic weights and "
                "therefore an undirected graph; set graph.directed to false"
            )
    _check_keys("run", data["run"], _RUN_KEYS,
                required=("max_iter", "stop_residual", "seed", "out_dir"))
    if "consensus" in data:
        _check_keys("consensus", data["consensus"], _CONSENSUS_KEYS,
                    required=("alpha_grid", "max_iter", "tol", "seed"))
    return data


def canonical_config(data):
    """Canonical serialized form used for round-trip checks."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def build_graph(gcfg):
    return gr.generate_nearest_neighbor(
        gcfg["n"], gcfg["ring_degree"], gcfg["extra_link_fraction"],
        gcfg["seed"], gcfg["directed"],
    )


def build_quadratic(n, p, condition_number, seed):
    """Quadratic suite whose global Hessian spectrum is log-spaced between
    1 and the target condition number (so mu = 1, l = condition_number)."""
    rng = np.random.default_rng(seed)
    targets = 0.5 * n * np.logspace(0, np.log10(condition_number), p)
    shares = rng.uniform(0.5, 1.5, size=(n, p))
    shares *= targets / shares.sum(axis=0)
    b_vecs = rng.standard_normal((n, p))
    return quadratic_suite(shares, b_vecs)


def build_objective(ocfg, n):
    if ocfg["kind"] == "quadratic":
        return build_quadratic(n, ocfg["p"], ocfg["condition_number"],
                               ocfg["seed"])
    features, labels = synthesize_logistic_data(
        n, ocfg["m_i"], ocfg["p"], ocfg["seed"]
    )
    return logistic_suite(features, labels, ocfg["reg"])


def build_weights(g, kinds_needed):
    out = {}
    if "A" in kinds_needed:
        out["A"] = wt.uniform_row_stochastic(g)
    if "B" in kinds_needed:
        out["B"] = wt.uniform_column_stochastic(g)
    if "W" in kinds_needed:
        out["W"] = wt.laplacian_doubly_stochastic(g)
    return out


def _engine_setup(cfg):
    """The graph and the weight matrices that the configured engines read."""
    if not cfg.get("engines"):
        raise ConfigError("config lists no engines")
    kinds = [e["kind"] for e in cfg["engines"]]
    if len(set(kinds)) < len(kinds):
        raise ConfigError("config lists an engine kind more than once")
    g = build_graph(cfg["graph"])
    slots = {s for e in cfg["engines"] for s in eng.ENGINE_WEIGHTS[e["kind"]]}
    return g, build_weights(g, slots)


def _prepare(cfg):
    """Suite, weight matrices and initial iterate of an engine experiment."""
    if "objective" not in cfg:
        raise ConfigError("config has no objective section")
    g, mats = _engine_setup(cfg)
    suite = build_objective(cfg["objective"], g.n)
    rng = np.random.default_rng(cfg["run"]["seed"])
    return suite, mats, rng.standard_normal((g.n, suite.p))


def _resolve_engine(ecfg, run_cfg, suite, mats, x0, cache):
    """(alpha, beta, engine config, x0) of one engine, with fixed or
    grid-searched parameters per the engine config; tuning runs through
    `cache`. A kind without weight slots is centralized and starts from
    the first agent's x0."""
    kind = ecfg["kind"]
    matrices = {slot: mats[slot] for slot in eng.ENGINE_WEIGHTS[kind]}
    if not matrices:
        x0 = x0[:1]
    alpha = ecfg.get("alpha")
    beta = ecfg.get("beta", 0.0)
    if "tune" in ecfg:
        alpha, beta, _ = eng.tune_parameters(
            kind, suite, x0, ecfg["tune"]["alpha_grid"],
            ecfg["tune"].get("beta_grid", [0.0]),
            run_cfg["max_iter"], run_cfg["stop_residual"], cache=cache,
            **matrices,
        )
        if alpha is None:
            raise ConfigError(
                f"tuning found no convergent parameters for {kind!r}"
            )
    elif alpha is None:
        if kind == "gd":
            alpha = 2.0 / (suite.mu + suite.lip)
        elif kind == "heavy_ball":
            alpha, beta = eng.polyak_parameters(suite.mu, suite.lip)
        else:
            raise ConfigError(f"engine {kind!r} needs alpha or a tune grid")
    engine_cfg = eng.make_config(kind, suite.n, alpha, beta, **matrices)
    # report the beta the engine runs with; make_config zeroes it for ab, gd
    return alpha, float(np.max(engine_cfg.betas)), engine_cfg, x0


def _run_engines(cfg, suite, mats, x0):
    """Resolve, build and run each configured engine in turn; yields
    (kind, alpha, beta, trace). Tuning and final runs share one run cache,
    so a trajectory is computed once per pass (ab's runs are abm's at
    beta = 0, and a tuned winner was run while tuning)."""
    run_cfg = cfg["run"]
    cache = {}
    for ecfg in cfg["engines"]:
        alpha, beta, engine_cfg, ex0 = _resolve_engine(
            ecfg, run_cfg, suite, mats, x0, cache
        )
        yield ecfg["kind"], alpha, beta, eng.run(
            engine_cfg, suite, ex0, run_cfg["max_iter"],
            run_cfg["stop_residual"], cache=cache,
        )


def tune_engines(cfg):
    """Grid-search each engine that has a tune grid, without the final
    runs: one (kind, alpha, beta) per engine, alpha and beta None for an
    engine without a grid."""
    suite, mats, x0 = _prepare(cfg)
    cache = {}
    return [
        (e["kind"], *_resolve_engine(e, cfg["run"], suite, mats, x0, cache)[:2])
        if "tune" in e else (e["kind"], None, None)
        for e in cfg["engines"]
    ]


def run_experiment(cfg, out_dir=None):
    """One figure's worth of runs: a trace CSV per engine, a summary CSV,
    and a plot script rendering all engines on one log-residual axes."""
    suite, mats, x0 = _prepare(cfg)
    out_dir = out_dir or cfg["run"]["out_dir"]
    os.makedirs(out_dir, exist_ok=True)

    traces = {}
    summary = []
    for kind, alpha, beta, trace in _run_engines(cfg, suite, mats, x0):
        trace.meta["seed"] = cfg["run"]["seed"]
        trace.to_csv(os.path.join(out_dir, f"trace_{kind}.csv"))
        traces[kind] = trace
        iters = iterations_to_threshold(trace, cfg["run"]["stop_residual"])
        try:
            rate, _ = fit_linear_rate(trace)
        except AnalysisError:
            rate = float("nan")
        summary.append({
            "engine": kind,
            "alpha": float(np.max(np.atleast_1d(alpha))),
            "beta": beta,
            "iterations_to_threshold": "" if iters is None else iters,
            "fitted_rate": rate,
            "termination": trace.meta["termination"],
        })
    _write_summary(summary, os.path.join(out_dir, "summary.csv"))
    _write_plot_script(
        [e["kind"] for e in cfg["engines"]],
        os.path.join(out_dir, "plot_traces.py"),
    )
    return traces, summary


def run_condition_sweep(cfg, condition_numbers, out_dir=None):
    """Tune every engine for each condition number; one summary row per
    (condition number, engine). The suites are quadratics with the
    objective's p and seed."""
    ocfg = cfg.get("objective", {})
    if ocfg.get("kind", "quadratic") != "quadratic":
        raise ConfigError(
            "a condition-number sweep needs a quadratic objective, "
            f"not {ocfg['kind']!r}"
        )
    g, mats = _engine_setup(cfg)
    out_dir = out_dir or cfg["run"]["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    p = ocfg.get("p", 3)
    x0 = np.random.default_rng(cfg["run"]["seed"]).standard_normal((g.n, p))

    rows = []
    for q in condition_numbers:
        suite = build_quadratic(g.n, p, q, ocfg.get("seed", 0))
        for kind, alpha, beta, trace in _run_engines(cfg, suite, mats, x0):
            iters = iterations_to_threshold(trace, cfg["run"]["stop_residual"])
            rows.append({
                "condition_number": q,
                "engine": kind,
                "alpha": alpha,
                "beta": beta,
                "iterations_to_threshold": "" if iters is None else iters,
            })
    _write_summary(rows, os.path.join(out_dir, "sweep_summary.csv"))
    return rows


def run_consensus_experiment(cfg, out_dir=None):
    """Grid-search both consensus forms on the same directed graph, run both
    from the same initial values, and emit traces plus radius grids."""
    if "consensus" not in cfg:
        raise ConfigError("config has no consensus section")
    out_dir = out_dir or cfg["run"]["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    ccfg = cfg["consensus"]
    g = build_graph(cfg["graph"])
    A = wt.uniform_row_stochastic(g)
    B = wt.uniform_column_stochastic(g)
    alpha_grid = ccfg["alpha_grid"]
    beta_grid = ccfg.get("beta_grid", [0.0])
    rng = np.random.default_rng(ccfg["seed"])
    values = rng.standard_normal((g.n, 1))

    results = {}
    for form in ("abmc", "surplus"):
        alpha, beta, radius, rows = cns.grid_search_params(
            A, B, alpha_grid, beta_grid, form
        )
        cns.radius_grid_to_csv(
            rows, os.path.join(out_dir, f"radius_grid_{form}.csv")
        )
        if form == "abmc":
            sys_ = cns.abmc_build(A, B, alpha, beta)
        else:
            sys_ = cns.surplus_build(A, B, alpha)
        trace = cns.consensus_run(sys_, values, ccfg["max_iter"], ccfg["tol"])
        trace.to_csv(os.path.join(out_dir, f"trace_consensus_{form}.csv"))
        results[form] = {
            "alpha": alpha, "beta": beta, "radius": radius, "trace": trace,
        }
    return results


def _write_summary(rows, path):
    if not rows:
        return
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


def _write_plot_script(engine_names, path):
    with open(path, "w") as f:
        f.write(_PLOT_TEMPLATE.format(engines=repr(list(engine_names))))
