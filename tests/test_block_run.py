"""The block-recorded, fused run of abm, ab and ds_tracking against the
plain per-step loop: the step functions, average_residual and
tracking_error, one record at a time."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from dhb import analysis as an
from dhb import engines as eng
from dhb import graph as gr
from dhb import harness as hs
from dhb import objectives as obj
from dhb import weights as wt

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
FUSED_KINDS = ("abm", "ab", "ds_tracking")


def per_step(cfg, suite, x0, max_iter, stop_residual):
    """(k, residual, tracking error) rows and termination of the plain loop."""
    x_star = suite.minimizer()
    step = eng.STEP_FUNCTIONS[cfg.kind]
    state = eng.init_state(cfg, suite, x0)
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_iter + 1):
            if k > 0:
                state = step(state, cfg, suite)
            res = an.average_residual(state.x, x_star)
            if np.isfinite(res):
                rows.append((k, res, an.tracking_error(state.y,
                                                          state.grads)))
            else:
                rows.append((k, math.inf, None))
            if k > 0 and rows[-1][1] > 1e12:
                return rows, "diverged"
            if rows[-1][1] < stop_residual:
                return rows, "threshold"
    return rows, "max_iter"


def columns(rows):
    """The rows' k, residual and tracking-error columns as bytes (a missing
    tracking error as NaN)."""
    ks, rs, tes = zip(*rows)
    tes = [math.nan if te is None else te for te in tes]
    return (np.array(ks).tobytes(), np.array(rs).tobytes(),
            np.array(tes).tobytes())


def assert_matches_per_step(cfg, suite, x0, max_iter, stop_residual,
                            trace=None):
    """The trace (by default engines.run's) against the plain loop."""
    if trace is None:
        trace = eng.run(cfg, suite, x0, max_iter, stop_residual)
    rows, termination = per_step(cfg, suite, x0, max_iter, stop_residual)
    assert trace.meta["termination"] == termination
    got = [(r.k, r.residual, r.tracking_error) for r in trace.records]
    assert columns(got) == columns(rows)
    return trace


def block_rows(n, p):
    return max(1, min(eng.BLOCK_ROWS, eng.BLOCK_FLOATS // (n * p)))


def setup(n=6, p=2, seed=0, directed=True):
    g = gr.generate_nearest_neighbor(n, 2, 0.1, seed=seed, directed=directed)
    rng = np.random.default_rng(seed)
    suite = obj.quadratic_suite(
        rng.uniform(0.5, 2.0, (n, p)), rng.standard_normal((n, p))
    )
    mats = {"A": wt.uniform_row_stochastic(g),
            "B": wt.uniform_column_stochastic(g)}
    if not directed:
        mats = {"W": wt.laplacian_doubly_stochastic(g)}
    return suite, mats, rng.standard_normal((n, p))


def shipped_runs(monkeypatch, name, verb="run", **run):
    """Every abm/ab run that `verb` computes on a shipped config, with its
    arguments and its trace; `run` overrides keys of the config's run
    section. Every config that engines._fused_abm computes is recorded,
    each tuned point of a stack and each one-point stack of engines.run.
    The other engines are left out: they share no run with abm and ab."""
    cfg = hs.parse_config(CONFIGS / f"{name}.json")
    cfg["run"].update(run)
    cfg["engines"] = [e for e in cfg["engines"] if e["kind"] in FUSED_KINDS]
    runs = []
    compute = eng._fused_abm

    def recorded(cfgs, suite, x0, max_iter, stop_residual):
        traces = compute(cfgs, suite, x0, max_iter, stop_residual)
        runs.extend((cfg, suite, x0, max_iter, stop_residual, trace)
                    for cfg, trace in zip(cfgs, traces))
        return traces

    monkeypatch.setattr(eng, "_fused_abm", recorded)
    try:
        if verb == "run":
            hs.run_experiment(cfg)
        else:
            hs.run_condition_sweep(cfg, [10.0, 100.0])
    except hs.ConfigError as exc:
        # a grid cut short may leave no point below the threshold
        assert run and "no convergent parameters" in str(exc)
    monkeypatch.undo()
    return runs


@pytest.mark.parametrize("name, verb, run", [
    ("quickstart", "run", {}),
    # its runs at Q = 100 are `dhb run`'s
    ("reference_sweep", "sweep", {}),
    # the reference experiment's tuning grid, cut to 20,000 iterations
    ("reference_quadratic", "run", {"max_iter": 20000}),
])
def test_shipped_config_runs_match_per_step(tmp_path, monkeypatch, name,
                                            verb, run):
    runs = shipped_runs(monkeypatch, name, verb,
                        out_dir=str(tmp_path / "out"), **run)
    assert runs
    for args in runs:
        assert_matches_per_step(*args)


def test_ds_tracking_on_undirected_graph_matches_per_step():
    suite, mats, x0 = setup(7, 3, seed=5, directed=False)
    cfg = eng.make_config("ds_tracking", 7, 0.05, **mats)
    trace = assert_matches_per_step(cfg, suite, x0, 3000, 1e-9)
    assert trace.meta["termination"] == "threshold"


@pytest.mark.parametrize("kind, directed", [("abm", True),
                                            ("ds_tracking", False)])
def test_logistic_suite_matches_per_step(kind, directed):
    n = 5
    g = gr.generate_nearest_neighbor(n, 2, 0.2, seed=3, directed=directed)
    features, labels = obj.synthesize_logistic_data(n, 8, 2, seed=4)
    suite = obj.logistic_suite(features, labels, 0.5)
    mats = ({"A": wt.uniform_row_stochastic(g),
             "B": wt.uniform_column_stochastic(g)} if directed
            else {"W": wt.laplacian_doubly_stochastic(g)})
    cfg = eng.make_config(kind, n, 0.05, 0.2, **mats)
    x0 = np.random.default_rng(6).standard_normal((n, suite.p))
    assert_matches_per_step(cfg, suite, x0, 400, 1e-6)


@pytest.mark.parametrize("kind", ["abm", "ab"])
def test_block_boundaries_match_per_step(kind):
    suite, mats, x0 = setup()
    cfg = eng.make_config(kind, 6, 0.05, 0.3, **mats)
    rows = block_rows(6, 2)
    for max_iter in (0, 1, rows - 1, rows, rows + 1, 3 * rows + 5):
        trace = assert_matches_per_step(cfg, suite, x0, max_iter, 0.0)
        assert trace.meta["termination"] == "max_iter"
        assert len(trace.records) == max_iter + 1


@pytest.mark.parametrize("rows", [1, 2, 3, 7, 64])
def test_stop_anywhere_in_a_block_matches_per_step(monkeypatch, rows):
    monkeypatch.setattr(eng, "BLOCK_ROWS", rows)
    suite, mats, x0 = setup(seed=8)
    cfg = eng.make_config("abm", 6, 0.05, 0.3, **mats)
    for stop in (1e-1, 1e-3, 1e-6, 1e-9):
        trace = assert_matches_per_step(cfg, suite, x0, 5000, stop)
        assert trace.meta["termination"] == "threshold"


def test_start_at_minimizer_stops_at_record_zero():
    suite, mats, x0 = setup(seed=9)
    x_star = np.tile(suite.minimizer(), (6, 1))
    cfg = eng.make_config("abm", 6, 0.05, 0.3, **mats)
    trace = assert_matches_per_step(cfg, suite, x_star, 1000, 1e-12)
    assert trace.meta["termination"] == "threshold"
    assert [r.k for r in trace.records] == [0]


def test_divergence_inside_a_block_matches_per_step():
    suite, mats, x0 = setup(seed=10)
    cfg = eng.make_config("abm", 6, 0.9, 0.5, **mats)
    trace = assert_matches_per_step(cfg, suite, x0, 10000, 1e-8)
    assert trace.meta["termination"] == "diverged"
    last = trace.records[-1].k
    assert last % block_rows(6, 2) not in (0, block_rows(6, 2) - 1)


def test_overflowing_step_matches_per_step():
    suite, mats, x0 = setup(5, 2, seed=29)
    cfg = eng.make_config("abm", 5, 1e308, 0.1, **mats)
    trace = assert_matches_per_step(cfg, suite, x0, 100, 0.0)
    assert [r.residual for r in trace.records][1:] == [math.inf]


def test_block_elapsed_is_per_block(monkeypatch):
    monkeypatch.setattr(eng, "BLOCK_ROWS", 4)
    suite, mats, x0 = setup(seed=11)
    cfg = eng.make_config("ab", 6, 0.05, **mats)
    elapsed = [r.elapsed for r in eng.run(cfg, suite, x0, 10).records]
    # blocks of 4 records: 0-3 (record 0 and three steps), 4-7, then 8-10
    assert [len(set(elapsed[i:j])) for i, j in [(0, 4), (4, 8), (8, 11)]] \
        == [1, 1, 1]
    assert elapsed == sorted(elapsed)


def test_stacked_gradient_out_matches_new_array():
    suite, _, x = setup(seed=12)
    features, labels = obj.synthesize_logistic_data(4, 6, 3, seed=13)
    logistic = obj.logistic_suite(features, labels, 0.1)
    z = np.random.default_rng(14).standard_normal((4, logistic.p))
    for s, point in ((suite, x), (logistic, z)):
        out = np.full(point.shape, np.nan)
        assert s.stacked_gradient(point, out=out) is out
        assert out.tobytes() == s.stacked_gradient(point).tobytes()


def test_trace_csv_bytes_match_csv_writer(tmp_path):
    trace = an.Trace()
    rows = [(0, 1.5, 0.25, 1e-6), (1, 1e-300, float("nan"), 0.5),
            (2, 0.1 + 0.2, None, 2.0), (3, float("inf"), 5e-324, 1e9),
            (123456789, 2.0 ** -1074, 1.0, 0.0)]
    for row in rows:
        trace.append(*row)
    # blocks of records that share one elapsed time; equal times of two
    # blocks run on, and -0.0 is not 0.0
    nan = float("nan")
    for k, residuals, tes, elapsed in [
            (5, [0.5, 0.25, 1 / 3], [0.1, nan, 2.0], 1.5),
            (8, [1e-9], [nan], 1.5), (9, [2.0, 3.0], [1.0, 1e300], -0.0),
            (11, [4.0, 0.5], [nan] * 2, 0.0)]:
        trace.extend(k, residuals, tes, elapsed)
        rows += [(k + i, r, te, elapsed)
                 for i, (r, te) in enumerate(zip(residuals, tes))]
    trace.to_csv(tmp_path / "fast.csv")
    with open(tmp_path / "writer.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["k", "residual", "tracking_error", "elapsed_s"])
        writer.writerows(
            (k, repr(r), "" if te is None or te != te else repr(te), repr(el))
            for k, r, te, el in rows
        )
    assert ((tmp_path / "fast.csv").read_bytes()
            == (tmp_path / "writer.csv").read_bytes())
    an.Trace().to_csv(tmp_path / "empty.csv")
    assert ((tmp_path / "empty.csv").read_bytes()
            == b"k,residual,tracking_error,elapsed_s\r\n")
