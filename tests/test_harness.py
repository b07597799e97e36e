import ast
import csv
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from dhb import cli
from dhb import consensus as cns
from dhb import engines as eng
from dhb import graph as gr
from dhb import harness as hs
from dhb import objectives as obj
from dhb import weights as wt


def base_config(tmp_path, directed=True, engines=None, condition_number=9.0):
    return {
        "graph": {
            "n": 8,
            "ring_degree": 2,
            "extra_link_fraction": 0.05,
            "directed": directed,
            "seed": 1,
        },
        "objective": {
            "kind": "quadratic",
            "p": 2,
            "condition_number": condition_number,
            "seed": 2,
        },
        "engines": engines if engines is not None else [
            {"kind": "ab", "alpha": 0.03},
        ],
        "run": {
            "max_iter": 5000,
            "stop_residual": 1e-8,
            "seed": 3,
            "out_dir": str(tmp_path / "out"),
        },
    }


def test_validate_rejects_unknown_keys(tmp_path):
    cfg = base_config(tmp_path)
    cfg["mystery"] = 1
    with pytest.raises(hs.ConfigError):
        hs.validate_config(cfg)
    cfg = base_config(tmp_path)
    cfg["graph"]["weighted"] = True
    with pytest.raises(hs.ConfigError):
        hs.validate_config(cfg)
    cfg = base_config(tmp_path)
    cfg["engines"][0]["momentum"] = 0.5
    with pytest.raises(hs.ConfigError):
        hs.validate_config(cfg)


def test_validate_rejects_missing_required(tmp_path):
    cfg = base_config(tmp_path)
    del cfg["run"]["stop_residual"]
    with pytest.raises(hs.ConfigError):
        hs.validate_config(cfg)
    cfg = base_config(tmp_path)
    del cfg["graph"]["seed"]
    with pytest.raises(hs.ConfigError):
        hs.validate_config(cfg)


def test_validate_rejects_bad_kinds(tmp_path):
    cfg = base_config(tmp_path)
    cfg["objective"]["kind"] = "cubic"
    with pytest.raises(hs.ConfigError):
        hs.validate_config(cfg)
    cfg = base_config(tmp_path)
    cfg["engines"][0]["kind"] = "sgd"
    with pytest.raises(hs.ConfigError):
        hs.validate_config(cfg)


def test_validate_rejects_doubly_stochastic_engines_on_directed_graphs(tmp_path):
    for kind in ("ds_tracking", "extra"):
        cfg = base_config(tmp_path, directed=True,
                          engines=[{"kind": kind, "alpha": 0.05}])
        with pytest.raises(hs.ConfigError):
            hs.validate_config(cfg)
        cfg = base_config(tmp_path, directed=False,
                          engines=[{"kind": kind, "alpha": 0.05}])
        hs.validate_config(cfg)


def test_validate_tune_needs_alpha_grid(tmp_path):
    cfg = base_config(tmp_path, engines=[
        {"kind": "ab", "tune": {"beta_grid": [0.0]}},
    ])
    with pytest.raises(hs.ConfigError):
        hs.validate_config(cfg)


def test_parse_config_file(tmp_path):
    cfg = base_config(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert hs.parse_config(path) == cfg


def test_build_quadratic_hits_exact_condition_number():
    suite = hs.build_quadratic(10, 4, 50.0, seed=5)
    assert np.isclose(suite.mu, 1.0)
    assert np.isclose(suite.lip, 50.0)
    assert np.isclose(suite.condition_number, 50.0)


def test_gradient_descent_rate_matches_closed_form(tmp_path):
    # Q = 9 with the optimal step gives the (Q-1)/(Q+1) = 0.8 contraction
    cfg = base_config(tmp_path, engines=[{"kind": "gd"}])
    cfg["run"]["max_iter"] = 120
    cfg["run"]["stop_residual"] = 0.0
    hs.validate_config(cfg)
    traces, summary = hs.run_experiment(cfg)
    rate = summary[0]["fitted_rate"]
    assert abs(rate - 0.8) < 0.02 * 0.8


def test_run_experiment_outputs(tmp_path):
    cfg = base_config(tmp_path, engines=[
        {"kind": "ab", "alpha": 0.03},
        {"kind": "abm", "alpha": 0.03, "beta": 0.2},
    ])
    hs.validate_config(cfg)
    traces, summary = hs.run_experiment(cfg)
    out = tmp_path / "out"
    assert (out / "trace_ab.csv").exists()
    assert (out / "trace_abm.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "plot_traces.py").exists()
    assert {row["engine"] for row in summary} == {"ab", "abm"}
    assert all(row["termination"] == "threshold" for row in summary)


def strip_elapsed(path):
    lines = path.read_text().splitlines()
    return [",".join(line.split(",")[:3]) for line in lines]


def test_run_experiment_is_deterministic(tmp_path):
    cfg = base_config(tmp_path)
    hs.validate_config(cfg)
    hs.run_experiment(cfg, out_dir=str(tmp_path / "a"))
    hs.run_experiment(cfg, out_dir=str(tmp_path / "b"))
    # identical except the wall-clock column
    assert (strip_elapsed(tmp_path / "a" / "trace_ab.csv")
            == strip_elapsed(tmp_path / "b" / "trace_ab.csv"))


def test_run_experiment_requires_engines_and_objective(tmp_path):
    cfg = base_config(tmp_path, engines=[])
    with pytest.raises(hs.ConfigError):
        hs.run_experiment(cfg)
    cfg = base_config(tmp_path)
    del cfg["objective"]
    with pytest.raises(hs.ConfigError):
        hs.run_experiment(cfg)


def test_untunable_engine_needs_alpha(tmp_path):
    cfg = base_config(tmp_path, engines=[{"kind": "abm"}])
    hs.validate_config(cfg)
    with pytest.raises(hs.ConfigError):
        hs.run_experiment(cfg)


def test_condition_sweep_momentum_no_worse(tmp_path):
    grids = {"alpha_grid": [0.001, 0.003, 0.01]}
    cfg = base_config(tmp_path, engines=[
        {"kind": "abm", "tune": {**grids, "beta_grid": [0.0, 0.2, 0.4]}},
        {"kind": "ab", "tune": grids},
    ])
    cfg["run"]["max_iter"] = 20000
    cfg["run"]["stop_residual"] = 1e-6
    hs.validate_config(cfg)
    rows = hs.run_condition_sweep(cfg, [10.0, 100.0])
    assert (tmp_path / "out" / "sweep_summary.csv").exists()
    by_q = {}
    for row in rows:
        by_q.setdefault(row["condition_number"], {})[row["engine"]] = row
    for q, engines in by_q.items():
        it_abm = engines["abm"]["iterations_to_threshold"]
        it_ab = engines["ab"]["iterations_to_threshold"]
        assert it_abm != "" and it_ab != ""
        # the momentum grid contains beta = 0, so tuning cannot do worse
        assert it_abm <= it_ab


def test_consensus_experiment(tmp_path):
    cfg = base_config(tmp_path, engines=[])
    cfg["consensus"] = {
        "alpha_grid": list(np.linspace(0.05, 0.6, 8)),
        "beta_grid": [0.0, 0.1, 0.2],
        "max_iter": 3000,
        "tol": 1e-9,
        "seed": 4,
    }
    hs.validate_config(cfg)
    results = hs.run_consensus_experiment(cfg)
    out = tmp_path / "out"
    mats = hs.build_weights(hs.build_graph(cfg["graph"]), {"A", "B"})
    for form in ("abmc", "surplus"):
        *_, rows = cns.grid_search_params(
            mats["A"], mats["B"], cfg["consensus"]["alpha_grid"],
            cfg["consensus"]["beta_grid"], form)
        lines = (out / f"radius_grid_{form}.csv").read_text().splitlines()
        assert lines[0] == "alpha,beta,radius"
        assert [tuple(float(v) for v in line.split(","))
                for line in lines[1:]] == rows
        assert (out / f"trace_consensus_{form}.csv").exists()
        assert results[form]["radius"] < 1.0
        assert results[form]["trace"].meta["termination"] == "threshold"
    assert results["abmc"]["radius"] <= results["surplus"]["radius"] + 1e-12


def test_consensus_experiment_needs_section(tmp_path):
    cfg = base_config(tmp_path)
    with pytest.raises(hs.ConfigError):
        hs.run_consensus_experiment(cfg)


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg = base_config(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ab:" in out

    bad = dict(cfg)
    bad["mystery"] = 1
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert cli.main(["run", "--config", str(bad_path)]) == 2


def test_cli_flags_total_divergence(tmp_path, capsys):
    # gd at 1e300 overflows, and the suite's settings make a RuntimeWarning
    # fail the test
    for engine in ({"kind": "ab", "alpha": 50.0},
                   {"kind": "gd", "alpha": 1e300}):
        cfg = base_config(tmp_path, engines=[engine])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(path)]) == 2
        captured = assert_one_error_line(capsys)
        assert captured.err == "error: every engine diverged\n"
        assert "(diverged)" in captured.out


def test_cli_graph_gen(tmp_path):
    out = tmp_path / "g.txt"
    code = cli.main([
        "graph-gen", "--n", "10", "--ring-degree", "2",
        "--extra-link-fraction", "0.05", "--directed", "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    assert out.read_text().splitlines()[0] == "n 10 directed 1"
    g = gr.Digraph(10, np.loadtxt(out, skiprows=1, dtype=int, ndmin=2) - 1)
    assert gr.is_strongly_connected(g.mask)


def test_cli_tune_prints_parameters(tmp_path, capsys):
    cfg = base_config(tmp_path, engines=[
        {"kind": "ab", "tune": {"alpha_grid": [0.01, 0.03]}},
    ])
    cfg["run"]["max_iter"] = 10000
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["tune", "--config", str(path)]) == 0
    assert "alpha=" in capsys.readouterr().out


def test_cli_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    assert cli.main(["run", "--config", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"graph": ')
    assert cli.main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_negative_step_size_exits_2(tmp_path, capsys):
    cfg = base_config(tmp_path, engines=[{"kind": "ab", "alpha": -0.1}])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_repeated_engine_kind_is_rejected(tmp_path, capsys):
    cfg = base_config(tmp_path, engines=[
        {"kind": "abm", "alpha": 0.03, "beta": 0.2},
        {"kind": "abm", "alpha": 0.01, "beta": 0.2},
    ])
    hs.validate_config(cfg)
    with pytest.raises(hs.ConfigError, match="more than once"):
        hs.run_experiment(cfg)
    assert not (tmp_path / "out" / "trace_abm.csv").exists()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_summary_reports_beta_the_engine_runs_with(tmp_path, capsys):
    cfg = base_config(tmp_path, engines=[
        {"kind": "ab", "alpha": 0.03, "beta": 0.5},
        {"kind": "abm", "alpha": 0.03, "beta": 0.2},
    ])
    _, summary = hs.run_experiment(cfg)
    assert [row["beta"] for row in summary] == [0.0, 0.2]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path)]) == 0
    assert "ab: alpha=0.03 beta=0 " in capsys.readouterr().out


def test_cli_sweep_rejects_non_quadratic_objective(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["objective"] = {"kind": "logistic", "m_i": 5, "p": 2, "reg": 0.1,
                        "seed": 2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    args = ["sweep", "--config", str(path), "--condition-numbers", "10,100"]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "quadratic" in captured.err
    assert captured.out == ""


def tuned_pair_config(tmp_path):
    grid = [0.01, 0.03]
    return base_config(tmp_path, engines=[
        {"kind": "abm", "tune": {"alpha_grid": grid, "beta_grid": [0.0, 0.4]}},
        {"kind": "ab", "tune": {"alpha_grid": grid}},
    ])


def log_kinds(monkeypatch, name):
    """Wrap engines.<name> to log the engine kind of every call."""
    kinds = []
    fn = getattr(eng, name)

    def logged(cfg, *args, **kwargs):
        kinds.append(cfg.kind)
        return fn(cfg, *args, **kwargs)

    monkeypatch.setattr(eng, name, logged)
    return kinds


def test_run_experiment_computes_each_trajectory_once(tmp_path, monkeypatch):
    runs = log_kinds(monkeypatch, "run")
    computed = log_kinds(monkeypatch, "_run")
    traces, _ = hs.run_experiment(tuned_pair_config(tmp_path))
    # the abm grid's four points; ab's grid is abm's beta = 0 column, and
    # each winner was run while tuning
    assert runs == ["abm"] * 4 + ["ab"] * 2 + ["abm", "ab"]
    assert computed == ["abm"] * 4
    assert traces["ab"].meta["cached"] and traces["abm"].meta["cached"]
    assert traces["ab"].meta["engine"] == "ab"


def test_run_cache_leaves_outputs_unchanged(tmp_path, monkeypatch):
    cfg = tuned_pair_config(tmp_path)
    hs.run_experiment(cfg, out_dir=str(tmp_path / "cached"))
    run = eng.run
    monkeypatch.setattr(
        eng, "run", lambda *a, cache=None, **k: run(*a, cache=None, **k)
    )
    hs.run_experiment(cfg, out_dir=str(tmp_path / "uncached"))
    for name in ("trace_abm.csv", "trace_ab.csv"):
        assert (strip_elapsed(tmp_path / "cached" / name)
                == strip_elapsed(tmp_path / "uncached" / name))
    assert ((tmp_path / "cached" / "summary.csv").read_text()
            == (tmp_path / "uncached" / "summary.csv").read_text())


def test_sweep_needs_an_objective(tmp_path, capsys):
    cfg = base_config(tmp_path)
    del cfg["objective"]
    with pytest.raises(hs.ConfigError, match="no objective"):
        hs.run_condition_sweep(cfg, [10.0])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    args = ["sweep", "--config", str(path), "--condition-numbers", "10"]
    assert cli.main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def read_trace(path):
    """The k and residual columns of a trace CSV."""
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1)).T


def test_shipped_quickstart_config(tmp_path):
    out = tmp_path / "quickstart"
    args = ["run", "--config", str(CONFIGS / "quickstart.json"),
            "--out", str(out)]
    assert cli.main(args) == 0
    with open(out / "summary.csv", newline="") as f:
        rows = {row["engine"]: row for row in csv.DictReader(f)}
    assert {kind: int(row["iterations_to_threshold"])
            for kind, row in rows.items()} == {
        "abm": 4345, "ab": 6136, "gd": 964, "heavy_ball": 120}
    assert all(row["termination"] == "threshold" for row in rows.values())


def test_shipped_consensus_config(tmp_path, capsys):
    out = tmp_path / "consensus"
    path = CONFIGS / "consensus_directed.json"
    assert cli.main(["consensus", "--config", str(path),
                     "--out", str(out)]) == 0
    tuned = {line.split(":")[0]: line.split()[1:3]
             for line in capsys.readouterr().out.splitlines()}
    assert tuned == {"abmc": ["alpha=0.15", "beta=0.4"],
                     "surplus": ["alpha=0.2", "beta=0"]}
    ccfg = hs.parse_config(path)["consensus"]
    for form in tuned:
        k, residual = read_trace(out / f"trace_consensus_{form}.csv")
        # a run that stopped below tol before max_iter ended on "threshold"
        assert k[-1] < ccfg["max_iter"]
        assert residual[-1] < ccfg["tol"]


# a valid consensus section, for the range cases of its keys
CONSENSUS = {"alpha_grid": [0.2], "max_iter": 10, "tol": 0.0, "seed": 0}


def _set(cfg, path, value):
    """cfg with the entry at `path` (keys and list indices) set to value;
    an empty path replaces the whole config."""
    if not path:
        return value
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


@pytest.mark.parametrize("path, value", [
    (("graph",), 5),
    (("objective",), ["quadratic"]),
    (("run", "max_iter"), "50000"),
    (("run", "max_iter"), 5e4),
    (("run", "stop_residual"), None),
    (("run", "out_dir"), 7),
    (("graph", "n"), True),
    (("graph", "directed"), 1),
    (("graph", "extra_link_fraction"), "0.05"),
    (("objective", "condition_number"), [100.0]),
    (("engines",), {"kind": "abm"}),
    (("engines", 0), "abm"),
    (("engines", 0, "kind"), ["abm"]),
    (("engines", 0, "alpha"), False),
    (("engines", 0, "alpha"), [0.003] * 19),
    (("engines", 0, "beta"), [0.3] * 21),
    (("engines", 0, "beta"), [0.3] * 19 + ["0.3"]),
    (("engines", 0, "tune"), {"alpha_grid": []}),
    (("engines", 0, "tune"), {"alpha_grid": 0.003}),
    (("engines", 0, "tune"), {"alpha_grid": [0.003, "0.001"]}),
    (("engines", 0, "tune"), {"alpha_grid": [0.003], "beta_grid": [True]}),
    ((), ["graph", "run"]),
    (("graph", "seed"), -1),
    (("objective", "seed"), -1),
    (("run", "seed"), -1),
    (("consensus",), dict(CONSENSUS, seed=-1)),
    (("objective", "p"), 0),
    (("objective",), {"kind": "logistic", "m_i": 0, "p": 2, "reg": 0.1,
                      "seed": 5}),
    (("run", "max_iter"), -1),
    (("consensus",), dict(CONSENSUS, max_iter=-1)),
    (("run", "stop_residual"), -1.0),
    (("run", "stop_residual"), float("nan")),
    (("consensus",), dict(CONSENSUS, tol=-1e-11)),
    (("consensus",), dict(CONSENSUS, tol=float("nan"))),
    (("objective", "condition_number"), 0.5),
    (("objective", "condition_number"), float("nan")),
    (("objective", "condition_number"), float("inf")),
    (("engines", 1, "tune"), {"alpha_grid": [float("nan"), 0.003]}),
    (("engines", 0, "tune"), {"alpha_grid": [0.003],
                              "beta_grid": [float("inf"), 0.3]}),
    (("engines", 0, "tune"), {"alpha_grid": [0.003],
                              "beta_grid": [-0.5, 0.3]}),
    # a tune grid is an alternative to a fixed alpha or beta
    (("engines", 1, "tune"), {"alpha_grid": [0.001]}),
    (("engines", 2), {"kind": "gd", "beta": 0.0,
                      "tune": {"alpha_grid": [0.01]}}),
    # a beta needs an alpha beside it
    (("engines", 3), {"kind": "heavy_ball", "beta": 0.5}),
])
def test_cli_rejects_mistyped_config(tmp_path, capsys, path, value):
    cfg = _set(json.loads((CONFIGS / "quickstart.json").read_text()), path,
               value)
    with pytest.raises(hs.ConfigError):
        hs.validate_config(cfg)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_consensus_grid_entries_are_typed():
    cfg = json.loads((CONFIGS / "consensus_directed.json").read_text())
    hs.validate_config(cfg)
    for grid in ([], [0.1, None], "0.1"):
        cfg["consensus"]["beta_grid"] = grid
        with pytest.raises(hs.ConfigError, match="consensus.beta_grid"):
            hs.validate_config(cfg)


def test_cli_runs_per_agent_steps_and_momenta(tmp_path, capsys):
    alphas = [0.02 + 0.002 * i for i in range(8)]
    betas = [0.1 * (i % 4) for i in range(8)]
    cfg = base_config(tmp_path, engines=[
        {"kind": "abm", "alpha": alphas, "beta": betas}])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path)]) == 0
    assert "abm:" in capsys.readouterr().out
    with open(tmp_path / "out" / "summary.csv") as f:
        (row,) = csv.DictReader(f)
    assert float(row["alpha"]) == max(alphas)
    assert float(row["beta"]) == max(betas)
    assert row["termination"] == "threshold"


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    return captured


def test_every_input_error_has_one_base():
    from dhb import analysis, consensus, graph, objectives, weights
    from dhb.errors import DhbError
    for error in (hs.ConfigError, graph.GraphError, weights.WeightError,
                  objectives.ObjectiveError, eng.EngineError,
                  consensus.ConsensusError, analysis.AnalysisError):
        assert issubclass(error, DhbError)


def test_cli_reports_consensus_error(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "consensus_directed.json").read_text())
    cfg["consensus"]["alpha_grid"] = [-0.1, 0.2]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["consensus", "--config", str(path), "--out",
                     str(out)]) == 2
    assert "nonnegative" in assert_one_error_line(capsys).err


@pytest.mark.parametrize("grid, value", [("alpha_grid", float("nan")),
                                         ("beta_grid", float("inf"))])
def test_cli_reports_non_finite_consensus_grid(tmp_path, capsys, grid, value):
    cfg = json.loads((CONFIGS / "consensus_directed.json").read_text())
    cfg["consensus"][grid] = [value, 0.2]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["consensus", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 2
    assert "finite" in assert_one_error_line(capsys).err


def test_cli_prints_a_huge_consensus_radius_in_short_form(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "consensus_directed.json").read_text())
    cfg["consensus"]["alpha_grid"] = cfg["consensus"]["beta_grid"] = [1e200]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["consensus", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 2
    captured = assert_one_error_line(capsys)
    assert "diverged" in captured.err
    radii = [field for line in captured.out.splitlines()
             for field in line.split() if field.startswith("radius=")]
    assert radii == ["radius=2.17872e+192", "radius=1e+200"]


def test_cli_n_override_is_validated(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "quickstart.json").read_text())
    cfg["engines"][0]["alpha"] = [0.003] * cfg["graph"]["n"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    args = ["run", "--config", str(path), "--out", str(out)]
    assert cli.main(args + ["--n", "10"]) == 2
    assert "one entry per agent (10)" in assert_one_error_line(capsys).err
    assert cli.main(args + ["--seed", "-1"]) == 2
    assert "run.seed" in assert_one_error_line(capsys).err
    assert not out.exists()


def test_cli_consensus_seed_sets_the_consensus_seed(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "consensus_directed.json").read_text())
    cfg["consensus"].update(alpha_grid=[0.15, 0.2], beta_grid=[0.0, 0.4])

    def residuals(out, seed, *flags):
        cfg["consensus"]["seed"] = seed
        path = tmp_path / f"cfg_{seed}.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["consensus", "--config", str(path), "--out",
                         str(tmp_path / out), *flags]) == 0
        return {form: read_trace(tmp_path / out /
                                 f"trace_consensus_{form}.csv")[1]
                for form in ("abmc", "surplus")}

    flagged = residuals("flagged", 31, "--seed", "5")
    seeded = residuals("seeded", 5)
    default = residuals("default", 31)
    for form in ("abmc", "surplus"):
        assert np.array_equal(flagged[form], seeded[form])
        assert not np.array_equal(flagged[form], default[form])


@pytest.mark.parametrize("qs", ["abc", "", "10,abc", "0", "0.5", "nan",
                                "inf"])
def test_cli_sweep_rejects_bad_condition_numbers(tmp_path, capsys, qs):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config(tmp_path)))
    assert cli.main(["sweep", "--config", str(path),
                     "--condition-numbers", qs]) == 2
    assert assert_one_error_line(capsys).out == ""
    assert not (tmp_path / "out" / "sweep_summary.csv").exists()


@pytest.mark.parametrize("key, value, index", [
    ("alpha", [float("nan")] + [0.003] * 19, 0),
    ("beta", float("inf"), 0),
    ("alpha", [float("nan")] + [0.003] * 19, 1),
    ("beta", float("inf"), 1),
], ids=["alpha-value0", "beta-inf", "alpha-engines1", "beta-engines1"])
def test_cli_rejects_non_finite_steps_before_any_run(tmp_path, capsys,
                                                     monkeypatch, key, value,
                                                     index):
    runs = log_kinds(monkeypatch, "run")
    cfg = json.loads((CONFIGS / "quickstart.json").read_text())
    cfg["engines"][index][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "finite" in assert_one_error_line(capsys).err
    assert runs == []
    assert not list(out.glob("trace_*.csv"))


MISTAKES = [({"kind": "ab"}, "needs alpha or a tune grid"),
            ({"kind": "ab", "alpha": [-0.003] + [0.003] * 19}, "finite"),
            ({"kind": "ab_extra", "alpha": [0.004] + [0.003] * 19},
             "identical scalar step-size")]
TUNED_ABM = {"kind": "abm", "tune": {"alpha_grid": [0.003],
                                     "beta_grid": [0.0, 0.3]}}


@pytest.mark.parametrize(
    "first, engine, message",
    [(None, *m) for m in MISTAKES] + [(TUNED_ABM, *m) for m in MISTAKES],
    ids=["no_alpha", "negative_alpha", "unequal_alpha", "no_alpha_tuned_first",
         "negative_alpha_tuned_first", "unequal_alpha_tuned_first"])
def test_cli_checks_every_engine_before_any_run(tmp_path, capsys, monkeypatch,
                                                first, engine, message):
    # engines[0] is valid, fixed or tuned; the second engine's mistake must
    # stop the run before any tuning run, before abm's final run and before
    # the output directory is made
    runs = log_kinds(monkeypatch, "run")
    cfg = json.loads((CONFIGS / "quickstart.json").read_text())
    cfg["engines"][0] = first or cfg["engines"][0]
    cfg["engines"][1] = engine
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert message in assert_one_error_line(capsys).err
    assert runs == []
    assert not out.exists()


def test_cli_refuses_a_tune_grid_without_a_stop_residual(tmp_path, capsys,
                                                         monkeypatch):
    # tuning counts iterations to run.stop_residual; at 0 no grid point
    # ever reaches it, so every one would run to max_iter for nothing
    runs = log_kinds(monkeypatch, "run")
    cfg = json.loads((CONFIGS / "quickstart.json").read_text())
    cfg["engines"][0] = {"kind": "abm", "tune": {"alpha_grid": [0.003, 0.004],
                                                 "beta_grid": [0.0, 0.3]}}
    cfg["run"].update(max_iter=50, stop_residual=0.0)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for command in ("run", "tune"):
        assert cli.main([command, "--config", str(path)]) == 2
        assert "stop_residual" in assert_one_error_line(capsys).err
    assert runs == []


@pytest.mark.parametrize("q", [1e308, 1e307],
                         ids=["inf_diagonal", "inf_sum"])
def test_cli_sweep_refuses_a_condition_number_past_the_float_range(
        tmp_path, capsys, q):
    # on 20 agents, 1e308 overflows build_quadratic's diagonal and 1e307
    # quadratic_suite's smoothness constant; pytest turns numpy's
    # RuntimeWarning into a failure, so this also checks that none prints
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(CONFIGS / "quickstart.json"),
                     "--condition-numbers", str(q), "--out", str(out)]) == 2
    captured = assert_one_error_line(capsys)
    assert "smoothness" in captured.err and captured.out == ""
    assert not out.exists()


def test_cli_rejects_non_finite_logistic_reg(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "quickstart.json").read_text())
    cfg["objective"] = {"kind": "logistic", "m_i": 5, "p": 2,
                        "reg": float("nan"), "seed": 2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    args = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    # pytest turns a RuntimeWarning into a failure
    assert cli.main(args) == 2
    assert "regularization" in assert_one_error_line(capsys).err


def test_sweep_reports_the_largest_per_agent_step(tmp_path):
    alphas = [0.02 + 0.002 * i for i in range(8)]
    cfg = base_config(tmp_path, engines=[
        {"kind": "abm", "alpha": alphas, "beta": 0.2}])
    rows = hs.run_condition_sweep(cfg, [9.0])
    assert rows[0]["alpha"] == max(alphas)
    with open(tmp_path / "out" / "sweep_summary.csv", newline="") as f:
        (row,) = csv.DictReader(f)
    assert float(row["alpha"]) == max(alphas)


def test_cli_tune_checks_every_engine_as_run_does(tmp_path, capsys):
    # engines[0] has no tune grid; tune resolves it all the same
    cfg = json.loads((CONFIGS / "quickstart.json").read_text())
    cfg["engines"][0]["alpha"] = float("nan")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    run_err = assert_one_error_line(capsys).err
    assert "finite" in run_err
    assert cli.main(["tune", "--config", str(path)]) == 2
    captured = assert_one_error_line(capsys)
    assert captured.err == run_err and captured.out == ""


def test_cli_consensus_exits_2_when_every_form_diverges(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "consensus_directed.json").read_text())
    cfg["consensus"]["alpha_grid"] = [3.0, 5.0]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["consensus", "--config", str(path),
                     "--out", str(out)]) == 2
    captured = assert_one_error_line(capsys)
    assert captured.err == "error: every consensus form diverged\n"
    assert len(captured.out.splitlines()) == 2
    for form in ("abmc", "surplus"):
        assert (out / f"radius_grid_{form}.csv").exists()
        _, residual = read_trace(out / f"trace_consensus_{form}.csv")
        assert residual[-1] > 1e12


def test_cli_graph_gen_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert cli.main(["graph-gen", "--n", "10", "--seed", "-1",
                     "--out", str(out)]) == 2
    assert "seed" in assert_one_error_line(capsys).err
    assert not out.exists()


def test_cli_run_exits_2_when_tuning_finds_nothing(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "quickstart.json").read_text())
    cfg["run"]["max_iter"] = 50
    cfg["engines"][0] = {"kind": "abm", "tune": {"alpha_grid": [0.003],
                                                 "beta_grid": [0.3]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    captured = assert_one_error_line(capsys)
    assert "tuning found no convergent parameters" in captured.err
    assert captured.out == "" and not out.exists()


def test_cli_sweep_and_tune_print_a_line_per_engine(tmp_path, capsys):
    cfg = base_config(tmp_path, engines=[
        {"kind": "ab", "alpha": 0.03},
        {"kind": "abm", "tune": {"alpha_grid": [0.03], "beta_grid": [0.2]}},
    ])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    args = ["sweep", "--config", str(path), "--condition-numbers", "4,9"]
    assert cli.main(args) == 0
    rows = hs.run_condition_sweep(cfg, [4.0, 9.0])
    assert capsys.readouterr().out.splitlines() == [
        f"Q={row['condition_number']:g} {row['engine']}: "
        f"iters={row['iterations_to_threshold']}" for row in rows]
    assert cli.main(["tune", "--config", str(path)]) == 0
    assert capsys.readouterr().out == ("ab: no tune grid, skipped\n"
                                       "abm: alpha=0.03 beta=0.2\n")


def test_sweep_needs_a_condition_number(tmp_path):
    with pytest.raises(hs.ConfigError, match="at least one condition number"):
        hs.run_condition_sweep(base_config(tmp_path), [])
    assert not (tmp_path / "out").exists()


def test_sweep_checks_its_objective_before_building(tmp_path, monkeypatch):
    built = []
    for name in ("build_graph", "build_objective"):
        monkeypatch.setattr(hs, name,
                            lambda *args, name=name: built.append(name))
    cfg = base_config(tmp_path)
    cfg["objective"] = {"kind": "logistic", "m_i": 5, "p": 2, "reg": 0.1,
                        "seed": 2}
    with pytest.raises(hs.ConfigError, match="quadratic"):
        hs.run_condition_sweep(cfg, [10.0])
    assert built == []


def test_centralized_kinds_default_to_their_closed_form_parameters(tmp_path):
    cfg = json.loads((CONFIGS / "quickstart.json").read_text())
    cfg["engines"] = [{"kind": "gd"}, {"kind": "heavy_ball"}]
    cfg["run"].update(max_iter=10, out_dir=str(tmp_path / "out"))
    _, summary = hs.run_experiment(hs.validate_config(cfg))
    assert [(r["engine"], r["alpha"], r["beta"]) for r in summary] == [
        ("gd", 0.019801980198019802, 0.0),
        ("heavy_ball", 0.03305785123966942, 0.6694214876033059)]


def test_harness_names_no_engine_kind():
    # the harness reads every per-kind fact from engines.ENGINES
    tree = ast.parse(Path(hs.__file__).read_text())
    kinds = [node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in eng.ENGINES]
    assert kinds == []


def test_graph_section_keys_are_the_generator_parameters():
    required, optional = hs._SCHEMA["graph"]
    # build_graph passes the validated section to the generator as keywords
    assert optional == {}
    assert set(required) == set(
        inspect.signature(gr.generate_nearest_neighbor).parameters)


@pytest.mark.parametrize("kind, builder, more", [
    ("quadratic", hs.build_quadratic, set()),
    ("logistic", obj.synthesize_logistic_data, {"reg"}),
])
def test_objective_section_keys_are_the_builder_parameters(kind, builder,
                                                           more):
    # build_objective passes the section but kind to the builders as
    # keywords; reg goes to logistic_suite
    required, optional = hs._SCHEMA[kind]
    assert optional == {}
    assert set(required) == ({"kind"} | more | set(
        inspect.signature(builder).parameters) - {"n"})


def test_weight_slots_are_stated_once_in_weights():
    # weights.SLOTS holds each slot's stochasticity and builder name; no
    # other module names a builder in a string
    g = gr.generate_nearest_neighbor(6, 2, 0.1, seed=3, directed=False)
    built = hs.build_weights(g, set(wt.SLOTS))
    assert {slot: m.kind for slot, m in built.items()} == {
        slot: kind for slot, (kind, _) in wt.SLOTS.items()}
    names = {name for _, name in wt.SLOTS.values()}
    found = [path.name for path in sorted(Path(wt.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and node.value in names]
    assert found == ["weights.py"] * 3


def test_harness_leaves_each_consensus_form_to_consensus():
    # consensus.build_system alone maps a form to its system
    tree = ast.parse(Path(hs.__file__).read_text())
    builders = [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr in ("abmc_build", "surplus_build")]
    form_tests = [node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
                  and "form" in {n.id for n in ast.walk(node)
                                 if isinstance(n, ast.Name)}]
    assert builders == [] and form_tests == []


def test_cli_tune_takes_no_out(tmp_path, capsys):
    # tune writes nothing, so it has no output directory to take
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config(tmp_path, engines=[
        {"kind": "ab", "tune": {"alpha_grid": [0.03]}}])))
    with pytest.raises(SystemExit) as exc:
        cli.main(["tune", "--config", str(path), "--out", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out x" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
