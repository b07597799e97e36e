import json

import numpy as np
import pytest

from dhb import cli
from dhb import engines as eng
from dhb import harness as hs


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


def test_canonical_config_round_trip(tmp_path):
    cfg = base_config(tmp_path)
    text = hs.canonical_config(cfg)
    assert json.loads(text) == cfg
    assert hs.canonical_config(json.loads(text)) == text


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
    for form in ("abmc", "surplus"):
        assert (out / f"radius_grid_{form}.csv").exists()
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


def test_cli_flags_total_divergence(tmp_path):
    cfg = base_config(tmp_path, engines=[{"kind": "ab", "alpha": 50.0}])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path)]) == 2


def test_cli_graph_gen(tmp_path):
    out = tmp_path / "g.txt"
    code = cli.main([
        "graph-gen", "--n", "10", "--ring-degree", "2",
        "--extra-link-fraction", "0.05", "--directed", "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    from dhb import graph as gr
    g = gr.load_edge_list(out)
    assert g.n == 10
    assert gr.is_strongly_connected(g)


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
    assert runs == ["abm"] * 5 + ["ab"] * 3
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
