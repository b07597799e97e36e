"""End-to-end acceptance checks.

Each test prints one pass/fail line (visible even under pytest capture) and
then asserts, so a red run still shows which guarantees held. The slower
checks exercise the reference configurations shipped in configs/.
"""

import json
import time
from pathlib import Path

import numpy as np

from dhb import consensus as cs
from dhb import engines as eng
from dhb import graph as gr
from dhb import harness as hs
from dhb import objectives as obj
from dhb import weights as wt
from dhb.analysis import fit_linear_rate, iterations_to_threshold

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(capsys, num, ok, detail, flag_only=False):
    status = "PASS" if ok else ("FLAGGED" if flag_only else "FAIL")
    with capsys.disabled():
        print(f"\n[acceptance] criterion {num:2d}: {status} ({detail})")


def random_quadratic(n, p, seed):
    rng = np.random.default_rng(seed)
    return obj.quadratic_suite(
        rng.uniform(0.5, 2.0, (n, p)), rng.standard_normal((n, p))
    )


def test_criterion_01_tracking_invariant(capsys):
    t0 = time.perf_counter()
    suite = hs.build_quadratic(20, 5, 10.0, seed=43)
    x0 = np.random.default_rng(45).standard_normal((20, 5))
    g_dir = gr.generate_nearest_neighbor(20, 3, 0.05, seed=41, directed=True)
    g_und = gr.generate_nearest_neighbor(20, 3, 0.05, seed=41, directed=False)
    A = wt.uniform_row_stochastic(g_dir)
    B = wt.uniform_column_stochastic(g_dir)
    W = wt.laplacian_doubly_stochastic(g_und)
    configs = [
        eng.make_config("abm", 20, 0.005, 0.2, A=A, B=B),
        eng.make_config("ab", 20, 0.005, A=A, B=B),
        eng.make_config("ds_tracking", 20, 0.01, W=W),
    ]
    worst = 0.0
    for cfg in configs:
        state = eng.init_state(cfg, suite, x0)
        step = eng.STEP_FUNCTIONS[cfg.kind]
        for _ in range(500):
            state = step(state, cfg, suite)
            grad_sum = state.grads.sum(axis=0)
            err = np.linalg.norm(state.y.sum(axis=0) - grad_sum)
            rel = err / (1.0 + np.linalg.norm(grad_sum))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    report(capsys, 1, ok,
           f"max relative tracker drift {worst:.2e} over 3 engines x 500 "
           f"iterations in {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_02_linear_convergence_nonidentical_steps(capsys):
    g = gr.generate_nearest_neighbor(20, 2, 0.05, seed=7, directed=True)
    A = wt.uniform_row_stochastic(g)
    B = wt.uniform_column_stochastic(g)
    suite = hs.build_quadratic(20, 3, 100.0, seed=11)
    rng = np.random.default_rng(13)
    x0 = rng.standard_normal((20, 3))
    alphas = 0.003 * rng.uniform(0.5, 1.0, 20)
    alphas[0] = 0.0  # one agent takes no descent step of its own
    cfg = eng.make_config("abm", 20, alphas, 0.3, A=A, B=B)
    trace = eng.run(cfg, suite, x0, 50000, 1e-8)
    iters = iterations_to_threshold(trace, 1e-8)
    rate, r2 = fit_linear_rate(trace)
    ok = iters is not None and r2 > 0.99
    report(capsys, 2, ok,
           f"residual < 1e-8 at iteration {iters}, tail rate {rate:.5f} "
           f"with R^2 = {r2:.6f}")
    assert iters is not None and iters <= 50000
    assert r2 > 0.99


def test_criterion_03_two_history_rewrite_equivalence(capsys):
    g = gr.generate_nearest_neighbor(5, 2, 0.1, seed=6, directed=True)
    A = wt.uniform_row_stochastic(g)
    B = wt.uniform_column_stochastic(g)
    suite = random_quadratic(5, 2, seed=6)
    x0 = np.random.default_rng(8).standard_normal((5, 2))
    cfg_ab = eng.make_config("ab", 5, 0.03, A=A, B=B)
    cfg_ex = eng.make_config("ab_extra", 5, 0.03, A=A, B=B)
    s_ab = eng.init_state(cfg_ab, suite, x0)
    s_ex = eng.init_state(cfg_ex, suite, x0)
    dev = 0.0
    for _ in range(50):
        s_ab = eng.ab_step(s_ab, cfg_ab, suite)
        s_ex = eng.ab_extra_form_step(s_ex, cfg_ex, suite)
        dev = max(dev, float(np.max(np.abs(s_ab.x - s_ex.x))))
    ok = dev <= 1e-9
    report(capsys, 3, ok, f"max trajectory deviation {dev:.2e} over 50 steps")
    assert dev <= 1e-9


def test_criterion_04_perron_transform_equivalence(capsys):
    g = gr.generate_nearest_neighbor(5, 2, 0.1, seed=6, directed=True)
    A = wt.WeightMatrix(wt.uniform_row_stochastic(g).entries, wt.ROW)
    B = wt.uniform_column_stochastic(g)
    scale = 5 * A.pi_r
    b_tilde = scale[:, None] * A.entries / scale[None, :]
    col_resid = float(np.max(np.abs(b_tilde.sum(axis=0) - 1.0)))

    suite = random_quadratic(5, 2, seed=6)
    x0 = np.random.default_rng(8).standard_normal((5, 2))
    cfg_ab = eng.make_config("ab", 5, 0.03, A=A, B=B)
    cfg_tr = eng.make_config("transformed_exact", 5, 0.03, A=A, B=B)
    s_ab = eng.init_state(cfg_ab, suite, x0)
    s_tr = eng.init_state(cfg_tr, suite, x0)
    dev = 0.0
    for _ in range(50):
        s_ab = eng.ab_step(s_ab, cfg_ab, suite)
        s_tr = eng.transformed_ab_exact_step(s_tr, cfg_tr, suite)
        dev = max(dev, float(np.max(np.abs(scale[:, None] * s_ab.x - s_tr.z))))
    ok = dev <= 1e-9 and col_resid <= 1e-12
    report(capsys, 4, ok,
           f"scaled-trajectory deviation {dev:.2e}, similarity column-sum "
           f"residual {col_resid:.2e}")
    assert dev <= 1e-9
    assert col_resid <= 1e-12


def test_criterion_05_degeneracy_ladder(capsys):
    devs = {}

    # single agent with momentum vs centralized heavy-ball
    suite1 = random_quadratic(1, 3, seed=2)
    g1 = gr.Digraph(1, [])
    A1 = wt.uniform_row_stochastic(g1)
    B1 = wt.uniform_column_stochastic(g1)
    x0 = np.random.default_rng(2).standard_normal((1, 3))
    cfg = eng.make_config("abm", 1, 0.1, 0.3, A=A1, B=B1)
    state = eng.init_state(cfg, suite1, x0)
    xc, xc_prev = x0[0].copy(), np.zeros(3)
    d = 0.0
    for _ in range(100):
        state = eng.abm_step(state, cfg, suite1)
        xc, xc_prev = eng.centralized_hb_step(xc, xc_prev, 0.1, 0.3, suite1)
        d = max(d, float(np.max(np.abs(state.x[0] - xc))))
    devs["n=1 vs heavy-ball"] = d

    # zero momentum vs the momentum-free engine
    g = gr.generate_nearest_neighbor(6, 2, 0.1, seed=3, directed=True)
    A = wt.uniform_row_stochastic(g)
    B = wt.uniform_column_stochastic(g)
    suite = random_quadratic(6, 2, seed=3)
    x0 = np.random.default_rng(3).standard_normal((6, 2))
    cfg_m = eng.make_config("abm", 6, 0.02, 0.0, A=A, B=B)
    cfg_0 = eng.make_config("ab", 6, 0.02, A=A, B=B)
    sm = eng.init_state(cfg_m, suite, x0)
    s0 = eng.init_state(cfg_0, suite, x0)
    d = 0.0
    for _ in range(100):
        sm = eng.abm_step(sm, cfg_m, suite)
        s0 = eng.ab_step(s0, cfg_0, suite)
        d = max(d, float(np.max(np.abs(sm.x - s0.x))))
    devs["beta=0 vs momentum-free"] = d

    # doubly-stochastic weights in both slots vs the one-matrix engine
    gu = gr.generate_nearest_neighbor(6, 2, 0.1, seed=4, directed=False)
    W = wt.laplacian_doubly_stochastic(gu)
    Ar = wt.WeightMatrix(W.entries, wt.ROW)
    Bc = wt.WeightMatrix(W.entries, wt.COLUMN)
    suite = random_quadratic(6, 2, seed=4)
    x0 = np.random.default_rng(4).standard_normal((6, 2))
    cfg_ab = eng.make_config("ab", 6, 0.05, A=Ar, B=Bc)
    cfg_ds = eng.make_config("ds_tracking", 6, 0.05, W=W)
    sa = eng.init_state(cfg_ab, suite, x0)
    sd = eng.init_state(cfg_ds, suite, x0)
    d = 0.0
    for _ in range(100):
        sa = eng.ab_step(sa, cfg_ab, suite)
        sd = eng.ds_tracking_step(sd, cfg_ds, suite)
        d = max(d, float(np.max(np.abs(sa.x - sd.x))))
    devs["doubly-stochastic vs one-matrix"] = d

    worst = max(devs.values())
    ok = worst <= 1e-15
    report(capsys, 5, ok,
           "; ".join(f"{k}: {v:.2e}" for k, v in devs.items()))
    assert worst <= 1e-15


def test_criterion_06_centralized_rate_oracle(capsys):
    details = []
    ok = True
    for q, iters in ((9.0, 140), (100.0, 1300)):
        suite = hs.build_quadratic(1, 3, q, seed=3)
        x0 = np.random.default_rng(5).standard_normal((1, 3))
        cfg = eng.make_config("gd", 1, 2.0 / (suite.mu + suite.lip))
        trace = eng.run(cfg, suite, x0, iters, 0.0)
        rate, _ = fit_linear_rate(trace)
        target = (q - 1.0) / (q + 1.0)
        rel = abs(rate - target) / target
        ok = ok and rel < 0.02
        details.append(f"Q={q:g}: fitted {rate:.6f} vs {target:.6f}")

    suite = hs.build_quadratic(1, 4, 1e4, seed=3)
    x0 = np.random.default_rng(5).standard_normal((1, 4))
    cfg = eng.make_config("gd", 1, 2.0 / (suite.mu + suite.lip))
    gd_iters = iterations_to_threshold(
        eng.run(cfg, suite, x0, 300000, 1e-6), 1e-6
    )
    alpha, beta = eng.polyak_parameters(suite.mu, suite.lip)
    cfg = eng.make_config("heavy_ball", 1, alpha, beta)
    hb_iters = iterations_to_threshold(
        eng.run(cfg, suite, x0, 300000, 1e-6), 1e-6
    )
    speedup = gd_iters / hb_iters
    ok = ok and speedup >= 10.0
    details.append(f"Q=1e4 speedup {speedup:.1f}x "
                   f"({gd_iters} vs {hb_iters} iterations)")
    report(capsys, 6, ok, "; ".join(details))
    assert ok


def test_criterion_07_momentum_benefit_reference_config(capsys, tmp_path):
    cfg = hs.parse_config(CONFIG_DIR / "reference_quadratic.json")
    traces, summary = hs.run_experiment(cfg, out_dir=str(tmp_path))
    by_engine = {row["engine"]: row for row in summary}
    it_abm = by_engine["abm"]["iterations_to_threshold"]
    it_ab = by_engine["ab"]["iterations_to_threshold"]
    ok = it_abm != "" and it_ab != "" and it_abm < it_ab
    report(capsys, 7, ok,
           f"Q=1e4, n=50: tuned momentum reaches 1e-8 in {it_abm} iterations "
           f"(alpha={by_engine['abm']['alpha']:g}, "
           f"beta={by_engine['abm']['beta']:g}) vs {it_ab} without "
           f"(alpha={by_engine['ab']['alpha']:g})")
    assert it_abm != "" and it_ab != ""
    assert it_abm <= it_ab  # guaranteed: the momentum grid contains beta = 0
    assert it_abm < it_ab


def test_criterion_08_eigenvector_estimation_drag(capsys, tmp_path):
    cfg = hs.parse_config(CONFIG_DIR / "reference_sweep.json")
    rows = hs.run_condition_sweep(cfg, [100.0], out_dir=str(tmp_path))
    assert (tmp_path / "sweep_summary.csv").exists()
    by_engine = {row["engine"]: row for row in rows}
    it_ab = by_engine["ab"]["iterations_to_threshold"]
    it_ao = by_engine["addopt"]["iterations_to_threshold"]
    ok = it_ab != "" and it_ao != "" and it_ao >= it_ab
    report(capsys, 8, ok,
           f"reference graph, Q=100: tuned eigenvector-estimating engine "
           f"{it_ao} iterations vs {it_ab} with exact row weights",
           flag_only=True)
    # empirical claim: flagged above rather than failed if it ever inverts
    assert it_ab != "" and it_ao != ""


def test_criterion_09_consensus_exactness(capsys):
    g = gr.generate_nearest_neighbor(20, 2, 0.05, seed=29, directed=True)
    A = wt.uniform_row_stochastic(g)
    B = wt.uniform_column_stochastic(g)
    alpha_grid = np.linspace(0.05, 0.6, 12)
    beta_grid = np.linspace(0.0, 0.4, 9)
    rng = np.random.default_rng(31)
    values = rng.standard_normal(20)

    finals = {}
    systems = {}
    for form in ("abmc", "surplus"):
        a, b, radius, _ = cs.grid_search_params(
            A, B, alpha_grid, beta_grid, form
        )
        sys_ = (cs.abmc_build(A, B, a, b) if form == "abmc"
                else cs.surplus_build(A, B, a))
        systems[form] = sys_
        trace = cs.consensus_run(sys_, values, 20000, tol=1e-11)
        finals[form] = trace.records[-1].residual

    # zero-momentum 3-block system reproduces the 2-block trajectory
    sys_m0 = cs.abmc_build(A, B, systems["surplus"].alpha, 0.0)
    sm = cs.initial_stack(sys_m0, values)
    ss = cs.initial_stack(systems["surplus"], values)
    traj_dev = 0.0
    for _ in range(60):
        sm = sys_m0.H @ sm
        ss = systems["surplus"].H @ ss
        traj_dev = max(traj_dev, float(np.max(np.abs(sm[:40] - ss))))

    h, h_inf = systems["abmc"].H, systems["abmc"].H_inf
    law_dev = max(
        float(np.max(np.sum(np.abs(
            np.linalg.matrix_power(h, k) - h_inf
            - np.linalg.matrix_power(h - h_inf, k)
        ), axis=1)))
        for k in range(1, 51)
    )

    ok = (max(finals.values()) < 1e-10 and traj_dev <= 1e-12
          and law_dev < 1e-10)
    report(capsys, 9, ok,
           f"final mean deviation abmc {finals['abmc']:.2e} / surplus "
           f"{finals['surplus']:.2e}; zero-momentum match {traj_dev:.2e}; "
           f"power-law deviation {law_dev:.2e}")
    assert max(finals.values()) < 1e-10
    assert traj_dev <= 1e-12
    assert law_dev < 1e-10


def test_criterion_10_step_condition_diagnostic(capsys):
    worst = 0.0
    ok = True
    n = 10
    pi = np.full(n, 1.0 / n)  # exact Perron vectors of any doubly-stochastic W
    for seed in (1, 2, 3):
        suite = hs.build_quadratic(n, 3, 30.0, seed=seed)
        for factor in (0.5, 0.99, 1.5):
            alpha = factor * 2.0 / suite.lip
            got_ok, got_lam = eng.step_condition_lambda(
                np.full(n, alpha), pi, pi, n, suite.mu, suite.lip
            )
            want_ok = alpha < 2.0 / suite.lip
            want_lam = max(abs(1.0 - suite.mu * alpha),
                           abs(1.0 - suite.lip * alpha))
            ok = ok and (got_ok == want_ok)
            worst = max(worst, abs(got_lam - want_lam))
    ok = ok and worst < 1e-12
    report(capsys, 10, ok,
           f"admissibility matches alpha < 2/l on 3 suites x 3 steps, "
           f"max factor deviation {worst:.2e}")
    assert ok
