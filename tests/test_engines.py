import numpy as np
import pytest

from dhb import analysis as an
from dhb import engines as eng
from dhb import graph as gr
from dhb import harness as hs
from dhb import objectives as obj
from dhb import weights as wt
from dhb.analysis import fit_linear_rate, iterations_to_threshold as itt


def make_setup(n, p, seed=0, directed=True):
    g = gr.generate_nearest_neighbor(n, 2, 0.1, seed=seed, directed=directed)
    A = wt.uniform_row_stochastic(g)
    B = wt.uniform_column_stochastic(g)
    rng = np.random.default_rng(seed)
    suite = obj.quadratic_suite(
        rng.uniform(0.5, 2.0, (n, p)), rng.standard_normal((n, p))
    )
    x0 = rng.standard_normal((n, p))
    return g, A, B, suite, x0


def trajectory(cfg, suite, x0, steps):
    state = eng.init_state(cfg, suite, x0)
    step = eng.STEP_FUNCTIONS[cfg.kind]
    xs = [state.x.copy()]
    for _ in range(steps):
        state = step(state, cfg, suite)
        xs.append(state.x.copy())
    return xs, state


def gd_step(x, alpha, suite):
    """Plain gradient descent on the global cost: the oracle for gd, which
    runs as centralized_hb_step at beta = 0."""
    return x - alpha * suite.global_gradient(x)


def test_single_agent_momentum_equals_centralized_heavy_ball():
    rng = np.random.default_rng(2)
    suite = obj.quadratic_suite(
        rng.uniform(0.5, 2.0, (1, 3)), rng.standard_normal((1, 3))
    )
    g = gr.Digraph(1, [])
    A = wt.uniform_row_stochastic(g)
    B = wt.uniform_column_stochastic(g)
    x0 = rng.standard_normal((1, 3))
    alpha, beta = 0.1, 0.3
    cfg = eng.make_config("abm", 1, alpha, beta, A=A, B=B)
    xs, _ = trajectory(cfg, suite, x0, 100)
    x, x_prev = x0[0].copy(), np.zeros(3)
    for k in range(100):
        x, x_prev = eng.centralized_hb_step(x, x_prev, alpha, beta, suite)
        assert np.max(np.abs(xs[k + 1][0] - x)) <= 1e-15


def test_zero_momentum_equals_plain_tracking():
    _, A, B, suite, x0 = make_setup(6, 2, seed=3)
    cfg_m = eng.make_config("abm", 6, 0.02, 0.0, A=A, B=B)
    cfg_0 = eng.make_config("ab", 6, 0.02, 0.0, A=A, B=B)
    xs_m, _ = trajectory(cfg_m, suite, x0, 100)
    xs_0, _ = trajectory(cfg_0, suite, x0, 100)
    for a, b in zip(xs_m, xs_0):
        assert np.max(np.abs(a - b)) <= 1e-15


def test_doubly_stochastic_tracking_degeneracy():
    g = gr.generate_nearest_neighbor(6, 2, 0.1, seed=4, directed=False)
    W = wt.laplacian_doubly_stochastic(g)
    # the same doubly-stochastic entries re-tagged for the two-matrix engine
    A = wt.WeightMatrix(W.entries, wt.ROW)
    B = wt.WeightMatrix(W.entries, wt.COLUMN)
    rng = np.random.default_rng(4)
    suite = obj.quadratic_suite(
        rng.uniform(0.5, 2.0, (6, 2)), rng.standard_normal((6, 2))
    )
    x0 = rng.standard_normal((6, 2))
    xs_ab, _ = trajectory(eng.make_config("ab", 6, 0.05, A=A, B=B),
                          suite, x0, 100)
    xs_ds, _ = trajectory(eng.make_config("ds_tracking", 6, 0.05, W=W),
                          suite, x0, 100)
    for a, b in zip(xs_ab, xs_ds):
        assert np.max(np.abs(a - b)) <= 1e-15


def test_gradient_tracking_invariant():
    _, A, B, suite, x0 = make_setup(8, 3, seed=5)
    for kind in ("abm", "ab"):
        cfg = eng.make_config(kind, 8, 0.02, 0.1 if kind == "abm" else 0.0,
                              A=A, B=B)
        trace = eng.run(cfg, suite, x0, 300)
        assert all(r.tracking_error < 1e-10 for r in trace.records)


def test_extra_form_rewrite_matches_tracking():
    _, A, B, suite, x0 = make_setup(5, 2, seed=6)
    cfg_ab = eng.make_config("ab", 5, 0.03, A=A, B=B)
    cfg_ex = eng.make_config("ab_extra", 5, 0.03, A=A, B=B)
    xs_ab, _ = trajectory(cfg_ab, suite, x0, 50)
    xs_ex, _ = trajectory(cfg_ex, suite, x0, 50)
    assert np.max(np.abs(xs_ab[0] - xs_ex[0])) == 0.0  # consistent bootstrap
    for a, b in zip(xs_ab, xs_ex):
        assert np.max(np.abs(a - b)) < 1e-9


def test_extra_form_zero_step_is_pure_linear_recursion():
    _, A, B, suite, x0 = make_setup(5, 2, seed=6)
    # alpha = 0 is rejected by config validation; drive the step directly
    cfg = eng.EngineConfig("ab_extra", np.zeros(5), np.zeros(5), A=A, B=B)
    state = eng.init_state(cfg, suite, x0)
    state = eng.ab_extra_form_step(state, cfg, suite)
    assert np.allclose(state.x, A.entries @ x0)
    state = eng.ab_extra_form_step(state, cfg, suite)
    expected = (A.entries + B.entries) @ state.x_prev \
        - B.entries @ (A.entries @ x0)
    assert np.allclose(state.x, expected)


def test_transformed_exact_matches_scaled_tracking():
    _, A, B, suite, x0 = make_setup(5, 2, seed=7)
    scale = 5 * A.pi_r
    cfg_ab = eng.make_config("ab", 5, 0.03, A=A, B=B)
    cfg_tr = eng.make_config("transformed_exact", 5, 0.03, A=A, B=B)
    state_ab = eng.init_state(cfg_ab, suite, x0)
    state_tr = eng.init_state(cfg_tr, suite, x0)
    for _ in range(50):
        state_ab = eng.ab_step(state_ab, cfg_ab, suite)
        state_tr = eng.transformed_ab_exact_step(state_tr, cfg_tr, suite)
        assert np.max(np.abs(scale[:, None] * state_ab.x - state_tr.z)) < 1e-9
        assert np.max(np.abs(state_ab.x - state_tr.x)) < 1e-9


def test_perron_similarity_is_column_stochastic():
    _, A, _, _, _ = make_setup(7, 2, seed=8)
    scale = 7 * A.pi_r
    b_tilde = scale[:, None] * A.entries / scale[None, :]
    assert np.max(np.abs(b_tilde.sum(axis=0) - 1.0)) < 1e-10
    assert np.max(np.abs(b_tilde @ A.pi_r - A.pi_r)) < 1e-10


def test_transformed_exact_identity_scaling_for_doubly_stochastic():
    g = gr.generate_nearest_neighbor(6, 2, 0.1, seed=9, directed=False)
    W = wt.laplacian_doubly_stochastic(g)
    A = wt.WeightMatrix(W.entries, wt.ROW)
    B = wt.WeightMatrix(W.entries, wt.COLUMN)
    rng = np.random.default_rng(9)
    suite = obj.quadratic_suite(
        rng.uniform(0.5, 2.0, (6, 2)), rng.standard_normal((6, 2))
    )
    x0 = rng.standard_normal((6, 2))
    xs_ab, _ = trajectory(eng.make_config("ab", 6, 0.05, A=A, B=B),
                          suite, x0, 50)
    xs_tr, _ = trajectory(
        eng.make_config("transformed_exact", 6, 0.05, A=A, B=B), suite, x0, 50
    )
    for a, b in zip(xs_ab, xs_tr):
        assert np.max(np.abs(a - b)) < 1e-9


def test_extra_zero_step_reaches_consensus():
    g = gr.generate_nearest_neighbor(6, 2, 0.1, seed=10, directed=False)
    W = wt.laplacian_doubly_stochastic(g)
    rng = np.random.default_rng(10)
    suite = obj.quadratic_suite(
        rng.uniform(0.5, 2.0, (6, 2)), rng.standard_normal((6, 2))
    )
    x0 = rng.standard_normal((6, 2))
    cfg = eng.EngineConfig("extra", np.zeros(6), np.zeros(6), W=W)
    state = eng.init_state(cfg, suite, x0)
    for _ in range(500):
        state = eng.extra_step(state, cfg, suite)
    mean = x0.mean(axis=0)
    assert np.max(np.abs(state.x - mean)) < 1e-8


def test_extra_single_agent_reduction():
    rng = np.random.default_rng(11)
    suite = obj.quadratic_suite(
        rng.uniform(0.5, 2.0, (1, 2)), rng.standard_normal((1, 2))
    )
    g = gr.Digraph(1, [])
    W = wt.laplacian_doubly_stochastic(g)
    x0 = rng.standard_normal((1, 2))
    alpha = 0.1
    cfg = eng.make_config("extra", 1, alpha, W=W)
    state = eng.init_state(cfg, suite, x0)
    state = eng.extra_step(state, cfg, suite)  # priming: x1 = x0 - a g0
    g0 = suite.stacked_gradient(x0)
    assert np.allclose(state.x, x0 - alpha * g0)
    x1, g1 = state.x.copy(), state.grads.copy()
    state = eng.extra_step(state, cfg, suite)
    assert np.allclose(state.x, 2 * x1 - x0 - alpha * (g1 - g0))


def test_extra_rejects_asymmetric_weights():
    g = gr.generate_nearest_neighbor(5, 2, 0.2, seed=12, directed=True)
    A = wt.uniform_row_stochastic(g)
    with pytest.raises(eng.EngineError):
        eng.make_config("extra", 5, 0.1, W=A)


def test_extra_rejects_slightly_asymmetric_doubly_stochastic_weights():
    # a 6-node undirected ring plus a 1e-6 circulation stays doubly
    # stochastic but is asymmetric by 2e-6
    ring = gr.Digraph(6, [(i, (i + 1) % 6) for i in range(6)]
                      + [((i + 1) % 6, i) for i in range(6)])
    W = wt.laplacian_doubly_stochastic(ring)
    right = np.roll(np.eye(6), 1, axis=1)
    skewed = wt.WeightMatrix(W.entries + 1e-6 * (right - right.T), wt.DOUBLY)
    assert np.isclose(np.max(np.abs(skewed.entries - skewed.entries.T)), 2e-6)
    eng.make_config("extra", 6, 0.1, W=W)
    with pytest.raises(eng.EngineError):
        eng.make_config("extra", 6, 0.1, W=skewed)


def test_addopt_doubly_stochastic_degeneracy():
    g = gr.generate_nearest_neighbor(6, 2, 0.1, seed=13, directed=False)
    W = wt.laplacian_doubly_stochastic(g)
    B = wt.WeightMatrix(W.entries, wt.COLUMN)
    rng = np.random.default_rng(13)
    suite = obj.quadratic_suite(
        rng.uniform(0.5, 2.0, (6, 2)), rng.standard_normal((6, 2))
    )
    x0 = rng.standard_normal((6, 2))
    xs_ao, state = trajectory(eng.make_config("addopt", 6, 0.05, B=B),
                              suite, x0, 100)
    assert np.max(np.abs(state.w - 1.0)) <= 1e-12  # estimate stays at one
    xs_ds, _ = trajectory(eng.make_config("ds_tracking", 6, 0.05, W=W),
                          suite, x0, 100)
    for a, b in zip(xs_ao, xs_ds):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_addopt_single_agent_is_gradient_descent():
    rng = np.random.default_rng(14)
    suite = obj.quadratic_suite(
        rng.uniform(0.5, 2.0, (1, 2)), rng.standard_normal((1, 2))
    )
    g = gr.Digraph(1, [])
    B = wt.uniform_column_stochastic(g)
    x0 = rng.standard_normal((1, 2))
    cfg = eng.make_config("addopt", 1, 0.1, B=B)
    xs, _ = trajectory(cfg, suite, x0, 30)
    x = x0[0].copy()
    for k in range(30):
        x = gd_step(x, 0.1, suite)
        assert np.allclose(xs[k + 1][0], x, atol=1e-14)


def test_addopt_converges_on_directed_graph():
    _, A, B, suite, x0 = make_setup(5, 2, seed=15)
    cfg = eng.make_config("addopt", 5, 0.02, B=B)
    trace = eng.run(cfg, suite, x0, 20000, 1e-7)
    assert trace.records[-1].residual < 1e-6


def test_frost_single_agent_is_gradient_descent():
    rng = np.random.default_rng(16)
    suite = obj.quadratic_suite(
        rng.uniform(0.5, 2.0, (1, 2)), rng.standard_normal((1, 2))
    )
    g = gr.Digraph(1, [])
    A = wt.uniform_row_stochastic(g)
    x0 = rng.standard_normal((1, 2))
    cfg = eng.make_config("frost", 1, 0.1, A=A)
    xs, _ = trajectory(cfg, suite, x0, 30)
    x = x0[0].copy()
    for k in range(30):
        x = gd_step(x, 0.1, suite)
        assert np.allclose(xs[k + 1][0], x, atol=1e-14)


def test_frost_converges_on_directed_graph():
    _, A, B, suite, x0 = make_setup(5, 2, seed=17)
    cfg = eng.make_config("frost", 5, 0.005, A=A)
    trace = eng.run(cfg, suite, x0, 30000, 1e-7)
    assert trace.records[-1].residual < 1e-6


def test_centralized_gd_one_step_on_unit_quadratic():
    # f(x) = x^2 / 2: gradient x, step 1 lands on the minimizer
    suite = obj.quadratic_suite([[0.5]], [[0.0]])
    x = gd_step(np.array([3.7]), 1.0, suite)
    assert np.allclose(x, 0.0)


def test_gd_contraction_factor():
    rng = np.random.default_rng(18)
    for _ in range(10):
        q = rng.uniform(0.3, 2.0, (1, 4))
        suite = obj.quadratic_suite(q, rng.standard_normal((1, 4)))
        alpha = rng.uniform(0.01, 1.9 / suite.lip)
        sigma = max(abs(1 - suite.mu * alpha), abs(1 - suite.lip * alpha))
        x = rng.standard_normal(4)
        x_star = suite.minimizer()
        x_new = gd_step(x, alpha, suite)
        assert (np.linalg.norm(x_new - x_star)
                <= sigma * np.linalg.norm(x - x_star) + 1e-12)


def test_heavy_ball_zero_momentum_is_gd():
    rng = np.random.default_rng(19)
    suite = obj.quadratic_suite(
        rng.uniform(0.5, 2.0, (1, 3)), rng.standard_normal((1, 3))
    )
    x = rng.standard_normal(3)
    x_hb, _ = eng.centralized_hb_step(x, np.zeros(3), 0.1, 0.0, suite)
    assert np.array_equal(x_hb, gd_step(x, 0.1, suite))


def test_run_zero_iterations_records_initial_state():
    _, A, B, suite, x0 = make_setup(5, 2, seed=20)
    cfg = eng.make_config("ab", 5, 0.02, A=A, B=B)
    trace = eng.run(cfg, suite, x0, 0)
    assert len(trace.records) == 1
    assert trace.records[0].k == 0


def test_run_stops_below_threshold():
    _, A, B, suite, x0 = make_setup(5, 2, seed=21)
    cfg = eng.make_config("ab", 5, 0.02, A=A, B=B)
    trace = eng.run(cfg, suite, x0, 50000, stop_residual=1e-6)
    assert trace.meta["termination"] == "threshold"
    assert trace.records[-1].residual < 1e-6


def test_run_flags_divergence():
    _, A, B, suite, x0 = make_setup(5, 2, seed=22)
    cfg = eng.make_config("ab", 5, 50.0, A=A, B=B)  # absurd step
    trace = eng.run(cfg, suite, x0, 5000)
    assert trace.diverged


def test_run_rejects_bad_shapes():
    _, A, B, suite, _ = make_setup(5, 2, seed=23)
    cfg = eng.make_config("ab", 5, 0.02, A=A, B=B)
    with pytest.raises(eng.EngineError):
        eng.run(cfg, suite, np.zeros((4, 2)), 10)


def test_linear_convergence_rate_fit():
    _, A, B, suite, x0 = make_setup(10, 3, seed=24)
    cfg = eng.make_config("ab", 10, 0.02, A=A, B=B)
    trace = eng.run(cfg, suite, x0, 5000, 1e-10)
    rate, r2 = fit_linear_rate(trace)
    assert 0.0 < rate < 1.0
    assert r2 > 0.99


def test_step_condition_uniform_doubly_stochastic():
    # uniform Perron vectors: s = alpha / n, so admissibility is alpha < 2/l
    n, mu, lip = 6, 1.0, 4.0
    pi = np.full(n, 1.0 / n)
    ok, lam = eng.step_condition_lambda(np.full(n, 0.3), pi, pi, n, mu, lip)
    assert ok == (0.3 < 2.0 / lip)
    assert np.isclose(lam, max(abs(1 - mu * 0.3), abs(1 - lip * 0.3)))
    ok, _ = eng.step_condition_lambda(np.full(n, 0.6), pi, pi, n, mu, lip)
    assert not ok


def test_step_condition_critical_alpha():
    _, A, B, suite, _ = make_setup(6, 2, seed=25)
    pi_r, pi_c = A.pi_r, B.pi_c
    alpha = 1.0 / (6 * suite.lip * float(pi_r @ pi_c))
    ok, lam = eng.step_condition_lambda(
        np.full(6, alpha), pi_r, pi_c, 6, suite.mu, suite.lip
    )
    assert ok
    assert lam < 1.0


def test_step_condition_zero_steps_not_ok():
    pi = np.full(4, 0.25)
    ok, _ = eng.step_condition_lambda(np.zeros(4), pi, pi, 4, 1.0, 2.0)
    assert not ok


def test_make_config_validation():
    _, A, B, suite, _ = make_setup(5, 2, seed=26)
    with pytest.raises(eng.EngineError):
        eng.make_config("abm", 5, 0.0, A=A, B=B)  # all-zero steps
    with pytest.raises(eng.EngineError):
        eng.make_config("abm", 5, -0.1, A=A, B=B)
    with pytest.raises(eng.EngineError):
        eng.make_config("abm", 5, 0.1, A=B, B=B)  # wrong kind for A
    with pytest.raises(eng.EngineError):
        eng.make_config("nonsense", 5, 0.1)
    with pytest.raises(eng.EngineError):
        eng.make_config("ab_extra", 5, [0.1, 0.2, 0.1, 0.1, 0.1], A=A, B=B)


@pytest.mark.parametrize("alpha, beta", [
    ([1e-3] * 3, 0.0), (1e-3, [0.1] * 6), ([1e-3], 0.0),
    ([[1e-3] * 5], 0.0), ("fast", 0.0), ([1e-3, [1e-3]], 0.0),
], ids=["alpha-3", "beta-6", "alpha-1", "alpha-2d", "alpha-str",
        "alpha-ragged"])
def test_make_config_rejects_values_not_one_per_agent(alpha, beta):
    _, A, B, _, _ = make_setup(5, 2, seed=26)
    with pytest.raises(eng.EngineError, match="one number per agent"):
        eng.make_config("abm", 5, alpha, beta, A=A, B=B)


@pytest.mark.parametrize("kind", ["abm", "frost", "addopt", "ds_tracking"])
def test_make_config_rejects_weights_of_another_size(kind):
    _, A, B, _, _ = make_setup(5, 2, seed=26)
    W = wt.laplacian_doubly_stochastic(gr.generate_nearest_neighbor(
        5, 2, 0.1, seed=26, directed=False))
    matrices = {"A": A, "B": B, "W": W}
    slots = {s: matrices[s] for s in eng.ENGINE_WEIGHTS[kind]}
    with pytest.raises(eng.EngineError, match="to be 4 x 4, not 5 x 5"):
        eng.make_config(kind, 4, 0.01, **slots)


def test_init_state_rejects_a_suite_of_another_size():
    _, A, B, _, _ = make_setup(5, 2, seed=26)
    _, _, _, suite, x0 = make_setup(6, 2, seed=26)
    cfg = eng.make_config("abm", 5, 0.01, 0.1, A=A, B=B)
    with pytest.raises(eng.EngineError, match="5 agents"):
        eng.init_state(cfg, suite, x0)


@pytest.mark.parametrize("kind", ["gd", "frost", "ab_extra"])
def test_per_step_runs_past_an_overflow_end_diverged(kind):
    # no errstate here: the run loop owns it, and the suite's settings make
    # a RuntimeWarning fail the test
    _, A, B, suite, x0 = make_setup(5, 2, seed=29)
    slots = {s: {"A": A, "B": B}[s] for s in eng.ENGINE_WEIGHTS[kind]}
    cfg = eng.make_config(kind, 5, 1e300, **slots)
    trace = eng.run(cfg, suite, x0, 100)
    assert trace.diverged
    assert trace.iterations().tolist() == [0, 1]
    assert trace.residuals()[-1] == np.inf


def test_zero_step_size_at_one_agent_still_converges():
    _, A, B, suite, x0 = make_setup(6, 2, seed=27)
    alphas = np.full(6, 0.02)
    alphas[2] = 0.0
    cfg = eng.make_config("ab", 6, alphas, A=A, B=B)
    trace = eng.run(cfg, suite, x0, 30000, 1e-8)
    assert trace.meta["termination"] == "threshold"


def test_tune_parameters_selects_grid_minimum():
    _, A, B, suite, x0 = make_setup(6, 2, seed=28)
    alpha_grid = [0.001, 0.01, 0.05, 5.0]
    beta_grid = [0.0, 0.2]
    alpha, beta, iters = eng.tune_parameters(
        "abm", suite, x0, alpha_grid, beta_grid, 20000, 1e-8, A=A, B=B
    )
    assert alpha in alpha_grid and beta in beta_grid
    for a in alpha_grid:
        for b in beta_grid:
            cfg = eng.make_config("abm", 6, a, b, A=A, B=B)
            trace = eng.run(cfg, suite, x0, 20000, 1e-8)
            if trace.diverged:
                continue
            other = itt(trace, 1e-8)
            if other is not None:
                assert other >= iters


def test_polyak_parameters():
    alpha, beta = eng.polyak_parameters(1.0, 9.0)
    assert np.isclose(alpha, 4.0 / 16.0)
    assert np.isclose(beta, 0.25)


@pytest.mark.parametrize("kind", sorted(eng.ENGINES))
def test_engine_registry_entry(kind):
    spec = eng.ENGINES[kind]
    g = gr.generate_nearest_neighbor(6, 2, 0.1, seed=29, directed=False)
    mats = hs.build_weights(g, spec.weights)
    assert set(mats) == set(spec.weights) == set(eng.ENGINE_WEIGHTS[kind])
    assert eng.STEP_FUNCTIONS[kind] is spec.step
    rng = np.random.default_rng(29)
    suite = obj.quadratic_suite(
        rng.uniform(0.5, 2.0, (6, 2)), rng.standard_normal((6, 2))
    )
    x0 = rng.standard_normal((6, 2))
    cfg = eng.make_config(kind, 6, 0.02, beta=0.3, **mats)
    assert np.all(cfg.betas == (0.3 if spec.momentum else 0.0))
    trace = eng.run(cfg, suite, x0, 5)
    assert [r.k for r in trace.records] == list(range(6))
    for r in trace.records:
        assert (r.tracking_error is not None) == (spec.step is eng.abm_step)
    config = {
        "graph": {"n": 6, "ring_degree": 2, "extra_link_fraction": 0.1,
                  "directed": True, "seed": 29},
        "engines": [{"kind": kind, "alpha": 0.02}],
        "run": {"max_iter": 5, "stop_residual": 0.0, "seed": 0,
                "out_dir": "unused"},
    }
    if "W" in spec.weights:
        with pytest.raises(hs.ConfigError):
            hs.validate_config(config)
    else:
        hs.validate_config(config)


def test_tuning_scores_a_point_make_config_rejects_as_never_converging():
    _, A, B, suite, x0 = make_setup(5, 2, seed=34)
    with pytest.raises(eng.EngineError):
        eng.make_config("ab", 5, 0.0, A=A, B=B)
    alpha, beta, iters = eng.tune_parameters(
        "ab", suite, x0, [0.0, 0.02], [0.0], 20000, 1e-6, A=A, B=B)
    assert (alpha, beta) == (0.02, 0.0) and iters is not None


def test_centralized_kinds_start_from_the_first_row_of_x0():
    _, _, _, suite, x0 = make_setup(6, 2, seed=33)
    # x0's first row above other rows
    other = np.vstack([x0[:1], np.random.default_rng(33).normal(size=(5, 2))])
    for kind in ("gd", "heavy_ball"):
        cfg = eng.make_config(kind, 6, 0.1, 0.3)
        runs = [eng.run(cfg, suite, start, 50) for start in (x0, other)]
        full, first = ([(r.k, r.residual, r.tracking_error)
                        for r in trace.records] for trace in runs)
        assert full == first and len(full) == 51
        for bad in (x0[:2], x0[:, :1], x0[0]):
            with pytest.raises(eng.EngineError, match=r"\(6, 2\), got"):
                eng.run(cfg, suite, bad, 5)


@pytest.mark.parametrize("kind", ["gd", "heavy_ball"])
def test_init_state_takes_one_n_by_p_x0_for_every_kind(kind):
    _, _, _, suite, x0 = make_setup(6, 2, seed=33)
    with pytest.raises(eng.EngineError, match=r"\(6, 2\), got \(1, 2\)"):
        eng.init_state(eng.make_config(kind, 6, 0.1), suite, x0[:1])
    with pytest.raises(eng.EngineError, match="1 agents, the suite 6"):
        eng.init_state(eng.make_config(kind, 1, 0.1), suite, x0)


def test_run_overflowing_iterate_ends_on_one_inf_record():
    _, A, B, suite, x0 = make_setup(5, 2, seed=29)
    cfg = eng.make_config("abm", 5, 1e308, 0.1, A=A, B=B)
    trace = eng.run(cfg, suite, x0, 100)  # alpha * y overflows on step 1
    assert trace.diverged
    residuals = trace.residuals()
    assert len(residuals) == 2 and np.isfinite(residuals[0])
    assert residuals[-1] == np.inf
    assert trace.records[0].tracking_error is not None
    assert trace.records[-1].tracking_error is None


def test_measures_equal_norm_expressions_bit_for_bit():
    rng = np.random.default_rng(30)
    shapes = [(1, 1), (1, 4)] + [
        (int(rng.integers(1, 60)), int(rng.integers(1, 8))) for _ in range(200)
    ]
    cases = []
    for n, p in shapes:
        scale = 10.0 ** rng.uniform(-8, 8)
        cases.append((scale * rng.standard_normal((n, p)),
                      rng.standard_normal(p), rng.standard_normal((n, p))))
    x, x_star, _ = cases[-1]
    for bad in (np.inf, -np.inf, np.nan):
        x_bad = x.copy()
        x_bad[0, 0] = bad
        cases.append((x_bad, x_star, x_bad))

    def same(a, b):
        return np.float64(a).tobytes() == np.float64(b).tobytes()

    for x, x_star, y in cases:
        with np.errstate(invalid="ignore"):  # inf - inf in the tracker sum
            old = float(np.mean(np.linalg.norm(x - x_star, axis=1)))
            assert same(an.average_residual(x, x_star), old)
            old = float(np.linalg.norm(y.sum(axis=0) - x.sum(axis=0)))
            assert same(an.tracking_error(y, x), old)


def counting_loop(monkeypatch):
    """Count the runs that engines.run actually computes."""
    calls = []
    loop = eng._run

    def counted(*args):
        calls.append(args[0].kind)
        return loop(*args)

    monkeypatch.setattr(eng, "_run", counted)
    return calls


def test_run_cache_hit_has_its_own_meta(monkeypatch):
    _, A, B, suite, x0 = make_setup(6, 2, seed=31)
    calls = counting_loop(monkeypatch)
    cache = {}
    cfg_abm = eng.make_config("abm", 6, 0.02, 0.0, A=A, B=B)
    first = eng.run(cfg_abm, suite, x0, 3000, 1e-8, cache=cache)
    cfg_ab = eng.make_config("ab", 6, 0.02, A=A, B=B)
    hit = eng.run(cfg_ab, suite, x0, 3000, 1e-8, cache=cache)
    assert calls == ["abm"] and len(cache) == 1
    assert hit.meta == {"engine": "ab", "config": cfg_ab.digest(),
                        "termination": "threshold", "cached": True}
    assert list(hit.records) == list(first.records)
    first.meta["seed"] = 1
    hit.meta["seed"] = 2
    (cached,) = cache.values()
    assert "seed" not in cached.meta
    again = eng.run(cfg_ab, suite, x0, 3000, 1e-8, cache=cache)
    assert "seed" not in again.meta and calls == ["abm"]
    # gd is heavy_ball at beta = 0
    gd = eng.make_config("gd", 6, 0.1)
    hb = eng.make_config("heavy_ball", 6, 0.1, 0.0)
    eng.run(hb, suite, x0, 200, cache=cache)
    assert eng.run(gd, suite, x0, 200, cache=cache).meta["cached"]
    assert calls == ["abm", "heavy_ball"]


def test_run_cache_misses_on_any_other_input(monkeypatch):
    _, A, B, suite, x0 = make_setup(6, 2, seed=32)
    calls = counting_loop(monkeypatch)
    cache = {}
    cfg = eng.make_config("abm", 6, 0.02, 0.0, A=A, B=B)
    eng.run(cfg, suite, x0, 300, 1e-8, cache=cache)
    variants = [
        (cfg, x0 + 1e-12, 300, 1e-8),
        (cfg, x0, 301, 1e-8),
        (cfg, x0, 300, 1e-7),
        (eng.make_config("abm", 6, 0.021, 0.0, A=A, B=B), x0, 300, 1e-8),
        (eng.make_config("abm", 6, 0.02, 0.1, A=A, B=B), x0, 300, 1e-8),
        (eng.make_config("ab_extra", 6, 0.02, A=A, B=B), x0, 300, 1e-8),
    ]
    for args in variants:
        trace = eng.run(args[0], suite, *args[1:], cache=cache)
        assert "cached" not in trace.meta
    assert len(calls) == len(cache) == 1 + len(variants)


def test_run_cache_keeps_kinds_that_share_a_step_apart(monkeypatch):
    # extra and ab_extra share two_history_step; given every slot, each
    # config keeps only its own, so their digests differ
    g, A, B, suite, x0 = make_setup(6, 2, seed=33, directed=False)
    W = wt.laplacian_doubly_stochastic(g)
    calls = counting_loop(monkeypatch)
    cache = {}
    traces = [eng.run(eng.make_config(kind, 6, 0.02, A=A, B=B, W=W), suite,
                      x0, 300, 1e-8, cache=cache)
              for kind in ("extra", "ab_extra")]
    assert calls == ["extra", "ab_extra"] and len(cache) == 2
    assert traces[0].residuals().tobytes() != traces[1].residuals().tobytes()


def test_two_history_maps_are_the_stated_matrices():
    g, A, B, _, _ = make_setup(7, 2, seed=8)
    W = wt.laplacian_doubly_stochastic(
        gr.generate_nearest_neighbor(7, 2, 0.1, seed=8, directed=False))
    eye = np.eye(7)
    a, b, w = A.entries, B.entries, W.entries
    for cfg, matrices in [
        (eng.make_config("ab_extra", 7, 0.01, A=A, B=B), (a, a + b, b @ a)),
        (eng.make_config("extra", 7, 0.01, W=W),
         (w, eye + w, (eye + w) / 2)),
    ]:
        for apply, matrix in zip(cfg.two_history_maps, matrices):
            assert apply(eye).tobytes() == matrix.tobytes()
    # criterion 4's similarity, built once per config
    scale = 7 * A.pi_r
    b_tilde = scale[:, None] * A.entries / scale[None, :]
    cfg = eng.make_config("transformed_exact", 7, 0.01, A=A, B=B)
    assert cfg.perron_similarity[0].tobytes() == scale.tobytes()
    assert cfg.perron_similarity[1].tobytes() == b_tilde.tobytes()


@pytest.mark.parametrize("seed", [40, 41, 42, 43])
def test_ds_tracking_matches_plain_diging_recursion(seed):
    # the DIGing recursion written out, independent of abm_step:
    # x' = W x - alpha y, y' = W y + g(x') - g(x), y_0 = g(x_0)
    n, p, alpha, steps = 5 + seed % 4, 1 + seed % 3, 0.05, 300
    g = gr.generate_nearest_neighbor(n, 2, 0.2, seed=seed, directed=False)
    W = wt.laplacian_doubly_stochastic(g)
    rng = np.random.default_rng(seed)
    suite = obj.quadratic_suite(
        rng.uniform(0.5, 2.0, (n, p)), rng.standard_normal((n, p))
    )
    x = rng.standard_normal((n, p))
    trace = eng.run(eng.make_config("ds_tracking", n, alpha, W=W), suite, x,
                    steps)
    x_star = suite.minimizer()
    grads = suite.stacked_gradient(x)
    y = grads.copy()
    residuals = [an.average_residual(x, x_star)]
    for _ in range(steps):
        x = W.entries @ x - alpha * y
        grads_new = suite.stacked_gradient(x)
        y = W.entries @ y + grads_new - grads
        grads = grads_new
        residuals.append(an.average_residual(x, x_star))
    assert trace.meta["termination"] == "max_iter"
    assert trace.residuals().tobytes() == np.array(residuals).tobytes()
    assert trace.records[-1].tracking_error == an.tracking_error(y, grads)


@pytest.mark.parametrize("kind", ["addopt", "frost"])
def test_degenerate_eigenvector_estimate_never_converges(monkeypatch, kind):
    _, A, B, suite, x0 = make_setup(5, 2, seed=31)
    slots = {s: {"A": A, "B": B}[s] for s in eng.ENGINE_WEIGHTS[kind]}
    cfg = eng.make_config(kind, 5, 0.01, **slots)

    def tune():
        return eng.tune_parameters(kind, suite, x0, [0.01, 0.02], [0.0],
                                   5000, 1e-6, **slots)

    assert tune()[0] is not None
    monkeypatch.setattr(eng, "EIGEN_ESTIMATE_FLOOR", np.inf)
    with pytest.raises(eng.EngineError, match="degenerated"):
        eng.STEP_FUNCTIONS[kind](eng.init_state(cfg, suite, x0), cfg, suite)
    assert tune() == (None, None, None)


@pytest.mark.parametrize("kind", sorted(eng.ENGINES))
def test_only_the_centralized_kinds_have_default_parameters(kind):
    defaults = eng.ENGINES[kind].defaults
    if kind not in ("gd", "heavy_ball"):
        assert defaults is None
        return
    _, _, _, suite, _ = make_setup(5, 2, seed=32)
    expected = {"gd": (2.0 / (suite.mu + suite.lip), 0.0),
                "heavy_ball": eng.polyak_parameters(suite.mu, suite.lip)}
    assert defaults(suite) == expected[kind]
