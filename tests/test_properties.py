"""Properties that hold on every generated graph, checked on random draws."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from dhb import analysis as an
from dhb import engines as eng
from dhb import graph as gr
from dhb import objectives as obj
from dhb import weights as wt


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 40))
    ring_degree = draw(st.integers(1, n - 1))
    extra = draw(st.floats(0.0, 0.2))
    seed = draw(st.integers(0, 2**16))
    directed = draw(st.booleans())
    return gr.generate_nearest_neighbor(n, ring_degree, extra, seed, directed)


def suite_and_start(n, seed):
    rng = np.random.default_rng(seed)
    suite = obj.quadratic_suite(
        rng.uniform(0.5, 2.0, (n, 2)), rng.standard_normal((n, 2))
    )
    return suite, rng.standard_normal((n, 2))


PROPERTY_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


@PROPERTY_SETTINGS
@given(graphs())
def test_generated_graph_is_strongly_connected(g):
    assert gr.is_strongly_connected(g.mask)


@PROPERTY_SETTINGS
@given(st.data())
def test_generated_graph_contains_the_ring_cycle(data):
    # the cycle 0 -> 1 -> ... -> n-1 -> 0 is what makes every draw strongly
    # connected; the undirected ring links ceil(ring_degree/2) on each side
    n = data.draw(st.integers(2, 40))
    ring_degree = data.draw(st.integers(1, n - 1))
    extra = data.draw(st.just(0.0) | st.floats(0.0, 0.2))
    directed = data.draw(st.booleans())
    g = gr.generate_nearest_neighbor(n, ring_degree, extra,
                                     data.draw(st.integers(0, 2**16)),
                                     directed)
    assert gr.is_strongly_connected(g.mask)
    edges = set(g.edges())
    assert all((i, (i + 1) % n) in edges for i in range(n))
    if not directed and extra == 0.0:
        degree = min(2 * -(-ring_degree // 2), n - 1)
        assert np.all(g.mask.sum(axis=0) - 1 == degree)


@PROPERTY_SETTINGS
@given(graphs())
def test_weights_are_stochastic_with_exact_perron_vectors(g):
    a = wt.uniform_row_stochastic(g)
    b = wt.uniform_column_stochastic(g)
    assert np.max(np.abs(a.entries.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(b.entries.sum(axis=0) - 1.0)) <= 1e-12
    assert np.max(np.abs(a.pi_r @ a.entries - a.pi_r)) < 1e-12
    assert np.max(np.abs(b.entries @ b.pi_c - b.pi_c)) < 1e-12
    assert np.all(a.pi_r > 0) and np.all(b.pi_c > 0)


@PROPERTY_SETTINGS
@given(graphs(), st.integers(0, 2**16))
def test_tracking_sum_invariant(g, seed):
    suite, x0 = suite_and_start(g.n, seed)
    A = wt.uniform_row_stochastic(g)
    B = wt.uniform_column_stochastic(g)
    cfg = eng.make_config("abm", g.n, 0.01, 0.3, A=A, B=B)
    state = eng.init_state(cfg, suite, x0)
    for _ in range(50):
        state = eng.abm_step(state, cfg, suite)
        grad_sum = state.grads.sum(axis=0)
        drift = an.tracking_error(state.y, state.grads)
        assert drift / (1.0 + np.linalg.norm(grad_sum)) < 1e-10


@PROPERTY_SETTINGS
@given(graphs(), st.integers(0, 2**16))
def test_ab_extra_form_equals_ab(g, seed):
    suite, x0 = suite_and_start(g.n, seed)
    A = wt.uniform_row_stochastic(g)
    B = wt.uniform_column_stochastic(g)
    cfg_ab = eng.make_config("ab", g.n, 0.01, A=A, B=B)
    cfg_ex = eng.make_config("ab_extra", g.n, 0.01, A=A, B=B)
    s_ab = eng.init_state(cfg_ab, suite, x0)
    s_ex = eng.init_state(cfg_ex, suite, x0)
    for _ in range(50):
        s_ab = eng.ab_step(s_ab, cfg_ab, suite)
        s_ex = eng.ab_extra_form_step(s_ex, cfg_ex, suite)
        assert np.max(np.abs(s_ab.x - s_ex.x)) <= 1e-9


@st.composite
def graphs_either_side(draw):
    """Graphs of up to 40 agents (dense products) and sparse rings of
    300-600 agents (in-neighbor products at the default ratio)."""
    if draw(st.booleans()):
        return draw(graphs())
    n = draw(st.integers(300, 600))
    return gr.generate_nearest_neighbor(
        n, draw(st.integers(1, 3)), draw(st.floats(0.0, 1e-3)),
        draw(st.integers(0, 2**16)), draw(st.booleans()))


@PROPERTY_SETTINGS
@given(graphs_either_side(), st.integers(1, 3), st.integers(0, 2**16))
def test_multiplier_matches_dense_product(g, p, seed):
    mats = [wt.uniform_row_stochastic(g), wt.uniform_column_stochastic(g)]
    if g.is_undirected():
        mats.append(wt.laplacian_doubly_stochastic(g))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((g.n, p)) * 10.0 ** rng.uniform(-3, 3)
    d = np.max(np.sum(g.mask, axis=1))
    for w in mats:
        assert w.sparse == (g.n >= wt.NEIGHBOR_MIN_RATIO * d)
        # two roundings of at most d terms each, weighted by the row sums
        tol = (d * np.finfo(float).eps * np.max(np.abs(x))
               * np.max(w.entries.sum(axis=1)))
        # the side the rule picks, then each side forced on the same matrix
        for ratio in (wt.NEIGHBOR_MIN_RATIO, 0, np.inf):
            with mock.patch.object(wt, "NEIGHBOR_MIN_RATIO", ratio):
                out = np.full((g.n, p), np.nan)
                assert w.multiplier(p)(x, out) is out
                assert np.max(np.abs(out - w.entries @ x)) <= tol
