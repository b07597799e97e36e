"""The fused stepper's recording and in-neighbor products against the
plain numpy formulas they replace, byte for byte, on random blocks and
graphs; and the weight hashes its run cache reads."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dhb import analysis as an
from dhb import engines as eng
from dhb import graph as gr
from dhb import harness as hs
from dhb import weights as wt

FORM_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def blocks(draw, p=st.integers(1, 11)):
    """An m x n x p block of records, its columns at scales 1e-6 to 1e6,
    and a generator for more."""
    m, n, p = draw(st.integers(1, 16)), draw(st.integers(1, 120)), draw(p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-6, 6, p)
    return scale * rng.standard_normal((m, n, p)), rng


@FORM_SETTINGS
@given(blocks())
def test_block_residual_is_the_reduce_formula_bit_for_bit(block):
    # p = 1 ... 11: the loop over p below 8, numpy's pairwise reduce above
    x, rng = block
    x_star = rng.standard_normal(x.shape[-1])
    d = x - x_star
    want = (np.add.reduce(np.sqrt(np.add.reduce(d * d, -1)), -1)
            / x.shape[-2])
    assert an.average_residual(x, x_star).tobytes() == want.tobytes()


@FORM_SETTINGS
@given(blocks(p=st.sampled_from([1, 1, 2, 3, 5, 8, 11])))
def test_block_tracking_errors_are_the_single_record_norms(block):
    y, rng = block
    grads = y + 1e-9 * rng.standard_normal(y.shape)
    errors = an.tracking_error(y, grads)
    assert len(errors) == len(y)
    for e, yi, gi in zip(errors, y, grads):
        norm = float(np.linalg.norm(yi.sum(axis=0) - gi.sum(axis=0)))
        assert math.isfinite(e)
        assert e == an.tracking_error(yi, gi) == norm


@st.composite
def sparse_matrices(draw):
    """A row- or column-stochastic W on a ring with n >= 40 d, so that its
    multiplier gathers in-neighbors."""
    n = draw(st.integers(200, 600))
    g = gr.generate_nearest_neighbor(n, draw(st.integers(1, 3)),
                                     draw(st.floats(0.0, 1e-3)),
                                     draw(st.integers(0, 2**16)),
                                     draw(st.booleans()))
    build = draw(st.sampled_from([wt.uniform_row_stochastic,
                                  wt.uniform_column_stochastic]))
    w = build(g)
    assume(w.sparse)
    return w


@FORM_SETTINGS
@given(sparse_matrices(), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_in_neighbor_product_is_the_gather_oracle_bit_for_bit(w, p, seed):
    index, weight = w._in_neighbors
    assert w.n >= wt.NEIGHBOR_MIN_RATIO * len(index)
    x = np.random.default_rng(seed).standard_normal((w.n, p))
    want = np.add.reduce(weight[:, :, None] * x[index], axis=0)
    out = np.full((w.n, p), np.nan)
    w.multiplier(p)(x, out)
    assert out.tobytes() == want.tobytes()
    np.testing.assert_allclose(out, w.entries @ x, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind, directed", [("abm", True), ("extra", False)],
                         ids=["abm", "extra"])
def test_tuning_grid_hashes_each_weight_matrix_once(monkeypatch, kind,
                                                    directed):
    n = 50
    g = gr.generate_nearest_neighbor(n, 3, 0.1, 5, directed)
    mats = hs.build_weights(g, set(eng.ENGINE_WEIGHTS[kind]))
    suite = hs.build_quadratic(n, 2, 10.0, 3)
    x0 = np.random.default_rng(4).standard_normal((n, 2))
    hashed = []  # bytes per update of every sha256 taken during the grid
    sha256 = hashlib.sha256

    class Counted:
        def __init__(self, data=b""):
            self.h = sha256()
            self.update(data)

        def update(self, data):
            hashed.append(memoryview(data).nbytes)
            self.h.update(data)

        def digest(self):
            return self.h.digest()

        def hexdigest(self):
            return self.h.hexdigest()

    monkeypatch.setattr(hashlib, "sha256", Counted)
    eng.tune_parameters(kind, suite, x0, [0.01, 0.02, 0.03], [0.0, 0.3],
                        100, 1e-8, cache={}, **mats)
    # six grid points, one hash of each n x n matrix
    assert sum(size == n * n * 8 for size in hashed) == len(mats)


@st.composite
def weight_pairs(draw, sparse, same_support=True):
    """(A, B) on one n, both dense (n < 40 d) or both gathering in-neighbors:
    a directed graph's row- and column-stochastic matrices, an undirected
    graph's W twice, or when not same_support the row-stochastic A of one
    directed graph and the column-stochastic B of another."""
    n = draw(st.integers(200, 600) if sparse else st.integers(2, 60))

    def graph(directed):
        return gr.generate_nearest_neighbor(
            n, draw(st.integers(1, min(3, n - 1))),
            draw(st.floats(0.0, 1e-3 if sparse else 0.3)),
            draw(st.integers(0, 2**16)), directed)

    if not same_support:
        pair = (wt.uniform_row_stochastic(graph(True)),
                wt.uniform_column_stochastic(graph(True)))
    elif draw(st.booleans()):
        g = graph(True)
        pair = (wt.uniform_row_stochastic(g), wt.uniform_column_stochastic(g))
    else:
        pair = (wt.laplacian_doubly_stochastic(graph(False)),) * 2
    assume(pair[0].sparse == pair[1].sparse == sparse)
    return pair


def assert_stacked_product_is_the_per_matrix_products(pair, p, seed):
    x = np.random.default_rng(seed).standard_normal((2, pair[0].n, p))
    out = np.full(x.shape, np.nan)
    assert wt.stacked_multiplier(pair, p)(x, out) is out
    for w, xj, got in zip(pair, x, out):
        want = np.full(xj.shape, np.nan)
        w.multiplier(p)(xj, want)
        assert np.array_equal(got, want)


@FORM_SETTINGS
@given(st.booleans().flatmap(lambda sparse: weight_pairs(sparse)),
       st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_stacked_product_is_the_per_matrix_products_bit_for_bit(pair, p,
                                                                seed):
    assert_stacked_product_is_the_per_matrix_products(pair, p, seed)


@FORM_SETTINGS
@given(st.booleans().flatmap(lambda sparse: weight_pairs(sparse, False)),
       st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_stacked_product_of_different_supports_is_bit_for_bit(pair, p, seed):
    # on the gather side the smaller in-degree is padded to the larger
    assert_stacked_product_is_the_per_matrix_products(pair, p, seed)


@FORM_SETTINGS
@given(st.integers(1, 11), st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_block_tracking_norms_are_the_per_record_dots(p, m, seed):
    rng = np.random.default_rng(seed)
    v = 10.0 ** rng.uniform(-10, 10, (m, 1)) * rng.standard_normal((m, p))
    # one agent and zero gradients: the agent sums are v itself
    errors = an.tracking_error(v[:, None, :], np.zeros((m, 1, p)))
    want = [math.sqrt(e @ e) for e in v]
    assert np.array(errors).tobytes() == np.array(want).tobytes()
