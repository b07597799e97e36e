import numpy as np
import pytest

from dhb import graph as gr
from dhb import weights as wt


def complete_graph(n):
    return gr.Digraph(n, [(i, j) for i in range(n) for j in range(n) if i != j])


def two_cycle():
    return gr.Digraph(2, [(0, 1), (1, 0)])


def directed_ring(n):
    return gr.Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def undirected_ring(n):
    edges = []
    for i in range(n):
        edges += [(i, (i + 1) % n), ((i + 1) % n, i)]
    return gr.Digraph(n, edges)


def test_uniform_row_stochastic_complete_graph():
    a = wt.uniform_row_stochastic(complete_graph(3))
    assert np.allclose(a.entries, 1.0 / 3.0)


def test_uniform_row_stochastic_two_cycle():
    a = wt.uniform_row_stochastic(two_cycle())
    assert np.allclose(a.entries, 0.5)


def test_uniform_row_stochastic_directed_ring():
    # in-neighborhood of i is {i-1, i}: two entries of 1/2 per row
    a = wt.uniform_row_stochastic(directed_ring(5))
    expected = np.zeros((5, 5))
    for i in range(5):
        expected[i, i] = 0.5
        expected[i, (i - 1) % 5] = 0.5
    assert np.array_equal(a.entries, expected)
    assert np.max(np.abs(a.entries.sum(axis=1) - 1.0)) <= 1e-12


def test_uniform_column_stochastic_complete_graph():
    b = wt.uniform_column_stochastic(complete_graph(3))
    assert np.allclose(b.entries, 1.0 / 3.0)


def test_uniform_column_stochastic_two_cycle():
    b = wt.uniform_column_stochastic(two_cycle())
    assert np.allclose(b.entries, 0.5)


def test_uniform_column_stochastic_directed_ring():
    b = wt.uniform_column_stochastic(directed_ring(5))
    expected = np.zeros((5, 5))
    for j in range(5):
        expected[j, j] = 0.5
        expected[(j + 1) % 5, j] = 0.5
    assert np.array_equal(b.entries, expected)
    assert np.max(np.abs(b.entries.sum(axis=0) - 1.0)) <= 1e-12


def test_laplacian_complete_two_nodes():
    # L = [[1,-1],[-1,1]], max degree 1, W = I - L/2
    w = wt.laplacian_doubly_stochastic(complete_graph(2))
    assert np.allclose(w.entries, [[0.5, 0.5], [0.5, 0.5]])


def test_laplacian_edgeless_graph_is_identity():
    g = gr.Digraph(3, [])
    w = wt.laplacian_doubly_stochastic(g)
    assert np.array_equal(w.entries, np.eye(3))


def test_laplacian_ring_four_nodes():
    w = wt.laplacian_doubly_stochastic(undirected_ring(4))
    assert np.allclose(w.entries, w.entries.T)
    assert np.max(np.abs(w.entries.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(w.entries.sum(axis=0) - 1.0)) <= 1e-12
    assert np.all(np.diag(w.entries) > 0)


def test_laplacian_rejects_directed_graphs():
    with pytest.raises(wt.WeightError):
        wt.laplacian_doubly_stochastic(directed_ring(4))


def test_perron_doubly_stochastic_uniform():
    w = wt.laplacian_doubly_stochastic(undirected_ring(5))
    assert np.allclose(w.pi_r, 0.2, atol=1e-10)
    assert np.allclose(w.pi_c, 0.2, atol=1e-10)


def test_perron_uniform_rs_two_cycle():
    a = wt.uniform_row_stochastic(two_cycle())
    assert np.allclose(a.pi_r, [0.5, 0.5], atol=1e-10)


def test_perron_fixed_point_residual():
    g = gr.generate_nearest_neighbor(20, 3, 0.05, seed=2, directed=True)
    tol = 1e-12
    a = wt.uniform_row_stochastic(g)
    assert np.max(np.abs(a.pi_r @ a.entries - a.pi_r)) < 10 * tol
    b = wt.uniform_column_stochastic(g)
    assert np.max(np.abs(b.entries @ b.pi_c - b.pi_c)) < 10 * tol


def test_perron_matches_dense_eig_oracle():
    g = gr.generate_nearest_neighbor(12, 2, 0.05, seed=11, directed=True)
    a = wt.uniform_row_stochastic(g)
    vals, vecs = np.linalg.eig(a.entries.T)
    idx = np.argmin(np.abs(vals - 1.0))
    oracle = np.real(vecs[:, idx])
    oracle = oracle / oracle.sum()
    assert np.allclose(a.pi_r, oracle, atol=1e-9)


@pytest.mark.parametrize("extra", [0.0, 3e-4])
def test_perron_large_directed_ring(extra):
    # without extra links, 100 n power steps left pi_r unconverged here
    g = gr.generate_nearest_neighbor(1000, 3, extra, seed=1, directed=True)
    a = wt.uniform_row_stochastic(g)
    assert np.max(np.abs(a.pi_r @ a.entries - a.pi_r)) < 1e-12
    b = wt.uniform_column_stochastic(g)
    assert np.max(np.abs(b.entries @ b.pi_c - b.pi_c)) < 1e-12


@pytest.mark.parametrize("entries,kind", [
    (np.eye(3), wt.DOUBLY),
    (np.kron(np.eye(2), np.full((2, 2), 0.5)), wt.DOUBLY),
    (np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]), wt.ROW),
], ids=["identity", "block_diagonal", "absorbing"])
def test_reducible_matrix_raises_when_perron_is_read(entries, kind):
    w = wt.WeightMatrix(entries, kind)
    with pytest.raises(wt.WeightError):
        w.pi_r
    with pytest.raises(wt.WeightError):
        w.pi_c


def test_perron_solved_once_on_first_read(monkeypatch):
    calls = []
    solve = wt.perron_vectors

    def counted(w):
        calls.append(w.kind)
        return solve(w)

    monkeypatch.setattr(wt, "perron_vectors", counted)
    g = gr.generate_nearest_neighbor(8, 2, 0.05, seed=4, directed=True)
    a = wt.uniform_row_stochastic(g)
    assert calls == []
    assert a.pi_r is a.pi_r and a.pi_c is None
    assert calls == [wt.ROW]


def test_powers_converge_to_the_perron_limit():
    g = gr.generate_nearest_neighbor(10, 2, 0.05, seed=6, directed=True)
    a = wt.uniform_row_stochastic(g)
    assert np.max(np.abs(np.linalg.matrix_power(a.entries, 200)
                         - np.outer(np.ones(10), a.pi_r))) < 1e-6


def test_sparsity_pattern_respects_graph():
    g = gr.generate_nearest_neighbor(10, 2, 0.05, seed=8, directed=True)
    a = wt.uniform_row_stochastic(g)
    b = wt.uniform_column_stochastic(g)
    # a_ij > 0 iff j sends to i; b_ij > 0 iff j sends to i
    assert np.array_equal(a.entries > 0, g.mask)
    assert np.array_equal(b.entries > 0, g.mask)


def test_construction_rejects_bad_matrices():
    with pytest.raises(wt.WeightError):
        wt.WeightMatrix(np.array([[0.0, 1.0], [0.5, 0.5]]), wt.ROW)  # zero diag
    with pytest.raises(wt.WeightError):
        wt.WeightMatrix(np.array([[0.9, 0.5], [0.1, 0.5]]), wt.ROW)  # bad rows


@pytest.mark.parametrize("kind", [wt.ROW, wt.COLUMN, wt.DOUBLY])
@pytest.mark.parametrize("at", [(0, 0), (0, 1)], ids=["diagonal", "off"])
def test_construction_rejects_nan(kind, at):
    entries = np.full((2, 2), 0.5)
    entries[at] = np.nan
    with pytest.raises(wt.WeightError):
        wt.WeightMatrix(entries, kind)


def test_matrix_owns_its_entries():
    a = np.full((2, 2), 0.5)
    w = wt.WeightMatrix(a, wt.DOUBLY)
    pi_r = w.pi_r.copy()
    assert a.flags.writeable
    a[0, 0] = 0.9
    assert np.array_equal(w.entries, np.full((2, 2), 0.5))
    assert np.array_equal(w.pi_r, pi_r)
    assert not w.entries.flags.writeable


def test_matrix_is_not_changed_through_the_base_of_a_view():
    base = np.full((2, 3), 0.5)
    w = wt.WeightMatrix(base[:, :2], wt.DOUBLY)
    pi_r = w.pi_r.copy()
    base[:, 0] = 0.9
    assert np.array_equal(w.entries, np.full((2, 2), 0.5))
    assert np.array_equal(w.pi_r, pi_r)


@pytest.mark.parametrize("entries, kind, match", [
    (np.full((2, 3), 1.0 / 3.0), wt.ROW, "square"),
    (5.0, wt.ROW, "square"), (5.0, wt.COLUMN, "square"),
    (np.zeros((0, 0)), wt.ROW, "square"),
    (np.zeros((0, 0)), wt.COLUMN, "square"),
    (np.array([[1.0, 0.0], [0.5, 0.5]]), wt.COLUMN, "column sums"),
    (np.eye(2), "stochastic", "unknown kind"),
], ids=["not_square", "scalar_row", "scalar_column", "zero_by_zero_row",
        "zero_by_zero_column", "column_sums", "unknown_kind"])
def test_construction_rejects_malformed_matrices(entries, kind, match):
    with pytest.raises(wt.WeightError, match=match):
        wt.WeightMatrix(entries, kind)


@pytest.mark.parametrize("entries", [
    [["a"]], [[1 + 0j]], np.eye(2, dtype=complex), [[1.0], [1.0, 2.0]],
    [[True]], None,
], ids=["string", "complex", "complex_array", "ragged", "bool", "none"])
def test_construction_rejects_entries_that_are_not_real_numbers(entries):
    with pytest.raises(wt.WeightError, match="must be real, in rows of"):
        wt.WeightMatrix(entries, wt.ROW)


def test_construction_takes_integer_entries_as_floats():
    w = wt.WeightMatrix([[1]], wt.DOUBLY)
    assert w.entries.dtype == float and w.entries.tolist() == [[1.0]]


@pytest.mark.parametrize("entries, match", [
    ([[1 - 1e-300, 1e-300], [0.5, 0.5]], "left Perron vector not strictly"),
    ([[1 - 1e-16, 1e-310, 1e-16], [1e-30, 1, 0], [1e-310, 0, 1]],
     "left Perron system is singular"),
    ([[1, 1e-300, 1e-100, 0], [5e-324, 1, 0, 0], [0, 0, 1, 1e-100],
      [1e-310, 1e-200, 0, 1]], "left Perron residual"),
], ids=["not_positive", "singular", "residual"])
def test_perron_refuses_what_underflow_leaves_of_an_irreducible_matrix(
        entries, match):
    # strongly connected by their positive entries, but the tiny ones
    # vanish beside 1 in the bordered solve
    w = wt.WeightMatrix(entries, wt.ROW)
    with pytest.raises(wt.WeightError, match=match):
        w.pi_r
