import numpy as np
import pytest

from dhb import graph as gr


def brute_force_strongly_connected(g):
    """Independent oracle: boolean transitive closure via matrix powers."""
    reach = g.mask.T  # reach[i, j]: edge i -> j
    for _ in range(g.n):
        reach = reach | (reach @ reach)
    return bool(reach.all())


def test_two_cycle_is_strongly_connected():
    g = gr.Digraph(2, [(0, 1), (1, 0)])
    assert gr.is_strongly_connected(g.mask)


def test_disjoint_self_loops_not_strongly_connected():
    g = gr.Digraph(2, [])
    assert not gr.is_strongly_connected(g.mask)


def test_directed_path_not_strongly_connected():
    g = gr.Digraph(3, [(0, 1), (1, 2)])
    assert not gr.is_strongly_connected(g.mask)
    assert not brute_force_strongly_connected(g)


def test_is_strongly_connected_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        edges = set()
        for _ in range(int(rng.integers(0, 2 * n))):
            u, v = rng.integers(0, n, 2)
            if u != v:
                edges.add((int(u), int(v)))
        g = gr.Digraph(n, edges)
        assert (gr.is_strongly_connected(g.mask)
                == brute_force_strongly_connected(g))


def test_ring_n4_degree2_undirected():
    g = gr.generate_nearest_neighbor(4, 2, 0.0, seed=0, directed=False)
    assert gr.is_strongly_connected(g.mask)
    assert g.is_undirected()
    # full ring: each node linked to both ring neighbors
    for i in range(4):
        assert {(i - 1) % 4, i, (i + 1) % 4} == set(np.flatnonzero(g.mask[i]))


def test_two_node_directed_ring_is_two_cycle():
    g = gr.generate_nearest_neighbor(2, 1, 0.0, seed=3, directed=True)
    assert g.edges() == [(0, 1), (1, 0)]
    assert g.mask.tolist() == [[True, True], [True, True]]


def test_large_directed_graph_is_sparse():
    n = 500
    g = gr.generate_nearest_neighbor(n, 4, 0.0005, seed=1, directed=True)
    assert gr.is_strongly_connected(g.mask)
    assert len(g.edges()) < 0.04 * n * (n - 1)


def test_self_loops_always_present():
    for seed in range(5):
        g = gr.generate_nearest_neighbor(12, 3, 0.02, seed=seed, directed=True)
        assert gr.is_strongly_connected(g.mask)
        assert g.mask.diagonal().all()


def test_generation_deterministic_in_seed():
    a = gr.generate_nearest_neighbor(30, 4, 0.01, seed=42, directed=True)
    b = gr.generate_nearest_neighbor(30, 4, 0.01, seed=42, directed=True)
    assert a.edges() == b.edges()
    c = gr.generate_nearest_neighbor(30, 4, 0.01, seed=43, directed=True)
    assert a.edges() != c.edges()


def test_neighbor_maps_mutually_consistent():
    # row i of the mask holds i's in-neighbors and column j holds j's
    # out-neighbors: mask[i, j] iff j sends to i
    g = gr.Digraph(3, [(0, 1), (1, 2)])
    assert g.mask.tolist() == [[True, False, False],
                               [True, True, False],
                               [False, True, True]]
    assert not g.mask.flags.writeable


def test_parameter_validation():
    with pytest.raises(gr.GraphError):
        gr.generate_nearest_neighbor(1, 1, 0.0, 0, True)
    with pytest.raises(gr.GraphError):
        gr.generate_nearest_neighbor(5, 5, 0.0, 0, True)
    with pytest.raises(gr.GraphError):
        gr.generate_nearest_neighbor(5, 2, 1.5, 0, True)


def test_generator_node_count_must_be_an_integer():
    with pytest.raises(gr.GraphError, match="n must be an integer"):
        gr.generate_nearest_neighbor(10.0, 2, 0.1, 0, True)
    assert gr.generate_nearest_neighbor(np.int64(10), 2, 0.1, 0, True).n == 10


def test_ring_degree_must_be_an_integer():
    with pytest.raises(gr.GraphError, match="ring_degree must be an integer"):
        gr.generate_nearest_neighbor(10, 2.0, 0.1, 0, True)
    gr.generate_nearest_neighbor(10, np.int32(2), 0.1, 0, True)


@pytest.mark.parametrize("fraction", ["0.1", None, True, float("nan"), -0.1])
def test_extra_link_fraction_must_be_a_number_in_the_unit_interval(fraction):
    with pytest.raises(gr.GraphError, match="extra_link_fraction must be a "
                                            "number in"):
        gr.generate_nearest_neighbor(10, 2, fraction, 0, True)
    assert gr.generate_nearest_neighbor(10, 2, np.float32(0.1), 0, True).n == 10


@pytest.mark.parametrize("directed", ["no", 1, 0, None])
def test_directed_must_be_a_bool(directed):
    with pytest.raises(gr.GraphError, match="directed must be a bool"):
        gr.generate_nearest_neighbor(10, 2, 0.1, 0, directed)
    assert gr.generate_nearest_neighbor(10, 2, 0.1, 0,
                                        np.False_).is_undirected()


def test_digraph_node_count_must_be_an_integer():
    with pytest.raises(gr.GraphError, match="at least one node"):
        gr.Digraph(2.5, [])
    assert gr.Digraph(np.int64(2), [(0, 1)]).edges() == [(0, 1)]


def test_seed_must_be_a_nonnegative_integer():
    for seed in (-1, 1.5, "1", None):
        with pytest.raises(gr.GraphError, match="seed"):
            gr.generate_nearest_neighbor(5, 2, 0.0, seed, True)
    gr.generate_nearest_neighbor(5, 2, 0.0, np.int64(3), True)


@pytest.mark.parametrize("edges, match", [
    ([(0, 1, 2)], "pairs"), ([(0,)], "pairs"), ([[0, 1], [1]], "pairs"),
    ([(0.5, 1)], "integer"), ([0, 1], "pairs"),
    ([(0, 1), (-1, 0)], r"edge \(-1, 0\) out of range for n=3"),
    ([(0, 3)], r"edge \(0, 3\) out of range for n=3"),
], ids=["triple", "single", "ragged", "float", "flat", "negative", "past_n"])
def test_malformed_edges_raise_graph_error(edges, match):
    with pytest.raises(gr.GraphError, match=match):
        gr.Digraph(3, edges)


def test_edge_list_round_trip(tmp_path):
    g = gr.generate_nearest_neighbor(10, 2, 0.05, seed=5, directed=True)
    path = tmp_path / "graph.txt"
    gr.save_edge_list(g, path)
    first = path.read_text().splitlines()[0]
    assert first == "n 10 directed 1"
    g2 = gr.Digraph(10, np.loadtxt(path, skiprows=1, dtype=int, ndmin=2) - 1)
    assert g2.n == g.n
    assert g2.edges() == g.edges()
    assert np.array_equal(g2.mask, g.mask)


def test_graph_needs_a_node():
    with pytest.raises(gr.GraphError, match="at least one node"):
        gr.Digraph(0, [])
