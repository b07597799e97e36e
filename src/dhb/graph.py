"""Strongly connected directed/undirected graphs with self-loops at every node."""

from numbers import Integral

import numpy as np

from .errors import DhbError


class GraphError(DhbError):
    pass


class Digraph:
    """Directed communication graph on nodes 0..n-1.

    An edge (u, v) means u sends to v, i.e. u is an in-neighbor of v.
    Every node has a self-loop; self-loops are implied and need not be
    listed in `edges`. The graph is its read-only n x n boolean `mask`:
    mask[i, j] is true iff j sends to i, and the diagonal is true.
    """

    def __init__(self, n, edges):
        if not (isinstance(n, Integral) and n >= 1):
            raise GraphError(f"need at least one node: n must be an integer "
                             f">= 1, not {n!r}")
        try:
            pairs = np.array(list(edges) or np.empty((0, 2), dtype=int))
        except ValueError:  # ragged pairs
            pairs = None
        if (pairs is None or pairs.ndim != 2 or pairs.shape[1] != 2
                or not np.issubdtype(pairs.dtype, np.integer)):
            raise GraphError("edges must be (u, v) pairs of integer node indices")
        outside = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
        if len(outside):
            u, v = pairs[outside[0]]
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        mask = np.eye(n, dtype=bool)
        mask[pairs[:, 1], pairs[:, 0]] = True
        mask.setflags(write=False)
        self.n = n
        self.mask = mask

    def edges(self):
        """Directed edge set excluding self-loops, as sorted (u, v) pairs."""
        u, v = np.nonzero(self.mask.T & ~np.eye(self.n, dtype=bool))
        return list(zip(u.tolist(), v.tolist()))

    def is_undirected(self):
        return np.array_equal(self.mask, self.mask.T)


def _reaches_all(m):
    """True iff node 0 reaches every node along the edges u -> v, m[u, v]."""
    seen = np.zeros(len(m), dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = m[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def is_strongly_connected(mask):
    """True iff every node reaches every other node, where the boolean
    matrix mask[i, j] is true iff j sends to i (as in Digraph.mask)."""
    return _reaches_all(mask.T) and _reaches_all(mask)


def generate_nearest_neighbor(n, ring_degree, extra_link_fraction, seed, directed):
    """Ring-of-nearest-neighbors topology plus uniformly random extra links.

    Undirected graphs connect node i both ways to the ceil(ring_degree/2)
    ring neighbors on each side, min(2 * ceil(ring_degree/2), n - 1)
    neighbors in all. Directed graphs keep the forward links i -> i+1 and
    give the ring links at distances 2..ring_degree a random orientation.
    Both rings contain the cycle 0 -> 1 -> ... -> n-1 -> 0, so the graph
    is strongly connected whatever the draws. On top of the ring,
    floor(extra_link_fraction * n * (n-1)) random links are added (both
    ways when undirected).
    """
    if not (isinstance(n, Integral) and n >= 2):
        raise GraphError(f"n must be an integer >= 2, not {n!r}")
    if not (isinstance(ring_degree, Integral) and 1 <= ring_degree < n):
        raise GraphError("ring_degree must be an integer with 1 <= ring_degree"
                         f" < n, not {ring_degree!r}")
    if not (0.0 <= extra_link_fraction <= 1.0):
        raise GraphError("extra_link_fraction must be in [0, 1]")
    if not (isinstance(seed, Integral) and seed >= 0):
        raise GraphError(f"seed must be an integer >= 0, not {seed!r}")

    rng = np.random.default_rng(seed)
    edges = set()
    if directed:
        for i in range(n):
            edges.add((i, (i + 1) % n))
        for d in range(2, ring_degree + 1):
            # one draw per node, in node order: the stream of n scalar draws
            for i, forward in enumerate((rng.random(n) < 0.5).tolist()):
                j = (i + d) % n
                edges.add((i, j) if forward else (j, i))
    else:
        half = ring_degree // 2 + (ring_degree % 2)
        for i in range(n):
            for d in range(1, half + 1):
                j = (i + d) % n
                edges.add((i, j))
                edges.add((j, i))

    n_ring = len(edges)
    n_extra = int(extra_link_fraction * n * (n - 1))
    while len(edges) < n_ring + n_extra and len(edges) < n * (n - 1):
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v or (u, v) in edges:
            continue
        edges.add((u, v))
        if not directed:
            edges.add((v, u))
    return Digraph(n, edges)


def save_edge_list(g, path):
    """Write `n <count> directed <0|1>` header plus one 1-based `i j` line
    per directed edge i -> j; self-loops are omitted."""
    edges = g.edges()
    directed = 0 if g.is_undirected() else 1
    with open(path, "w") as f:
        f.write(f"n {g.n} directed {directed}\n")
        for u, v in edges:
            f.write(f"{u + 1} {v + 1}\n")
