"""Strongly connected directed/undirected graphs with self-loops at every node."""

from collections import deque

import numpy as np

from .errors import DhbError


class GraphError(DhbError):
    pass


class Digraph:
    """Directed communication graph on nodes 0..n-1.

    An edge (u, v) means u sends to v, i.e. u is an in-neighbor of v.
    Every node has a self-loop; self-loops are implied and need not be
    listed in `edges`. Instances are immutable after construction.
    """

    def __init__(self, n, edges):
        if n < 1:
            raise GraphError("need at least one node")
        in_nbrs = [set([i]) for i in range(n)]
        out_nbrs = [set([i]) for i in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            in_nbrs[v].add(u)
            out_nbrs[u].add(v)
        self.n = n
        self.in_neighbors = tuple(frozenset(s) for s in in_nbrs)
        self.out_neighbors = tuple(frozenset(s) for s in out_nbrs)

    def edges(self):
        """Directed edge set excluding self-loops, as sorted (u, v) pairs."""
        out = []
        for v in range(self.n):
            for u in self.in_neighbors[v]:
                if u != v:
                    out.append((u, v))
        return sorted(out)

    def is_undirected(self):
        return all(
            self.in_neighbors[i] == self.out_neighbors[i] for i in range(self.n)
        )

    def adjacency(self):
        """Dense 0/1 matrix M with M[i, j] = 1 iff j is an in-neighbor of i."""
        m = np.zeros((self.n, self.n))
        for i in range(self.n):
            for j in self.in_neighbors[i]:
                m[i, j] = 1.0
        return m


def _reachable(n, nbrs, start):
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in nbrs[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def is_strongly_connected(g):
    """True iff every node reaches every other node along directed edges."""
    forward = _reachable(g.n, g.out_neighbors, 0)
    if len(forward) != g.n:
        return False
    backward = _reachable(g.n, g.in_neighbors, 0)
    return len(backward) == g.n


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
    if n < 2:
        raise GraphError("need n >= 2")
    if not (1 <= ring_degree < n):
        raise GraphError("need 1 <= ring_degree < n")
    if not (0.0 <= extra_link_fraction <= 1.0):
        raise GraphError("extra_link_fraction must be in [0, 1]")

    rng = np.random.default_rng(seed)
    edges = set()
    if directed:
        for i in range(n):
            edges.add((i, (i + 1) % n))
        for d in range(2, ring_degree + 1):
            for i in range(n):
                j = (i + d) % n
                if rng.random() < 0.5:
                    edges.add((i, j))
                else:
                    edges.add((j, i))
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
