"""Row-, column-, and doubly-stochastic weight matrices for a given graph."""

import hashlib
from functools import cached_property

import numpy as np

from .errors import DhbError
from . import graph as gr

ROW = "row"
COLUMN = "column"
DOUBLY = "doubly"

# bound on the row/column-sum errors and on the Perron residual |Wv - v|
STOCHASTIC_TOL = 1e-12

# multiplier() gathers in-neighbors when n >= NEIGHBOR_MIN_RATIO * d, for
# d the largest in-degree (self-loop included). Per n x 2 product (medians
# of 10 x 2,000, 3 runs, 2 cores, numpy 2.4.6): dense 8.0-10.3 us and
# gathered 7.6-10.8 us at n = 200, d = 6; dense 59-69 us and gathered
# 13-16 us at n = 500, d = 7; dense 1.6-2.8 us and gathered 6.9-8.7 us at
# n = 50, d = 17. The gather costs 3 numpy calls plus n d p flops, the
# dense product n^2 p, so they cross near n = 40 d.
NEIGHBOR_MIN_RATIO = 40


class WeightError(DhbError):
    pass


class WeightMatrix:
    """Nonnegative n x n matrix tagged with its stochasticity kind.

    pi_r (row/doubly kinds: pi_r^T W = pi_r^T, pi_r^T 1 = 1) and pi_c
    (column/doubly kinds: W pi_c = pi_c, 1^T pi_c = 1) are None for the
    other kind. Both are solved exactly on first read (perron_vectors) and
    cached; a reducible matrix constructs, but reading them raises.

    multiplier(p) applies W to n x p blocks. A dense W (n < 40 d, see
    NEIGHBOR_MIN_RATIO) is one matmul; a sparse one gathers each agent's
    at most d in-neighbors instead, O(n d p) rather than O(n^2 p), from a
    layout built on first use and cached like the Perron vectors.
    """

    def __init__(self, entries, kind, *, _fresh=False):
        # a frozen copy, so no write to the caller's array or a view's base
        # reaches the entries; the builders hand over arrays no one else
        # holds (copying them too raised the set-up time of a directed
        # n = 500 ring by 29 %: a second 2 MB buffer to page in per matrix)
        entries = (np.asarray if _fresh else np.array)(entries, dtype=float)
        n = entries.shape[0] if entries.ndim else 0
        if n == 0 or entries.shape != (n, n):
            raise WeightError("entries must be square with at least one row, "
                              f"not of shape {entries.shape}")
        # each check is written so that a NaN fails it
        if not np.all(entries >= 0):
            raise WeightError("entries must be nonnegative")
        if not np.all(np.diag(entries) > 0):
            raise WeightError("diagonal must be strictly positive")
        if kind in (ROW, DOUBLY):
            resid = np.max(np.abs(entries.sum(axis=1) - 1.0))
            if not resid <= STOCHASTIC_TOL:
                raise WeightError(f"row sums off by {resid:.2e}")
        if kind in (COLUMN, DOUBLY):
            resid = np.max(np.abs(entries.sum(axis=0) - 1.0))
            if not resid <= STOCHASTIC_TOL:
                raise WeightError(f"column sums off by {resid:.2e}")
        if kind not in (ROW, COLUMN, DOUBLY):
            raise WeightError(f"unknown kind {kind!r}")
        self.n = n
        self.entries = entries
        self.entries.setflags(write=False)
        self.kind = kind

    @cached_property
    def _perron(self):
        return perron_vectors(self)

    pi_r = property(lambda self: self._perron[0])
    pi_c = property(lambda self: self._perron[1])

    @cached_property
    def digest(self):
        """sha256 of the frozen entries, which the run cache keys runs on."""
        return hashlib.sha256(np.ascontiguousarray(self.entries).data).digest()

    @cached_property
    def _in_neighbors(self):
        """(d, n) index and weight arrays: index[s, i] is agent i's s-th
        in-neighbor j, in increasing order, and weight[s, i] is W[i, j]; an
        agent with fewer than d in-neighbors is padded with its own index
        at weight 0."""
        rows, cols = np.nonzero(self.entries > 0)
        counts = np.bincount(rows, minlength=self.n)
        slots = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
        index = np.tile(np.arange(self.n), (counts.max(), 1))
        weight = np.zeros(index.shape)
        index[slots, rows] = cols
        weight[slots, rows] = self.entries[rows, cols]
        return index, weight

    @property
    def sparse(self):
        """Whether multiplier() gathers in-neighbors rather than matmuls."""
        return self.n >= NEIGHBOR_MIN_RATIO * len(self._in_neighbors[0])

    def multiplier(self, p):
        """(x, out) -> out = W @ x for n x p blocks x and out."""
        if not self.sparse:
            entries = self.entries
            return lambda x, out: np.matmul(entries, x, out=out)
        index, weight = self._in_neighbors
        # buf[s, i] holds row index[s, i] of x, then its product with
        # W[i, index[s, i]]: the d products of each agent
        weight = np.repeat(weight[:, :, None], p, axis=2)
        buf = np.empty(weight.shape)

        def apply(x, out):
            np.take(x, index, axis=0, out=buf, mode="clip")
            np.multiply(buf, weight, out=buf)
            return np.add.reduce(buf, axis=0, out=out)

        return apply


def _fixed_point(m, side):
    """v with m v = v and 1^T v = 1: (m - I) v = 0 with its last equation
    replaced by 1^T v = 1, nonsingular for an irreducible stochastic m."""
    n = len(m)
    bordered = np.array(m)  # a C-ordered copy, also of a transposed view
    bordered.flat[:: n + 1] -= 1.0
    bordered[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        v = np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError as exc:
        raise WeightError(f"{side} Perron system is singular") from exc
    resid = np.max(np.abs(m @ v - v))
    if not resid <= STOCHASTIC_TOL:
        raise WeightError(f"{side} Perron residual {resid:.2e}")
    if np.any(v <= 0):
        raise WeightError(f"{side} Perron vector not strictly positive")
    return v


def perron_vectors(w):
    """Perron vectors (pi_r, pi_c) of a WeightMatrix, one linear solve each.

    The one not defined for the kind is None. A reducible W (support graph
    not strongly connected) has no unique positive one: WeightError.
    """
    if not gr.is_strongly_connected(w.entries > 0):
        raise WeightError("matrix is reducible: no unique positive Perron vector")
    pi_r = _fixed_point(w.entries.T, "left") if w.kind != COLUMN else None
    pi_c = _fixed_point(w.entries, "right") if w.kind != ROW else None
    return pi_r, pi_c


def uniform_row_stochastic(g):
    """a_ij = 1 / |in-neighbors of i| for each in-neighbor j of i."""
    return WeightMatrix(g.mask / g.mask.sum(axis=1, keepdims=True), ROW,
                        _fresh=True)


def uniform_column_stochastic(g):
    """b_ij = 1 / |out-neighbors of j| for each out-neighbor i of j."""
    return WeightMatrix(g.mask / g.mask.sum(axis=0), COLUMN, _fresh=True)


def laplacian_doubly_stochastic(g):
    """W = I - L / (max degree + 1) for an undirected graph.

    L is the combinatorial Laplacian over the non-self-loop edges. The
    shift by max degree + 1 keeps the diagonal strictly positive.
    """
    if not g.is_undirected():
        raise WeightError("doubly-stochastic construction requires an undirected graph")
    n = g.n
    adj = g.mask & ~np.eye(n, dtype=bool)  # drop self-loops
    deg = adj.sum(axis=1)
    lap = np.diag(deg) - adj
    w = np.eye(n) - lap / (deg.max() + 1.0)
    return WeightMatrix(w, DOUBLY, _fresh=True)


# each weight slot's stochasticity, which engines.make_config checks, and
# the name of its builder above, which harness.build_weights calls
SLOTS = {"A": (ROW, "uniform_row_stochastic"),
         "B": (COLUMN, "uniform_column_stochastic"),
         "W": (DOUBLY, "laplacian_doubly_stochastic")}
