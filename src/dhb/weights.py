"""Row-, column-, and doubly-stochastic weight matrices for a given graph."""

from functools import cached_property

import numpy as np

from .errors import DhbError
from . import graph as gr

ROW = "row"
COLUMN = "column"
DOUBLY = "doubly"

# bound on the row/column-sum errors and on the Perron residual |Wv - v|
STOCHASTIC_TOL = 1e-12


class WeightError(DhbError):
    pass


class WeightMatrix:
    """Nonnegative n x n matrix tagged with its stochasticity kind.

    pi_r (row/doubly kinds: pi_r^T W = pi_r^T, pi_r^T 1 = 1) and pi_c
    (column/doubly kinds: W pi_c = pi_c, 1^T pi_c = 1) are None for the
    other kind. Both are solved exactly on first read (perron_vectors) and
    cached; a reducible matrix constructs, but reading them raises.
    """

    def __init__(self, entries, kind, *, _fresh=False):
        # a frozen copy, so no write to the caller's array or a view's base
        # reaches the entries; the builders hand over arrays no one else
        # holds (copying them too raised the set-up time of a directed
        # n = 500 ring by 29 %: a second 2 MB buffer to page in per matrix)
        entries = (np.asarray if _fresh else np.array)(entries, dtype=float)
        n = entries.shape[0]
        if entries.shape != (n, n):
            raise WeightError("entries must be square")
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
