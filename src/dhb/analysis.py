"""The run loop and what it records, and convergence-rate measurement."""

import math
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DhbError


DIVERGENCE_RESIDUAL = 1e12
RATE_FIT_FLOOR = 1e-14  # residuals at or below it are roundoff
RATE_FIT_TAIL = 0.5  # the fraction of records a rate fit reads


class AnalysisError(DhbError):
    pass


@dataclass
class TraceRecord:
    k: int
    residual: float
    tracking_error: float | None = None
    elapsed: float = 0.0


class Trace:
    """Per-iteration convergence records plus run metadata.

    The records live in four flat columns (k, residual, tracking error,
    elapsed seconds); a missing tracking error is stored as NaN and reads
    back as None. `records` is a read-only sequence view of them.
    """

    def __init__(self, meta=None):
        self.meta = {} if meta is None else meta
        self._columns = (array("q"), array("d"), array("d"), array("d"))

    def with_meta(self, meta):
        """A trace over the same records, shared rather than copied (an
        append to either shows in both), with its own meta."""
        trace = Trace(meta)
        trace._columns = self._columns
        return trace

    @property
    def records(self):
        return _Records(self._columns)

    def append(self, k, residual, tracking_error=None, elapsed=0.0):
        te = math.nan if tracking_error is None else tracking_error
        self.extend(k, [residual], [te], elapsed)

    def extend(self, k, residuals, tracking_errors, elapsed):
        """Records k, k+1, ... at one elapsed time (NaN: no tracking error)."""
        ks, rs, tes, els = self._columns
        ks.extend(range(k, k + len(residuals)))
        rs.extend(residuals)
        tes.extend(tracking_errors)
        els.extend([elapsed] * len(residuals))

    def residuals(self):
        return np.array(self._columns[1])

    def iterations(self):
        return np.array(self._columns[0])

    @property
    def diverged(self):
        return self.meta.get("termination") == "diverged"

    def to_csv(self, path):
        """csv.writer's bytes: CRLF rows, repr floats, "" for no tracking;
        an elapsed time that records share (its bits) is formatted once."""
        ks, rs, tes, els = self._columns
        bits = np.frombuffer(els, np.int64)
        cuts = (np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist()
        with open(path, "w", newline="") as f:
            f.write("k,residual,tracking_error,elapsed_s\r\n")
            for lo, hi in zip([0, *cuts], [*cuts, len(ks)] if ks else []):
                tail = f",{els[lo]!r}\r\n"
                f.writelines(f"{k},{r!r},{'' if te != te else repr(te)}{tail}"
                             for k, r, te in zip(ks[lo:hi], rs[lo:hi],
                                                 tes[lo:hi]))


class _Records(Sequence):
    """TraceRecord view of a trace's columns."""

    def __init__(self, columns):
        self._columns = columns

    def __len__(self):
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [_record(*row) for row in
                    zip(*(col[i] for col in self._columns))]
        return _record(*(col[i] for col in self._columns))


def _record(k, residual, tracking_error, elapsed):
    te = None if tracking_error != tracking_error else tracking_error
    return TraceRecord(k, residual, te, elapsed)


def average_residual(x_stack, x_star):
    """(1/n) sum_i ||x_i - x*||_2, the plotted convergence metric."""
    d = np.atleast_2d(x_stack) - x_star
    # the sums, roots and division of mean(norm(d, axis=1)), bit for bit,
    # without their dispatch overhead; an array for m x n x p records
    if d.shape[-1] >= 8:  # numpy's reduce over p is pairwise from 8 terms
        sq = np.add.reduce(d * d, axis=-1)
    else:  # and left to right below, as this cheaper loop adds
        sq = d[..., 0] * d[..., 0]
        for c in range(1, d.shape[-1]):
            sq += d[..., c] * d[..., c]
    res = np.add.reduce(np.sqrt(sq), axis=-1) / d.shape[-2]
    return res if res.ndim else float(res)


def tracking_error(y, grads):
    """Norm of sum_i y_i - sum_i grad f_i(x_i) for an n x p tracker y and
    the n x p local gradients at x; zero in exact arithmetic for the
    gradient-tracking engines. ... x n x p blocks of records give the array
    of their norms, each (1 x p)(p x 1) product taken by the dot of v @ v."""
    v = _agent_sum(y) - _agent_sum(grads)
    if v.ndim == 1:
        return math.sqrt(v @ v)  # np.linalg.norm(v), bit for bit
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None]))[..., 0, 0]


def _agent_sum(a):
    """a.sum(axis=-2), bit for bit. On ... x n x p blocks with p >= 2 it
    adds the agents in order, as this does on an agent-major copy (each
    agent's p floats moved as one item), in loops of m p floats, not p."""
    if a.ndim == 2 or a.shape[-1] == 1:  # at p = 1 a fast pairwise sum
        return a.sum(axis=-2)
    *lead, n, p = a.shape
    rows = np.ascontiguousarray(a).view(np.dtype((np.void, 8 * p)))[..., 0]
    by_agent = np.ascontiguousarray(rows.reshape(-1, n).T).view(float)
    return np.add.reduce(by_agent, axis=0).reshape(*lead, p)


def iterate(state, step, measure, max_iter, stop_residual, meta):
    """iterate_blocks one record at a time: state = step(state) before each
    record but the first, measure(state) -> (residual, tracking error)."""
    def advance(k, m, live):
        nonlocal state
        if k > 0:
            state = step(state)
        res, te = measure(state)
        return [[res]], [[math.nan if te is None else te]]

    return iterate_blocks(advance, max_iter, stop_residual, [meta])[0]


def iterate_blocks(advance, max_iter, stop_residual, metas):
    """The run loop of points stepped together, one trace per meta, under
    errstate, since the steps past a divergence overflow: advance(k, m,
    live) steps the points still running (`live`, indices into metas) and
    returns for each the lists (residuals, tracking errors, NaN for none)
    of records k .. k + j - 1, the same j <= m for all, record k the state
    after step k; a non-finite residual is recorded as inf without tracking
    error. A point stops at max_iter, below stop_residual, or after a step
    whose residual is above 1e12 or not finite ("diverged", flagged so that
    parameter searches go on past unstable points), dropping its records
    past the stop. Elapsed times are taken at the end of each block."""
    traces = [Trace(meta=dict(meta, termination="max_iter")) for meta in metas]
    live, k, t0 = list(range(len(traces))), 0, time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        while live and k <= max_iter:
            block = advance(k, max_iter + 1 - k, live)
            elapsed, running = time.perf_counter() - t0, []
            m = len(block[0][0])
            for j, residuals, errors in zip(live, *block):
                for i, res in enumerate(residuals):
                    if not math.isfinite(res):
                        res = residuals[i] = math.inf
                        errors[i] = math.nan
                    if k + i > 0 and res > DIVERGENCE_RESIDUAL:
                        traces[j].meta["termination"] = "diverged"
                    elif res < stop_residual:
                        traces[j].meta["termination"] = "threshold"
                    else:
                        continue
                    del residuals[i + 1:], errors[i + 1:]
                    break
                else:
                    running.append(j)
                traces[j].extend(k, residuals, errors, elapsed)
            live, k = running, k + m
    return traces


def grid_argmin(alpha_grid, beta_grid, score):
    """Exhaustive search of score(alpha, beta) over the product grid.

    Returns (alpha*, beta*, score*, rows), rows listing (alpha, beta,
    score) for every point in grid order; ties go to the first point, and
    alpha* and beta* are None when no score is below inf.
    """
    best = (None, None, float("inf"))
    rows = []
    for alpha in alpha_grid:
        for beta in beta_grid:
            value = score(alpha, beta)
            rows.append((float(alpha), float(beta), value))
            if value < best[2]:
                best = (float(alpha), float(beta), value)
    return best[0], best[1], best[2], rows


def fit_linear_rate(trace):
    """Geometric rate from a least-squares line through (k, ln residual).

    Fits the trailing RATE_FIT_TAIL of records, dropping residuals at or
    below RATE_FIT_FLOOR and non-finite ones (a diverged run's
    last record). Returns (rate, r_squared) with rate = exp(slope).
    """
    ks, rs = trace.iterations(), trace.residuals()
    start = int(len(ks) * (1.0 - RATE_FIT_TAIL))
    ks, rs = ks[start:], rs[start:]
    keep = np.isfinite(rs) & (rs > RATE_FIT_FLOOR)
    ks, rs = ks[keep], rs[keep]
    if len(ks) < 10:
        raise AnalysisError("need at least 10 usable tail records for a rate fit")
    logs = np.log(rs)
    slope, intercept = np.polyfit(ks, logs, 1)
    fitted = slope * ks + intercept
    ss_res = np.sum((logs - fitted) ** 2)
    ss_tot = np.sum((logs - logs.mean()) ** 2)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(np.exp(slope)), float(r2)


def iterations_to_threshold(trace, threshold):
    """First iteration with residual strictly below threshold, else None."""
    below = np.flatnonzero(trace.residuals() < threshold)
    return trace.records[below[0]].k if len(below) else None


def gd_rate_oracle(q):
    """(gradient-descent rate, heavy-ball local rate) for condition number q."""
    if q < 1:
        raise AnalysisError("condition number must be >= 1")
    gd = (q - 1.0) / (q + 1.0)
    hb = (np.sqrt(q) - 1.0) / (np.sqrt(q) + 1.0)
    return gd, hb
