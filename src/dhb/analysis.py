"""Convergence-rate measurement and trace bookkeeping."""

import csv
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


DIVERGENCE_RESIDUAL = 1e12


class AnalysisError(Exception):
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
        ks, rs, tes, els = self._columns
        ks.append(k)
        rs.append(residual)
        tes.append(float("nan") if tracking_error is None else tracking_error)
        els.append(elapsed)

    def residuals(self):
        return np.array(self._columns[1])

    def iterations(self):
        return np.array(self._columns[0])

    @property
    def diverged(self):
        return self.meta.get("termination") == "diverged"

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["k", "residual", "tracking_error", "elapsed_s"])
            writer.writerows(
                (k, repr(r), "" if te != te else repr(te), repr(el))
                for k, r, te, el in zip(*self._columns)
            )

    @classmethod
    def from_csv(cls, path, meta=None):
        trace = cls(meta=meta or {})
        with open(path, newline="") as f:
            reader = csv.reader(f)
            next(reader)  # header
            for row in reader:
                te = None if row[2] == "" else float(row[2])
                trace.append(int(row[0]), float(row[1]), te, float(row[3]))
        return trace


class _Records(Sequence):
    """TraceRecord view of a trace's columns."""

    def __init__(self, columns):
        self._columns = columns

    def __len__(self):
        return len(self._columns[0])

    def __getitem__(self, i):
        return _record(*(col[i] for col in self._columns))

    def __iter__(self):
        return (_record(*row) for row in zip(*self._columns))


def _record(k, residual, tracking_error, elapsed):
    te = None if tracking_error != tracking_error else tracking_error
    return TraceRecord(k, residual, te, elapsed)


def iterate(state, step, measure, max_iter, stop_residual, meta):
    """Run state = step(state) up to max_iter times, recording measure(state).

    measure returns (residual, tracking error or None); a non-finite
    residual is recorded as inf without tracking error. Stops below
    stop_residual, or after a step whose residual is above 1e12 or not
    finite (termination "diverged", flagged rather than raised so that
    parameter searches can continue past unstable points).
    """
    trace = Trace(meta=dict(meta, termination="max_iter"))
    t0 = time.perf_counter()
    for k in range(max_iter + 1):
        if k > 0:
            state = step(state)
        res, te = measure(state)
        if not np.isfinite(res):
            res, te = float("inf"), None
        trace.append(k, res, te, time.perf_counter() - t0)
        if k > 0 and res > DIVERGENCE_RESIDUAL:
            trace.meta["termination"] = "diverged"
            break
        if res < stop_residual:
            trace.meta["termination"] = "threshold"
            break
    return trace


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


def fit_linear_rate(trace, tail_fraction=0.5, floor=1e-14):
    """Geometric rate from a least-squares line through (k, ln residual).

    Fits the trailing tail_fraction of records, dropping residuals at or
    below the floating-point floor and non-finite ones (a diverged run's
    last record). Returns (rate, r_squared) with rate = exp(slope).
    """
    ks, rs = trace.iterations(), trace.residuals()
    start = int(len(ks) * (1.0 - tail_fraction))
    ks, rs = ks[start:], rs[start:]
    keep = np.isfinite(rs) & (rs > floor)
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
