"""Convergence-rate measurement and trace bookkeeping."""

import csv
from dataclasses import dataclass, field

import numpy as np


class AnalysisError(Exception):
    pass


@dataclass
class TraceRecord:
    k: int
    residual: float
    tracking_error: float | None = None
    elapsed: float = 0.0


@dataclass
class Trace:
    """Per-iteration convergence records plus run metadata."""

    records: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def append(self, k, residual, tracking_error=None, elapsed=0.0):
        self.records.append(TraceRecord(k, residual, tracking_error, elapsed))

    def residuals(self):
        return np.array([r.residual for r in self.records])

    def iterations(self):
        return np.array([r.k for r in self.records])

    @property
    def diverged(self):
        return self.meta.get("termination") == "diverged"

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["k", "residual", "tracking_error", "elapsed_s"])
            for r in self.records:
                te = "" if r.tracking_error is None else repr(float(r.tracking_error))
                writer.writerow([r.k, repr(float(r.residual)), te, repr(float(r.elapsed))])

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


def fit_linear_rate(trace, tail_fraction=0.5, floor=1e-14):
    """Geometric rate from a least-squares line through (k, ln residual).

    Fits the trailing tail_fraction of records, dropping residuals at or
    below the floating-point floor and non-finite ones (a diverged run's
    last record). Returns (rate, r_squared) with rate = exp(slope).
    """
    ks = trace.iterations()
    rs = trace.residuals()
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
    for r in trace.records:
        if r.residual < threshold:
            return r.k
    return None


def gd_rate_oracle(q):
    """(gradient-descent rate, heavy-ball local rate) for condition number q."""
    if q < 1:
        raise AnalysisError("condition number must be >= 1")
    gd = (q - 1.0) / (q + 1.0)
    hb = (np.sqrt(q) - 1.0) / (np.sqrt(q) + 1.0)
    return gd, hb
