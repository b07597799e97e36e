import numpy as np
import pytest

from dhb import analysis as an


def geometric_trace(r0, rate, steps):
    trace = an.Trace()
    for k in range(steps + 1):
        trace.append(k, r0 * rate ** k)
    return trace


def test_fit_recovers_exact_geometric_rate():
    trace = geometric_trace(2.0, 0.9, 200)
    rate, r2 = an.fit_linear_rate(trace)
    assert abs(rate - 0.9) < 1e-6
    assert np.isclose(r2, 1.0)


def test_fit_constant_residual_gives_rate_one():
    trace = an.Trace()
    for k in range(100):
        trace.append(k, 0.5)
    rate, r2 = an.fit_linear_rate(trace)
    assert np.isclose(rate, 1.0)
    assert np.isclose(r2, 1.0)


def test_fit_is_scale_invariant():
    t1 = geometric_trace(1.0, 0.85, 150)
    t2 = geometric_trace(1e4, 0.85, 150)
    r1, _ = an.fit_linear_rate(t1)
    r2, _ = an.fit_linear_rate(t2)
    assert abs(r1 - r2) < 1e-12


def test_fit_ignores_floor_records():
    # residual passes 1e-14 near k = 46, censoring part of the tail window
    trace = geometric_trace(1.0, 0.5, 60)
    rate, r2 = an.fit_linear_rate(trace)
    assert abs(rate - 0.5) < 1e-6
    assert r2 > 0.999


def test_fit_drops_diverged_record():
    # a diverged run ends on an infinite residual; the fit skips it
    trace = geometric_trace(1.0, 0.5, 28)
    trace.append(29, float("inf"))
    assert len(trace.records) == 30
    rate, r2 = an.fit_linear_rate(trace)
    assert abs(rate - 0.5) < 1e-9
    assert np.isclose(r2, 1.0)


def test_fit_needs_enough_points():
    trace = geometric_trace(1.0, 0.9, 5)
    with pytest.raises(an.AnalysisError):
        an.fit_linear_rate(trace)


def test_fit_tail_fraction_windows(monkeypatch):
    # rate 0.95 for 100 steps then 0.8: a short tail isolates the late phase
    monkeypatch.setattr(an, "RATE_FIT_TAIL", 0.25)
    trace = an.Trace()
    r = 1.0
    for k in range(201):
        trace.append(k, r)
        r *= 0.95 if k < 100 else 0.8
    rate, _ = an.fit_linear_rate(trace)
    assert abs(rate - 0.8) < 1e-3


def test_iterations_to_threshold():
    trace = geometric_trace(1.0, 0.5, 30)
    assert an.iterations_to_threshold(trace, 2.0) == 0
    # residual at k is 0.5^k: first strictly below 1e-3 at k = 10
    assert an.iterations_to_threshold(trace, 1e-3) == 10
    assert an.iterations_to_threshold(trace, 1e-300) is None
    expected = int(np.ceil(np.log(1e-3) / np.log(0.5)))
    assert an.iterations_to_threshold(trace, 1e-3) == expected


def test_gd_rate_oracle_values():
    gd, hb = an.gd_rate_oracle(1.0)
    assert gd == 0.0 and hb == 0.0
    gd, hb = an.gd_rate_oracle(9.0)
    assert np.isclose(gd, 0.8)
    assert np.isclose(hb, 0.5)
    with pytest.raises(an.AnalysisError):
        an.gd_rate_oracle(0.5)


def test_gd_rate_oracle_monotone_and_ordered():
    qs = np.linspace(1.0, 1e4, 50)
    prev_gd = prev_hb = -1.0
    for q in qs:
        gd, hb = an.gd_rate_oracle(q)
        assert gd > prev_gd and hb > prev_hb
        assert hb <= gd < 1.0
        prev_gd, prev_hb = gd, hb


def test_diverged_flag():
    trace = an.Trace(meta={"termination": "diverged"})
    assert trace.diverged
    assert not an.Trace(meta={"termination": "max_iter"}).diverged


def test_grid_argmin_breaks_ties_toward_first_point():
    scores = {(0.3, 0.0): 2.0, (0.3, 0.1): 1.0, (0.1, 0.0): 1.0, (0.1, 0.1): 3.0}
    alpha, beta, best, rows = an.grid_argmin(
        [0.3, 0.1], [0.0, 0.1], lambda a, b: scores[(a, b)]
    )
    assert (alpha, beta, best) == (0.3, 0.1, 1.0)
    assert rows == [(a, b, s) for (a, b), s in scores.items()]


def test_grid_argmin_without_finite_score():
    alpha, beta, best, rows = an.grid_argmin(
        [0.1, 0.2], [0.0], lambda a, b: float("inf")
    )
    assert alpha is None and beta is None and best == float("inf")
    assert len(rows) == 2


def test_iterate_records_non_finite_residual_as_inf():
    trace = an.iterate(
        np.array([[1.0]]), lambda s: 10.0 * s,
        lambda s: np.where(s > 50, np.nan, s), np.zeros(1), 10, 0.0,
        {"engine": "demo"},
    )
    assert trace.meta == {"engine": "demo", "termination": "diverged"}
    assert [r.residual for r in trace.records] == [1.0, 10.0, float("inf")]
    assert all(r.tracking_error is None for r in trace.records)


def test_trace_records_view():
    trace = an.Trace()
    trace.append(0, 2.0, 0.5, 0.1)
    trace.append(1, 1.0, None, 0.2)
    trace.append(2, 0.5, 0.0, 0.3)
    records = trace.records
    assert len(records) == 3
    assert records[-1].k == 2
    assert records[1].tracking_error is None
    assert records[2].tracking_error == 0.0
    assert list(records) == [
        an.TraceRecord(0, 2.0, 0.5, 0.1),
        an.TraceRecord(1, 1.0, None, 0.2),
        an.TraceRecord(2, 0.5, 0.0, 0.3),
    ]
    with pytest.raises(IndexError):
        records[3]
    assert not hasattr(records, "append")
    trace.append(3, 0.25)  # a view reads the columns as they are now
    assert len(records) == 4 and records[-1].tracking_error is None


def test_trace_records_slice_is_a_list_of_records():
    trace = an.Trace()
    trace.append(0, 2.0, 0.5, 0.1)
    trace.append(1, 1.0, None, 0.2)
    records = trace.records
    assert records[1:] == [an.TraceRecord(1, 1.0, None, 0.2)]
    assert records[::-1] == list(reversed(records))
    assert records[5:] == []


def test_columns_match_per_record_definitions():
    def first_below(trace, threshold):
        for r in trace.records:
            if r.residual < threshold:
                return r.k
        return None

    crossing = geometric_trace(1.0, 0.5, 30)
    never = geometric_trace(1.0, 0.9, 20)
    diverged = geometric_trace(1.0, 2.0, 10)
    diverged.append(11, float("inf"))
    offset = an.Trace()  # iterations need not be record indices
    for k, r in [(5, 3.0), (7, 1e-3), (9, 1e-9)]:
        offset.append(k, r)
    for trace in (crossing, never, diverged, offset, an.Trace()):
        for threshold in (2.0, 1e-3, 1e-300, float("inf"), 0.0):
            assert (an.iterations_to_threshold(trace, threshold)
                    == first_below(trace, threshold))
        assert trace.residuals().tolist() == [r.residual for r in trace.records]
        assert trace.iterations().tolist() == [r.k for r in trace.records]
    assert an.iterations_to_threshold(never, 1e-3) is None
    assert an.iterations_to_threshold(diverged, float("inf")) == 0
    assert an.iterations_to_threshold(offset, 1e-2) == 7

