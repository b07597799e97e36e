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


def test_fit_tail_fraction_windows():
    # rate 0.95 for 100 steps then 0.8: a short tail isolates the late phase
    trace = an.Trace()
    r = 1.0
    for k in range(201):
        trace.append(k, r)
        r *= 0.95 if k < 100 else 0.8
    rate, _ = an.fit_linear_rate(trace, tail_fraction=0.25)
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


def test_trace_csv_round_trip(tmp_path):
    trace = an.Trace(meta={"engine": "demo"})
    rng = np.random.default_rng(0)
    for k in range(25):
        trace.append(k, float(rng.uniform(1e-12, 1.0)),
                     float(rng.uniform(0, 1e-10)), 0.001 * k)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    loaded = an.Trace.from_csv(path, meta={"engine": "demo"})
    assert len(loaded.records) == 25
    for a, b in zip(trace.records, loaded.records):
        assert a.k == b.k
        assert a.residual == b.residual
        assert a.tracking_error == b.tracking_error
        assert a.elapsed == b.elapsed


def test_trace_csv_handles_missing_tracking(tmp_path):
    trace = an.Trace()
    trace.append(0, 1.0)
    trace.append(1, 0.5)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    loaded = an.Trace.from_csv(path)
    assert loaded.records[0].tracking_error is None


def test_diverged_flag():
    trace = an.Trace(meta={"termination": "diverged"})
    assert trace.diverged
    assert not an.Trace(meta={"termination": "max_iter"}).diverged
