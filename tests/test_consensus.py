import numpy as np
import pytest

from dhb import consensus as cs
from dhb import graph as gr
from dhb import weights as wt
from dhb.analysis import fit_linear_rate
from dhb.analysis import average_residual


def make_matrices(n, seed=0):
    g = gr.generate_nearest_neighbor(n, 2, 0.1, seed=seed, directed=True)
    return wt.uniform_row_stochastic(g), wt.uniform_column_stochastic(g)


def test_momentum_system_block_structure():
    A, B = make_matrices(5)
    sys_ = cs.abmc_build(A, B, 0.3, 0.2)
    assert sys_.H.shape == (15, 15)
    n = 5
    eye = np.eye(n)
    assert np.allclose(sys_.H[:n, :n], A.entries + 0.2 * eye)
    assert np.allclose(sys_.H[:n, n:2 * n], -0.3 * eye)
    assert np.allclose(sys_.H[:n, 2 * n:], -0.2 * eye)
    assert np.allclose(sys_.H[2 * n:, :n], eye)
    assert np.allclose(sys_.H[2 * n:, n:], 0.0)


def test_surplus_system_block_structure():
    A, B = make_matrices(5)
    sys_ = cs.surplus_build(A, B, 0.3)
    assert sys_.H.shape == (10, 10)
    n = 5
    eye = np.eye(n)
    assert np.allclose(sys_.H[:n, :n], A.entries)
    assert np.allclose(sys_.H[:n, n:], -0.3 * eye)
    assert np.allclose(sys_.H[n:, :n], A.entries - eye)
    assert np.allclose(sys_.H[n:, n:], B.entries - 0.3 * eye)


def test_build_validation():
    A, B = make_matrices(4)
    with pytest.raises(cs.ConsensusError):
        cs.abmc_build(B, B, 0.3, 0.1)  # A must be row stochastic
    with pytest.raises(cs.ConsensusError):
        cs.abmc_build(A, A, 0.3, 0.1)
    with pytest.raises(cs.ConsensusError):
        cs.abmc_build(A, B, -0.1, 0.1)
    with pytest.raises(cs.ConsensusError):
        cs.surplus_build(A, B, -0.1)


@pytest.mark.parametrize("form", ["abmc", "surplus"])
def test_power_limit_absorbs_system_matrix(form):
    A, B = make_matrices(6, seed=1)
    if form == "abmc":
        sys_ = cs.abmc_build(A, B, 0.2, 0.1)
    else:
        sys_ = cs.surplus_build(A, B, 0.2)
    assert np.max(np.abs(sys_.H @ sys_.H_inf - sys_.H_inf)) < 1e-12
    assert np.max(np.abs(sys_.H_inf @ sys_.H - sys_.H_inf)) < 1e-12
    assert np.max(np.abs(sys_.H_inf @ sys_.H_inf - sys_.H_inf)) < 1e-12


@pytest.mark.parametrize("form", ["abmc", "surplus"])
def test_deviation_powers_identity(form):
    # H^k - H_inf = (H - H_inf)^k follows from the absorption identities
    A, B = make_matrices(5, seed=2)
    if form == "abmc":
        sys_ = cs.abmc_build(A, B, 0.2, 0.1)
    else:
        sys_ = cs.surplus_build(A, B, 0.2)
    lhs = np.linalg.matrix_power(sys_.H, 5) - sys_.H_inf
    rhs = np.linalg.matrix_power(sys_.H - sys_.H_inf, 5)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_powers_converge_to_limit_when_radius_below_one():
    A, B = make_matrices(6, seed=3)
    alpha, beta, radius, _ = cs.grid_search_params(
        A, B, np.linspace(0.05, 0.6, 12), np.linspace(0.0, 0.4, 9), "abmc"
    )
    assert radius < 1.0
    sys_ = cs.abmc_build(A, B, alpha, beta)
    k = 50
    bound = np.max(np.abs(np.linalg.matrix_power(sys_.H, k) - sys_.H_inf))
    assert bound < max(10 * radius ** k, 1e-10)


def test_equal_inputs_stay_at_consensus():
    A, B = make_matrices(5, seed=4)
    sys_ = cs.abmc_build(A, B, 0.2, 0.1)
    trace = cs.consensus_run(sys_, np.full(5, 3.25), 20)
    assert all(r.residual < 1e-12 for r in trace.records)


def test_converges_to_exact_average():
    A, B = make_matrices(4, seed=5)
    alpha, beta, radius, _ = cs.grid_search_params(
        A, B, np.linspace(0.05, 0.6, 12), np.linspace(0.0, 0.4, 9), "abmc"
    )
    assert radius < 1.0
    sys_ = cs.abmc_build(A, B, alpha, beta)
    values = np.array([1.0, 2.0, 3.0, 4.0])  # average 2.5
    trace = cs.consensus_run(sys_, values, 5000, tol=1e-11)
    assert trace.meta["termination"] == "threshold"
    state = cs.initial_stack(sys_, values)
    for _ in range(trace.records[-1].k):
        state = sys_.H @ state
    assert np.max(np.abs(state[:4] - 2.5)) < 1e-9


def test_zero_gain_misses_average_on_nonuniform_graph():
    # with alpha = 0 the x-block just mixes with A and settles on the
    # Perron-weighted average, not the arithmetic mean
    A, B = make_matrices(5, seed=6)
    assert np.max(np.abs(A.pi_r - 0.2)) > 1e-3  # nonuniform stationary weights
    sys_ = cs.surplus_build(A, B, 0.0)
    rng = np.random.default_rng(6)
    values = rng.standard_normal(5)
    trace = cs.consensus_run(sys_, values, 2000)
    limit = float(A.pi_r @ values)
    mean = float(values.mean())
    assert trace.records[-1].residual > 0.5 * abs(limit - mean)
    assert abs(limit - mean) > 1e-3


def test_effective_radius_single_agent_closed_form():
    g = gr.Digraph(1, [])
    A = wt.uniform_row_stochastic(g)
    B = wt.uniform_column_stochastic(g)
    for alpha in (0.3, 1.5):
        sys_ = cs.surplus_build(A, B, alpha)
        # H - H_inf = [[0, 1 - alpha], [0, 1 - alpha]]: radius |1 - alpha|
        assert np.isclose(cs.effective_radius(sys_), abs(1.0 - alpha))


def test_effective_radius_matches_observed_decay():
    A, B = make_matrices(6, seed=7)
    alpha, beta, radius, _ = cs.grid_search_params(
        A, B, np.linspace(0.05, 0.6, 12), np.linspace(0.0, 0.4, 9), "abmc"
    )
    sys_ = cs.abmc_build(A, B, alpha, beta)
    rng = np.random.default_rng(7)
    # stop before the residual falls below the fit floor
    steps = int(np.log(1e-12) / np.log(radius))
    trace = cs.consensus_run(sys_, rng.standard_normal(6), steps)
    rate, _ = fit_linear_rate(trace, tail_fraction=0.5)
    assert rate <= radius + 0.05


def test_sign_conjugation_preserves_radius():
    A, B = make_matrices(5, seed=8)
    sys_ = cs.surplus_build(A, B, 0.25)
    d = np.diag(np.concatenate([np.ones(5), -np.ones(5)]))
    conjugated = d @ (sys_.H - sys_.H_inf) @ d
    oracle = float(np.max(np.abs(np.linalg.eigvals(conjugated))))
    assert np.isclose(cs.effective_radius(sys_), oracle, atol=1e-12)


def test_zero_momentum_matches_surplus_trajectory():
    A, B = make_matrices(5, seed=9)
    sys_m = cs.abmc_build(A, B, 0.2, 0.0)
    sys_s = cs.surplus_build(A, B, 0.2)
    assert np.isclose(cs.effective_radius(sys_m), cs.effective_radius(sys_s),
                      atol=1e-10)
    rng = np.random.default_rng(9)
    values = rng.standard_normal(5)
    sm = cs.initial_stack(sys_m, values)
    ss = cs.initial_stack(sys_s, values)
    for _ in range(60):
        sm = sys_m.H @ sm
        ss = sys_s.H @ ss
        assert np.max(np.abs(sm[:10] - ss)) < 1e-12


def test_grid_search_single_point():
    A, B = make_matrices(4, seed=10)
    alpha, beta, radius, rows = cs.grid_search_params(
        A, B, [0.3], [0.1], "abmc"
    )
    assert (alpha, beta) == (0.3, 0.1)
    assert rows == [(0.3, 0.1, radius)]
    alpha, beta, radius_s, rows = cs.grid_search_params(A, B, [0.3], [], "surplus")
    assert (alpha, beta) == (0.3, 0.0)
    assert len(rows) == 1


def test_momentum_search_no_worse_than_surplus():
    A, B = make_matrices(6, seed=11)
    alpha_grid = np.linspace(0.05, 0.6, 12)
    beta_grid = np.linspace(0.0, 0.4, 9)
    _, _, r_m, _ = cs.grid_search_params(A, B, alpha_grid, beta_grid, "abmc")
    _, _, r_s, _ = cs.grid_search_params(A, B, alpha_grid, [], "surplus")
    assert r_m <= r_s + 1e-12


def test_vector_valued_consensus():
    A, B = make_matrices(4, seed=12)
    alpha, beta, radius, _ = cs.grid_search_params(
        A, B, np.linspace(0.05, 0.6, 12), np.linspace(0.0, 0.4, 9), "abmc"
    )
    sys_ = cs.abmc_build(A, B, alpha, beta)
    assert sys_.H.shape == (12, 12)
    rng = np.random.default_rng(12)
    values = rng.standard_normal((4, 3))
    trace = cs.consensus_run(sys_, values, 5000, tol=1e-10)
    assert trace.meta["termination"] == "threshold"


@pytest.mark.parametrize("form", ["abmc", "surplus"])
def test_vector_run_matches_scalar_runs_per_coordinate(form):
    # one (n, p) run steps the p coordinates as the columns of one state;
    # gemm and gemv sum in different orders, so the match is not bitwise
    A, B = make_matrices(5, seed=16)
    if form == "abmc":
        sys_ = cs.abmc_build(A, B, 0.2, 0.1)
    else:
        sys_ = cs.surplus_build(A, B, 0.2)
    values = np.random.default_rng(16).standard_normal((5, 3))
    state = cs.initial_stack(sys_, values)
    assert state.shape == (sys_.H.shape[0], 3)
    columns = [cs.initial_stack(sys_, values[:, d]) for d in range(3)]
    residuals = cs.consensus_run(sys_, values, 200).residuals()
    assert len(residuals) == 201
    for k in range(201):
        if k > 0:
            state = sys_.H @ state
            columns = [sys_.H @ c for c in columns]
        stacked = np.hstack(columns)
        assert np.max(np.abs(state - stacked)) < 1e-12
        assert abs(residuals[k] - average_residual(stacked[:5],
                                                   values.mean(axis=0))) < 1e-12


@pytest.mark.parametrize("values", [np.arange(10.0), np.ones((5, 2, 1)),
                                    np.ones(7)],
                         ids=["two_per_agent", "three_axes", "seven_agents"])
def test_consensus_values_must_be_one_row_per_agent(values):
    sys_ = cs.abmc_build(*make_matrices(5, seed=15), 0.2, 0.1)
    with pytest.raises(cs.ConsensusError, match="shape"):
        cs.initial_stack(sys_, values)
    with pytest.raises(cs.ConsensusError, match="shape"):
        cs.consensus_run(sys_, values, 10)


def test_surplus_is_leading_block_of_zero_momentum_system():
    A, B = make_matrices(5, seed=14)
    surplus = cs.surplus_build(A, B, 0.3)
    momentum = cs.abmc_build(A, B, 0.3, 0.0)
    m = 2 * 5
    assert np.array_equal(surplus.H, momentum.H[:m, :m])
    assert np.array_equal(surplus.H_inf, momentum.H_inf[:m, :m])
    for p in (1, 2):
        values = np.arange(5.0 * p).reshape(5, p)
        assert np.array_equal(cs.initial_stack(surplus, values),
                              cs.initial_stack(momentum, values)[:m])


def test_consensus_run_diverges_above_unit_radius():
    A, B = make_matrices(5, seed=15)
    sys_ = cs.abmc_build(A, B, 3.0, 0.0)
    assert cs.effective_radius(sys_) > 1.0
    values = np.random.default_rng(15).standard_normal(5)
    trace = cs.consensus_run(sys_, values, 100000, tol=1e-10)
    assert trace.meta["termination"] == "diverged"
    assert trace.records[-1].residual > 1e12
    assert trace.records[-1].k < 100000


@pytest.mark.parametrize("form", ["abmc", "surplus"])
def test_consensus_run_past_an_overflow_ends_diverged(form):
    # no errstate here: the run loop owns it, and the suite's settings make
    # a RuntimeWarning fail the test
    A, B = make_matrices(5, seed=15)
    sys_ = (cs.abmc_build(A, B, 1e200, 0.5) if form == "abmc"
            else cs.surplus_build(A, B, 1e200))
    values = np.random.default_rng(15).standard_normal(5)
    trace = cs.consensus_run(sys_, values, 100)
    assert trace.diverged
    assert trace.records[-1].k < 100


def test_grid_search_rejects_an_unknown_form():
    A, B = make_matrices(4)
    with pytest.raises(cs.ConsensusError, match="unknown form"):
        cs.grid_search_params(A, B, [0.1], [0.0], "push_sum")
