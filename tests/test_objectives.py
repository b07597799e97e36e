import itertools

import numpy as np
import pytest

from dhb import analysis as an
from dhb import objectives as obj


def central_difference(f, x, h):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def augment(features):
    """Agent i's samples (c_j, 1): the intercept rides along."""
    return np.hstack([features, np.ones((len(features), 1))])


# Agent i's logistic loss, gradient and Hessian, one agent at a time: the
# oracle for the suite's stacked arrays.
def logistic_value(aug, labels, reg, z):
    margins = labels * (aug @ z)
    # log(1 + exp(-m)) computed stably for both signs of m
    loss = np.logaddexp(0.0, -margins).sum()
    return float(loss + 0.5 * reg * np.sum(z[:-1] ** 2))


def logistic_gradient(aug, labels, reg, z):
    margins = labels * (aug @ z)
    sig = np.exp(-np.logaddexp(0.0, margins))  # sigma(-m), no overflow
    r = reg * z
    r[-1] = 0.0  # intercept unregularized
    return -(aug.T @ (labels * sig)) + r


def logistic_hessian(aug, labels, reg, z):
    margins = labels * (aug @ z)
    s = np.exp(-np.logaddexp(0.0, margins))
    w = s * (1.0 - s)
    h = aug.T @ (aug * w[:, None])
    d = np.full(aug.shape[1], reg)
    d[-1] = 0.0
    return h + np.diag(d)


def quadratic_value(q, b, x):
    return float(x @ (q * x) + b @ x)


def test_single_agent_identity_quadratic():
    suite = obj.quadratic_suite(np.ones((1, 2)), np.zeros((1, 2)))
    x_star = suite.minimizer()
    assert np.allclose(x_star, 0.0)


def test_two_agent_quadratic_minimizer():
    # grad F = 0 gives 2 diag(3,3) x = -(2, 0), so x* = (-1/3, 0)
    suite = obj.quadratic_suite(
        [[1.0, 1.0], [2.0, 2.0]], [[1.0, 0.0], [1.0, 0.0]]
    )
    assert np.allclose(suite.minimizer(), [-1.0 / 3.0, 0.0], atol=1e-14)


def test_quadratic_condition_number_is_diag_ratio():
    rng = np.random.default_rng(1)
    q = rng.uniform(0.5, 3.0, (4, 5))
    suite = obj.quadratic_suite(q, np.zeros((4, 5)))
    s = q.sum(axis=0)
    assert np.isclose(suite.condition_number, s.max() / s.min())


def test_quadratic_rejects_nonpositive_diagonal():
    for q in (0.0, float("nan"), float("inf")):
        with pytest.raises(obj.ObjectiveError):
            obj.quadratic_suite([[1.0, q]], [[0.0, 0.0]])


@pytest.mark.parametrize("b", [[[0.0, float("nan")], [0.0, 0.0]],
                               [[float("inf"), 0.0], [0.0, 0.0]],
                               [[1e308, 0.0], [1e308, 0.0]]],
                         ids=["nan", "inf", "sum_overflows"])
def test_quadratic_rejects_non_finite_linear_terms(b):
    # pytest turns an overflow's RuntimeWarning into a failure
    with pytest.raises(obj.ObjectiveError, match="linear terms"):
        obj.quadratic_suite(np.ones((2, 2)), b)


def test_quadratic_rejects_a_diagonal_sum_past_the_float_range():
    with pytest.raises(obj.ObjectiveError, match="smoothness"):
        obj.quadratic_suite([[1e308, 1.0], [1e308, 1.0]], np.zeros((2, 2)))


def test_quadratic_rejects_a_minimizer_past_the_float_range():
    # mu = l = 2e-300 are fine, but -b / (2 q) overflows
    with pytest.raises(obj.ObjectiveError, match="minimizer"):
        obj.quadratic_suite([[1e-300]], [[1e10]])


def test_logistic_value_at_zero_is_log_two():
    # single sample with zero features, label +1: exp(0) = 1
    assert np.isclose(
        logistic_value(augment(np.zeros((1, 3))), np.ones(1), 1.0, np.zeros(4)),
        np.log(2.0))


def test_logistic_gradient_at_zero_hand_value():
    # sigma(0) = 1/2: gradient is -y/2 * (c, 1) plus a zero ridge term
    c = np.array([[0.5, -1.0]])
    suite = obj.logistic_suite([c], [np.ones(1)], reg=1.0)
    g = suite.stacked_gradient(np.zeros((1, 3)))[0]
    assert np.allclose(g, [-0.25, 0.5, -0.5])


def test_logistic_rejects_bad_labels():
    with pytest.raises(obj.ObjectiveError):
        obj.logistic_suite([np.zeros((1, 2))], [np.array([2.0])], reg=1.0)


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_gradient_matches_finite_difference(kind):
    rng = np.random.default_rng(3)
    if kind == "quadratic":
        q, b = rng.uniform(0.5, 2.0, (3, 4)), rng.standard_normal((3, 4))
        suite = obj.quadratic_suite(q, b)
        values = [lambda x, i=i: quadratic_value(q[i], b[i], x)
                  for i in range(3)]
    else:
        features, labels = obj.synthesize_logistic_data(3, 6, 3, seed=5)
        suite = obj.logistic_suite(features, labels, reg=0.3)
        values = [lambda z, i=i: logistic_value(augment(features[i]),
                                                labels[i], 0.3, z)
                  for i in range(3)]
    for i in range(suite.n):
        for _ in range(10):
            x = rng.standard_normal(suite.p)
            h = 1e-6 * (1.0 + np.linalg.norm(x))
            fd = central_difference(values[i], x, h)
            g = suite.stacked_gradient(np.tile(x, (suite.n, 1)))[i]
            assert np.linalg.norm(fd - g) < 1e-6 * (1.0 + np.linalg.norm(g))


def test_synthesize_shapes_and_determinism():
    features, labels = obj.synthesize_logistic_data(3, 5, 4, seed=9)
    assert len(features) == 3
    assert all(f.shape == (5, 4) for f in features)
    assert all(set(np.unique(y)) <= {-1.0, 1.0} for y in labels)
    f2, y2 = obj.synthesize_logistic_data(3, 5, 4, seed=9)
    assert all(np.array_equal(a, b) for a, b in zip(features, f2))
    assert all(np.array_equal(a, b) for a, b in zip(labels, y2))


def test_synthesize_label_mean_concentrates():
    _, labels = obj.synthesize_logistic_data(10, 20, 3, seed=11)
    mean = np.concatenate(labels).mean()
    assert -0.5 <= mean <= 0.5


def test_logistic_minimizer_gradient_norm():
    features, labels = obj.synthesize_logistic_data(4, 8, 3, seed=7)
    suite = obj.logistic_suite(features, labels, reg=0.5)
    tol = 1e-12
    x_star = suite.minimizer()
    assert np.linalg.norm(suite.global_gradient(x_star)) < tol
    # sum of local gradients is n * grad F
    total = suite.stacked_gradient(np.tile(x_star, (suite.n, 1))).sum(axis=0)
    assert np.linalg.norm(total) < suite.n * tol


def test_logistic_symmetry_of_minimizer():
    # flipping labels and negating features preserves every margin once the
    # (unregularized) intercept is negated, so the weight block is invariant
    features, labels = obj.synthesize_logistic_data(3, 10, 3, seed=13)
    suite = obj.logistic_suite(features, labels, reg=0.4)
    flipped = obj.logistic_suite(
        [-f for f in features], [-y for y in labels], reg=0.4
    )
    z = suite.minimizer()
    z_flip = flipped.minimizer()
    assert np.allclose(z[:-1], z_flip[:-1], atol=1e-10)
    assert np.isclose(z[-1], -z_flip[-1], atol=1e-10)


def test_quadratic_strong_convexity_spot_check():
    rng = np.random.default_rng(17)
    q, b = rng.uniform(0.5, 2.0, (3, 4)), rng.standard_normal((3, 4))
    suite = obj.quadratic_suite(q, b)
    for i in range(suite.n):
        mu_i = 2.0 * q[i].min()
        for _ in range(20):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            g = suite.stacked_gradient(np.tile(x, (suite.n, 1)))[i]
            lower = (quadratic_value(q[i], b[i], x) + g @ (y - x)
                     + 0.5 * mu_i * np.sum((x - y) ** 2))
            assert quadratic_value(q[i], b[i], y) >= lower - 1e-10


def test_suite_constant_ordering():
    rng = np.random.default_rng(19)
    suite = obj.quadratic_suite(
        rng.uniform(0.5, 2.0, (5, 3)), rng.standard_normal((5, 3))
    )
    assert suite.mu <= suite.lip
    assert suite.condition_number >= 1.0


def test_average_residual():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.isclose(an.average_residual(x, np.zeros(2)), 1.0)


def test_logistic_gradient_and_hessian_at_large_margins():
    # margins of +1000 and -1000: exp(1000) overflows a double
    suite = obj.logistic_suite([np.array([[1.0], [1.0]])],
                               [np.array([1.0, -1.0])], 0.5)
    z = np.array([999.0, 1.0])
    grad = suite.stacked_gradient(z[None, :])[0]
    assert np.all(np.isfinite(grad))
    assert np.allclose(grad, [1.0 + 0.5 * 999.0, 1.0])
    hess = obj.logistic_hessian(suite, z)
    assert np.array_equal(hess, np.diag([0.5, 0.0]))


def test_logistic_minimizer_reaches_tolerance_across_sizes():
    # includes (50, 40, 5, seed 3), where a decrease test on F stalls at
    # ||grad F|| ~ 5e-9 because the decrease falls below F's roundoff
    for n, m_i, p, seed in itertools.product((20, 50), (10, 40), (2, 5), range(4)):
        features, labels = obj.synthesize_logistic_data(n, m_i, p, seed)
        suite = obj.logistic_suite(features, labels, reg=0.1)
        x_star = suite.minimizer()
        assert np.linalg.norm(suite.global_gradient(x_star)) < 1e-12


@pytest.mark.parametrize("reg", [float("nan"), float("inf"), 0.0])
def test_logistic_regularization_must_be_positive_and_finite(reg):
    with pytest.raises(obj.ObjectiveError, match="regularization"):
        obj.logistic_suite([np.ones((2, 1))], [np.array([1.0, -1.0])], reg)


def test_stacked_logistic_suite_matches_per_agent_formulas_bit_for_bit():
    # at scales up to 1e6 some margins are so large that sigma underflows
    # to 0 and the gradient is the ridge term alone
    rng = np.random.default_rng(23)
    underflows = 0
    for n, m, p in ((1, 1, 1), (3, 7, 2), (20, 10, 3), (7, 40, 5)):
        features, labels = obj.synthesize_logistic_data(n, m, p, seed=n)
        suite = obj.logistic_suite(features, labels, reg=0.2)
        augs = [augment(f) for f in features]
        for scale in (0.1, 1.0, 10.0, 1e3, 1e6):
            z_stack = scale * rng.standard_normal((n, p + 1))
            underflows += sum(np.sum(np.logaddexp(0.0, y * (a @ z)) > 746)
                              for a, y, z in zip(augs, labels, z_stack))
            expected = np.array([logistic_gradient(a, y, 0.2, z)
                                 for a, y, z in zip(augs, labels, z_stack)])
            got = suite.stacked_gradient(z_stack)
            assert got.tobytes() == expected.tobytes()
            out = np.empty_like(z_stack)
            assert suite.stacked_gradient(z_stack, out=out) is out
            assert out.tobytes() == expected.tobytes()
            z = z_stack[0]
            g = sum(logistic_gradient(a, y, 0.2, z)
                    for a, y in zip(augs, labels)) / n
            assert suite.global_gradient(z).tobytes() == g.tobytes()
            h = sum(logistic_hessian(a, y, 0.2, z)
                    for a, y in zip(augs, labels)) / n
            assert obj.logistic_hessian(suite, z).tobytes() == h.tobytes()
    assert underflows > 0  # exp(-746) is 0 in double precision


def test_logistic_lip_is_mean_of_agent_constants():
    features, labels = obj.synthesize_logistic_data(5, 4, 3, seed=2)
    suite = obj.logistic_suite(features, labels, reg=0.1)
    lips = [0.1 + 0.25 * np.sum(augment(f) ** 2) for f in features]
    assert suite.lip == np.mean(lips)


@pytest.mark.parametrize("q, b", [([[1.0, 1.0]], [[0.0, 0.0, 0.0]]),
                                  (np.ones((2, 2, 2)), np.ones((2, 2, 2)))],
                         ids=["mismatched", "three_axes"])
def test_quadratic_rejects_data_not_of_one_n_by_p_shape(q, b):
    with pytest.raises(obj.ObjectiveError, match="shape"):
        obj.quadratic_suite(q, b)


@pytest.mark.parametrize("shape", [(2, 0), (0, 2)], ids=["p_0", "n_0"])
def test_quadratic_rejects_empty_stacks(shape):
    with pytest.raises(obj.ObjectiveError, match="n, p >= 1"):
        obj.quadratic_suite(np.ones(shape), np.ones(shape))


def test_logistic_rejects_ragged_data():
    features, labels = obj.synthesize_logistic_data(3, 4, 2, seed=1)
    features[1], labels[1] = features[1][:3], labels[1][:3]
    with pytest.raises(obj.ObjectiveError, match="as many samples"):
        obj.logistic_suite(features, labels, reg=0.1)


def test_logistic_rejects_labels_not_one_per_sample():
    features, labels = obj.synthesize_logistic_data(3, 4, 2, seed=1)
    with pytest.raises(obj.ObjectiveError, match="shape"):
        obj.logistic_suite(features, [y[:3] for y in labels], reg=0.1)


@pytest.mark.parametrize("mu, lip, match", [
    (0.0, 1.0, "positive"), (-1.0, 1.0, "positive"),
    (2.0, 1.0, "must not exceed"),
    (1.0, float("inf"), "finite"), (1.0, float("nan"), "finite"),
], ids=["mu_0", "mu_negative", "mu_above_lip", "lip_inf", "lip_nan"])
def test_suite_rejects_constants_out_of_order(mu, lip, match):
    with pytest.raises(obj.ObjectiveError, match=match):
        obj.ObjectiveSuite("quadratic", 1, 1, mu, lip)


def test_logistic_rejects_features_not_one_matrix_per_agent():
    features, labels = obj.synthesize_logistic_data(1, 4, 2, seed=1)
    with pytest.raises(obj.ObjectiveError, match="one sample matrix"):
        obj.logistic_suite(features[0], labels, reg=0.1)


def test_minimizer_raises_short_of_its_tolerance(monkeypatch):
    features, labels = obj.synthesize_logistic_data(3, 4, 2, seed=1)
    suite = obj.logistic_suite(features, labels, reg=0.1)
    monkeypatch.setattr(obj, "MINIMIZER_MAX_ITER", 1)
    with pytest.raises(obj.ObjectiveError, match="did not reach tolerance"):
        obj.global_minimizer(suite)
    monkeypatch.undo()
    assert np.linalg.norm(
        suite.global_gradient(obj.global_minimizer(suite))) < 1e-12


def test_minimizer_of_a_quadratic_suite_is_its_closed_form():
    q = np.array([[1.0, 4.0], [2.0, 0.5]])
    b = np.array([[1.0, -3.0], [1.0, 2.0]])
    suite = obj.quadratic_suite(q, b)
    # grad F = 0 gives 2 diag(q_1 + q_2) x = -(b_1 + b_2)
    assert np.allclose(obj.global_minimizer(suite),
                       -b.sum(axis=0) / (2.0 * q.sum(axis=0)), rtol=1e-15)


def small_logistic_suite():
    features, labels = obj.synthesize_logistic_data(3, 4, 2, seed=1)
    return obj.logistic_suite(features, labels, reg=0.1)


def gradient_calls(suite, monkeypatch):
    """A list that grows by one per suite.global_gradient call."""
    calls, gradient = [], suite.global_gradient
    monkeypatch.setattr(suite, "global_gradient",
                        lambda x: calls.append(None) or gradient(x))
    return calls


def test_minimizer_backtracks_an_overshooting_newton_step(monkeypatch):
    suite = small_logistic_suite()
    calls = gradient_calls(suite, monkeypatch)
    obj.global_minimizer(suite)
    whole_steps = len(calls)
    # a Hessian at a quarter scale makes every step four Newton steps long,
    # so the step is halved twice before it is taken
    hessian = obj.logistic_hessian
    monkeypatch.setattr(obj, "logistic_hessian",
                        lambda s, z: 0.25 * hessian(s, z))
    del calls[:]
    x = obj.global_minimizer(suite)
    assert len(calls) > whole_steps
    assert np.linalg.norm(suite.global_gradient(x)) < obj.MINIMIZER_TOL


def test_minimizer_gives_up_when_no_step_decreases_the_gradient(monkeypatch):
    suite = small_logistic_suite()
    hessian = obj.logistic_hessian
    # a negated Hessian points every step uphill on ||grad F||: each
    # backtracking ends below t = 1e-12, after 40 halvings
    monkeypatch.setattr(obj, "logistic_hessian", lambda s, z: -hessian(s, z))
    monkeypatch.setattr(obj, "MINIMIZER_MAX_ITER", 3)
    calls = gradient_calls(suite, monkeypatch)
    with pytest.raises(obj.ObjectiveError, match="did not reach tolerance"):
        obj.global_minimizer(suite)
    assert len(calls) == 3 * (1 + 40) + 1


def test_minimizer_returns_after_its_last_allowed_step(monkeypatch):
    # with exactly as many Newton steps as the suite needs, the loop ends
    # before its own check sees the tolerance, and the check after it returns
    suite = small_logistic_suite()
    steps = 1
    while True:
        monkeypatch.setattr(obj, "MINIMIZER_MAX_ITER", steps)
        try:
            x = obj.global_minimizer(suite)
            break
        except obj.ObjectiveError:
            steps += 1
    assert steps > 1  # one step fewer raised
    assert np.linalg.norm(suite.global_gradient(x)) < obj.MINIMIZER_TOL
