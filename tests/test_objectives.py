import itertools

import numpy as np
import pytest

from dhb import objectives as obj


def central_difference(f, x, h):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def test_single_agent_identity_quadratic():
    suite = obj.quadratic_suite(np.ones((1, 2)), np.zeros((1, 2)))
    x_star = suite.minimizer()
    assert np.allclose(x_star, 0.0)
    assert suite.global_value(x_star) == 0.0


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
    with pytest.raises(obj.ObjectiveError):
        obj.quadratic_suite([[1.0, 0.0]], [[0.0, 0.0]])


def test_logistic_value_at_zero_is_log_two():
    # single sample with zero features, label +1: exp(0) = 1
    suite = obj.logistic_suite([np.zeros((1, 3))], [np.ones(1)], reg=1.0)
    assert np.isclose(suite.locals[0].value(np.zeros(4)), np.log(2.0))


def test_logistic_gradient_at_zero_hand_value():
    # sigma(0) = 1/2: gradient is -y/2 * (c, 1) plus a zero ridge term
    c = np.array([[0.5, -1.0]])
    suite = obj.logistic_suite([c], [np.ones(1)], reg=1.0)
    g = suite.locals[0].gradient(np.zeros(3))
    assert np.allclose(g, [-0.25, 0.5, -0.5])


def test_logistic_rejects_bad_labels():
    with pytest.raises(obj.ObjectiveError):
        obj.logistic_suite([np.zeros((1, 2))], [np.array([2.0])], reg=1.0)


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_gradient_matches_finite_difference(kind):
    rng = np.random.default_rng(3)
    if kind == "quadratic":
        suite = obj.quadratic_suite(
            rng.uniform(0.5, 2.0, (3, 4)), rng.standard_normal((3, 4))
        )
    else:
        features, labels = obj.synthesize_logistic_data(3, 6, 3, seed=5)
        suite = obj.logistic_suite(features, labels, reg=0.3)
    for i in range(suite.n):
        f = suite.locals[i]
        for _ in range(10):
            x = rng.standard_normal(suite.p)
            h = 1e-6 * (1.0 + np.linalg.norm(x))
            fd = central_difference(f.value, x, h)
            g = f.gradient(x)
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
    x_star = suite.minimizer(tol)
    assert np.linalg.norm(suite.global_gradient(x_star)) < tol
    # sum of local gradients is n * grad F
    total = sum(suite.gradient(i, x_star) for i in range(suite.n))
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
    suite = obj.quadratic_suite(
        rng.uniform(0.5, 2.0, (3, 4)), rng.standard_normal((3, 4))
    )
    for i in range(suite.n):
        f = suite.locals[i]
        for _ in range(20):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            lower = (f.value(x) + f.gradient(x) @ (y - x)
                     + 0.5 * f.mu * np.sum((x - y) ** 2))
            assert f.value(y) >= lower - 1e-10


def test_suite_constant_ordering():
    rng = np.random.default_rng(19)
    suite = obj.quadratic_suite(
        rng.uniform(0.5, 2.0, (5, 3)), rng.standard_normal((5, 3))
    )
    assert suite.mu <= suite.lip
    assert suite.condition_number >= 1.0
    assert suite.l_bar == suite.l_i.max()


def test_average_residual():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.isclose(obj.average_residual(x, np.zeros(2)), 1.0)


def test_logistic_gradient_and_hessian_at_large_margins():
    # margins of +1000 and -1000: exp(1000) overflows a double
    local = obj.LogisticLocal(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]), 0.5)
    z = np.array([999.0, 1.0])
    grad = local.gradient(z)
    assert np.all(np.isfinite(grad))
    assert np.allclose(grad, [1.0 + 0.5 * 999.0, 1.0])
    hess = local.hessian(z)
    assert np.array_equal(hess, np.diag([0.5, 0.0]))


def test_logistic_minimizer_reaches_tolerance_across_sizes():
    # includes (50, 40, 5, seed 3), where a decrease test on F stalls at
    # ||grad F|| ~ 5e-9 because the decrease falls below F's roundoff
    for n, m_i, p, seed in itertools.product((20, 50), (10, 40), (2, 5), range(4)):
        features, labels = obj.synthesize_logistic_data(n, m_i, p, seed)
        suite = obj.logistic_suite(features, labels, reg=0.1)
        x_star = suite.minimizer(1e-12)
        assert np.linalg.norm(suite.global_gradient(x_star)) < 1e-12


@pytest.mark.parametrize("reg", [float("nan"), float("inf"), 0.0])
def test_logistic_regularization_must_be_positive_and_finite(reg):
    with pytest.raises(obj.ObjectiveError, match="regularization"):
        obj.LogisticLocal(np.ones((2, 1)), np.array([1.0, -1.0]), reg)
