"""Local objective families, their constants, and the global-minimizer oracle."""

import numpy as np

from .errors import DhbError

MINIMIZER_TOL = 1e-12  # on ||grad F(x*)||
MINIMIZER_MAX_ITER = 500  # damped Newton steps


class ObjectiveError(DhbError):
    pass


class ObjectiveSuite:
    """n local objectives of F = (1/n) sum f_i as arrays stacked over the
    agents, plus F's constants.

    A quadratic suite holds the (n, p) stacks 2q and b of f_i(x) =
    x^T diag(q_i) x + b_i^T x (repeated to the shape of the last points). A
    logistic suite holds the augmented samples (c_j, 1) as one (n, m, p)
    array and the labels y_j in {-1, +1} as one (n, m) array; z = (b, c) in
    R^p is a weight vector plus an unregularized intercept.

    mu and lip are strong-convexity/smoothness constants for F; for
    quadratic suites they are exact (extreme eigenvalues of the summed
    diagonal), for logistic suites lip is the mean over agents of
    reg + 1/4 ||aug_i||_F^2. condition_number = lip / mu.
    """

    def __init__(self, kind, n, p, mu, lip):
        self.kind, self.n, self.p = kind, n, p
        self.mu, self.lip = float(mu), float(lip)
        if self.mu <= 0:
            raise ObjectiveError("aggregate strong convexity must be positive")
        if not self.lip < np.inf:  # NaN fails too
            raise ObjectiveError("the smoothness constant must be finite")
        if self.mu > self.lip:
            raise ObjectiveError("mu must not exceed the smoothness constant")
        self.condition_number = self.lip / self.mu
        self._minimizer = None

    def stacked_gradient(self, x_stack, out=None):
        """Gradients of all agents at their own points (n x p, or a stack of
        such points), into out."""
        if self.kind == "quadratic":
            if x_stack.shape != self._q2_stack.shape:
                # 2q and b copied to the gradients' shape, for products of
                # equal shapes without numpy's broadcasting set-up
                shape = np.broadcast_shapes(x_stack.shape, (self.n, self.p))
                self._q2_stack, self._b_stack = (
                    np.broadcast_to(a.reshape(-1, self.n, self.p)[0],
                                    shape).copy()
                    for a in (self._q2_stack, self._b_stack))
            out = np.multiply(self._q2_stack, x_stack, out=out)
            return np.add(out, self._b_stack, out=out)
        return self._logistic_gradients(x_stack, out)

    def _logistic_gradients(self, x_stack, out=None):
        # intercept zeroed after the product: 0.0 * z is -0.0 where z < 0
        ridge = self.reg * x_stack
        ridge[..., -1] = 0.0
        weighted = (self._labels * self._sigma(x_stack))[..., None]
        out = np.negative(np.matmul(self._aug_t, weighted)[..., 0], out=out)
        return np.add(out, ridge, out=out)

    def _sigma(self, x):
        """sigma(-y_j <aug_j, x>) per sample, at one point or one per agent."""
        margins = self._labels * np.matmul(self._aug, x[..., None])[..., 0]
        return np.exp(-np.logaddexp(0.0, margins))  # no overflow

    def global_gradient(self, x):
        if self.kind == "quadratic":
            return (2.0 * self._q_sum * x + self._b_sum) / self.n
        # not stacked_gradient: the benchmark times that per engine call
        grads = self._logistic_gradients(np.broadcast_to(x, (self.n, self.p)))
        return grads.sum(axis=0, initial=0.0) / self.n

    def minimizer(self):
        """x* of F from global_minimizer, computed once."""
        if self._minimizer is None:
            self._minimizer = global_minimizer(self)
        return self._minimizer


def quadratic_suite(q_diags, b_vecs):
    """Quadratic suite f_i(x) = x^T diag(q_i) x + b_i^T x with q_i > 0.

    The aggregate constants come from the extreme entries of sum_i q_i,
    which are the exact eigen-extremes of the global Hessian.
    """
    q_diags = np.atleast_2d(np.asarray(q_diags, dtype=float))
    b_vecs = np.atleast_2d(np.asarray(b_vecs, dtype=float))
    if not np.all(q_diags > 0):  # NaN fails too; inf makes lip inf
        raise ObjectiveError("quadratic diagonal must be strictly positive")
    if (q_diags.ndim != 2 or b_vecs.shape != q_diags.shape
            or q_diags.size == 0):
        raise ObjectiveError(f"need (n, p) diagonals and linear terms of one "
                             f"shape with n, p >= 1, not {q_diags.shape} and "
                             f"{b_vecs.shape}")
    n, p = q_diags.shape
    # a sum past the float range is inf, refused here or as an infinite lip
    with np.errstate(over="ignore"):
        q_sum, b_sum = q_diags.sum(axis=0), b_vecs.sum(axis=0)
        if not np.all(np.isfinite(b_sum)):  # so every b_i is finite too
            raise ObjectiveError("quadratic linear terms and their sum must "
                                 "be finite")
        suite = ObjectiveSuite("quadratic", n, p, mu=2.0 * q_sum.min() / n,
                               lip=2.0 * q_sum.max() / n)
        x_star = -b_sum / (2.0 * q_sum)  # a tiny q_i can overflow it
    if not np.all(np.isfinite(x_star)):
        raise ObjectiveError("the minimizer -b_sum / (2 q_sum) must be finite")
    suite._q2_stack = 2.0 * q_diags  # the 2.0 * q of every gradient
    suite._b_stack = b_vecs
    suite._q_sum, suite._b_sum, suite._minimizer = q_sum, b_sum, x_star
    return suite


def logistic_suite(features, labels, reg):
    """Logistic suite over per-agent data; decision dimension is p + 1.

    `features` holds n (m, p) sample matrices, `labels` n rows of m labels
    in {-1, +1}. The aggregate strong-convexity constant is recorded as the
    ridge parameter, an optimistic value used only for step-size
    heuristics; the intercept is unregularized so no positive global
    constant is available in closed form.
    """
    try:
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=float)
    except ValueError:  # ragged: not one shape for every agent
        raise ObjectiveError("features and labels must be numbers, with as "
                             "many samples for every agent") from None
    if features.ndim != 3:
        raise ObjectiveError("features must be one sample matrix per agent")
    n, m, p = features.shape
    if labels.shape != (n, m):
        raise ObjectiveError(f"labels must have shape ({n}, {m}), one per "
                             f"sample, not {labels.shape}")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ObjectiveError("labels must be in {-1, +1}")
    if not 0 < reg < np.inf:
        raise ObjectiveError("regularization must be positive and finite")
    # augmented samples (c_j, 1) so the intercept rides along
    aug = np.concatenate([features, np.ones((n, m, 1))], axis=2)
    lip = np.mean(reg + 0.25 * np.sum(aug * aug, axis=(1, 2)))
    suite = ObjectiveSuite("logistic", n, p + 1, mu=reg, lip=lip)
    suite._aug, suite._aug_t = aug, aug.transpose(0, 2, 1)
    suite._labels, suite.reg = labels, float(reg)
    return suite


def synthesize_logistic_data(n, m_i, p, seed):
    """Standard-normal features and fair-coin +-1 labels, deterministic in seed."""
    rng = np.random.default_rng(seed)
    features = [rng.standard_normal((m_i, p)) for _ in range(n)]
    labels = [2.0 * rng.integers(0, 2, size=m_i) - 1.0 for _ in range(n)]
    return features, labels


def logistic_hessian(suite, z):
    """Hessian of F at z for a logistic suite: the agents' sum, over n."""
    s = suite._sigma(z)
    ridge = np.full(suite.p, suite.reg)
    ridge[-1] = 0.0  # intercept unregularized
    h = (np.matmul(suite._aug_t, suite._aug * (s * (1.0 - s))[..., None])
         + np.diag(ridge))
    return h.sum(axis=0, initial=0.0) / suite.n


def global_minimizer(suite):
    """Minimizer oracle: closed form for quadratics, damped Newton otherwise.

    Returns x* with ||grad F(x*)|| < MINIMIZER_TOL.
    """
    if suite.kind == "quadratic":
        return suite._minimizer  # the closed form; quadratic_suite checks it
    x = np.zeros(suite.p)
    for _ in range(MINIMIZER_MAX_ITER):
        g = suite.global_gradient(x)
        gnorm = np.linalg.norm(g)
        if gnorm < MINIMIZER_TOL:
            return x
        step = np.linalg.solve(logistic_hessian(suite, x), g)
        # backtrack on ||grad F||: near x* a decrease test on F itself
        # falls below F's roundoff and stalls
        t = 1.0
        while (np.linalg.norm(suite.global_gradient(x - t * step))
               > (1.0 - 1e-4 * t) * gnorm):
            t *= 0.5
            if t < 1e-12:
                break
        x = x - t * step
    if np.linalg.norm(suite.global_gradient(x)) < MINIMIZER_TOL:
        return x
    raise ObjectiveError("minimizer oracle did not reach tolerance "
                         f"{MINIMIZER_TOL:g}")
