"""Local objective families, their constants, and the global-minimizer oracle."""

import numpy as np

from .errors import DhbError


class ObjectiveError(DhbError):
    pass


class QuadraticLocal:
    """f(x) = x^T diag(q) x + b^T x with q > 0 elementwise."""

    def __init__(self, q_diag, b):
        q_diag = np.asarray(q_diag, dtype=float)
        b = np.asarray(b, dtype=float)
        if np.any(q_diag <= 0):
            raise ObjectiveError("quadratic diagonal must be strictly positive")
        self.q_diag = q_diag
        self.b = b
        self.mu = 2.0 * q_diag.min()
        self.lip = 2.0 * q_diag.max()

    def value(self, x):
        return float(x @ (self.q_diag * x) + self.b @ x)

    def gradient(self, x):
        return 2.0 * self.q_diag * x + self.b


class LogisticLocal:
    """Regularized logistic loss over samples (c_j, y_j), y_j in {-1, +1}.

    The decision variable is z = (b, c) in R^{p+1}: weight vector plus an
    unregularized intercept. Only the weight block carries the ridge term,
    so the per-agent strong-convexity constant over the full variable is 0.
    """

    def __init__(self, features, labels, reg):
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if features.ndim != 2:
            raise ObjectiveError("features must be a 2-d sample matrix")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ObjectiveError("labels must be in {-1, +1}")
        if not 0 < reg < np.inf:
            raise ObjectiveError("regularization must be positive and finite")
        m = features.shape[0]
        # augmented samples (c_j, 1) so the intercept rides along
        self.aug = np.hstack([features, np.ones((m, 1))])
        self.labels = labels
        self.reg = float(reg)
        self.mu = 0.0
        self.lip = reg + 0.25 * float(np.sum(self.aug * self.aug))

    def _reg_vec(self, z):
        r = self.reg * z
        r[-1] = 0.0  # intercept unregularized
        return r

    def value(self, z):
        margins = self.labels * (self.aug @ z)
        # log(1 + exp(-m)) computed stably for both signs of m
        loss = np.logaddexp(0.0, -margins).sum()
        return float(loss + 0.5 * self.reg * np.sum(z[:-1] ** 2))

    def gradient(self, z):
        margins = self.labels * (self.aug @ z)
        sig = np.exp(-np.logaddexp(0.0, margins))  # sigma(-m), no overflow
        return -(self.aug.T @ (self.labels * sig)) + self._reg_vec(z)

    def hessian(self, z):
        margins = self.labels * (self.aug @ z)
        s = np.exp(-np.logaddexp(0.0, margins))
        w = s * (1.0 - s)
        h = self.aug.T @ (self.aug * w[:, None])
        d = np.full(self.aug.shape[1], self.reg)
        d[-1] = 0.0
        return h + np.diag(d)


class ObjectiveSuite:
    """n local objectives plus aggregate constants for F = (1/n) sum f_i.

    mu and lip are strong-convexity/smoothness constants for F; for
    quadratic suites they are exact (extreme eigenvalues of the summed
    diagonal), otherwise lip defaults to the average of the per-agent
    constants. condition_number = lip / mu.
    """

    def __init__(self, locals_, p, mu, kind, lip=None):
        self.locals = list(locals_)
        self.n = len(self.locals)
        self.p = p
        self.kind = kind
        self.l_i = np.array([f.lip for f in self.locals])
        self.mu = float(mu)
        self.lip = float(self.l_i.mean()) if lip is None else float(lip)
        self.l_bar = float(self.l_i.max())
        if self.mu <= 0:
            raise ObjectiveError("aggregate strong convexity must be positive")
        if self.mu > self.lip:
            raise ObjectiveError("mu must not exceed the smoothness constant")
        self.condition_number = self.lip / self.mu
        self._minimizer = None

    def gradient(self, i, x):
        return self.locals[i].gradient(x)

    def stacked_gradient(self, x_stack, out=None):
        """Gradients of all agents at their own points (n x p), into out."""
        if self.kind == "quadratic":
            out = np.multiply(self._q2_stack, x_stack, out=out)
            return np.add(out, self._b_stack, out=out)
        out = np.empty(np.shape(x_stack)) if out is None else out
        out[...] = [self.locals[i].gradient(x_stack[i]) for i in range(self.n)]
        return out

    def global_value(self, x):
        return sum(f.value(x) for f in self.locals) / self.n

    def global_gradient(self, x):
        if self.kind == "quadratic":
            return (2.0 * self._q_sum * x + self._b_sum) / self.n
        return sum(f.gradient(x) for f in self.locals) / self.n

    def minimizer(self, tol=1e-12):
        if self._minimizer is None:
            self._minimizer = global_minimizer(self, tol)
        return self._minimizer


def quadratic_suite(q_diags, b_vecs):
    """Quadratic suite f_i(x) = x^T diag(q_i) x + b_i^T x.

    The aggregate constants come from the extreme entries of sum_i q_i,
    which are the exact eigen-extremes of the global Hessian.
    """
    q_diags = np.atleast_2d(np.asarray(q_diags, dtype=float))
    b_vecs = np.atleast_2d(np.asarray(b_vecs, dtype=float))
    n, p = q_diags.shape
    locals_ = [QuadraticLocal(q_diags[i], b_vecs[i]) for i in range(n)]
    q_sum = q_diags.sum(axis=0)
    mu = 2.0 * q_sum.min() / n
    lip = 2.0 * q_sum.max() / n
    suite = ObjectiveSuite(locals_, p, mu=mu, lip=lip, kind="quadratic")
    suite._q2_stack = 2.0 * q_diags  # the 2.0 * q of every gradient
    suite._b_stack = b_vecs
    suite._q_sum = q_sum
    suite._b_sum = b_vecs.sum(axis=0)
    return suite


def logistic_suite(features, labels, reg):
    """Logistic suite over per-agent data; decision dimension is p + 1.

    The aggregate strong-convexity constant is recorded as the ridge
    parameter, an optimistic value used only for step-size heuristics;
    the intercept is unregularized so no positive global constant is
    available in closed form.
    """
    locals_ = [LogisticLocal(f, y, reg) for f, y in zip(features, labels)]
    p = locals_[0].aug.shape[1]  # includes intercept
    return ObjectiveSuite(locals_, p, mu=float(reg), kind="logistic")


def synthesize_logistic_data(n, m_i, p, seed):
    """Standard-normal features and fair-coin +-1 labels, deterministic in seed."""
    rng = np.random.default_rng(seed)
    features = [rng.standard_normal((m_i, p)) for _ in range(n)]
    labels = [2.0 * rng.integers(0, 2, size=m_i) - 1.0 for _ in range(n)]
    return features, labels


def global_minimizer(suite, tol=1e-12, max_iter=500):
    """Minimizer oracle: closed form for quadratics, damped Newton otherwise.

    Returns x* with ||grad F(x*)|| < tol.
    """
    if suite.kind == "quadratic":
        return -suite._b_sum / (2.0 * suite._q_sum)
    x = np.zeros(suite.p)
    for _ in range(max_iter):
        g = suite.global_gradient(x)
        gnorm = np.linalg.norm(g)
        if gnorm < tol:
            return x
        h = sum(f.hessian(x) for f in suite.locals) / suite.n
        step = np.linalg.solve(h, g)
        # backtrack on ||grad F||: near x* a decrease test on F itself
        # falls below F's roundoff and stalls
        t = 1.0
        while (np.linalg.norm(suite.global_gradient(x - t * step))
               > (1.0 - 1e-4 * t) * gnorm):
            t *= 0.5
            if t < 1e-12:
                break
        x = x - t * step
    if np.linalg.norm(suite.global_gradient(x)) < tol:
        return x
    raise ObjectiveError(f"minimizer oracle did not reach tolerance {tol:g}")


def average_residual(x_stack, x_star):
    """(1/n) sum_i ||x_i - x*||_2, the plotted convergence metric."""
    d = np.atleast_2d(x_stack) - x_star
    # the sums, roots and division of mean(norm(d, axis=1)), bit for bit,
    # without their dispatch overhead; an array for m x n x p records
    res = (np.add.reduce(np.sqrt(np.add.reduce(d * d, axis=-1)), axis=-1)
           / d.shape[-2])
    return res if res.ndim else float(res)
