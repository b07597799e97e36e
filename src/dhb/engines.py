"""Distributed and centralized first-order algorithm engines.

Every engine is a value-semantics state machine: one step consumes a state
and returns a new one, corresponding to one synchronous round of neighbor
exchange plus local updates at all agents.
"""

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import grid_argmin, iterate, iterations_to_threshold
from .objectives import average_residual
from . import weights as wt

EIGEN_ESTIMATE_FLOOR = 1e3 * np.finfo(float).tiny


class EngineError(Exception):
    pass


@dataclass(frozen=True)
class EngineConfig:
    """Engine kind plus per-agent step-sizes, momenta, and weight matrices."""

    kind: str
    alphas: np.ndarray
    betas: np.ndarray
    A: object = None       # row-stochastic WeightMatrix
    B: object = None       # column-stochastic WeightMatrix
    W: object = None       # doubly-stochastic WeightMatrix
    W_tilde: np.ndarray = None  # second EXTRA matrix, defaults to (I + W)/2

    def digest(self):
        h = hashlib.sha256()
        h.update(self.kind.encode())
        h.update(self.alphas.tobytes())
        h.update(self.betas.tobytes())
        for m in (self.A, self.B, self.W):
            if m is not None:
                h.update(m.entries.tobytes())
        return h.hexdigest()[:12]


def make_config(kind, n, alpha, beta=0.0, A=None, B=None, W=None, W_tilde=None):
    if kind not in ENGINES:
        raise EngineError(f"unknown engine kind {kind!r}")
    spec = ENGINES[kind]
    alphas = np.broadcast_to(np.asarray(alpha, dtype=float), (n,)).copy()
    betas = np.broadcast_to(np.asarray(beta, dtype=float), (n,)).copy()
    if np.any(alphas < 0) or np.any(betas < 0):
        raise EngineError("step-sizes and momenta must be nonnegative")
    if not np.any(alphas > 0):
        raise EngineError("at least one step-size must be positive")
    if spec.scalar_alpha and np.ptp(alphas) != 0:
        raise EngineError(f"{kind} requires an identical scalar step-size")
    if not spec.momentum:
        betas = np.zeros(n)  # so ab is abm, and gd is heavy_ball, at beta 0
    for slot in spec.weights:
        if slot == "A" and (A is None or A.kind != wt.ROW):
            raise EngineError(f"{kind} needs a row-stochastic matrix A")
        if slot == "B" and (B is None or B.kind != wt.COLUMN):
            raise EngineError(f"{kind} needs a column-stochastic matrix B")
        if slot == "W":
            if W is None or W.kind != wt.DOUBLY:
                raise EngineError(f"{kind} needs a doubly-stochastic matrix W")
            if kind == "extra" and not np.array_equal(W.entries, W.entries.T):
                raise EngineError("extra requires a symmetric W")
    if kind == "extra" and W_tilde is None:
        W_tilde = (np.eye(n) + W.entries) / 2.0
    return EngineConfig(kind, alphas, betas, A=A, B=B, W=W, W_tilde=W_tilde)


@dataclass(frozen=True)
class AlgorithmState:
    """Stacked per-agent state; unused fields stay None for a given engine."""

    x: np.ndarray                 # n x p current estimates
    x_prev: np.ndarray = None     # n x p previous estimates
    y: np.ndarray = None          # n x p gradient tracker
    grads: np.ndarray = None      # cached local gradients at x
    grads_prev: np.ndarray = None  # cached local gradients at x_prev
    z: np.ndarray = None          # transformed/scaled estimates
    w: np.ndarray = None          # n-vector eigenvector estimate
    V: np.ndarray = None          # n x n eigenvector-estimate matrix
    k: int = 0


def _check_shapes(x0, n, p):
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n, p):
        raise EngineError(f"x0 must have shape ({n}, {p}), got {x0.shape}")
    return x0


def init_state(cfg, suite, x0):
    """Bootstrap conventions: x_prev = 0, y_0 = local gradients at x_0.

    A kind without weight slots holds one centralized iterate. extra and
    ab_extra prime their second history on the first step call.
    """
    if not ENGINES[cfg.kind].weights:
        x0 = _check_shapes(x0, 1, suite.p)
        return AlgorithmState(x=x0, x_prev=np.zeros_like(x0))
    x0 = _check_shapes(x0, suite.n, suite.p)
    grads = suite.stacked_gradient(x0)
    state = AlgorithmState(
        x=x0, x_prev=np.zeros_like(x0), y=grads.copy(), grads=grads
    )
    if cfg.kind == "addopt":
        return replace(state, z=x0.copy(), w=np.ones(suite.n))
    if cfg.kind == "frost":
        return replace(state, V=np.eye(suite.n))
    if cfg.kind == "transformed_exact":
        return replace(state, z=(suite.n * cfg.A.pi_r)[:, None] * x0)
    return state


def abm_step(state, cfg, suite):
    """Heavy-ball gradient tracking with row/column-stochastic weights."""
    a = cfg.A.entries
    b = cfg.B.entries
    x_new = (
        a @ state.x
        - cfg.alphas[:, None] * state.y
        + cfg.betas[:, None] * (state.x - state.x_prev)
    )
    grads_new = suite.stacked_gradient(x_new)
    y_new = b @ state.y + grads_new - state.grads
    return replace(
        state, x=x_new, x_prev=state.x, y=y_new, grads=grads_new, k=state.k + 1
    )


# ab is abm with beta = 0, which make_config fixes for it
ab_step = abm_step


def ds_tracking_step(state, cfg, suite):
    """Doubly-stochastic gradient tracking (Aug-DGM / DIGing updates)."""
    w = cfg.W.entries
    x_new = w @ state.x - cfg.alphas[:, None] * state.y
    grads_new = suite.stacked_gradient(x_new)
    y_new = w @ state.y + grads_new - state.grads
    return replace(
        state, x=x_new, x_prev=state.x, y=y_new, grads=grads_new, k=state.k + 1
    )


def extra_step(state, cfg, suite):
    """EXTRA: two-history update with symmetric doubly-stochastic weights."""
    w = cfg.W.entries
    alpha = cfg.alphas[0]
    if state.k == 0:
        x_new = w @ state.x - alpha * state.grads
    else:
        x_new = (
            state.x + w @ state.x
            - cfg.W_tilde @ state.x_prev
            - alpha * (state.grads - state.grads_prev)
        )
    grads_new = suite.stacked_gradient(x_new)
    return replace(
        state, x=x_new, x_prev=state.x,
        grads=grads_new, grads_prev=state.grads, k=state.k + 1,
    )


def ab_extra_form_step(state, cfg, suite):
    """Gradient tracking rewritten as a two-history EXTRA-style recursion.

    Produces the same x-sequence as ab_step under an identical scalar
    step-size; the first call performs one ab_step to align histories.
    """
    a = cfg.A.entries
    b = cfg.B.entries
    alpha = cfg.alphas[0]
    if state.k == 0:
        x_new = a @ state.x - alpha * state.grads  # y_0 = local gradients
    else:
        x_new = (
            (a + b) @ state.x
            - b @ (a @ state.x_prev)
            - alpha * (state.grads - state.grads_prev)
        )
    grads_new = suite.stacked_gradient(x_new)
    return replace(
        state, x=x_new, x_prev=state.x,
        grads=grads_new, grads_prev=state.grads, k=state.k + 1,
    )


def addopt_step(state, cfg, suite):
    """Column-stochastic tracking with eigenvector estimation (ADD-OPT style).

    The same column-stochastic matrix drives the scaled state, the
    eigenvector estimate, and the tracker; each agent divides by its own
    estimated Perron component.
    """
    b = cfg.B.entries
    z_new = b @ state.z - cfg.alphas[:, None] * state.y
    w_new = b @ state.w
    if np.any(w_new <= EIGEN_ESTIMATE_FLOOR):
        raise EngineError("eigenvector estimate degenerated to zero")
    x_new = z_new / w_new[:, None]
    grads_new = suite.stacked_gradient(x_new)
    y_new = b @ state.y + grads_new - state.grads
    return replace(
        state, x=x_new, x_prev=state.x, y=y_new, grads=grads_new,
        z=z_new, w=w_new, k=state.k + 1,
    )


def frost_step(state, cfg, suite):
    """Row-stochastic tracking with eigenvector estimation (FROST style).

    Each agent i runs V_{k+1} = A V_k from V_0 = I and scales its local
    gradient by the diagonal entry [V_k]_ii, which converges to the i-th
    left-Perron component of A.
    """
    a = cfg.A.entries
    x_new = a @ state.x - cfg.alphas[:, None] * state.y
    v_new = a @ state.V
    d_new = np.diag(v_new)
    if np.any(d_new <= EIGEN_ESTIMATE_FLOOR):
        raise EngineError("eigenvector estimate degenerated to zero")
    grads_new = suite.stacked_gradient(x_new) / d_new[:, None]
    y_new = a @ state.y + grads_new - state.grads
    return replace(
        state, x=x_new, x_prev=state.x, y=y_new, grads=grads_new,
        V=v_new, k=state.k + 1,
    )


def transformed_ab_exact_step(state, cfg, suite):
    """Column-stochastic-only rewrite of gradient tracking with the exact
    left-Perron scaling of A (no eigenvector estimation)."""
    scale = suite.n * cfg.A.pi_r
    b_t = scale[:, None] * cfg.A.entries / scale[None, :]
    alpha = cfg.alphas[0]
    z_new = b_t @ state.z - alpha * (scale[:, None] * state.y)
    x_new = z_new / scale[:, None]
    grads_new = suite.stacked_gradient(x_new)
    y_new = cfg.B.entries @ state.y + grads_new - state.grads
    return replace(
        state, x=x_new, x_prev=state.x, y=y_new, grads=grads_new,
        z=z_new, k=state.k + 1,
    )


def centralized_gd_step(x, alpha, suite):
    return x - alpha * suite.global_gradient(x)


def centralized_hb_step(x, x_prev, alpha, beta, suite):
    x_new = x - alpha * suite.global_gradient(x) + beta * (x - x_prev)
    return x_new, x


def polyak_parameters(mu, lip):
    """Heavy-ball defaults: alpha = 4/(sqrt(l)+sqrt(mu))^2 and the squared
    local accelerated rate as momentum."""
    alpha = 4.0 / (np.sqrt(lip) + np.sqrt(mu)) ** 2
    q = lip / mu
    beta = ((np.sqrt(q) - 1.0) / (np.sqrt(q) + 1.0)) ** 2
    return alpha, beta


def centralized_step(state, cfg, suite):
    """Heavy-ball on the global cost; gd is its beta = 0 setting."""
    x_new, _ = centralized_hb_step(
        state.x[0], state.x_prev[0], cfg.alphas[0], cfg.betas[0], suite
    )
    return replace(state, x=x_new[None, :], x_prev=state.x, k=state.k + 1)


@dataclass(frozen=True)
class EngineSpec:
    """The facts about one engine kind that the runner and harness read."""

    step: object                # (state, cfg, suite) -> next state
    weights: tuple = ()         # weight slots read; none means centralized
    tracking: bool = False      # y must preserve the gradient sum
    scalar_alpha: bool = False  # needs one step-size shared by all agents
    momentum: bool = False      # reads beta; make_config zeroes it otherwise


ENGINES = {
    "abm": EngineSpec(abm_step, ("A", "B"), tracking=True, momentum=True),
    "ab": EngineSpec(abm_step, ("A", "B"), tracking=True),
    "ds_tracking": EngineSpec(ds_tracking_step, ("W",), tracking=True),
    "extra": EngineSpec(extra_step, ("W",), scalar_alpha=True),
    "ab_extra": EngineSpec(ab_extra_form_step, ("A", "B"), scalar_alpha=True),
    "addopt": EngineSpec(addopt_step, ("B",)),
    "frost": EngineSpec(frost_step, ("A",)),
    "transformed_exact": EngineSpec(
        transformed_ab_exact_step, ("A", "B"), scalar_alpha=True
    ),
    "heavy_ball": EngineSpec(centralized_step, scalar_alpha=True,
                             momentum=True),
    "gd": EngineSpec(centralized_step, scalar_alpha=True),
}

# Views of ENGINES by field; run() looks its step up here at call time.
ENGINE_WEIGHTS = {kind: spec.weights for kind, spec in ENGINES.items()}
STEP_FUNCTIONS = {kind: spec.step for kind, spec in ENGINES.items()}


def tracking_error(state, suite):
    """Norm of sum_i y_i - sum_i grad f_i(x_i); zero in exact arithmetic
    for the gradient-tracking engines."""
    v = state.y.sum(axis=0) - state.grads.sum(axis=0)
    return math.sqrt(v @ v)  # np.linalg.norm(v), bit for bit


def step_condition_lambda(alphas, pi_r, pi_c, n, mu, lip):
    """Admissibility of the Perron-weighted effective step and its
    centralized contraction factor.

    s = pi_r^T diag(alpha) pi_c must lie in (0, 2/(n l)); the factor is
    max(|1 - mu n s|, |1 - l n s|).
    """
    alphas = np.asarray(alphas, dtype=float)
    s = float(pi_r @ (alphas * pi_c))
    ok = 0.0 < s < 2.0 / (n * lip)
    lam = max(abs(1.0 - mu * n * s), abs(1.0 - lip * n * s))
    return ok, lam


def _canonical_kind(kind):
    """The first ENGINES kind that steps like `kind`: kinds differing only
    in whether they read beta (ab and abm, gd and heavy_ball) share runs,
    since make_config zeroes beta for the one without momentum."""
    spec = ENGINES[kind]
    return next(k for k, s in ENGINES.items()
                if (s.step, s.weights, s.tracking)
                == (spec.step, spec.weights, spec.tracking))


def _run_key(cfg, x0, max_iter, stop_residual):
    """Everything a run's trajectory depends on, besides its suite: a
    digest of the arrays (hashed in place, not copied) plus the limits."""
    h = hashlib.sha256(_canonical_kind(cfg.kind).encode())
    x0 = np.ascontiguousarray(x0, dtype=float)
    h.update(repr(x0.shape).encode())
    arrays = [cfg.alphas, cfg.betas, x0]
    arrays += [None if m is None else m.entries for m in (cfg.A, cfg.B, cfg.W)]
    for a in arrays + [cfg.W_tilde]:
        h.update(b"-" if a is None else np.ascontiguousarray(a).data)
    return h.hexdigest(), int(max_iter), float(stop_residual)


def run(cfg, suite, x0, max_iter, stop_residual=0.0, cache=None):
    """Iterate an engine, recording the average residual per iteration.

    Stops at max_iter, below stop_residual, or on divergence (see
    analysis.iterate). `cache` is a dict holding the runs of one suite:
    a run whose canonical kind, alphas, betas, weights, x0, max_iter and
    stop_residual are already in it is not computed again, and comes back
    as a trace sharing the cached records with its own meta
    (`cached=True`).
    """
    if cache is None:
        return _run(cfg, suite, x0, max_iter, stop_residual)
    key = _run_key(cfg, x0, max_iter, stop_residual)
    hit = cache.get(key)
    if hit is None:
        cache[key] = trace = _run(cfg, suite, x0, max_iter, stop_residual)
        return trace.with_meta(dict(trace.meta))
    return hit.with_meta({"engine": cfg.kind, "config": cfg.digest(),
                        "termination": hit.meta["termination"],
                        "cached": True})


def _run(cfg, suite, x0, max_iter, stop_residual):
    """The run itself; run() adds the cache around it."""
    x_star = suite.minimizer()
    step = STEP_FUNCTIONS[cfg.kind]
    track = ENGINES[cfg.kind].tracking

    def measure(st):
        res = average_residual(st.x, x_star)
        if track and np.isfinite(res):
            return res, tracking_error(st, suite)
        return res, None

    return iterate(
        init_state(cfg, suite, x0), lambda st: step(st, cfg, suite), measure,
        max_iter, stop_residual, {"engine": cfg.kind, "config": cfg.digest()},
    )


def tune_parameters(kind, suite, x0, alpha_grid, beta_grid, max_iter,
                    threshold, cache=None, **matrices):
    """Grid search minimizing iterations to the residual threshold.

    Ties go to the first grid point. Returns (alpha*, beta*, iterations*),
    all None when no grid point reaches the threshold; a point that raises
    EngineError or diverges never reaches it. Every point runs through
    `cache` (see run).
    """
    def iterations(alpha, beta):
        try:
            cfg = make_config(kind, suite.n, alpha, beta, **matrices)
            trace = run(cfg, suite, x0, max_iter, threshold, cache=cache)
        except EngineError:
            return float("inf")
        iters = iterations_to_threshold(trace, threshold)
        return float("inf") if iters is None else iters

    alpha, beta, iters, _ = grid_argmin(alpha_grid, beta_grid, iterations)
    return alpha, beta, None if alpha is None else iters
