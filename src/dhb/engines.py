"""Distributed and centralized first-order algorithm engines.

Each kind's step function consumes a state and returns a new one: one
synchronous round of neighbor exchange plus local updates at all agents.
run() computes the kinds on abm_step (abm, ab, ds_tracking) with a fused
stepper instead, which applies abm_step's operations in place in blocks of
preallocated buffers, each round's exchange [A x; B y] as one stacked
product (a matmul, or on a large sparse graph a gather of in-neighbors);
the step functions stay the per-step definition. The fused stepper steps
a stack of configs that share the weights and x0: a run is a stack of
one, and tune_parameters runs a grid's uncached points as one stack,
dropping each point from it as it stops.
"""

import contextlib
import hashlib
import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .analysis import (average_residual, grid_argmin, iterate_blocks,
                       iterations_to_threshold, tracking_error)
from .errors import DhbError
from . import weights as wt

EIGEN_ESTIMATE_FLOOR = 1e3 * np.finfo(float).tiny


class EngineError(DhbError):
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

    def digest(self):
        """Hash of the numbers the step reads: step-sizes, momenta, weights.
        The kind is not in it, so ab and abm at beta = 0 share it."""
        weights = (None if m is None else m.digest
                   for m in (self.A, self.B, self.W))
        return _digest(self.alphas, self.betas, *weights)

    @cached_property
    def two_history_maps(self):
        """two_history_step's (F, C, P), built once: EXTRA's (W, I + W,
        (I + W)/2) given W, else AB's (A, A + B, BA). EXTRA's C and AB's P
        stay the products x + W x and B (A x); one matrix rounds otherwise."""
        if self.W is not None:
            w = self.W.entries
            w_tilde = (np.eye(self.W.n) + w) / 2.0
            return w.__matmul__, lambda x: x + w @ x, w_tilde.__matmul__
        a, b = self.A.entries, self.B.entries
        return a.__matmul__, (a + b).__matmul__, lambda x: b @ (a @ x)

    @cached_property
    def perron_similarity(self):
        """transformed_exact's scale s = n pi_r and diag(s) A diag(s)^-1."""
        scale = self.A.n * self.A.pi_r
        return scale, scale[:, None] * self.A.entries / scale[None, :]


def _digest(*arrays):
    """sha256 hex of arrays (or bytes) hashed in place, not copied; None
    hashes as a placeholder, so an absent weight slot keeps its place."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(b"-" if a is None else np.ascontiguousarray(a).data)
    return h.hexdigest()


def make_config(kind, n, alpha, beta=0.0, A=None, B=None, W=None):
    if kind not in ENGINES:
        raise EngineError(f"unknown engine kind {kind!r}")
    spec = ENGINES[kind]
    alphas, betas = _per_agent(alpha, n), _per_agent(beta, n)
    if not (np.all((alphas >= 0) & (alphas < np.inf))
            and np.all((betas >= 0) & (betas < np.inf))):
        raise EngineError("step-sizes and momenta must be finite and "
                          "nonnegative")
    if not np.any(alphas > 0):
        raise EngineError("at least one step-size must be positive")
    if spec.scalar_alpha and np.ptp(alphas) != 0:
        raise EngineError(f"{kind} requires an identical scalar step-size")
    if not spec.momentum:
        betas = np.zeros(n)  # so ab is abm, and gd is heavy_ball, at beta 0
    # only the slots the step reads, so that the digest, which the run
    # cache keys on with the step, fixes every map derived from them
    slots = {slot: {"A": A, "B": B, "W": W}[slot] for slot in spec.weights}
    for slot, m in slots.items():
        if getattr(m, "kind", None) != wt.SLOTS[slot][0]:
            raise EngineError(f"{kind} needs a {wt.SLOTS[slot][0]}-stochastic"
                              f" matrix {slot}")
        if m.n != n:
            raise EngineError(f"{kind} needs {slot} to be {n} x {n}, not "
                              f"{m.n} x {m.n}")
    if kind == "extra" and not np.array_equal(W.entries, W.entries.T):
        raise EngineError("extra requires a symmetric W")
    if kind == "ds_tracking":
        slots = {"A": W, "B": W}  # DIGing / Aug-DGM is ab on (W, W)
    return EngineConfig(kind, alphas, betas, **slots)


def _per_agent(value, n):
    """value as n floats: one number for every agent, or one per agent."""
    try:
        values = np.asarray(value, dtype=float)
        if values.shape in ((), (n,)):
            return np.broadcast_to(values, (n,)).copy()
    except (TypeError, ValueError):
        pass
    raise EngineError("step-sizes and momenta must be a number or a list of "
                      f"one number per agent ({n}), not {value!r}")


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


def init_state(cfg, suite, x0):
    """Bootstrap conventions: x_prev = 0, y_0 = local gradients at x_0.

    Every kind takes a config of the suite's n agents and an n x p x0; a
    kind without weight slots holds one centralized iterate, started from
    x0's first row. extra and ab_extra prime their second history on the
    first step call, the one whose state has no grads_prev.
    """
    x0 = np.asarray(x0, dtype=float)
    if len(cfg.alphas) != suite.n:
        raise EngineError(f"the config has {len(cfg.alphas)} agents, the "
                          f"suite {suite.n}")
    if x0.shape != (suite.n, suite.p):
        raise EngineError(f"x0 must have shape ({suite.n}, {suite.p}), got "
                          f"{x0.shape}")
    if not ENGINES[cfg.kind].weights:
        return AlgorithmState(x=x0[:1], x_prev=np.zeros_like(x0[:1]))
    grads = suite.stacked_gradient(x0)
    state = AlgorithmState(
        x=x0, x_prev=np.zeros_like(x0), y=grads.copy(), grads=grads
    )
    if cfg.kind == "addopt":
        return replace(state, z=x0.copy(), w=np.ones(suite.n))
    if cfg.kind == "frost":
        return replace(state, V=np.eye(suite.n))
    if cfg.kind == "transformed_exact":
        return replace(state, z=cfg.perron_similarity[0][:, None] * x0)
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
    return replace(state, x=x_new, x_prev=state.x, y=y_new, grads=grads_new)


# ab is abm with beta = 0, and ds_tracking is ab on (A, B) = (W, W); make_config
# fixes both
ab_step = ds_tracking_step = abm_step


def two_history_step(state, cfg, suite):
    """x_{k+1} = C x_k - P x_{k-1} - alpha (g_k - g_{k-1}) after a first
    step x_1 = F x_0 - alpha g_0, for (F, C, P) = cfg.two_history_maps."""
    first, current, previous = cfg.two_history_maps
    alpha = cfg.alphas[0]
    if state.grads_prev is None:
        x_new = first(state.x) - alpha * state.grads
    else:
        x_new = (current(state.x) - previous(state.x_prev)
                 - alpha * (state.grads - state.grads_prev))
    grads_new = suite.stacked_gradient(x_new)
    return replace(state, x=x_new, x_prev=state.x,
                   grads=grads_new, grads_prev=state.grads)


# extra and ab_extra differ only in their maps; ab_extra gives ab_step's
# x-sequence under one scalar step-size
extra_step = ab_extra_form_step = two_history_step


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
    return replace(state, x=x_new, x_prev=state.x, y=y_new, grads=grads_new,
                   z=z_new, w=w_new)


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
    return replace(state, x=x_new, x_prev=state.x, y=y_new, grads=grads_new,
                   V=v_new)


def transformed_ab_exact_step(state, cfg, suite):
    """Column-stochastic-only rewrite of gradient tracking with the exact
    left-Perron scaling of A (no eigenvector estimation)."""
    scale, b_t = cfg.perron_similarity
    alpha = cfg.alphas[0]
    z_new = b_t @ state.z - alpha * (scale[:, None] * state.y)
    x_new = z_new / scale[:, None]
    grads_new = suite.stacked_gradient(x_new)
    y_new = cfg.B.entries @ state.y + grads_new - state.grads
    return replace(state, x=x_new, x_prev=state.x, y=y_new, grads=grads_new,
                   z=z_new)


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
    x_new, x = centralized_hb_step(state.x, state.x_prev, cfg.alphas[0],
                                   cfg.betas[0], suite)
    return replace(state, x=x_new, x_prev=x)


@dataclass(frozen=True)
class EngineSpec:
    """The facts about one engine kind that the runner and harness read."""

    step: object                # (state, cfg, suite) -> next state
    weights: tuple = ()         # weight slots read; none means centralized
    scalar_alpha: bool = False  # needs one step-size shared by all agents
    momentum: bool = False      # reads beta; make_config zeroes it otherwise
    defaults: object = None     # suite -> (alpha, beta) without alpha or grid


ENGINES = {
    "abm": EngineSpec(abm_step, ("A", "B"), momentum=True),
    "ab": EngineSpec(abm_step, ("A", "B")),
    "ds_tracking": EngineSpec(abm_step, ("W",)),
    "extra": EngineSpec(two_history_step, ("W",), scalar_alpha=True),
    "ab_extra": EngineSpec(two_history_step, ("A", "B"), scalar_alpha=True),
    "addopt": EngineSpec(addopt_step, ("B",)),
    "frost": EngineSpec(frost_step, ("A",)),
    "transformed_exact": EngineSpec(
        transformed_ab_exact_step, ("A", "B"), scalar_alpha=True
    ),
    "heavy_ball": EngineSpec(
        centralized_step, scalar_alpha=True, momentum=True,
        defaults=lambda s: polyak_parameters(s.mu, s.lip)),
    "gd": EngineSpec(centralized_step, scalar_alpha=True,
                     defaults=lambda s: (2.0 / (s.mu + s.lip), 0.0)),
}

# Views of ENGINES by field; run() looks its step up here at call time.
ENGINE_WEIGHTS = {kind: spec.weights for kind, spec in ENGINES.items()}
STEP_FUNCTIONS = {kind: spec.step for kind, spec in ENGINES.items()}


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


def run(cfg, suite, x0, max_iter, stop_residual=0.0, cache=None):
    """Iterate an engine, recording the average residual per iteration.

    Stops at max_iter, below stop_residual, or on divergence (see
    analysis.iterate_blocks). `cache` is a dict holding the runs of one
    suite (None: a fresh one): a run whose step function, alphas, betas,
    weights, x0, max_iter and stop_residual are already in it is not
    computed again, and comes back as a trace sharing the cached records
    with its own meta (`cached=True`). Kinds that share a step share runs:
    ab and abm, gd and heavy_ball, since make_config zeroes beta for the
    one without momentum.
    """
    cache = {} if cache is None else cache
    key = _run_key(cfg, x0, max_iter, stop_residual)
    hit = cache.get(key)
    if hit is None:
        cache[key] = trace = _run(cfg, suite, x0, max_iter, stop_residual)
        return trace.with_meta(dict(trace.meta))
    return hit.with_meta(dict(hit.meta, engine=cfg.kind, cached=True))


def _run_key(cfg, x0, max_iter, stop_residual):
    """Everything the trajectory depends on, besides the suite."""
    x0 = np.asarray(x0, dtype=float)
    return (ENGINES[cfg.kind].step, cfg.digest(), x0.shape, _digest(x0),
            int(max_iter), float(stop_residual))


def _run(cfg, suite, x0, max_iter, stop_residual):
    """The run itself; run() adds the cache around it. A per-step kind
    measures a block of states at once; a step that raises ends the block
    and raises on the next call, unless a record before it stops the run."""
    if ENGINES[cfg.kind].step is abm_step:
        return _fused_abm([cfg], suite, x0, max_iter, stop_residual)[0]
    x_star = suite.minimizer()
    state, step = init_state(cfg, suite, x0), STEP_FUNCTIONS[cfg.kind]
    rows = max(1, min(BLOCK_ROWS, BLOCK_FLOATS // state.x.size))
    xs, failed = np.empty((rows,) + state.x.shape), []

    def advance(k, m, _):
        nonlocal state
        if failed:
            raise failed[0]
        for i in range(min(m, len(xs))):
            try:
                state = step(state, cfg, suite) if k + i > 0 else state
            except EngineError as exc:
                failed.append(exc)
                m = i  # the records before it
                break
            xs[i] = state.x
        m = min(m, len(xs))
        return [average_residual(xs[:m], x_star).tolist()], [[math.nan] * m]

    meta = {"engine": cfg.kind, "config": cfg.digest()}
    return iterate_blocks(advance, max_iter, stop_residual, [meta])[0]


BLOCK_ROWS, BLOCK_FLOATS = 64, 16384  # most steps and floats of x per block


def _fused_abm(cfgs, suite, x0, max_iter, stop_residual):
    """The traces of fused-kind configs sharing (A, B) and x0, run as one
    stack of G points: abm_step's operations, in its order, in place through
    per-step views (built once per stack) of an [x; y] buffer (rows + 2, 2,
    G, n, p) and a gradient buffer, rows 0 and 1 holding the records before
    a block. Each round's exchange [A x; B y] is one product: an (n x n)(n x
    p) product per matrix and point, as a stack of one takes. A point that
    stopped leaves the stack, which shrinks, before the next block."""
    x_star = suite.minimizer()
    state = init_state(cfgs[0], suite, x0)
    n, p = state.x.shape
    # (G, n, p) copies: the broadcasts' products, at half the cost
    alphas, betas = (np.stack([np.broadcast_to(v[:, None], (n, p))
                               for v in vs]) for vs in
                     zip(*((cfg.alphas, cfg.betas) for cfg in cfgs)))
    x_star = np.broadcast_to(x_star, (n, p)).copy()
    gradient = suite.stacked_gradient

    def restack(points, xy, grads):
        """Buffers, per-step views, exchange, scratch and coefficients of a
        stack of the points, xy and grads their records before a block. The
        exchange takes XY[i] as 2 g n x p blocks, for A g times, then B."""
        g = len(points)
        rows = max(1, min(BLOCK_ROWS, BLOCK_FLOATS // (g * n * p)))
        XY, D = np.empty((rows + 2, 2, g, n, p)), np.empty((rows + 2, g, n, p))
        XY[:2], D[:2], X, Y = xy, grads, XY[:, 0], XY[:, 1]
        steps = [(XY[i - 1].reshape(-1, n, p), XY[i].reshape(-1, n, p),
                  X[i - 2], X[i - 1], Y[i - 1], X[i], Y[i], D[i - 1], D[i])
                 for i in range(2, rows + 2)]
        exchange = wt.stacked_multiplier([cfgs[0].A] * g + [cfgs[0].B] * g, p)
        return (points, XY, D, steps, exchange, np.empty((g, n, p)),
                alphas[points], betas[points])

    def advance(k, m, live):
        nonlocal stack
        if live != stack[0]:
            keep = [stack[0].index(j) for j in live]
            stack = restack(live, stack[1][:2, :, keep], stack[2][:2, keep])
        _, XY, D, steps, exchange, tmp, alphas, betas = stack
        lo = 1 if k == 0 else 2  # record 0 is not stepped to
        hi = lo + min(m, len(steps))
        for xy, xy_new, x_prev, x, y, x_new, y_new, g, g_new in steps[:hi - 2]:
            exchange(xy, xy_new)
            np.multiply(alphas, y, tmp)
            np.subtract(x_new, tmp, x_new)
            np.subtract(x, x_prev, tmp)
            np.multiply(betas, tmp, tmp)
            np.add(x_new, tmp, x_new)
            gradient(x_new, g_new)
            np.add(y_new, g_new, y_new)
            np.subtract(y_new, g, y_new)
        residuals = average_residual(XY[lo:hi, 0], x_star)
        errors = tracking_error(XY[lo:hi, 1], D[lo:hi])
        XY[:2], D[:2] = XY[hi - 2:hi], D[hi - 2:hi]
        return residuals.T.tolist(), errors.T.tolist()

    stack = restack(list(range(len(cfgs))), np.array([
        [state.x_prev, state.y], [state.x, state.y]])[:, :, None],
        np.array([state.grads] * 2)[:, None])
    metas = [{"engine": cfg.kind, "config": cfg.digest()} for cfg in cfgs]
    return iterate_blocks(advance, max_iter, stop_residual, metas)


def tune_parameters(kind, suite, x0, alpha_grid, beta_grid, max_iter,
                    threshold, cache=None, **matrices):
    """Grid search minimizing iterations to the residual threshold.

    Ties go to the first grid point. Returns (alpha*, beta*, iterations*),
    all None when no grid point reaches the threshold; a point that raises
    EngineError or diverges never reaches it. Every point runs through
    `cache` (see run); a fused kind's points that miss it run first, as one
    stack (_fused_abm), and are stored under run's keys.
    """
    cache = {} if cache is None else cache
    if kind in ENGINES and ENGINES[kind].step is abm_step:
        missing = {}  # run key -> config of each point not in the cache
        for alpha, beta in itertools.product(alpha_grid, beta_grid):
            with contextlib.suppress(EngineError):
                cfg = make_config(kind, suite.n, alpha, beta, **matrices)
                key = _run_key(cfg, x0, max_iter, threshold)
                if key not in cache:
                    missing.setdefault(key, cfg)
        with contextlib.suppress(EngineError):  # each run below raises it
            if missing:
                cache.update(zip(missing, _fused_abm(
                    list(missing.values()), suite, x0, max_iter, threshold)))

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
