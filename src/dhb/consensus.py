"""Average-consensus systems over directed graphs and their spectral tuning.

The momentum form iterates a 3-block linear system on [x_{k+1}; y_{k+1}; x_k].
Surplus consensus is its zero-momentum setting without the x_k block, a
2-block system on [x_{k+1}; y_{k+1}] (the paper's form differs by a diagonal
sign change on y). Convergence and its speed are governed by the spectral
radius of H - H_inf, where H_inf is the power limit of the system matrix.
Consensus on p-vectors is p independent scalar runs, so the systems do not
depend on p: the coordinates are the columns of one stacked state.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import average_residual, grid_argmin, iterate
from .errors import DhbError
from . import weights as wt


class ConsensusError(DhbError):
    pass


@dataclass(frozen=True)
class ConsensusSystem:
    H: np.ndarray
    H_inf: np.ndarray
    alpha: float
    beta: float
    n: int
    form: str  # "abmc" or "surplus"


def _momentum_system(A, B, alpha, beta):
    """(H, H_inf) of the momentum system on [x_{k+1}; y_{k+1}; x_k]."""
    if A.kind != wt.ROW or B.kind != wt.COLUMN:
        raise ConsensusError("need a row-stochastic A and column-stochastic B")
    if not (0 <= alpha < np.inf and 0 <= beta < np.inf):
        raise ConsensusError("alpha and beta must be finite and nonnegative")
    n = A.n
    eye = np.eye(n)
    zero = np.zeros((n, n))
    h = np.block([
        [A.entries + beta * eye, -alpha * eye, -beta * eye],
        [A.entries + beta * eye - eye, B.entries - alpha * eye, -beta * eye],
        [eye, zero, zero],
    ])
    w_inf = np.full((n, n), 1.0 / n)
    h_inf = np.block([
        [w_inf, -w_inf, zero],
        [zero, zero, zero],
        [w_inf, -w_inf, zero],
    ])
    return h, h_inf


def abmc_build(A, B, alpha, beta):
    """Momentum consensus system on the stacked state [x_{k+1}; y_{k+1}; x_k]."""
    h, h_inf = _momentum_system(A, B, alpha, beta)
    return ConsensusSystem(h, h_inf, float(alpha), float(beta), A.n, "abmc")


def surplus_build(A, B, alpha):
    """Surplus consensus system on the stacked state [x_{k+1}; y_{k+1}]: the
    leading two blocks of the momentum system at beta = 0."""
    h, h_inf = _momentum_system(A, B, alpha, 0.0)
    m = 2 * A.n
    return ConsensusSystem(h[:m, :m].copy(), h_inf[:m, :m].copy(),
                           float(alpha), 0.0, A.n, "surplus")


def initial_stack(sys_, values):
    """Stacked initial state [x_0; y_0; x_{-1}] = [values; 0; values], cut to
    the system size; x_{-1} = x_0 makes the first momentum difference zero.
    Values of shape (n,) or (n, p) give one column per coordinate."""
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or len(values) != sys_.n:
        raise ConsensusError(f"values must have shape ({sys_.n},) or "
                             f"({sys_.n}, p), not {values.shape}")
    values = values.reshape(sys_.n, -1)
    stack = np.concatenate([values, np.zeros_like(values), values])
    return stack[: sys_.H.shape[0]]


def consensus_run(sys_, values, max_iter, tol=0.0):
    """Iterate the linear system from values of shape (n,) or (n, p),
    recording (1/n) sum_i ||x_i - mean(values)||."""
    state = initial_stack(sys_, values)
    mean = state[:sys_.n].mean(axis=0)
    return iterate(
        state, lambda s: sys_.H @ s,
        lambda s: (average_residual(s[:sys_.n], mean), None), max_iter, tol,
        {"engine": f"consensus_{sys_.form}", "alpha": sys_.alpha,
         "beta": sys_.beta},
    )


def effective_radius(sys_):
    """Spectral radius of H - H_inf via dense eigendecomposition.

    The matrix is nonsymmetric, so a QR-type eigensolve is the reliable
    oracle at desk scale; convergence to the exact average holds iff the
    returned value is below one.
    """
    return float(np.max(np.abs(np.linalg.eigvals(sys_.H - sys_.H_inf))))


def grid_search_params(A, B, alpha_grid, beta_grid, form):
    """Exhaustive (alpha, beta) search minimizing the effective radius.

    beta is pinned to 0 for the surplus form. Ties go to the first grid
    point. Returns (alpha*, beta*, radius*, rows) where rows lists
    (alpha, beta, radius) for every grid point.
    """
    if form == "abmc":
        return grid_argmin(alpha_grid, beta_grid, lambda alpha, beta:
                           effective_radius(abmc_build(A, B, alpha, beta)))
    if form == "surplus":
        return grid_argmin(alpha_grid, [0.0], lambda alpha, _:
                           effective_radius(surplus_build(A, B, alpha)))
    raise ConsensusError(f"unknown form {form!r}")
