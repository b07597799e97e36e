"""The entry points of the engine and consensus runs refuse malformed input
with a DhbError subclass, never with numpy's or Python's own errors: mixed
values (numbers with nan and inf, bools, strings, None, complex numbers,
0-d, empty, misshapen and ragged arrays and lists) fed to
engines.init_state, consensus.build_system and consensus.initial_stack."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dhb import consensus as cs
from dhb import engines as eng
from dhb import graph as gr
from dhb import harness as hs
from dhb import weights as wt
from dhb.errors import DhbError

CONTRACT_SETTINGS = settings(derandomize=True, max_examples=100,
                             deadline=None)
N, P = 5, 2
# small numbers, so that a well-formed x0 cannot overflow the gradient: an
# overflow warns, it does not raise
NUMBERS = st.one_of(st.integers(-3, 3), st.sampled_from(
    [0.0, 0.5, -2.0, math.nan, math.inf, -math.inf]))
ENTRIES = st.one_of(NUMBERS, st.booleans(), st.text(max_size=2), st.none(),
                    st.just(1 + 2j))
SHAPES = st.sampled_from([(), (0,), (0, P), (N,), (N, P), (N, 1), (N, 3),
                          (N + 1, P), (P, N), (N, P, 1)])
RAGGED = st.sampled_from([[[1.0, 2.0], [3.0]], [1.0, [2.0]],
                          [[0.5] * P] * (N - 1) + [[0.5]]])


@st.composite
def nested(draw, entries):
    """Nested lists of one of SHAPES (a scalar for shape ())."""
    shape = draw(SHAPES)
    size = math.prod(shape)
    flat = draw(st.lists(entries, min_size=size, max_size=size))
    return np.array(flat, dtype=object).reshape(shape).tolist()


MIXED = st.one_of(ENTRIES, RAGGED, nested(NUMBERS), nested(ENTRIES),
                  nested(NUMBERS).map(np.array),
                  nested(ENTRIES).map(np.array))


def graph(n, directed):
    return gr.generate_nearest_neighbor(n, 2, 0.1, seed=3, directed=directed)


SUITE = hs.build_quadratic(N, P, 10.0, 4)
CONFIGS = {kind: eng.make_config(kind, N, 0.1, 0.2, **hs.build_weights(
    graph(N, "W" not in eng.ENGINE_WEIGHTS[kind]),
    set(eng.ENGINE_WEIGHTS[kind]))) for kind in eng.ENGINES}
A = wt.uniform_row_stochastic(graph(N, True))
B = wt.uniform_column_stochastic(graph(N, True))
# both kinds, another size, and a doubly-stochastic matrix
MATRICES = [A, B, wt.uniform_row_stochastic(graph(N + 1, True)),
            wt.uniform_column_stochastic(graph(N + 1, True)),
            wt.laplacian_doubly_stochastic(graph(N, False))]
SYSTEMS = [cs.abmc_build(A, B, 0.2, 0.1), cs.surplus_build(A, B, 0.2)]
WEIGHTS = st.one_of(st.sampled_from(MATRICES), MIXED)


def refused_or_built(call, *args):
    """call(*args), or None if it raised a DhbError; any other error fails."""
    try:
        return call(*args)
    except DhbError:
        return None


@CONTRACT_SETTINGS
@given(st.sampled_from(sorted(CONFIGS)), MIXED)
def test_init_state_refuses_malformed_x0_with_a_typed_error(kind, x0):
    refused_or_built(eng.init_state, CONFIGS[kind], SUITE, x0)


@CONTRACT_SETTINGS
@given(WEIGHTS, WEIGHTS, st.one_of(st.floats(), MIXED),
       st.one_of(st.floats(), MIXED),
       st.one_of(st.sampled_from(["abmc", "surplus"]), MIXED))
def test_build_system_refuses_malformed_input_with_a_typed_error(
        A, B, alpha, beta, form):
    refused_or_built(cs.build_system, A, B, alpha, beta, form)


@CONTRACT_SETTINGS
@given(st.sampled_from(SYSTEMS), MIXED)
def test_initial_stack_refuses_malformed_values_with_a_typed_error(sys_,
                                                                   values):
    refused_or_built(cs.initial_stack, sys_, values)


@pytest.mark.parametrize("call, args", [
    (eng.init_state, (CONFIGS["abm"], SUITE, "abc")),
    (eng.init_state, (CONFIGS["gd"], SUITE, [[1.0, 2.0], [3.0]])),
    (cs.build_system, (A, B, "a", 0.0, "surplus")),
    (cs.build_system, (A, B, 0.1, None, "abmc")),
    (cs.build_system, ("A", B, 0.1, 0.1, "abmc")),
    (cs.initial_stack, (SYSTEMS[0], "abc")),
    (cs.initial_stack, (SYSTEMS[1], [[1.0, 2.0], [3.0]])),
], ids=["init_state-str", "init_state-ragged", "alpha-str", "beta-None",
        "A-str", "initial_stack-str", "initial_stack-ragged"])
def test_hand_found_escapes_are_typed(call, args):
    with pytest.raises(DhbError):
        call(*args)
