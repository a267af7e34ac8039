"""Properties of ``gm_dicke_nonneg`` over non-negative Dicke states, drawn by hypothesis.

The draws cover N = 1..40 and mix ordinary amplitudes with zeros and with
amplitudes 1e-15..1e-300 of the largest, which put negligible coefficients at
either end of the stationarity polynomial.  Examples are derandomized, so
every run checks the same states.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gme

ATTAIN_N = 12  # largest N whose dense vector the attainment check builds


@st.composite
def dicke_states(draw):
    """Non-negative amplitudes scaled to a largest of 1; a tiny one is 10^e, e in [-300, -15]."""
    n = draw(st.integers(1, 40))
    entries = draw(st.lists(
        st.one_of(
            st.just(("zero", 0.0)),
            st.tuples(st.just("plain"), st.floats(0.0, 1.0)),
            st.tuples(st.just("tiny"), st.floats(-300.0, -15.0)),
        ),
        min_size=n + 1,
        max_size=n + 1,
    ))
    largest = max((value for kind, value in entries if kind == "plain"), default=0.0)
    assume(largest > 0.0)
    amps = np.array([
        {"zero": 0.0, "plain": value / largest, "tiny": 10.0**value}[kind]
        for kind, value in entries
    ])
    return gme.SymmetricDickeState(n, amps / np.linalg.norm(amps))


def _attained_overlap_squared(state, bloch):
    """|<p...p|psi>|^2 for the spinor p of one Bloch vector, in plain numpy."""
    x, y, z = (float(v) for v in bloch.s)
    polar = math.acos(min(1.0, max(-1.0, z)))
    p = np.array(
        [math.cos(0.5 * polar), np.exp(1j * math.atan2(y, x)) * math.sin(0.5 * polar)]
    ).conj()
    tensor = gme.dicke_to_dense(state).amplitudes.reshape((2,) * state.N)
    for _ in range(state.N):
        tensor = np.tensordot(p, tensor, axes=([0], [0]))
    return float(abs(tensor) ** 2)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(dicke_states())
def test_dicke_properties(state):
    result = gme.gm_dicke_nonneg(state)
    assert 0.0 <= result.G_squared <= 1.0
    oracle = gme.gm_symmetric_oracle(state).G_squared
    assert result.G_squared >= oracle - 1e-12

    product = result.closest_product
    assert len(product) == state.N
    assert all(np.array_equal(b.s, product[0].s) for b in product)
    if state.N <= ATTAIN_N:
        assert abs(_attained_overlap_squared(state, product[0]) - result.G_squared) <= 1e-9
