"""Properties of ``gm_sym3q`` over the whole canonical domain, drawn by hypothesis.

The draws reach the edges of the domain (zeros among g, t, h, gamma at 0 and
+-pi/2) that the seeded families sample only at chosen points.  Examples are
derandomized, so every run checks the same states.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gme
from gme.states import CaseTag, sym3q_to_dicke

BRANCH_TOL = 1e-9


@st.composite
def canonical_states(draw):
    """(g, t, h) on the constraint g^2 + 3 t^2 + h^2 = 1 and gamma in [-pi/2, pi/2]."""
    x, y, z = (draw(st.floats(0.0, 1.0)) for _ in range(3))
    norm = math.hypot(x, y, z)
    assume(norm > 0.0)
    gamma = draw(st.floats(-math.pi / 2, math.pi / 2))
    return gme.SymThreeQubitCanonical(x / norm, y / norm / math.sqrt(3.0), z / norm, gamma)


def _branch_gaps(state, phi, theta):
    """|top cos(theta/2) - bottom sin(theta/2)| of tangent branches A and B."""
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    sin_2phi = math.sin(2.0 * phi)
    gap_a = state.g * sin_2phi * c - state.h * math.sin(state.gamma - phi) * s
    gap_b = -state.t * sin_2phi * c - state.h * math.sin(state.gamma + phi) * s
    return abs(gap_a), abs(gap_b)


def _attained_overlap_squared(state, bloch):
    """|<p p p|psi>|^2 for the spinor p of one Bloch vector, in plain numpy."""
    x, y, z = (float(v) for v in bloch.s)
    polar = math.acos(min(1.0, max(-1.0, z)))
    spinor = np.array(
        [math.cos(0.5 * polar), np.exp(1j * math.atan2(y, x)) * math.sin(0.5 * polar)]
    )
    tensor = gme.sym3q_to_dense(state).amplitudes.reshape(2, 2, 2)
    p = spinor.conj()
    return float(abs(np.einsum("a,b,c,abc->", p, p, p, tensor)) ** 2)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(canonical_states())
def test_sym3q_properties(state):
    result = gme.gm_sym3q(state)
    assert 0.0 <= result.G_squared <= 1.0
    oracle = gme.gm_symmetric_oracle(sym3q_to_dicke(state)).G_squared
    assert result.G_squared >= oracle - 1e-12

    for record in result.candidates:
        if record.case_tag not in (CaseTag.CASE22, CaseTag.CASE23):
            continue
        assert record.residual <= 1e-8
        gap_a, gap_b = _branch_gaps(state, record.phi, record.theta)
        if record.case_tag is CaseTag.CASE23:
            assert gap_b <= BRANCH_TOL < gap_a
        elif record.theta != math.pi:
            # at the pole theta = pi the azimuth is free; phi = gamma meets A there
            assert gap_a <= BRANCH_TOL

    product = result.closest_product
    assert len(product) == 3 and all(np.array_equal(b.s, product[0].s) for b in product)
    assert abs(_attained_overlap_squared(state, product[0]) - result.G_squared) <= 1e-9
