import math
import warnings

import numpy as np
import pytest

import gme
from gme._majorana import coefficients, stationary_angles, stationary_spinors

from conftest import rng_for


def random_symmetric(rng, n):
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return gme.SymmetricDickeState(n, amps / np.linalg.norm(amps))


def overlap_sq(state, theta, phi):
    """|<a^(x)N|psi>|^2 for a = cos(theta/2)|0> + e^(i phi) sin(theta/2)|1>, summed directly."""
    n = state.N
    total = sum(
        state.amplitudes[m]
        * math.sqrt(math.comb(n, m))
        * math.cos(theta / 2) ** (n - m)
        * (np.exp(-1j * phi) * math.sin(theta / 2)) ** m
        for m in range(n + 1)
    )
    return abs(total) ** 2


def sphere_gradient(state, theta, phi, step=1e-6):
    """Norm of the overlap's gradient on the Bloch sphere, by central differences."""
    d_theta = overlap_sq(state, theta + step, phi) - overlap_sq(state, theta - step, phi)
    d_phi = overlap_sq(state, theta, phi + step) - overlap_sq(state, theta, phi - step)
    return math.hypot(d_theta, d_phi / math.sin(theta)) / (2 * step)


class TestStationarySpinors:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_spinor_is_stationary(self, n):
        for seed in range(4):
            st = random_symmetric(rng_for(2000 + 10 * n + seed), n)
            thetas, phis = stationary_spinors(coefficients(st.amplitudes))
            assert thetas.size > 0
            for theta, phi in zip(thetas, phis):
                assert sphere_gradient(st, theta, phi) <= 1e-7

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_best_spinor_matches_symmetric_oracle(self, n):
        st = random_symmetric(rng_for(2100 + n), n)
        thetas, phis = stationary_spinors(coefficients(st.amplitudes))
        best = max(overlap_sq(st, theta, phi) for theta, phi in zip(thetas, phis))
        assert best == pytest.approx(gme.gm_symmetric_oracle(st).G_squared, abs=1e-9)

    def test_single_coefficient_takes_the_real_route(self):
        # |D_2> of three qubits: the overlap depends on |w| only, peaking at tan(theta/2) = sqrt(2)
        thetas, phis = stationary_spinors(coefficients(np.array([0.0, 0.0, 1.0, 0.0])))
        assert np.any(np.abs(thetas - 2 * math.atan(math.sqrt(2.0))) <= 1e-12)
        assert np.all(phis == 0.0)

    @pytest.mark.parametrize(
        "g, t, h", [(1.0, 0.0, 1e-310), (1.0, 1e-310, 0.0), (1e-310, 0.0, 1.0)]
    )
    def test_subnormal_coefficient_on_the_real_route(self, g, t, h):
        # a subnormal coefficient next to a dominant one must raise no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = gme.gm_sym3q(gme.SymThreeQubitCanonical(g, t, h, 0.0))
        assert result.G_squared == 1.0

    @pytest.mark.parametrize(
        "g, t, h, thetas",
        [
            (1.0, 0.0, 0.0, [0.0, math.pi]),
            (0.0, 1.0 / math.sqrt(3.0), 0.0, [0.0, 2.0 * math.atan(math.sqrt(2.0))]),
            (0.0, 0.0, 1.0, [0.0, math.pi]),
            (1.0, 0.0, 1e-310, [0.0, math.pi]),
            (1.0, 1e-310, 0.0, [0.0, math.pi]),
            (1e-310, 0.0, 1.0, [0.0, math.pi]),
        ],
    )
    def test_real_route_candidate_trail(self, g, t, h, thetas):
        # one c_m carries each state; the pole theta = pi is a candidate unless
        # m = N - 1, so the W-like t-only state has none there
        result = gme.gm_sym3q(gme.SymThreeQubitCanonical(g, t, h, 0.0))
        assert [r.case_tag for r in result.candidates] == [gme.CaseTag.CASE1, gme.CaseTag.CASE22]
        assert [r.theta for r in result.candidates] == pytest.approx(thetas, abs=1e-12)


class TestRealStationaryPoints:
    def test_flat_objective_has_none(self):
        coeff = coefficients(np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0))
        assert np.tan(stationary_angles(coeff)[0]).size == 0

    def test_single_term_closed_form(self):
        # sqrt(3) cos^2 sin peaks at tan(alpha) = 1/sqrt(2)
        roots = np.tan(stationary_angles(coefficients(np.array([0.0, 1.0, 0.0, 0.0])))[0])
        assert np.any(np.abs(roots - 1 / math.sqrt(2.0)) <= 1e-12)

    @pytest.mark.parametrize(
        "amps",
        [
            [0.2, 1.0, 0.5, 1e-200, 0.1],
            [0.0, 1.0, 0.0, 0.0, 1e-281, 0.0],
            [1, 1, 1, 1, 1e-30, 1],
            [0.25, 8e-20, 0.38, 0.06, 0.1, 0.5, 0.62, 0.71, 0.19, 0.22, 0.69, 1.0, 0.16, 0.71],
        ],
    )
    def test_negligible_top_coefficient(self, amps):
        # a coefficient tens to hundreds of decades below the others must not
        # hide a stationary angle.  The last state needs its angle refined to
        # rounding (3.5e-11 short otherwise)
        amps = np.array(amps, dtype=float)
        state = gme.SymmetricDickeState(len(amps) - 1, amps / np.linalg.norm(amps))
        oracle = gme.gm_symmetric_oracle(state).G_squared
        assert gme.gm_dicke_nonneg(state).G_squared >= oracle - 1e-12

    def test_binomial_spread_is_kept(self):
        # at N = 500 the weights sqrt(C(N, k)) span ~150 decades, which are no
        # sign of a negligible amplitude (a trim that took them for one lost
        # the maximum by 1.9e-3)
        rng = np.random.default_rng(500)
        amps = np.abs(rng.normal(size=501))
        state = gme.SymmetricDickeState(500, amps / np.linalg.norm(amps))
        oracle = gme.gm_symmetric_oracle(state).G_squared
        assert gme.gm_dicke_nonneg(state).G_squared >= oracle - 1e-12
