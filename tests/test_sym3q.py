import math

import numpy as np
import pytest

import gme
from gme._majorana import coefficients, stationary_spinors
from gme.states import CandidateRecord, CaseTag, sym3q_to_dicke
from gme.sym3q import (
    BRANCH_AGREE_TOL,
    DEDUPE_TOL,
    DEGENERATE_TOL,
    DENOMINATOR_TOL,
    RESIDUAL_TOL,
    THETA_FLOOR,
    _eliminated,
    _on_branch,
    candidate_case1,
    gm_candidate,
    stationary_residual,
    theta_from_phi,
)

from conftest import (
    partial_trace,
    random_generic_canonical,
    rng_for,
    stationarity_residual_from_density,
)

# frozen by an independent 2-D Newton solve of the stationarity system started
# from the closed-form root (residual below 1e-15 at convergence)
CASE21_STATE = (0.8, 0.2, math.sqrt(0.24), 0.3)
CASE21_VALUE = 0.17024506776465087
CASE21_PHI = 2.6655743440881285
CASE21_THETA = 2.172259859743229


def make(g, t, gamma):
    return gme.SymThreeQubitCanonical(g, t, math.sqrt(1 - g * g - 3 * t * t), gamma)


class TestCase1:
    def test_product_state(self):
        st = gme.SymThreeQubitCanonical(1.0, 0.0, 0.0, 0.0)
        assert gme.candidate_case1(st).G_j_squared == pytest.approx(1.0, abs=1e-15)

    def test_direct_square(self):
        st = make(0.6, 0.3, 0.4)
        record = gme.candidate_case1(st)
        assert record.G_j_squared == pytest.approx(0.36, abs=1e-12)
        assert record.case_tag is gme.CaseTag.CASE1
        assert record.theta == 0.0 and record.residual == 0.0

    def test_vanishing_g(self, w_canonical):
        assert gme.candidate_case1(w_canonical).G_j_squared == pytest.approx(0.0, abs=1e-15)


class TestCase21:
    def test_degenerate_t_equals_g(self):
        g = t = 0.45
        st = gme.SymThreeQubitCanonical(g, t, math.sqrt(1 - g * g - 3 * t * t), 0.3)
        assert gme.candidate_case21(st) is None

    def test_frozen_value(self):
        st = gme.SymThreeQubitCanonical(*CASE21_STATE)
        record = gme.candidate_case21(st)
        assert record is not None
        assert record.G_j_squared == pytest.approx(CASE21_VALUE, abs=1e-12)
        assert record.phi == pytest.approx(CASE21_PHI, abs=1e-9)
        assert record.theta == pytest.approx(CASE21_THETA, abs=1e-9)
        assert record.residual <= 1e-8

    def test_newton_confirms_root(self):
        """2-D Newton on the residual pair reproduces the closed-form root."""
        st = gme.SymThreeQubitCanonical(*CASE21_STATE)

        def vec(x):
            r = stationary_residual(st, x[0], x[1])
            return np.array([r.r1, r.r2])

        x = np.array([CASE21_PHI + 3e-3, CASE21_THETA - 4e-3])
        for _ in range(60):
            f0 = vec(x)
            jac = np.empty((2, 2))
            eps = 1e-7
            for j in range(2):
                dx = np.zeros(2)
                dx[j] = eps
                jac[:, j] = (vec(x + dx) - vec(x - dx)) / (2 * eps)
            step = np.linalg.solve(jac, -f0)
            x = x + step
            if np.max(np.abs(step)) < 1e-14:
                break
        assert np.max(np.abs(vec(x))) <= 1e-12
        assert x[0] == pytest.approx(CASE21_PHI, abs=1e-10)
        assert gme.gm_candidate(st, x[0], x[1]) == pytest.approx(CASE21_VALUE, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_theta_branches_agree(self, seed):
        st = random_generic_canonical(rng_for(900 + seed))
        record = gme.candidate_case21(st)
        if record is None:
            pytest.skip("degenerate configuration sampled")
        a = gme.theta_from_phi(st, record.phi, "A")
        b = gme.theta_from_phi(st, record.phi, "B")
        assert a is not None and b is not None
        assert abs(a - b) <= 1e-9


class TestThetaFromPhi:
    def test_negative_rhs_is_absent(self):
        st = make(0.5, 0.4, 0.4)
        # direct substitution gives a negative right-hand side at phi = 1
        rhs = 0.5 * math.sin(2.0) / (st.h * math.sin(st.gamma - 1.0))
        assert rhs < 0.0
        assert gme.theta_from_phi(st, 1.0, "A") is None

    def test_direct_substitution(self):
        st = make(0.5, 0.4, 0.4)
        rhs = st.g * math.sin(4.0) / (st.h * math.sin(st.gamma - 2.0))
        expected = 2.0 * math.atan(rhs)
        value = gme.theta_from_phi(st, 2.0, "A")
        assert value == pytest.approx(expected, abs=1e-14)
        assert 0.0 < value < math.pi

    def test_pole_is_absent(self):
        st = make(0.5, 0.4, 0.4)
        # sin(gamma - phi) = 0 exactly at phi = gamma
        assert gme.theta_from_phi(st, st.gamma, "A") is None

    def test_quarter_turn_is_absent(self):
        st = make(0.5, 0.4, 0.4)
        assert gme.theta_from_phi(st, math.pi / 2, "A") is None

    def test_vanishing_h_is_absent(self):
        st = gme.SymThreeQubitCanonical(0.8, math.sqrt(0.12), 0.0, 0.3)
        assert gme.theta_from_phi(st, 1.0, "A") is None


class TestFindCase2Roots:
    @pytest.mark.parametrize("seed", range(5))
    def test_root_count_and_residuals(self, seed):
        st = random_generic_canonical(rng_for(1000 + seed))
        records = gme.find_case2_roots(st)
        for tag in (gme.CaseTag.CASE22, gme.CaseTag.CASE23):
            roots = [(r.phi, r.theta) for r in records if r.case_tag is tag]
            assert len(roots) <= 16
            for phi, theta in roots:
                assert 0.0 < theta < math.pi
                assert stationary_residual(st, phi, theta).max_abs() <= 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_roots_below_oracle(self, seed):
        st = random_generic_canonical(rng_for(1100 + seed))
        brute = gme.gm_symmetric_oracle(sym3q_to_dicke(st)).G_squared
        for record in gme.find_case2_roots(st):
            assert gme.gm_candidate(st, record.phi, record.theta) <= brute + 1e-7


class TestGmCandidate:
    @pytest.mark.parametrize("seed", range(5))
    def test_polar_point_reduces_to_case1(self, seed):
        st = random_generic_canonical(rng_for(1200 + seed))
        assert gme.gm_candidate(st, 0.37, 0.0) == pytest.approx(
            st.g**2, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pair_overlap(self, seed):
        """The candidate value is the two-qubit marginal overlap at (phi, theta)."""
        rng = rng_for(1300 + seed)
        st = random_generic_canonical(rng)
        amps = gme.sym3q_to_dense(st).amplitudes
        rho_pair = partial_trace(amps, 3, (0, 1))
        for _ in range(10):
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            theta = float(rng.uniform(0.0, math.pi))
            spinor = np.array(
                [math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)]
            )
            projector = np.outer(spinor, spinor.conj())
            direct = float(np.trace(rho_pair @ np.kron(projector, projector)).real)
            assert gme.gm_candidate(st, phi, theta) == pytest.approx(direct, abs=1e-12)


class TestGmSym3q:
    def test_w_class(self, w_canonical):
        result = gme.gm_sym3q(w_canonical)
        assert result.G_squared == pytest.approx(4.0 / 9.0, abs=1e-8)
        assert result.E_G == pytest.approx(5.0 / 9.0, abs=1e-8)

    def test_ghz_type(self):
        inv = 1.0 / math.sqrt(2.0)
        for gamma in (0.0, 0.7, -1.2):
            st = gme.SymThreeQubitCanonical(inv, 0.0, inv, gamma)
            assert gme.gm_sym3q(st).G_squared == pytest.approx(0.5, abs=1e-8)

    def test_product(self):
        st = gme.SymThreeQubitCanonical(1.0, 0.0, 0.0, 0.0)
        assert gme.gm_sym3q(st).G_squared == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_symmetric_oracle(self, seed):
        st = random_generic_canonical(rng_for(1400 + seed))
        fast = gme.gm_sym3q(st)
        brute = gme.gm_symmetric_oracle(sym3q_to_dicke(st))
        assert abs(fast.G_squared - brute.G_squared) <= 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_accepted_candidates_are_stationary(self, seed):
        st = random_generic_canonical(rng_for(1500 + seed))
        result = gme.gm_sym3q(st)
        for record in result.candidates:
            assert record.residual <= 1e-8
            dense_side = stationarity_residual_from_density(
                st, record.phi, record.theta
            )
            assert dense_side <= 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_dominates_case1(self, seed):
        st = random_generic_canonical(rng_for(1600 + seed))
        assert gme.gm_sym3q(st).G_squared >= st.g**2 - 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_conjugation_symmetry(self, seed):
        st = random_generic_canonical(rng_for(1700 + seed))
        mirrored = gme.SymThreeQubitCanonical(st.g, st.t, st.h, -st.gamma)
        assert abs(
            gme.gm_sym3q(st).G_squared - gme.gm_sym3q(mirrored).G_squared
        ) <= 1e-9

    def test_candidate_ordering_is_canonical(self):
        st = gme.SymThreeQubitCanonical(*CASE21_STATE)
        result = gme.gm_sym3q(st)
        keys = [(c.case_tag.value, c.phi) for c in result.candidates]
        assert keys == sorted(keys)

    def test_continuity_toward_vanishing_gamma(self):
        g, t = 0.5, 0.4
        h = math.sqrt(1 - g * g - 3 * t * t)
        base = gme.gm_symmetric_oracle(
            sym3q_to_dicke(gme.SymThreeQubitCanonical(g, t, h, 0.0))
        ).G_squared
        for gamma in (1e-3, -1e-3, 1e-4, -1e-4):
            st = gme.SymThreeQubitCanonical(g, t, h, gamma)
            assert abs(gme.gm_sym3q(st).G_squared - base) <= 1e-3


def _boundary_family():
    """States on every edge of the generic family: gamma at 0 and +-pi/2, h = 0, t = g."""
    states = []
    for seed in range(3):
        base = random_generic_canonical(rng_for(1800 + seed))
        g, t, h = base.g, base.t, base.h
        states += [
            gme.SymThreeQubitCanonical(g, t, h, gamma)
            for gamma in (0.0, math.pi / 2, -math.pi / 2)
        ]
        norm = math.sqrt(g * g + 3.0 * t * t)
        states.append(gme.SymThreeQubitCanonical(g / norm, t / norm, 0.0, base.gamma))
        # t = g with the old h-to-g ratio kept
        scale = 1.0 / math.sqrt(4.0 * g * g + h * h)
        states.append(gme.SymThreeQubitCanonical(g * scale, g * scale, h * scale, base.gamma))
    return states


def _near_w_family():
    """The W class perturbed by g and h down to 1e-14, where the overlap barely depends on phi."""
    states = []
    for eps in (1e-2, 1e-5, 1e-8, 1e-11, 1e-13, 1e-14):
        for g, h, gamma in ((eps, 0.0, 0.0), (eps, 3.0 * eps, 0.3), (0.0, eps, -1.1)):
            t = math.sqrt((1.0 - g * g - h * h) / 3.0)
            states.append(gme.SymThreeQubitCanonical(g, t, h, gamma))
    return states


def _small_t_family():
    """t -> 0, where the best spinor sits next to a pole."""
    states = []
    for t in (1e-2, 1e-4, 1e-6, 1e-9, 0.0):
        for g, gamma in ((0.2, 0.0), (0.6, 0.7), (0.9, -1.3)):
            states.append(
                gme.SymThreeQubitCanonical(g, t, math.sqrt(1.0 - g * g - 3.0 * t * t), gamma)
            )
    return states


def _tiny_amplitude_family():
    """One or two amplitudes far below rounding, down to 1e-300."""
    states = []
    for eps in (1e-24, 1e-60, 1e-160, 1e-300):
        for g, t, h, gamma in (
            (eps, 1.0 / math.sqrt(6.0), math.sqrt(0.5), 0.0),
            (eps, 0.3, 0.5, math.pi / 2),
            (0.0, eps, 1.0, 0.0),
            (0.6, eps, 0.8, 0.7),
            (0.5, 0.4, eps, -0.3),
            (eps, 1.0, eps, 0.2),
        ):
            norm = math.sqrt(g * g + 3.0 * t * t + h * h)
            states.append(gme.SymThreeQubitCanonical(g / norm, t / norm, h / norm, gamma))
    return states


class TestMajoranaEnumeration:
    def test_equatorial_maximum(self):
        """A generic state whose maximum the phi scan of the old enumeration missed."""
        st = gme.SymThreeQubitCanonical(
            0.5227084256378395, 0.49057867532759486, 0.06909118401560443, -1.2138940369977465
        )
        result = gme.gm_sym3q(st)
        assert result.G_squared == pytest.approx(0.5113515536516, abs=1e-9)
        assert result.method == "sym3q"

    @pytest.mark.parametrize(
        "family", [_boundary_family, _near_w_family, _small_t_family, _tiny_amplitude_family],
        ids=["boundary", "near_w", "small_t", "tiny"],
    )
    def test_agrees_with_symmetric_oracle(self, family):
        for st in family():
            result = gme.gm_sym3q(st)
            brute = gme.gm_symmetric_oracle(sym3q_to_dicke(st)).G_squared
            assert result.method == "sym3q"
            assert abs(result.G_squared - brute) <= 1e-9, st

    @pytest.mark.parametrize("g, h", [(0.2, math.sqrt(0.96)), (0.0, 1.0)])
    def test_pole_is_a_candidate(self, g, h):
        # t = 0 leaves g|000> + h e^(i gamma)|111>, best at the pole theta = pi
        st = gme.SymThreeQubitCanonical(g, 0.0, h, 0.4)
        assert any(r.theta == pytest.approx(math.pi, abs=1e-12) for r in
                   gme.find_case2_roots(st))
        assert gme.gm_sym3q(st).G_squared == pytest.approx(h * h, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_branch_a_roots_lie_on_its_tangent_curve(self, seed):
        st = random_generic_canonical(rng_for(1900 + seed))
        roots = [(r.phi, r.theta) for r in gme.find_case2_roots(st)
                 if r.case_tag is gme.CaseTag.CASE22]
        assert roots
        for phi, theta in roots:
            expected = gme.theta_from_phi(st, phi, "A")
            assert expected is not None and abs(expected - theta) <= 1e-8


# ---------------------------------------------------------------------------
# reference: the per-branch enumeration that solved the Majorana kernel once
# per tangent branch, copied verbatim (names prefixed with _ref)
# ---------------------------------------------------------------------------

_TWO_PI = 2.0 * math.pi


def _ref_record(state, phi, theta, value, tag):
    lam, residual = _eliminated(state, phi, theta)
    return CandidateRecord(phi, theta, lam, value, tag, residual.max_abs())


def _ref_find_case2_roots(state, branch):
    if branch not in ("A", "B"):
        raise ValueError("branch must be 'A' or 'B'")
    thetas, phis = stationary_spinors(coefficients(sym3q_to_dicke(state).amplitudes))
    accepted = []
    for theta, phi in zip(thetas.tolist(), (phis % _TWO_PI).tolist()):
        # the stationarity system degenerates as theta -> 0, so tiny-theta
        # roots are the polar candidate in disguise; drop them here
        if theta <= THETA_FLOOR:
            continue
        if stationary_residual(state, phi, theta).max_abs() > RESIDUAL_TOL:
            continue
        on_b = _on_branch(state, phi, theta, "B") and not _on_branch(state, phi, theta, "A")
        if on_b == (branch == "B"):
            accepted.append((phi, theta))

    accepted.sort()
    deduped = []
    for phi, theta in accepted:
        if any(
            abs(phi - p) <= DEDUPE_TOL and abs(theta - t) <= DEDUPE_TOL
            for p, t in deduped
        ):
            continue
        deduped.append((phi, theta))
    return deduped


def _ref_candidate_case21(state):
    g, t, h, gamma = state.g, state.t, state.h, state.gamma
    if abs(t - g) <= DEGENERATE_TOL:
        return None
    denominator = (
        t * t
        - 2.0 * t**4
        + g * g
        - 6.0 * g * g * t * t
        - 2.0 * g * t * h * h * math.cos(2.0 * gamma)
    )
    if abs(denominator) <= DENOMINATOR_TOL:
        return None
    value = g * g - (g * g - t * t) ** 3 / denominator

    phi_base = math.atan2((t + g) * math.sin(gamma), (t - g) * math.cos(gamma))
    for phi in (phi_base % _TWO_PI, (phi_base + math.pi) % _TWO_PI):
        theta_a = theta_from_phi(state, phi, "A")
        theta_b = theta_from_phi(state, phi, "B")
        if theta_a is None or theta_b is None or theta_a <= THETA_FLOOR:
            continue
        if abs(theta_a - theta_b) > BRANCH_AGREE_TOL:
            continue
        record = _ref_record(state, phi, theta_a, value, CaseTag.CASE21)
        if record.residual <= RESIDUAL_TOL:
            return record
    return None


def _ref_candidates(state):
    records = [candidate_case1(state)]
    closed = _ref_candidate_case21(state)
    if closed is not None:
        records.append(closed)
    for branch, tag in (("A", CaseTag.CASE22), ("B", CaseTag.CASE23)):
        records += [
            _ref_record(state, phi, theta, gm_candidate(state, phi, theta), tag)
            for phi, theta in _ref_find_case2_roots(state, branch)
        ]

    records.sort(key=lambda r: (r.case_tag.value, r.phi))
    return tuple(records)


def _generic_family():
    return [random_generic_canonical(rng_for(2000 + seed)) for seed in range(12)]


_FAMILIES = [_generic_family, _boundary_family, _near_w_family, _small_t_family]
_FAMILY_IDS = ["generic", "boundary", "near_w", "small_t"]


class TestSinglePass:
    @pytest.mark.parametrize("family", _FAMILIES, ids=_FAMILY_IDS)
    def test_one_kernel_solve_per_call(self, family, monkeypatch):
        calls = []

        def counting(c):
            calls.append(c)
            return stationary_spinors(c)

        monkeypatch.setattr(gme.sym3q, "stationary_spinors", counting)
        for st in family():
            calls.clear()
            gme.gm_sym3q(st)
            assert len(calls) == 1, st

    @pytest.mark.parametrize("family", _FAMILIES, ids=_FAMILY_IDS)
    def test_candidates_match_per_branch_reference(self, family):
        for st in family():
            assert gme.gm_sym3q(st).candidates == _ref_candidates(st), st
