import math
from typing import Iterable

import numpy as np
import pytest

import gme

from conftest import random_pure_state, random_rank2, rng_for

QUARTER = math.pi / 4


def conditional_eigen_max(rho: np.ndarray, s1: np.ndarray) -> float:
    """Independent route: best product overlap for a fixed first party."""
    spinor = np.array(
        [
            math.cos(math.acos(np.clip(s1[2], -1, 1)) / 2),
            np.exp(1j * math.atan2(s1[1], s1[0]))
            * math.sin(math.acos(np.clip(s1[2], -1, 1)) / 2),
        ]
    )
    proj = np.outer(spinor, spinor.conj())
    conditional = np.einsum("ikjl,ji->kl", rho.reshape(2, 2, 2, 2), proj)
    return float(np.linalg.eigvalsh(conditional)[-1])


class TestFObjective:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_eigen_reduction(self, seed):
        rng = rng_for(2000 + seed)
        st = random_rank2(rng)
        rho = gme.rank2_to_matrix(st)
        for _ in range(5):
            s1 = rng.normal(size=3)
            s1 /= np.linalg.norm(s1)
            lhs = 0.25 * gme.f_objective(st, s1)
            rhs = conditional_eigen_max(rho, s1)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_pure_product_case(self):
        st = gme.RankTwoCanonical(0.0, 0.0, [0, 0, 1])
        assert gme.f_objective(st, (0.0, 0.0, 1.0)) == pytest.approx(4.0, abs=1e-14)

    def test_w_subspace_value(self):
        st = gme.RankTwoCanonical(QUARTER, QUARTER, [0, 0, -1 / 3])
        s1 = (2 * math.sqrt(2) / 3, 0.0, 1 / 3)
        assert gme.f_objective(st, s1) == pytest.approx(16.0 / 9.0, abs=1e-14)

    def test_w_subspace_formula_with_x1(self):
        # the same direction probed with x1 > 0: published closed expression
        for x1 in (0.0, 0.2, 0.5, 0.9):
            st = gme.RankTwoCanonical(QUARTER, QUARTER, [x1, 0, -1 / 3])
            s1 = (2 * math.sqrt(2) / 3, 0.0, 1 / 3)
            expected = (2.0 / 9.0) * (
                5.0 + 3.0 * x1 + math.sqrt(9.0 + 3.0 * x1 * (10.0 + 9.0 * x1))
            )
            assert gme.f_objective(st, s1) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_decomposition_value_non_negative(self, seed):
        rng = rng_for(2100 + seed)
        st = random_rank2(rng)
        for _ in range(5):
            s1 = rng.normal(size=3)
            s1 /= np.linalg.norm(s1)
            td = gme.trace_decomposition(st, s1)
            assert td.value >= 0.0
            assert td.value == pytest.approx(gme.f_objective(st, s1), abs=1e-15)


class TestGNumeric:
    @pytest.mark.parametrize("g1,g2", [(0.3, 0.1), (0.9, 0.4), (1.2, 0.3), (QUARTER, QUARTER)])
    def test_center_is_half(self, g1, g2):
        st = gme.RankTwoCanonical(g1, g2, [0, 0, 0])
        assert gme.g_numeric(st) == pytest.approx(0.5, abs=1e-8)

    def test_w_point(self):
        st = gme.RankTwoCanonical(QUARTER, QUARTER, [0, 0, -1 / 3])
        assert gme.g_numeric(st) == pytest.approx(4.0 / 9.0, abs=1e-8)

    @pytest.mark.parametrize("g1,g2", [(0.6, 0.2), (1.1, 0.4), (QUARTER, QUARTER)])
    def test_pole_values(self, g1, g2):
        up = gme.RankTwoCanonical(g1, g2, [0, 0, 1.0])
        down = gme.RankTwoCanonical(g1, g2, [0, 0, -1.0])
        assert gme.g_numeric(up) == pytest.approx(
            0.5 * (1 + math.cos(g1 - g2)), abs=1e-8
        )
        assert gme.g_numeric(down) == pytest.approx(
            0.5 * (1 + math.cos(g1 + g2)), abs=1e-8
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_sign_symmetry(self, seed):
        st = random_rank2(rng_for(2200 + seed))
        x1, x2, x3 = st.x
        reference = gme.g_numeric(st)
        for sx in (1.0, -1.0):
            for sy in (1.0, -1.0):
                flipped = gme.RankTwoCanonical(
                    st.gamma1, st.gamma2, [sx * x1, sy * x2, x3]
                )
                assert abs(gme.g_numeric(flipped) - reference) <= 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_rotation_about_x3_when_angles_equal(self, seed):
        rng = rng_for(2300 + seed)
        g1 = float(rng.uniform(0.1, QUARTER))
        radius = float(rng.uniform(0.1, 0.7))
        x3 = float(rng.uniform(-0.6, 0.6))
        reference = None
        for angle in (0.0, 1.1, 2.7, 4.9):
            st = gme.RankTwoCanonical(
                g1, g1, [radius * math.cos(angle), radius * math.sin(angle), x3]
            )
            value = gme.g_numeric(st)
            if reference is None:
                reference = value
            assert abs(value - reference) <= 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_rotation_about_x1_when_gamma2_zero(self, seed):
        rng = rng_for(2400 + seed)
        g1 = float(rng.uniform(0.2, math.pi / 2 - 0.05))
        x1 = float(rng.uniform(-0.5, 0.5))
        radius = float(rng.uniform(0.1, 0.7))
        reference = None
        for angle in (0.3, 1.4, 3.0, 5.2):
            st = gme.RankTwoCanonical(
                g1, 0.0, [x1, radius * math.cos(angle), radius * math.sin(angle)]
            )
            value = gme.g_numeric(st)
            if reference is None:
                reference = value
            assert abs(value - reference) <= 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_convex_in_bloch_vector(self, seed):
        rng = rng_for(2500 + seed)
        g1 = float(rng.uniform(0.1, math.pi / 2 - 0.1))
        g2 = float(rng.uniform(0.0, min(g1, math.pi / 2 - g1)))
        x = rng.normal(size=3)
        x = x / np.linalg.norm(x) * rng.uniform(0.1, 0.95)
        y = rng.normal(size=3)
        y = y / np.linalg.norm(y) * rng.uniform(0.1, 0.95)
        mid = 0.5 * (x + y)
        g_mid = gme.g_numeric(gme.RankTwoCanonical(g1, g2, mid))
        g_avg = 0.5 * (
            gme.g_numeric(gme.RankTwoCanonical(g1, g2, x))
            + gme.g_numeric(gme.RankTwoCanonical(g1, g2, y))
        )
        assert g_mid <= g_avg + 1e-9


class TestClosedFormCoefficients:
    def test_w_point_stationary_c(self):
        coeffs = gme.closed_form_coeffs(-1 / 3, QUARTER, QUARTER)
        assert coeffs.c_bar == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_gamma2_zero_symmetric_window(self):
        for g1 in (0.3, 0.8, 1.2):
            coeffs = gme.closed_form_coeffs(0.0, g1, 0.0)
            assert coeffs.x3_3 == pytest.approx(-coeffs.x3_4, abs=1e-12)
            assert coeffs.x3_4 == pytest.approx(1 - math.cos(g1), abs=1e-12)

    def test_complementary_angles_push_lower_zero_to_minus_one(self):
        # the lower zero hits -1 exactly when the angles sum to a quarter turn
        for g1 in (QUARTER, 0.9, 1.2):
            coeffs = gme.closed_form_coeffs(0.0, g1, math.pi / 2 - g1)
            assert coeffs.x3_2 == pytest.approx(-1.0, abs=1e-12)
        off = gme.closed_form_coeffs(0.0, 0.9, 0.3)
        assert off.x3_2 < -1e-3 and abs(off.x3_2 + 1.0) > 1e-3

    @pytest.mark.parametrize("seed", range(8))
    def test_relations_hold_in_interior(self, seed):
        rng = rng_for(2600 + seed)
        g1 = float(rng.uniform(0.05, math.pi / 2 - 0.05))
        g2 = float(rng.uniform(0.0, min(g1, math.pi / 2 - g1)))
        x3 = float(rng.uniform(-0.999, 0.999))
        c = gme.closed_form_coeffs(x3, g1, g2)
        assert c.u0 > 0.0 and c.u3 > 0.0
        assert c.u2 > c.u1
        assert c.u2**2 - c.u1 * c.u3 > 0.0
        assert c.u0**2 - c.u1 > 0.0
        assert -1.0 - 1e-12 <= c.x3_2 <= c.x3_3 < 0.0 <= c.x3_4 < c.x3_1 < 1.0

    def test_c_bar_absent_outside_window(self):
        coeffs = gme.closed_form_coeffs(0.9, 0.5, 0.2)
        if coeffs.u1 >= 0.0:
            assert coeffs.c_bar is None

    @pytest.mark.parametrize("seed", range(6))
    def test_reduced_functional_concave_where_rational(self, seed):
        """Inside the window the one-variable functional is strictly concave."""
        rng = rng_for(2700 + seed)
        g1 = float(rng.uniform(0.2, math.pi / 2 - 0.1))
        g2 = float(rng.uniform(0.0, min(g1, math.pi / 2 - g1)))
        probe = gme.closed_form_coeffs(0.0, g1, g2)
        x3 = float(rng.uniform(probe.x3_2 + 0.05, probe.x3_1 - 0.05))
        c = gme.closed_form_coeffs(x3, g1, g2)
        assert c.u1 < 0.0

        def f2(cv):
            radicand = c.u1 * cv * cv + 2 * c.u2 * cv + c.u3
            return 1.0 + c.u0 * cv + math.sqrt(max(0.0, radicand))

        step = 1e-5
        for cv in np.linspace(-0.8, 0.8, 9):
            radicand = c.u1 * cv * cv + 2 * c.u2 * cv + c.u3
            if radicand <= 1e-3:
                continue
            second = (f2(cv + step) - 2 * f2(cv) + f2(cv - step)) / step**2
            assert second < 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_maximum_at_endpoint_outside_window(self, seed):
        """Beyond the zeros of the radicand the functional peaks at c = 1."""
        rng = rng_for(2800 + seed)
        g1 = float(rng.uniform(0.2, math.pi / 2 - 0.1))
        g2 = float(rng.uniform(0.0, min(g1, math.pi / 2 - g1)))
        probe = gme.closed_form_coeffs(0.0, g1, g2)
        side = rng.choice([0, 1])
        if side and probe.x3_1 < 0.999:
            x3 = float(rng.uniform(probe.x3_1 + 1e-3, 1.0))
        elif probe.x3_2 > -0.999:
            x3 = float(rng.uniform(-1.0, probe.x3_2 - 1e-3))
        else:
            pytest.skip("window touches the pole for this subspace")
        st = gme.RankTwoCanonical(g1, g2, [0.0, 0.0, x3])
        cs = np.linspace(-1.0, 1.0, 20001)
        values = [
            gme.f_objective(st, (math.sqrt(max(0.0, 1 - cv * cv)), 0.0, cv))
            for cv in cs
        ]
        assert int(np.argmax(values)) == len(cs) - 1


class TestGClosedForm:
    @pytest.mark.parametrize("g1,g2", [(0.4, 0.2), (1.0, 0.5), (QUARTER, QUARTER)])
    def test_center_is_half(self, g1, g2):
        assert gme.g_closed_form(0.0, g1, g2) == pytest.approx(0.5, abs=1e-12)

    def test_w_point(self):
        assert gme.g_closed_form(-1 / 3, QUARTER, QUARTER) == pytest.approx(
            4.0 / 9.0, abs=1e-15
        )

    @pytest.mark.parametrize("g1,g2", [(0.6, 0.2), (1.1, 0.3), (QUARTER, QUARTER)])
    def test_poles(self, g1, g2):
        assert gme.g_closed_form(1.0, g1, g2) == pytest.approx(
            0.5 * (1 + math.cos(g1 - g2)), abs=1e-12
        )
        assert gme.g_closed_form(-1.0, g1, g2) == pytest.approx(
            0.5 * (1 + math.cos(g1 + g2)), abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_continuous_at_window_edges(self, seed):
        rng = rng_for(2900 + seed)
        g1 = float(rng.uniform(0.1, math.pi / 2 - 0.05))
        g2 = float(rng.uniform(0.0, min(g1, math.pi / 2 - g1)))
        coeffs = gme.closed_form_coeffs(0.0, g1, g2)
        for edge in (coeffs.x3_3, coeffs.x3_4):
            below = gme.g_closed_form(max(-1.0, edge - 1e-12), g1, g2)
            above = gme.g_closed_form(min(1.0, edge + 1e-12), g1, g2)
            assert abs(below - above) <= 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_linear_branches_are_affine(self, seed):
        rng = rng_for(3000 + seed)
        g1 = float(rng.uniform(0.2, math.pi / 2 - 0.05))
        g2 = float(rng.uniform(0.0, min(g1, math.pi / 2 - g1)))
        coeffs = gme.closed_form_coeffs(0.0, g1, g2)
        if coeffs.x3_3 > -0.99:
            xs = np.linspace(-1.0, coeffs.x3_3 - 1e-9, 5)
            vals = [gme.g_closed_form(float(v), g1, g2) for v in xs]
            second = np.diff(vals, 2)
            assert np.max(np.abs(second)) <= 1e-10
            assert vals[0] > vals[-1]  # decreasing toward the window
        xs = np.linspace(coeffs.x3_4 + 1e-9, 1.0, 5)
        vals = [gme.g_closed_form(float(v), g1, g2) for v in xs]
        second = np.diff(vals, 2)
        assert np.max(np.abs(second)) <= 1e-10
        assert vals[-1] > vals[0]  # increasing away from the window

    def test_agrees_with_numeric_on_grid(self):
        # sixteenth-turn angle grid; the acceptance suite covers a denser one
        for g1 in np.arange(1, 8) * math.pi / 16:
            for g2 in np.linspace(0.0, min(g1, math.pi / 2 - g1), 4):
                for x3 in np.linspace(-1.0, 1.0, 7):
                    closed = gme.g_closed_form(float(x3), float(g1), float(g2))
                    numeric = gme.g_numeric(
                        gme.RankTwoCanonical(float(g1), float(g2), [0, 0, float(x3)])
                    )
                    assert abs(closed - numeric) <= 1e-7

    def test_branch_mismatch_raises_runtime_error(self, monkeypatch):
        """The edge check is an explicit raise, kept under python -O."""
        edge = gme.closed_form_coeffs(0.0, 0.9, 0.3).x3_3
        monkeypatch.setattr(gme.rank2, "BRANCH_MATCH_TOL", -1.0)
        with pytest.raises(RuntimeError, match="branch mismatch"):
            gme.g_closed_form(edge, 0.9, 0.3)

    def test_rejects_out_of_range(self):
        with pytest.raises(gme.ValidationError):
            gme.g_closed_form(1.5, 0.3, 0.1)
        with pytest.raises(gme.ValidationError):
            gme.g_closed_form(0.0, 0.2, 0.5)


class TestStationarityQuartic:
    @pytest.mark.parametrize("seed", range(6))
    def test_slope_and_derivative(self, seed):
        """P is the rational branch's slope times 2 (s^2 - x^2)^2 / amp, and
        P' is P's derivative, both against central differences."""
        rng = rng_for(3600 + seed)
        g1 = rng.uniform(0.2, math.pi / 2 - 0.05, 40)
        g2 = rng.uniform(0.0, 1.0, 40) * np.minimum(g1, math.pi / 2 - g1)
        ctx = gme.rank2._ClosedFormContext.from_angles(g1, g2)
        x3 = ctx.x3_3 + rng.uniform(0.1, 0.9, 40) * (ctx.x3_4 - ctx.x3_3)
        p, dp = gme.rank2._stationarity_quartic(x3, ctx)
        h = 1e-6
        slope = (
            gme.rank2._closed_form_value(x3 + h, ctx) - gme.rank2._closed_form_value(x3 - h, ctx)
        ) / (2.0 * h)
        s = ctx.amp - ctx.damp * x3
        assert np.allclose(slope * 2.0 * (s * s - x3 * x3) ** 2 / ctx.amp, p, atol=1e-7)
        p_plus, _ = gme.rank2._stationarity_quartic(x3 + h, ctx)
        p_minus, _ = gme.rank2._stationarity_quartic(x3 - h, ctx)
        assert np.allclose((p_plus - p_minus) / (2.0 * h), dp, atol=1e-7)


def reference_reduced_density(
    amplitudes: np.ndarray, n_qubits: int, keep: Iterable[int]
) -> np.ndarray:
    """The package's former ``_linalg.reduced_density``, copied verbatim."""
    keep_sorted = tuple(sorted(set(int(k) for k in keep)))
    if any(k < 0 or k >= n_qubits for k in keep_sorted):
        raise ValueError("kept qubit index out of range")
    traced = tuple(i for i in range(n_qubits) if i not in keep_sorted)
    tensor = np.asarray(amplitudes, dtype=complex).reshape((2,) * n_qubits)
    rho = np.tensordot(tensor, tensor.conj(), axes=(traced, traced))
    dim = 2 ** len(keep_sorted)
    return rho.reshape(dim, dim)


class TestGFromPure3Qubit:
    def test_ghz(self, ghz_dicke):
        psi = gme.dicke_to_dense(ghz_dicke)
        for party in range(3):
            assert gme.g_from_pure_3qubit(psi, party) == pytest.approx(0.5, abs=1e-8)

    def test_w(self, w_dicke):
        psi = gme.dicke_to_dense(w_dicke)
        for party in range(3):
            assert gme.g_from_pure_3qubit(psi, party) == pytest.approx(
                4.0 / 9.0, abs=1e-8
            )

    def test_product(self):
        amps = np.zeros(8)
        amps[0] = 1.0
        psi = gme.PureState(3, amps)
        assert gme.g_from_pure_3qubit(psi, 1) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_wrong_size(self):
        psi = gme.PureState(2, np.array([1.0, 0, 0, 0]))
        with pytest.raises(gme.ValidationError):
            gme.g_from_pure_3qubit(psi, 0)
        psi3 = gme.PureState(3, np.eye(8)[0])
        with pytest.raises(gme.ValidationError):
            gme.g_from_pure_3qubit(psi3, 4)
        for party in (True, 1.0, "1", None):
            with pytest.raises(gme.ValidationError):
                gme.g_from_pure_3qubit(psi3, party)

    @pytest.mark.parametrize("seed", range(8))
    def test_party_independence(self, seed):
        psi = random_pure_state(rng_for(3100 + seed), 3)
        values = [gme.g_from_pure_3qubit(psi, party) for party in range(3)]
        assert max(values) - min(values) <= 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reduced_density_reference(self, seed):
        # the former route: the generic partial trace, then the mixed oracle
        psi = random_pure_state(rng_for(3200 + seed), 3)
        for party in (0, 1, np.int64(2)):
            keep = tuple(i for i in range(3) if i != party)
            reference = gme.g_mixed_oracle(reference_reduced_density(psi.amplitudes, 3, keep))
            assert gme.g_from_pure_3qubit(psi, party) == reference
