import math
from fractions import Fraction

import numpy as np
import pytest

import gme
from gme._optim import bisect_roots_vector
from gme.states import sqrt_binomials

from conftest import rng_for

GRID_POINTS_PER_QUBIT = 512
BISECT_TOL = 1e-12


def random_nonneg_dicke(rng, n):
    amps = np.abs(rng.normal(size=n + 1))
    return gme.SymmetricDickeState(n, amps / np.linalg.norm(amps))


# The grid-plus-bisection search that preceded the angle kernel, kept as the
# reference: derivative sign changes on 512 N grid points, each bisected, with
# the per-term objective that dicke.py evaluated before its log-space kernel.


def _derivative_vector(coeff: np.ndarray, n: int, alphas: np.ndarray) -> np.ndarray:
    cos_a = np.cos(alphas)
    sin_a = np.sin(alphas)
    total = np.zeros_like(alphas)
    for m in range(n + 1):
        if coeff[m] == 0.0:
            continue
        if m >= 1:  # guard: sin^(m-1) is singular to write down for m = 0
            total += coeff[m] * m * cos_a ** (n - m + 1) * sin_a ** (m - 1)
        if m <= n - 1:
            total -= coeff[m] * (n - m) * cos_a ** (n - m - 1) * sin_a ** (m + 1)
    return total


def _objective_vector(coeff: np.ndarray, n: int, alphas: np.ndarray) -> np.ndarray:
    cos_a = np.cos(alphas)
    sin_a = np.sin(alphas)
    total = np.zeros_like(alphas)
    for m in range(n + 1):
        if coeff[m] == 0.0:
            continue
        total += coeff[m] * cos_a ** (n - m) * sin_a**m
    return total


def grid_critical_points(state):
    amps = np.maximum(state.amplitudes.real, 0.0)
    n = state.N
    coeff = sqrt_binomials(n) * amps

    grid = np.linspace(0.0, math.pi / 2, GRID_POINTS_PER_QUBIT * n)
    deriv = _derivative_vector(coeff, n, grid)

    alphas: list[float] = [0.0, math.pi / 2]
    alphas.extend(float(a) for a in grid[deriv == 0.0])

    signs = np.sign(deriv)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]
    if flips.size:
        roots = bisect_roots_vector(
            lambda a: _derivative_vector(coeff, n, a),
            grid[flips],
            grid[flips + 1],
            deriv[flips],
            tol=BISECT_TOL,
        )
        alphas.extend(float(a) for a in roots)

    alphas = sorted(set(alphas))
    values = _objective_vector(coeff, n, np.array(alphas))
    return [gme.DickeObjectiveSample(a, float(v)) for a, v in zip(alphas, values)]


def best_sample(samples):
    """The first sample within 1e-12 of the best value, as gm_dicke_nonneg picks it."""
    best_value = max(s.value for s in samples)
    return next(s for s in samples if s.value >= best_value - 1e-12)


def loop_objective(state, alpha):
    """The per-term loop ``dicke_objective`` evaluated before it shared the vector kernel."""
    amps = np.maximum(state.amplitudes.real, 0.0)
    n = state.N
    root = sqrt_binomials(n)
    total = 0.0
    for m in range(n + 1):
        total += (
            root[m]
            * amps[m]
            * math.cos(alpha) ** (n - m)
            * math.sin(alpha) ** m
        )
    return total


class TestObjective:
    def test_vacuum_at_zero(self):
        st = gme.SymmetricDickeState(3, [1, 0, 0, 0])
        assert gme.dicke_objective(st, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_w_state_maximum_value(self, w_dicke):
        # the single-term objective sqrt(3) cos^2 sin peaks at tan(a) = 1/sqrt(2)
        alpha = math.atan(1.0 / math.sqrt(2.0))
        assert gme.dicke_objective(w_dicke, alpha) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_bell_pair(self):
        st = gme.SymmetricDickeState(2, [0, 1, 0])
        value = gme.dicke_objective(st, math.pi / 4)
        assert value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)

    def test_rejects_negative_amplitudes(self):
        st = gme.SymmetricDickeState(2, [0.6, -0.8, 0.0])
        with pytest.raises(gme.UnsupportedAmplitudesError, match="oracle"):
            gme.dicke_objective(st, 0.3)

    def test_rejects_alpha_out_of_range(self):
        st = gme.SymmetricDickeState(2, [0.6, 0.8, 0.0])
        with pytest.raises(gme.ValidationError):
            gme.dicke_objective(st, 2.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_term_loop(self, seed):
        rng = rng_for(550 + seed)
        st = random_nonneg_dicke(rng, int(rng.integers(1, 21)))
        for alpha in np.linspace(0.0, math.pi / 2, 33):
            assert abs(gme.dicke_objective(st, float(alpha)) - loop_objective(st, alpha)) <= 1e-15

    @pytest.mark.parametrize("seed", range(5))
    def test_non_negative_objective(self, seed):
        rng = rng_for(500 + seed)
        st = random_nonneg_dicke(rng, int(rng.integers(1, 9)))
        for alpha in np.linspace(0.0, math.pi / 2, 17):
            assert gme.dicke_objective(st, float(alpha)) >= 0.0


class TestGmDickeNonneg:
    def test_ghz(self, ghz_dicke):
        result = gme.gm_dicke_nonneg(ghz_dicke)
        assert result.G_squared == pytest.approx(0.5, abs=1e-12)
        assert result.method == "dicke"

    def test_w(self, w_dicke):
        result = gme.gm_dicke_nonneg(w_dicke)
        assert result.G_squared == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert result.E_G == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_product(self):
        st = gme.SymmetricDickeState(3, [1, 0, 0, 0])
        result = gme.gm_dicke_nonneg(st)
        assert result.G == pytest.approx(1.0, abs=1e-14)
        assert result.E_G == pytest.approx(0.0, abs=1e-14)

    def test_tie_resolves_to_smaller_alpha(self, ghz_dicke):
        # both endpoints are optimal; the lower one must win
        result = gme.gm_dicke_nonneg(ghz_dicke)
        bloch = result.closest_product[0].s
        assert np.allclose(bloch, [0.0, 0.0, 1.0], atol=1e-12)

    def test_closest_product_replicated(self, w_dicke):
        result = gme.gm_dicke_nonneg(w_dicke)
        assert len(result.closest_product) == 3
        # recorded mixing angle: tan(alpha) = 1/sqrt(2)
        alpha = math.atan(1.0 / math.sqrt(2.0))
        expected = [math.sin(2 * alpha), 0.0, math.cos(2 * alpha)]
        assert np.allclose(result.closest_product[0].s, expected, atol=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_mirror_symmetry(self, seed):
        rng = rng_for(600 + seed)
        st = random_nonneg_dicke(rng, int(rng.integers(2, 9)))
        mirrored = gme.SymmetricDickeState(st.N, st.amplitudes[::-1])
        a = gme.gm_dicke_nonneg(st).G
        b = gme.gm_dicke_nonneg(mirrored).G
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_single_dicke_closed_form(self, n):
        # stationarity with one term gives tan^2(alpha) = m / (n - m)
        for m in range(n + 1):
            amps = np.zeros(n + 1)
            amps[m] = 1.0
            result = gme.gm_dicke_nonneg(gme.SymmetricDickeState(n, amps))
            binom = math.comb(n, m)
            expected = math.sqrt(
                binom * (m / n) ** m * ((n - m) / n) ** (n - m)
            )
            assert result.G == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [100, 600, 2000])
    def test_large_w_state_closed_form(self, n):
        # |W_N> has G^2 = ((N - 1) / N)^(N - 1); at N = 2000 this needs every
        # sqrt(C(N, m)) to within rounding, which a log-gamma difference is not
        amps = np.zeros(n + 1)
        amps[1] = 1.0
        g_sq = gme.gm_dicke_nonneg(gme.SymmetricDickeState(n, amps)).G_squared
        expected = float(Fraction(n - 1, n) ** (n - 1))  # exact, then rounded once
        assert abs(g_sq - expected) <= 5e-13 * expected

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_symmetric_oracle(self, seed):
        rng = rng_for(700 + seed)
        st = random_nonneg_dicke(rng, int(rng.integers(2, 9)))
        fast = gme.gm_dicke_nonneg(st).G
        brute = gme.gm_symmetric_oracle(st).G
        assert abs(fast - brute) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_agrees_with_pure_oracle(self, n):
        rng = rng_for(800 + n)
        st = random_nonneg_dicke(rng, n)
        fast = gme.gm_dicke_nonneg(st).G
        brute = gme.gm_pure_oracle(gme.dicke_to_dense(st)).G
        assert abs(fast - brute) <= 1e-7

    def test_critical_points_bracket_the_maximum(self, w_dicke):
        samples = gme.dicke_critical_points(w_dicke)
        alphas = [s.alpha for s in samples]
        assert 0.0 in alphas and math.pi / 2 in alphas
        interior = [s for s in samples if 0.0 < s.alpha < math.pi / 2]
        assert any(
            abs(s.alpha - math.atan(1 / math.sqrt(2))) <= 1e-10 for s in interior
        )

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_flat_objective_keeps_the_endpoints(self, n):
        # c_m = C(n/2, m/2) for even m makes the objective (cos^2 + sin^2)^(n/2),
        # flat; n = 2 is (|D_0> + |D_2>) / sqrt(2) with G^2 = 1/2
        coeff = np.array([math.comb(n // 2, m // 2) if m % 2 == 0 else 0 for m in range(n + 1)])
        amps = coeff / np.sqrt([math.comb(n, m) for m in range(n + 1)])
        st = gme.SymmetricDickeState(n, amps / np.linalg.norm(amps))
        samples = gme.dicke_critical_points(st)
        assert [s.alpha for s in samples] == [0.0, math.pi / 2]
        result = gme.gm_dicke_nonneg(st)
        assert result.G_squared == pytest.approx(st.amplitudes[0].real ** 2, abs=1e-15)
        assert np.allclose(result.closest_product[0].s, [0.0, 0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_matches_grid_bisection_reference(self, n):
        rng = rng_for(2200 + n)
        for sparse in (False, True):
            amps = np.abs(rng.normal(size=n + 1))
            if sparse:
                amps[rng.random(n + 1) < 0.4] = 0.0
                amps[int(rng.integers(0, n + 1))] = 1.0
            st = gme.SymmetricDickeState(n, amps / np.linalg.norm(amps))
            reference = best_sample(grid_critical_points(st))
            chosen = best_sample(gme.dicke_critical_points(st))
            assert abs(chosen.alpha - reference.alpha) <= 1e-9
            assert abs(chosen.value - reference.value) <= 1e-13

    @pytest.mark.parametrize(
        "amps",
        [
            [0.32880515, 0.01779923, 0.94423004],
            [0.94423004, 0.01779923, 0.32880515],
            [1.0, 1e-3, 0.0, 0.0, 0.5],
            [0.5, 0.0, 0.0, 1e-3, 1.0],
        ],
    )
    def test_stationary_angle_next_to_a_pole(self, amps):
        # the maximum lies within half a grid cell of a pole, where the
        # slope's limit is 0 and only a sample beside the pole shows its sign
        amps = np.array(amps)
        st = gme.SymmetricDickeState(len(amps) - 1, amps / np.linalg.norm(amps))
        oracle = gme.gm_symmetric_oracle(st).G_squared
        assert gme.gm_dicke_nonneg(st).G_squared >= oracle - 1e-12


def _sparse_large_n():
    for n in (100, 400, 600, 1000, 2000):
        for spec in ({1: 1.0, n // 3: 0.5}, {3: 1.0, int(0.45 * n): 0.5, int(0.75 * n): 0.7}):
            yield pytest.param(n, spec, id=f"N{n}-" + "-".join(map(str, spec)))


@pytest.mark.parametrize("n, spec", _sparse_large_n())
def test_sparse_large_n_matches_symmetric_oracle(n, spec):
    # two or three amplitudes of up to 2000 qubits span hundreds of decades
    # of coefficients; a_1 = 1, a_(N/3) = 0.5 lost its maximum from N = 400
    amps = np.zeros(n + 1)
    amps[list(spec)] = list(spec.values())
    st = gme.SymmetricDickeState(n, amps / np.linalg.norm(amps))
    oracle = gme.gm_symmetric_oracle(st).G_squared
    assert abs(gme.gm_dicke_nonneg(st).G_squared - oracle) <= 1e-12
