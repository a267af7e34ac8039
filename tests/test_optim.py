"""The bilinear two-sphere ascent against the grid + Nelder-Mead route it replaced.

The reference functions below are the previous ``max_on_sphere``,
``rank2._f_fields``, ``rank2._g_numeric_axis``, ``rank2._g_numeric_sphere``,
``rank2.g_numeric`` and the mixed oracle's ``_conditional_blocks``,
``hermitian_max_eig_2x2`` and grid function, copied verbatim apart from their
names; the mixed oracle's input checks are left out.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

import gme
from gme import _optim
from gme._optim import max_on_sphere
from gme._linalg import PAULIS
from gme.rank2 import _fields

from conftest import golden_section_min, random_rank2, rng_for

QUARTER = math.pi / 4
AGREE_TOL = 1e-12  # |new - reference|
BELOW_TOL = 1e-13  # reference - new
ATTAIN_TOL = 1e-12


# -- reference: grid + Nelder-Mead ----------------------------------------------


def reference_max_on_sphere(fn, n_polar=256, n_azimuth=512, n_starts=8, xatol=1e-10):
    polar = np.linspace(0.0, math.pi, n_polar)
    azimuth = np.linspace(0.0, 2.0 * math.pi, n_azimuth, endpoint=False)
    st = np.sin(polar)[:, None]
    ct = np.cos(polar)[:, None]
    ca = np.cos(azimuth)[None, :]
    sa = np.sin(azimuth)[None, :]
    values = fn(st * ca, st * sa, ct * np.ones_like(ca))

    flat = np.argsort(values, axis=None)[::-1][: max(1, n_starts)]
    best_val = -math.inf
    best_angles = (0.0, 0.0)

    def neg(x: np.ndarray) -> float:
        th, ph = float(x[0]), float(x[1])
        s = math.sin(th)
        return -float(fn(s * math.cos(ph), s * math.sin(ph), math.cos(th)))

    for idx in flat:
        i, j = np.unravel_index(idx, values.shape)
        start = np.array([polar[i], azimuth[j]])
        res = minimize(
            neg,
            start,
            method="Nelder-Mead",
            options={"xatol": xatol, "fatol": 1e-14, "maxiter": 600},
        )
        if -res.fun > best_val:
            best_val = -res.fun
            best_angles = (float(res.x[0]), float(res.x[1]))
    th, ph = best_angles
    s = math.sin(th)
    direction = (s * math.cos(ph), s * math.sin(ph), math.cos(th))
    return best_val, direction


def _f_fields(state, a, b, c):
    """Vectorized overlap functional over broadcastable Bloch components."""
    scalar, w1, w2, w3 = _fields(state, a, b, c)
    return scalar + np.sqrt(w1 * w1 + w2 * w2 + w3 * w3)


def _g_numeric_axis(state) -> float:
    """One-variable maximization, valid for x2 = 0 and x1 >= 0.

    There the functional is even in the second Bloch component and
    non-decreasing in the first, so the maximum lies on the a >= 0, b = 0
    meridian and only the polar component c remains free.
    """

    def neg_objective(c: float) -> float:
        a = math.sqrt(max(0.0, 1.0 - c * c))
        return -float(_f_fields(state, a, 0.0, c))

    cs = np.linspace(-1.0, 1.0, 4097)
    values = _f_fields(state, np.sqrt(np.maximum(0.0, 1.0 - cs * cs)), 0.0, cs)
    k = int(np.argmax(values))
    lo, hi = cs[max(0, k - 1)], cs[min(cs.size - 1, k + 1)]
    _, neg_best = golden_section_min(neg_objective, float(lo), float(hi), tol=1e-12)
    return 0.25 * max(-neg_best, float(values[k]))


def _g_numeric_sphere(state) -> float:
    value, _ = reference_max_on_sphere(
        lambda a, b, c: _f_fields(state, a, b, c), n_polar=256, n_azimuth=512
    )
    return 0.25 * value


def reference_g_numeric(state) -> float:
    """Best product overlap by direct maximization of the overlap functional."""
    x1, x2, _ = state.x
    if x2 == 0.0 and x1 >= 0.0:
        return _g_numeric_axis(state)
    return _g_numeric_sphere(state)


def hermitian_max_eig_2x2(m00, m11, m01):
    """Largest eigenvalue of Hermitian [[m00, m01], [conj(m01), m11]].

    Accepts scalars or broadcastable arrays; m00/m11 must be real.
    """
    half_sum = 0.5 * (m00 + m11)
    half_diff = 0.5 * (m00 - m11)
    return half_sum + np.sqrt(half_diff * half_diff + np.abs(m01) ** 2)


def _conditional_blocks(rho):
    """2x2 blocks A_k with Tr_1[rho (P x I)] = (A_0 + sum_i s_i A_i) / 2."""
    r = rho.reshape(2, 2, 2, 2)
    blocks = [np.einsum("ikil->kl", r)]
    for pauli in PAULIS:
        blocks.append(np.einsum("ikjl,ji->kl", r, pauli))
    return blocks


def reference_g_mixed_oracle(rho) -> float:
    """The previous mixed oracle after its input checks."""
    a0, a1, a2, a3 = _conditional_blocks(np.asarray(rho, dtype=complex))

    def grid_fn(sx, sy, sz):
        m00 = 0.5 * (a0[0, 0] + sx * a1[0, 0] + sy * a2[0, 0] + sz * a3[0, 0]).real
        m11 = 0.5 * (a0[1, 1] + sx * a1[1, 1] + sy * a2[1, 1] + sz * a3[1, 1]).real
        m01 = 0.5 * (a0[0, 1] + sx * a1[0, 1] + sy * a2[0, 1] + sz * a3[0, 1])
        return hermitian_max_eig_2x2(m00, m11, m01)

    value, _ = reference_max_on_sphere(grid_fn, n_polar=256, n_azimuth=512)
    return float(value)


# -- seeded inputs ----------------------------------------------------------------


def rank2_cases():
    cases = {}
    for k in range(6):
        cases[f"off_axis{k}"] = random_rank2(rng_for(7000 + k))
    for k in range(4):
        rng = rng_for(7100 + k)
        st = random_rank2(rng)
        cases[f"on_axis{k}"] = gme.RankTwoCanonical(st.gamma1, st.gamma2, [0.0, 0.0, st.x[2]])
        x1 = float(rng.uniform(0.05, 0.6))
        cases[f"half_plane{k}"] = gme.RankTwoCanonical(st.gamma1, st.gamma2, [x1, 0.0, st.x[2]])
    for x1 in (1e-2, 1e-3, 1e-4, 1e-6, 1e-9, 0.0):
        cases[f"w_subspace_x1={x1:g}"] = gme.RankTwoCanonical(QUARTER, QUARTER, [x1, 0.0, -1 / 3])
    # gamma1 = gamma2 and x1 = x2 = 0 give a circle of maxima; a small
    # off-axis x at a generic azimuth leaves a nearly flat circle that the
    # alternating updates alone climb only slowly
    rng = rng_for(7300)
    for radius in (1e-3, 1e-5, 1e-7, 1e-9):
        gamma = float(rng.uniform(0.1, QUARTER))
        x3 = float(rng.uniform(-0.9, 0.9))
        families = (("near_circle", (gamma, gamma), x3), ("near_w", (QUARTER, QUARTER), -1 / 3))
        for name, angles, z in families:
            azimuth = float(rng.uniform(0.0, 2.0 * math.pi))
            x = [radius * math.cos(azimuth), radius * math.sin(azimuth), z]
            cases[f"{name}_r={radius:g}"] = gme.RankTwoCanonical(*angles, x)
    # maxima on a circle about 0.03 rad around the pole, just past the window
    # edge, and on a circle flat to about 1e-8
    cases["ring_near_pole"] = gme.RankTwoCanonical(0.2733, 0.2733, [0.0, 0.0, -0.0783])
    x = [1e-8 * math.cos(2.5864), 1e-8 * math.sin(2.5864), -0.7763]
    cases["flat_circle"] = gme.RankTwoCanonical(0.7325, 0.7325, x)
    return cases


def random_density(rng, rank: int) -> np.ndarray:
    z = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def competing_maxima(seed: int) -> np.ndarray:
    """Near-equal mixture of two product states: two local maxima of close value.

    For the seeds used below the best grid cell lies in the lower maximum's
    basin, so a single start ends there.
    """
    rng = np.random.default_rng(seed)
    spinors = []
    for _ in range(4):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        spinors.append(z / np.linalg.norm(z))
    first = np.kron(spinors[0], spinors[1])
    second = np.kron(spinors[2], spinors[3])
    eps = 10 ** rng.uniform(-5, -3)
    return (0.5 + eps) * np.outer(first, first.conj()) + (0.5 - eps) * np.outer(
        second, second.conj()
    )


def density_cases():
    cases = {f"rank{r}_{k}": random_density(rng_for(7200 + 10 * r + k), r)
             for r in (1, 2, 3, 4) for k in range(2)}
    cases["maximally_mixed"] = np.eye(4, dtype=complex) / 4
    for seed in (219, 264):
        cases[f"competing_maxima{seed}"] = competing_maxima(seed)
    for name, st in rank2_cases().items():
        cases[f"rank2_{name}"] = gme.rank2_to_matrix(st)
    return cases


RANK2 = rank2_cases()
DENSITIES = density_cases()


def pauli_matrix(rho: np.ndarray) -> np.ndarray:
    basis = [np.eye(2), *PAULIS]
    return np.array([[np.trace(rho @ np.kron(p, q)).real for q in basis] for p in basis])


def projector(s) -> np.ndarray:
    return 0.5 * (np.eye(2) + sum(c * p for c, p in zip(s, PAULIS)))


# -- tests --------------------------------------------------------------------------


def assert_matches(value: float, reference: float) -> None:
    assert abs(value - reference) <= AGREE_TOL
    assert reference - value <= BELOW_TOL


@pytest.mark.parametrize("name", sorted(RANK2))
def test_g_numeric_matches_reference(name):
    state = RANK2[name]
    assert_matches(gme.g_numeric(state), reference_g_numeric(state))


@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_g_mixed_oracle_matches_reference(name):
    rho = DENSITIES[name]
    assert_matches(gme.g_mixed_oracle(rho), reference_g_mixed_oracle(rho))


@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_pair_attains_value(name):
    rho = DENSITIES[name]
    value, (s1, s2) = max_on_sphere(pauli_matrix(rho))
    assert abs(np.linalg.norm(s1) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(s2) - 1.0) <= 1e-12
    attained = np.trace(rho @ np.kron(projector(s1), projector(s2))).real
    assert abs(attained - 0.25 * value) <= ATTAIN_TOL


AXIS = sorted(name for name, st in RANK2.items() if st.x[1] == 0.0 and st.x[0] >= 0.0)


@pytest.mark.parametrize("name", AXIS)
def test_golden_section_on_floats_matches_scalar_reference(name, monkeypatch):
    """On plain floats the batched search returns the scalar search's x bitwise,
    so f there is the scalar search's f(x)."""
    pairs, scalar = [], golden_section_min

    def both(f, lo, hi, tol):
        reference = scalar(f, lo, hi, tol)
        x = _optim.golden_section_min(f, lo, hi, tol)
        pairs.append(((x, f(float(x))), reference))
        return reference

    monkeypatch.setitem(globals(), "golden_section_min", both)
    _g_numeric_axis(RANK2[name])
    [((x, value), (ref_x, ref_value))] = pairs
    assert float(x) == ref_x and float(value) == ref_value


def random_matrices(count: int, seed: int) -> np.ndarray:
    """Seeded 4x4 matrices: half Gaussian, half Pauli matrices of random densities."""
    rng = rng_for(seed)
    gaussian = rng.normal(size=(count - count // 2, 4, 4))
    densities = [pauli_matrix(random_density(rng, 1 + k % 4)) for k in range(count // 2)]
    return np.concatenate([gaussian, np.array(densities)])


STACK = random_matrices(120, 7400)


@pytest.mark.parametrize("k", range(0, len(STACK), 10))
def test_stack_matches_reference(k):
    """The value for one matrix of ``STACK`` against the grid + Nelder-Mead
    search of its functional."""
    m = STACK[k]

    def functional(sx, sy, sz):
        s1 = np.stack(np.broadcast_arrays(sx, sy, sz), axis=-1)
        field = m[0, 1:] + s1 @ m[1:, 1:]
        return m[0, 0] + s1 @ m[1:, 0] + np.linalg.norm(field, axis=-1)

    reference, _ = reference_max_on_sphere(functional)
    assert_matches(max_on_sphere(m)[0], reference)
