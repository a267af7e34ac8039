"""Shared helpers: random fixtures and independent reference computations.

The reference computations here (partial traces, Pauli expectations,
stationarity residuals from reduced matrices) are written directly against
numpy so the tests do not reuse the package's own linear-algebra paths.
``golden_section_min`` is the package's former scalar golden-section search,
copied verbatim, the reference for the batched search that replaced it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import pytest

import gme

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
) -> tuple[float, float]:
    """Minimum of a unimodal function on [lo, hi]; returns (x, f(x))."""
    if hi < lo:
        lo, hi = hi, lo
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_pure_state(rng: np.random.Generator, n_qubits: int) -> gme.PureState:
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return gme.PureState(n_qubits=n_qubits, amplitudes=amps / np.linalg.norm(amps))


def random_generic_canonical(
    rng: np.random.Generator, margin: float = 0.05
) -> gme.SymThreeQubitCanonical:
    """Canonical three-qubit state away from every boundary of the family."""
    while True:
        v = np.abs(rng.normal(size=3))
        v /= np.linalg.norm(v)
        g, t, h = float(v[0]), float(v[1]) / math.sqrt(3.0), float(v[2])
        if min(g, t, h) > margin:
            gamma = float(rng.uniform(margin, math.pi / 2 - margin))
            gamma *= float(rng.choice([-1.0, 1.0]))
            return gme.SymThreeQubitCanonical(g, t, h, gamma)


def random_rank2(
    rng: np.random.Generator,
    angle_margin: float = 0.05,
    radius: tuple[float, float] = (0.05, 0.995),
) -> gme.RankTwoCanonical:
    g1 = float(rng.uniform(angle_margin, math.pi / 2 - angle_margin))
    g2 = float(rng.uniform(0.0, min(g1, math.pi / 2 - g1)))
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    x = direction * rng.uniform(*radius)
    return gme.RankTwoCanonical(g1, g2, x)


def random_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_local_unitaries(amps: np.ndarray, unitaries: list[np.ndarray]) -> np.ndarray:
    n = len(unitaries)
    tensor = amps.reshape((2,) * n)
    for k, u in enumerate(unitaries):
        tensor = np.moveaxis(
            np.tensordot(u, tensor, axes=([1], [k])), 0, k
        )
    return tensor.reshape(-1)


def partial_trace(amps: np.ndarray, n_qubits: int, keep: tuple[int, ...]) -> np.ndarray:
    """Independent reduced-density computation (einsum-based)."""
    keep = tuple(sorted(keep))
    tensor = amps.reshape((2,) * n_qubits)
    letters = "abcdefghij"
    out_letters = "klmnop"
    left = letters[:n_qubits]
    right = list(left)
    for pos, q in enumerate(keep):
        right[q] = out_letters[pos]
    right_str = "".join(right)
    spec = f"{left},{right_str}->{''.join(left[q] for q in keep)}{''.join(out_letters[: len(keep)])}"
    rho = np.einsum(spec, tensor, tensor.conj())
    dim = 2 ** len(keep)
    return rho.reshape(dim, dim)


def stationarity_residual_from_density(
    state: gme.SymThreeQubitCanonical, phi: float, theta: float
) -> float:
    """Max-abs residual of the Bloch stationarity condition.

    Rebuilds the single-qubit Bloch vector and the two-qubit correlation
    matrix from the dense state and checks that their action on the candidate
    direction is parallel to it.
    """
    amps = gme.sym3q_to_dense(state).amplitudes
    rho_one = partial_trace(amps, 3, (0,))
    rho_pair = partial_trace(amps, 3, (0, 1))
    r = np.array([np.trace(rho_one @ p).real for p in PAULIS])
    corr = np.array(
        [
            [np.trace(rho_pair @ np.kron(p, q)).real for q in PAULIS]
            for p in PAULIS
        ]
    )
    s = np.array(
        [
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        ]
    )
    v = r + corr @ s
    lam = float(v @ s)
    return float(np.max(np.abs(v - lam * s)))


@pytest.fixture
def w_dicke() -> gme.SymmetricDickeState:
    return gme.SymmetricDickeState(N=3, amplitudes=np.array([0.0, 1.0, 0.0, 0.0]))


@pytest.fixture
def ghz_dicke() -> gme.SymmetricDickeState:
    inv = 1.0 / math.sqrt(2.0)
    return gme.SymmetricDickeState(N=3, amplitudes=np.array([inv, 0.0, 0.0, inv]))


@pytest.fixture
def w_canonical() -> gme.SymThreeQubitCanonical:
    return gme.SymThreeQubitCanonical(g=0.0, t=1.0 / math.sqrt(3.0), h=0.0, gamma=0.0)
