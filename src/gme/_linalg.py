"""Small dense linear-algebra helpers shared by the solvers."""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
ID2 = np.eye(2, dtype=complex)


def spinor_from_bloch(s: Sequence[float]) -> np.ndarray:
    """Unit spinor (global phase fixed) with Bloch vector ``s``."""
    a, b, c = float(s[0]), float(s[1]), float(s[2])
    polar = math.acos(min(1.0, max(-1.0, c)))
    azimuth = math.atan2(b, a)
    return np.array(
        [math.cos(polar / 2.0), cmath.exp(1j * azimuth) * math.sin(polar / 2.0)],
        dtype=complex,
    )


def bloch_of_spinor(a: np.ndarray) -> tuple[float, float, float]:
    cross = np.conj(a[0]) * a[1]
    return (
        2.0 * float(cross.real),
        2.0 * float(cross.imag),
        float(abs(a[0]) ** 2 - abs(a[1]) ** 2),
    )


def reduced_density(
    amplitudes: np.ndarray, n_qubits: int, keep: Iterable[int]
) -> np.ndarray:
    """Reduced density matrix of a pure state over the ``keep`` qubits.

    Qubit 0 is the most significant bit of the amplitude index; the rows of
    the result are ordered the same way over the kept qubits (ascending).
    """
    keep_sorted = tuple(sorted(set(int(k) for k in keep)))
    if any(k < 0 or k >= n_qubits for k in keep_sorted):
        raise ValueError("kept qubit index out of range")
    traced = tuple(i for i in range(n_qubits) if i not in keep_sorted)
    tensor = np.asarray(amplitudes, dtype=complex).reshape((2,) * n_qubits)
    rho = np.tensordot(tensor, tensor.conj(), axes=(traced, traced))
    dim = 2 ** len(keep_sorted)
    return rho.reshape(dim, dim)

