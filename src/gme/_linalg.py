"""Small dense linear-algebra helpers shared by the solvers."""

from __future__ import annotations

import cmath
import math
from typing import Sequence

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
