"""Maximal overlap for symmetric states with non-negative Dicke amplitudes.

For such states the optimal symmetric product spinor can be taken real, so
the whole problem collapses to maximizing a trigonometric polynomial of one
mixing angle alpha in [0, pi/2].  Its stationary angles are alpha = atan(t)
for the real roots t >= 0 of a polynomial D of degree at most N
(``_majorana``), found for t <= 1 from D and for t > 1 from the polynomial of
the reversed amplitudes, so that a negligible amplitude cannot swamp them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._majorana import coefficients, real_stationary_points
from .states import (
    BlochVector,
    GmResult,
    SymmetricDickeState,
    UnsupportedAmplitudesError,
    ValidationError,
)

TIE_TOL = 1e-12


@dataclass(frozen=True)
class DickeObjectiveSample:
    """One evaluation of the single-angle overlap objective."""

    alpha: float
    value: float


def _require_non_negative(state: SymmetricDickeState) -> np.ndarray:
    if not state.non_negative:
        raise UnsupportedAmplitudesError(
            "amplitudes must be real and non-negative for the single-angle "
            "solver; use the symmetric oracle for general amplitudes"
        )
    return np.maximum(state.amplitudes.real, 0.0)


def dicke_objective(state: SymmetricDickeState, alpha: float) -> float:
    """Overlap of |a>^(x)N with the state for a = cos(alpha)|0> + sin(alpha)|1>.

    Equals sum_m sqrt(C(N, m)) a_m cos^(N-m)(alpha) sin^m(alpha); valid only
    for non-negative amplitude vectors, where the relative phase of the spinor
    is optimally zero.
    """
    amps = _require_non_negative(state)
    if not -1e-12 <= alpha <= math.pi / 2 + 1e-12:
        raise ValidationError("alpha must lie in [0, pi/2]")
    return float(_objective_vector(coefficients(amps), state.N, np.asarray(alpha, dtype=float)))


def _objective_vector(coeff: np.ndarray, n: int, alphas: np.ndarray) -> np.ndarray:
    cos_a = np.cos(alphas)
    sin_a = np.sin(alphas)
    total = np.zeros_like(alphas)
    for m in range(n + 1):
        if coeff[m] == 0.0:
            continue
        total += coeff[m] * cos_a ** (n - m) * sin_a**m
    return total


def dicke_critical_points(state: SymmetricDickeState) -> list[DickeObjectiveSample]:
    """Objective samples at every stationary angle plus both endpoints.

    The derivative of the objective is cos^N(alpha) D(tan(alpha)) with
    D(t) = (1 + t^2) P'(t) - N t P(t) and P(t) = sum_m sqrt(C(N, m)) a_m t^m,
    so the stationary angles are atan(t) for the real roots t >= 0 of D.  A
    flat objective (D identically zero) is sampled at the endpoints only.
    """
    amps = _require_non_negative(state)
    coeff = coefficients(amps)
    roots = np.arctan(real_stationary_points(coeff))
    alphas = sorted({0.0, math.pi / 2, *roots.tolist()})
    values = _objective_vector(coeff, state.N, np.array(alphas))
    return [DickeObjectiveSample(a, float(v)) for a, v in zip(alphas, values)]


def gm_dicke_nonneg(state: SymmetricDickeState) -> GmResult:
    """Maximal overlap for non-negative Dicke amplitudes.

    Picks the best stationary angle (ties within 1e-12 resolve to the smaller
    alpha) and reports the symmetric closest product state it defines.
    """
    samples = dicke_critical_points(state)
    best_value = max(s.value for s in samples)
    # samples are sorted by alpha, so the first near-tie wins
    chosen = next(s for s in samples if s.value >= best_value - TIE_TOL)

    bloch = BlochVector(
        np.array([math.sin(2 * chosen.alpha), 0.0, math.cos(2 * chosen.alpha)])
    )
    return GmResult.from_overlap(
        chosen.value, closest_product=(bloch,) * state.N, method="dicke"
    )
