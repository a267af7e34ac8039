"""Maximal overlap for symmetric states with non-negative Dicke amplitudes.

For such states the optimal symmetric product spinor can be taken real, so
the whole problem collapses to maximizing a trigonometric polynomial of one
mixing angle alpha in [0, pi/2].  One log-space kernel (``_majorana``)
evaluates that objective and finds its stationary angles from the same
softmax weights of its terms, so no term overflows or underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._majorana import angle_kernel, coefficients, stationary_angles
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
    is optimally zero.  Angles within the tolerated 1e-12 outside [0, pi/2]
    are the nearer endpoint.
    """
    amps = _require_non_negative(state)
    if not -1e-12 <= alpha <= math.pi / 2 + 1e-12:
        raise ValidationError("alpha must lie in [0, pi/2]")
    if not 0.0 < alpha < math.pi / 2:
        return float(amps[0] if alpha <= 0.0 else amps[-1])
    return float(np.exp(angle_kernel(coefficients(amps), np.array([alpha]))[0][0]))


def dicke_critical_points(state: SymmetricDickeState) -> list[DickeObjectiveSample]:
    """Objective samples at both endpoints and every stationary angle between.

    The endpoints alpha = 0 and pi/2 take the values a_0 and a_N.  A flat
    objective is sampled at the endpoints only.
    """
    amps = _require_non_negative(state)
    alphas, values = stationary_angles(coefficients(amps))
    alphas, values = np.r_[0.0, alphas, math.pi / 2], np.r_[amps[0], values, amps[-1]]
    return [DickeObjectiveSample(float(a), float(v)) for a, v in zip(alphas, values)]


def gm_dicke_nonneg(state: SymmetricDickeState) -> GmResult:
    """Maximal overlap for non-negative Dicke amplitudes.

    Picks the best stationary angle (ties within 1e-12 resolve to the smaller
    alpha) and reports the symmetric closest product state it defines.
    """
    samples = dicke_critical_points(state)
    best_value = max(s.value for s in samples)
    # samples are sorted by alpha, so the first near-tie wins
    chosen = next(s for s in samples if s.value >= best_value - TIE_TOL)

    bloch = BlochVector(np.array([math.sin(2 * chosen.alpha), 0.0, math.cos(2 * chosen.alpha)]))
    return GmResult.from_overlap(chosen.value, closest_product=(bloch,) * state.N, method="dicke")
