"""Maximal product overlap g for canonical two-qubit rank-two states.

Exposes three routes of increasing specialization: the bilinear ascent of the
overlap functional (``g_numeric``), the closed-form three-branch formula on
the x1 = x2 = 0 axis (``g_closed_form``), and the reduction of a pure
three-qubit state to its two-qubit marginal (``g_from_pure_3qubit``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._optim import max_on_sphere
from .oracle import OracleConfig, g_mixed_oracle
from .states import BlochVector, RankTwoCanonical, ValidationError, _check_canonical_angles

BRANCH_MATCH_TOL = 1e-9


def _require_range(value: float, lo: float, hi: float, what: str) -> float:
    value = float(value)
    if not lo - 1e-12 <= value <= hi + 1e-12:
        raise ValidationError(f"{what} must lie in [{lo:.6g}, {hi:.6g}]")
    return min(hi, max(lo, value))


@dataclass(frozen=True)
class TraceDecomposition:
    """Overlap functional split into its scalar part and the second-party field.

    The full functional is ``scalar_part + |w|``: once the first party's Bloch
    vector is fixed, the optimal second party is parallel to ``w``.
    """

    scalar_part: float
    w: np.ndarray

    @property
    def value(self) -> float:
        return self.scalar_part + float(np.linalg.norm(self.w))


def _fields(state: RankTwoCanonical, a, b, c):
    """Scalar part and second-party field (w1, w2, w3), elementwise in a, b, c."""
    sg1, cg1 = math.sin(state.gamma1), math.cos(state.gamma1)
    sg2, cg2 = math.sin(state.gamma2), math.cos(state.gamma2)
    x1, x2, x3 = state.x
    scalar = 1.0 + a * x1 * sg1 + b * x2 * sg2 + c * cg1 * cg2 + c * x3 * sg1 * sg2
    w1 = a * (cg2 * sg1 - x3 * cg1 * sg2) + x1 * (c * cg1 + cg2)
    w2 = b * (-x3 * cg2 * sg1 + cg1 * sg2) + x2 * (cg1 + c * cg2)
    w3 = b * x2 * sg1 + a * x1 * sg2 + c * x3 + x3 * cg1 * cg2 + sg1 * sg2
    return scalar, w1, w2, w3


def trace_decomposition(state: RankTwoCanonical, s1) -> TraceDecomposition:
    a, b, c = (float(v) for v in (s1.s if isinstance(s1, BlochVector) else s1))
    scalar, *w = _fields(state, a, b, c)
    return TraceDecomposition(scalar_part=scalar, w=np.array(w))


def f_objective(state: RankTwoCanonical, s1) -> float:
    """Four times the best product overlap for a fixed first-party direction."""
    return trace_decomposition(state, s1).value


def _functional_matrix(state: RankTwoCanonical) -> np.ndarray:
    """4x4 matrix M of the overlap functional ``(1, s1)^T M (1, s2)``.

    The functional is bilinear in the Bloch vectors; row 0 is ``_fields`` at
    the origin and row ``i`` the change at the unit vector ``e_i``.
    """
    rows = np.array([_fields(state, *e) for e in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))])
    rows[1:] -= rows[0]
    return rows


def g_numeric(state: RankTwoCanonical) -> float:
    """Best product overlap: a quarter of the overlap functional's maximum."""
    return 0.25 * max_on_sphere(_functional_matrix(state))[0]


@dataclass(frozen=True)
class ClosedFormCoefficients:
    """Ingredients of the closed-form overlap on the x1 = x2 = 0 axis.

    ``u0``..``u3`` define the reduced one-variable functional
    ``1 + u0 c + sqrt(u1 c^2 + 2 u2 c + u3)``; ``x3_1``/``x3_2`` are the zeros
    of ``u1`` as a quadratic in x3; ``x3_3``/``x3_4`` delimit the rational
    branch; ``c_bar`` is the interior stationary point when ``u1 < 0``
    (clamped to at most 1, where the maximum saturates).
    """

    u0: float
    u1: float
    u2: float
    u3: float
    c_bar: float | None
    x3_1: float
    x3_2: float
    x3_3: float
    x3_4: float


@dataclass(frozen=True)
class _ClosedFormContext:
    """Angle-only quantities reused across many x3 evaluations.

    Each field is a float, or an array with one entry per subspace when the
    angles are arrays.
    """

    sg1: np.ndarray
    cg1: np.ndarray
    sg2: np.ndarray
    cg2: np.ndarray
    amp: np.ndarray  # sin(gamma1) cos(gamma2)
    damp: np.ndarray  # cos(gamma1) sin(gamma2)
    lin_low: np.ndarray  # 1 + cos(gamma1 + gamma2)
    lin_high: np.ndarray  # 1 + cos(gamma1 - gamma2)
    x3_3: np.ndarray
    x3_4: np.ndarray

    @classmethod
    def from_angles(cls, gamma1, gamma2) -> "_ClosedFormContext":
        sg1, cg1 = np.sin(gamma1), np.cos(gamma1)
        sg2, cg2 = np.sin(gamma2), np.cos(gamma2)
        tg2 = sg2 / cg2  # gamma2 <= pi/4 within the canonical triangle
        inner = (cg1 * cg2 + sg1 * sg1) * sg2
        den = 1.0 + cg1 * (cg2 - sg2 * (cg1 * sg2 + sg1 * sg1 * tg2))
        return cls(
            sg1=sg1,
            cg1=cg1,
            sg2=sg2,
            cg2=cg2,
            amp=sg1 * cg2,
            damp=cg1 * sg2,
            lin_low=1.0 + np.cos(gamma1 + gamma2),
            lin_high=1.0 + np.cos(gamma1 - gamma2),
            x3_3=-sg1 * (sg1 + inner) / den,
            x3_4=-sg1 * (-sg1 + inner) / den,
        )


def closed_form_coeffs(
    x3: float, gamma1: float, gamma2: float
) -> ClosedFormCoefficients:
    """Closed-form ingredients at one point of the x1 = x2 = 0 axis."""
    _check_canonical_angles(gamma1, gamma2)
    x3 = _require_range(x3, -1.0, 1.0, "x3")

    ctx = _ClosedFormContext.from_angles(gamma1, gamma2)
    u = ctx.cg1 * ctx.cg2
    v = ctx.sg1 * ctx.sg2
    shifted = ctx.amp - ctx.damp * x3
    u0 = u + x3 * v
    u1 = x3 * x3 - shifted * shifted
    u2 = x3 * (x3 * u + v)
    u3 = ctx.sg1 * ctx.sg1 + x3 * x3 * ctx.cg1 * ctx.cg1

    c_bar: float | None = None
    if u1 < 0.0:
        tg2 = ctx.sg2 / ctx.cg2
        raw = -(u2 + ctx.sg1 * u0 * (ctx.sg1 - x3 * ctx.cg1 * tg2)) / u1
        c_bar = float(min(raw, 1.0))  # the maximum saturates at the sphere pole beyond 1

    x3_1 = ctx.amp / (1.0 + ctx.damp)
    x3_2 = ctx.amp / (-1.0 + ctx.damp)

    coeffs = ClosedFormCoefficients(
        u0=float(u0),
        u1=float(u1),
        u2=float(u2),
        u3=float(u3),
        c_bar=c_bar,
        x3_1=float(x3_1),
        x3_2=float(x3_2),
        x3_3=float(ctx.x3_3),
        x3_4=float(ctx.x3_4),
    )
    _check_coeff_relations(coeffs, x3, gamma1)
    return coeffs


def _check_coeff_relations(
    c: ClosedFormCoefficients, x3: float, gamma1: float
) -> None:
    # the algebraic relations hold strictly only away from the axis endpoints
    interior = 1e-9 < gamma1 < math.pi / 2 - 1e-9 and abs(x3) < 1.0 - 1e-9
    if not interior:
        return
    slack = 1e-10
    checks = (
        c.u0 > 0.0,
        c.u3 > 0.0,
        c.u2 > c.u1 - slack,
        c.u2 * c.u2 - c.u1 * c.u3 > -slack,
        c.u0 * c.u0 - c.u1 > -slack,
        -1.0 - slack <= c.x3_2 <= c.x3_3 + slack,
        c.x3_3 < slack,
        -slack <= c.x3_4,
        c.x3_4 < c.x3_1 + slack,
        c.x3_1 < 1.0 + slack,
    )
    if not all(checks):
        raise ValidationError("closed-form coefficient relations violated")


def g_closed_form(x3: float, gamma1: float, gamma2: float) -> float:
    """Closed-form best product overlap on the x1 = x2 = 0 axis.

    Piecewise in x3: linear decreasing up to the lower window edge, a rational
    interior branch, then linear increasing from the upper edge.  At an edge
    both adjacent branches are evaluated, their agreement is checked, and the
    linear value is returned.
    """
    _check_canonical_angles(gamma1, gamma2)
    x3 = _require_range(x3, -1.0, 1.0, "x3")
    ctx = _ClosedFormContext.from_angles(gamma1, gamma2)
    return float(_closed_form_value(x3, ctx))


def _rational_value(x3, ctx: _ClosedFormContext) -> np.ndarray:
    """The closed form's rational branch, elementwise over x3 and the subspaces of ``ctx``.

    With ``s = amp - damp x3`` it is ``amp (1 - x3^2) s / (2 (s^2 - x3^2))``:
    the closed form itself strictly inside a window that has not collapsed,
    and meaningless (possibly not finite) anywhere else.
    """
    shifted = ctx.amp - ctx.damp * x3
    return (1.0 - x3 * x3) * ctx.amp * shifted / (-2.0 * (x3 * x3 - shifted * shifted))


def _closed_form_value(x3, ctx: _ClosedFormContext) -> np.ndarray:
    """Three-branch closed form, elementwise over x3 and the subspaces of ``ctx``.

    ``_rational_value`` is the default branch; the linear branches take over
    outside the window (x3_3, x3_4) and on either side of zero where the
    window has collapsed.  At an exact window edge the linear value is
    returned once the rational branch, where it exists, is checked to agree
    with it.
    """
    low = 0.25 * (1.0 - x3) * ctx.lin_low
    high = 0.25 * (1.0 + x3) * ctx.lin_high
    shifted = ctx.amp - ctx.damp * x3
    # the rational branch degenerates with the window
    collapsed = x3 * x3 - shifted * shifted >= -1e-15
    with np.errstate(divide="ignore", invalid="ignore"):  # a collapsed cell's rational is unused
        rational = _rational_value(x3, ctx)
    at_low = x3 == ctx.x3_3
    at_high = x3 == ctx.x3_4
    edge = (at_low | at_high) & ~collapsed
    if np.any(edge) and np.any(
        edge & ~(np.abs(rational - np.where(at_low, low, high)) <= BRANCH_MATCH_TOL)
    ):
        raise RuntimeError("closed form: branch mismatch at window edge")
    # first matching rule wins; a collapsed window falls back to the nearer
    # linear branch
    return np.select(
        [at_low, at_high, x3 < ctx.x3_3, x3 > ctx.x3_4, collapsed & (x3 <= 0.0), collapsed],
        [low, high, low, high, low, high],
        rational,
    )


def _stationarity_quartic(x3, ctx: _ClosedFormContext) -> tuple[np.ndarray, np.ndarray]:
    """(P, P') elementwise for the rational branch's slope numerator.

    With ``s = amp - damp x3`` the branch is ``amp (1 - x3^2) s / (2 (s^2 - x3^2))``
    and its slope is ``amp P / (2 (s^2 - x3^2)^2)``, where
    ``P = 2 x3 s (1 - s^2) + damp (1 - x3^2)(s^2 + x3^2)``: a quartic in x3
    whose interior roots with ``P' > 0`` are the branch's minimizers.
    """
    d = ctx.damp
    s = ctx.amp - d * x3
    s_sq, x_sq = s * s, x3 * x3
    p = 2.0 * x3 * s * (1.0 - s_sq) + d * (1.0 - x_sq) * (s_sq + x_sq)
    dp = (
        2.0 * s * (1.0 - s_sq)
        - 2.0 * d * x3 * (1.0 - 3.0 * s_sq)
        + 2.0 * d * ((1.0 - x_sq) * (x3 - d * s) - x3 * (s_sq + x_sq))
    )
    return p, dp


def g_from_pure_3qubit(
    psi, traced_party: int, cfg: OracleConfig | None = None
) -> float:
    """Best product overlap squared of a pure three-qubit state.

    Traces out one party and maximizes over the remaining two-qubit marginal;
    the answer is independent of which party is traced.
    """
    if psi.n_qubits != 3:
        raise ValidationError("expected a three-qubit pure state")
    if isinstance(traced_party, bool) or not isinstance(traced_party, numbers.Integral):
        raise ValidationError("traced_party must be an integer")
    if traced_party not in (0, 1, 2):
        raise ValidationError("traced_party must be 0, 1, or 2")
    tensor = psi.amplitudes.reshape(2, 2, 2)
    rho = np.tensordot(tensor, tensor.conj(), axes=(traced_party, traced_party)).reshape(4, 4)
    return g_mixed_oracle(rho, cfg)
