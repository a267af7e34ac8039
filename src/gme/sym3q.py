"""Candidate enumeration for symmetric three-qubit canonical states.

The closest symmetric product state has Bloch angles (phi, theta) solving a
three-equation stationarity system with one Lagrange multiplier.  Candidates
come from three sources: the polar point theta = 0 (Case 1), one closed-form
root (Case 2.1), and the stationary spinors of the full overlap, the roots of
the state's Majorana stationarity polynomial (``_majorana``) with the pole
theta = pi, which one pass tags Case 2.2 or 2.3 by the tangent branch whose
relation they satisfy.  The overlap value at every candidate is evaluated in
closed form, and the largest candidate is the answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._majorana import coefficients, stationary_spinors
from .oracle import OracleConfig
from .states import (
    BlochVector,
    CandidateRecord,
    CaseTag,
    GmResult,
    SymThreeQubitCanonical,
    sym3q_to_dicke,
)

RESIDUAL_TOL = 1e-8
BRANCH_AGREE_TOL = 1e-9
DEDUPE_TOL = 1e-9
DEGENERATE_TOL = 1e-9  # |t - g| below this disables the closed-form root
DENOMINATOR_TOL = 1e-12
COS_SWITCH = 1e-8  # |cos(theta)| below this switches the multiplier source
THETA_FLOOR = 1e-6  # below this the root is the polar point, already enumerated

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class StationaryResidual:
    """Left-minus-right of the three stationarity equations.

    The Lagrange multiplier is eliminated first, so one component is zero by
    construction; a genuine root drives the other two to zero as well.
    """

    r1: float
    r2: float
    r3: float

    def max_abs(self) -> float:
        return max(abs(self.r1), abs(self.r2), abs(self.r3))


def _system_lhs(
    state: SymThreeQubitCanonical, phi: float, theta: float
) -> tuple[float, float, float]:
    """Left-hand sides of the three stationarity equations."""
    g, t, h, gamma = state.g, state.t, state.h, state.gamma
    cg, sg = math.cos(gamma), math.sin(gamma)
    st, ct = math.sin(theta), math.cos(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    l1 = 2 * h * t * cg + 2 * t * (g + t) * st * cp - 2 * h * t * cg * ct
    l2 = 2 * h * t * sg - 2 * t * (g - t) * st * sp - 2 * h * t * sg * ct
    l3 = (
        (g * g - t * t) * (1 + ct)
        - h * h * (1 - ct)
        - 2 * h * t * cg * st * cp
        - 2 * h * t * sg * st * sp
    )
    return l1, l2, l3


def _eliminated(
    state: SymThreeQubitCanonical, phi: float, theta: float
) -> tuple[float, StationaryResidual]:
    """Multiplier and residual triple with the multiplier eliminated.

    The multiplier comes from the polar equation unless cos(theta) is tiny,
    in which case the first equation supplies it instead.
    """
    l1, l2, l3 = _system_lhs(state, phi, theta)
    st, ct = math.sin(theta), math.cos(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    lam = l3 / ct if abs(ct) > COS_SWITCH else l1 / (st * cp)
    return lam, StationaryResidual(l1 - lam * st * cp, l2 - lam * st * sp, l3 - lam * ct)


def stationary_residual(
    state: SymThreeQubitCanonical, phi: float, theta: float
) -> StationaryResidual:
    return _eliminated(state, float(phi), float(theta))[1]


def _tangent_sides(
    state: SymThreeQubitCanonical, phi: float, branch: str
) -> tuple[float, float]:
    """(top, bottom) of the branch's relation tan(theta/2) = top / bottom."""
    sin_2phi = math.sin(2.0 * phi)
    if branch == "A":
        return state.g * sin_2phi, state.h * math.sin(state.gamma - phi)
    if branch == "B":
        return -state.t * sin_2phi, state.h * math.sin(state.gamma + phi)
    raise ValueError("branch must be 'A' or 'B'")


def theta_from_phi(
    state: SymThreeQubitCanonical, phi: float, branch: str
) -> float | None:
    """Polar angle determined by the azimuth along one tangent branch.

    Branch "A" uses the numerator g and angle gamma - phi; branch "B" uses -t
    and gamma + phi.  Returns None when the expression sits on a pole, or when
    the right-hand side is not positive so no theta in (0, pi) exists.
    """
    top, denominator = _tangent_sides(state, phi, branch)
    if abs(math.sin(2.0 * phi)) < 1e-12:  # phi at a quarter-turn: excluded azimuths
        return None
    if abs(denominator) < 1e-12:
        return None
    rhs = top / denominator
    if not rhs > 0.0:
        return None
    return 2.0 * math.atan(rhs)


def _on_branch(state: SymThreeQubitCanonical, phi: float, theta: float, branch: str) -> bool:
    """The branch's relation with cleared denominators holds at (phi, theta)."""
    top, bottom = _tangent_sides(state, phi, branch)
    return abs(top * math.cos(0.5 * theta) - bottom * math.sin(0.5 * theta)) <= BRANCH_AGREE_TOL


def find_case2_roots(state: SymThreeQubitCanonical) -> list[CandidateRecord]:
    """Every stationary spinor with theta > 0, as a tagged Case 2 record.

    The spinors are the roots of the Majorana stationarity polynomial, the
    pole theta = pi included, each kept when its full residual triple is below
    1e-8.  A spinor is tagged CASE23 when branch B's relation holds within
    1e-9 and A's does not, and CASE22 otherwise.  The records are sorted by
    (tag, phi, theta), and duplicates of one tag closer than 1e-9 in both
    angles are merged.
    """
    thetas, phis = stationary_spinors(coefficients(sym3q_to_dicke(state).amplitudes))
    records: list[CandidateRecord] = []
    for theta, phi in zip(thetas.tolist(), (phis % _TWO_PI).tolist()):
        # the stationarity system degenerates as theta -> 0, so tiny-theta
        # roots are the polar candidate in disguise; drop them here
        if theta <= THETA_FLOOR:
            continue
        lam, residual = _eliminated(state, phi, theta)
        worst = residual.max_abs()
        if worst > RESIDUAL_TOL:
            continue
        on_b = _on_branch(state, phi, theta, "B") and not _on_branch(state, phi, theta, "A")
        tag = CaseTag.CASE23 if on_b else CaseTag.CASE22
        records.append(
            CandidateRecord(phi, theta, lam, gm_candidate(state, phi, theta), tag, worst)
        )

    records.sort(key=lambda r: (r.case_tag.value, r.phi, r.theta))
    deduped: list[CandidateRecord] = []
    for record in records:
        if any(
            kept.case_tag is record.case_tag
            and abs(record.phi - kept.phi) <= DEDUPE_TOL
            and abs(record.theta - kept.theta) <= DEDUPE_TOL
            for kept in deduped
        ):
            continue
        deduped.append(record)
    return deduped


def gm_candidate(state: SymThreeQubitCanonical, phi: float, theta: float) -> float:
    """Squared-overlap value assigned to a stationary direction (phi, theta).

    Equals the two-qubit marginal overlap tr[rho_AB (P x P)] with both parties
    projected onto the Bloch direction (sin(theta)cos(phi), sin(theta)sin(phi),
    cos(theta)); at the best stationary direction this is the squared maximal
    overlap of the full state.
    """
    g, t, h, gamma = state.g, state.t, state.h, state.gamma
    ct = math.cos(theta)
    c2t = math.cos(2.0 * theta)
    st = math.sin(theta)
    half = 0.5 * theta
    return 0.125 * (
        3.0
        - 2.0 * t * t
        + 4.0 * (1.0 - 2.0 * h * h - 4.0 * t * t) * ct
        + (1.0 - 6.0 * t * t) * c2t
        + 4.0 * g * t * math.cos(2.0 * phi) * st * st
        + 32.0 * h * t * math.cos(gamma - phi) * math.cos(half) * math.sin(half) ** 3
    )


def candidate_case1(state: SymThreeQubitCanonical) -> CandidateRecord:
    """The polar stationary point theta = 0; its value is g squared."""
    lam = 2.0 * (state.g * state.g - state.t * state.t)
    return CandidateRecord(
        phi=0.0,
        theta=0.0,
        lam=lam,
        G_j_squared=state.g * state.g,
        case_tag=CaseTag.CASE1,
        residual=0.0,
    )


def candidate_case21(state: SymThreeQubitCanonical) -> CandidateRecord | None:
    """Closed-form stationary root with tan(phi) = (t+g)/(t-g) tan(gamma).

    Both tangent branches must produce the same theta there; the value has the
    rational closed form in (g, t, h, gamma).  Returns None when t and g are
    degenerate, the denominator vanishes, or the verification fails; the
    maximum does not depend on this root, because ``find_case2_roots``
    enumerates every stationary spinor of the full overlap.
    """
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
        lam, residual = _eliminated(state, phi, theta_a)
        if residual.max_abs() <= RESIDUAL_TOL:
            return CandidateRecord(phi, theta_a, lam, value, CaseTag.CASE21, residual.max_abs())
    return None


def gm_sym3q(
    state: SymThreeQubitCanonical, cfg: OracleConfig | None = None
) -> GmResult:
    """Maximal overlap of a canonical symmetric three-qubit state.

    Lists the polar point, the closed-form root and the tagged stationary
    spinors of ``find_case2_roots``, in (case tag, phi) order, and returns the
    largest value.  ``cfg`` is accepted for signature symmetry with the
    oracles and ignored: the enumeration is exact and deterministic.
    """
    del cfg
    records: list[CandidateRecord] = [candidate_case1(state)]
    closed = candidate_case21(state)
    if closed is not None:
        records.append(closed)
    records += find_case2_roots(state)
    best = max(records, key=lambda r: r.G_j_squared)

    direction = BlochVector(
        np.array(
            [
                math.sin(best.theta) * math.cos(best.phi),
                math.sin(best.theta) * math.sin(best.phi),
                math.cos(best.theta),
            ]
        )
    )
    return GmResult.from_overlap_squared(
        best.G_j_squared,
        closest_product=(direction,) * 3,
        candidates=tuple(records),
        method="sym3q",
    )
