"""State representations, their validation, and dense conversions.

Conventions used across the package:

* qubit 0 is the most significant bit of a computational-basis index;
* all angles are radians;
* serialized complex numbers are ``[re, im]`` pairs.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Sequence

import numpy as np

NORM_REJECT_TOL = 1e-6  # larger deviations from unit norm are user errors
DENSE_QUBIT_CAP = 20  # dense vectors above this size are refused
DICKE_QUBIT_CAP = 2000  # sqrt_binomials overflows a double from N = 2054


class ValidationError(ValueError):
    """A state failed its construction invariants."""


class CapacityError(ValidationError):
    """An input exceeds a documented size cap (qubits, Dicke N, scan resolution)."""


class UnsupportedAmplitudesError(ValidationError):
    """The analytic solver does not cover these amplitudes; use the oracle."""


def _unit_vector(values: Sequence[complex], length: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex).reshape(-1)
    if arr.size != length:
        raise ValidationError(f"{what} must have length {length}, got {arr.size}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValidationError(f"{what} must be finite")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > NORM_REJECT_TOL:
        raise ValidationError(
            f"{what} must be normalized (norm deviates by {abs(norm - 1.0):.3g})"
        )
    arr = arr / norm
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PureState:
    """Dense state vector of ``n_qubits`` qubits.

    Amplitudes are indexed by computational-basis bitstrings with qubit 0 as
    the most significant bit.  Vectors within 1e-6 of unit norm are silently
    renormalized; anything farther off is rejected.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        n = self.n_qubits
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValidationError("n_qubits must be a positive integer")
        if n > DENSE_QUBIT_CAP:
            raise CapacityError(f"dense states are capped at {DENSE_QUBIT_CAP} qubits")
        amps = _unit_vector(self.amplitudes, 1 << n, "amplitudes")
        object.__setattr__(self, "n_qubits", int(n))
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class SymmetricDickeState:
    """Symmetric N-qubit state given by amplitudes over excitation number m."""

    N: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        n = self.N
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValidationError("N must be a positive integer")
        if n > DICKE_QUBIT_CAP:
            raise CapacityError(f"Dicke states are capped at N = {DICKE_QUBIT_CAP}")
        amps = _unit_vector(self.amplitudes, n + 1, "amplitudes")
        object.__setattr__(self, "N", int(n))
        object.__setattr__(self, "amplitudes", amps)

    @property
    def non_negative(self) -> bool:
        """True iff every amplitude is real (imag within 1e-12) and >= 0."""
        return bool(
            np.all(np.abs(self.amplitudes.imag) <= 1e-12)
            and np.all(self.amplitudes.real >= -1e-12)
        )


@dataclass(frozen=True)
class SymThreeQubitCanonical:
    """Canonical symmetric three-qubit state.

    Parametrized by non-negative reals (g, t, h) with g^2 + 3 t^2 + h^2 = 1
    and a relative phase gamma in [-pi/2, pi/2] carried by the all-ones
    component.
    """

    g: float
    t: float
    h: float
    gamma: float

    def __post_init__(self) -> None:
        g, t, h = float(self.g), float(self.t), float(self.h)
        gamma = float(self.gamma)
        if not all(map(math.isfinite, (g, t, h, gamma))):
            raise ValidationError("g, t, h and gamma must be finite")
        if min(g, t, h) < 0.0:
            raise ValidationError("g, t, h must be non-negative")
        if not -math.pi / 2 - 1e-12 <= gamma <= math.pi / 2 + 1e-12:
            raise ValidationError("gamma must lie in [-pi/2, pi/2]")
        norm_sq = g * g + 3.0 * t * t + h * h
        norm = math.sqrt(norm_sq)
        if abs(norm - 1.0) > NORM_REJECT_TOL:
            raise ValidationError(
                f"g^2 + 3 t^2 + h^2 must equal 1 (deviates by {abs(norm_sq - 1.0):.3g})"
            )
        object.__setattr__(self, "g", g / norm)
        object.__setattr__(self, "t", t / norm)
        object.__setattr__(self, "h", h / norm)
        object.__setattr__(self, "gamma", gamma)


def _check_canonical_angles(g1: float, g2: float, tol: float = 1e-12) -> None:
    if not (-tol <= g2 <= g1 + tol and g1 <= math.pi / 2 + tol):
        raise ValidationError("angles must satisfy 0 <= gamma2 <= gamma1 <= pi/2")
    if g1 + g2 > math.pi / 2 + tol:
        raise ValidationError("angles must satisfy gamma1 + gamma2 <= pi/2")


@dataclass(frozen=True)
class RankTwoCanonical:
    """Two-qubit rank-two state in canonical subspace coordinates.

    ``gamma1``/``gamma2`` fix the rank-two subspace (0 <= gamma2 <= gamma1 <=
    pi/2 with gamma1 + gamma2 <= pi/2); ``x`` is the Bloch vector of the state
    in that subspace's basis |e0>, |e1> (norm at most 1; see :func:`rank2_to_matrix`).
    """

    gamma1: float
    gamma2: float
    x: np.ndarray

    def __post_init__(self) -> None:
        g1, g2 = float(self.gamma1), float(self.gamma2)
        _check_canonical_angles(g1, g2)
        x = np.asarray(self.x, dtype=float).reshape(-1)
        if x.size != 3:
            raise ValidationError("x must be a 3-vector")
        if not np.all(np.isfinite(x)):
            raise ValidationError("x must be finite")
        if float(x @ x) > 1.0 + 1e-12:
            raise ValidationError("Bloch vector must satisfy |x| <= 1")
        x = x.copy()
        if abs(x[1]) < 1e-14:  # only an exact zero lets cli._rank2_routes offer rank2_closed
            x[1] = 0.0
        x.flags.writeable = False
        object.__setattr__(self, "gamma1", g1)
        object.__setattr__(self, "gamma2", g2)
        object.__setattr__(self, "x", x)


@dataclass(frozen=True)
class BlochVector:
    """Unit Bloch vector of a pure qubit state."""

    s: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.s, dtype=float).reshape(-1)
        if s.size != 3:
            raise ValidationError("Bloch vector must have 3 components")
        norm = float(np.linalg.norm(s))
        if abs(norm - 1.0) > NORM_REJECT_TOL:
            raise ValidationError("Bloch vector must have unit norm")
        s = s / norm
        s.flags.writeable = False
        object.__setattr__(self, "s", s)

    def __iter__(self):
        return iter(self.s)


class CaseTag(str, Enum):
    """Which stationarity case produced a symmetric three-qubit candidate."""

    CASE1 = "Case1"
    CASE21 = "Case21"
    CASE22 = "Case22"
    CASE23 = "Case23"


@dataclass(frozen=True)
class CandidateRecord:
    """One stationary-point candidate of the overlap maximization."""

    phi: float
    theta: float
    lam: float  # Lagrange multiplier of the unit-norm constraint
    G_j_squared: float
    case_tag: CaseTag
    residual: float  # max abs stationarity residual after multiplier elimination


Method = str  # one of: dicke, sym3q, rank2_closed, rank2_numeric, oracle

_METHODS = ("dicke", "sym3q", "rank2_closed", "rank2_numeric", "oracle")


@dataclass(frozen=True)
class GmResult:
    """Outcome of a maximal-overlap computation.

    ``G`` is the maximal overlap, ``E_G = 1 - G^2`` the geometric measure.
    ``closest_product`` lists one Bloch vector per party when the maximizing
    product state was computed, and ``candidates`` is the stationary-point
    audit trail for the enumerating solver.
    """

    G: float
    G_squared: float
    E_G: float
    closest_product: tuple[BlochVector, ...] = ()
    candidates: tuple[CandidateRecord, ...] = ()
    method: Method = "oracle"
    warning: str | None = None

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValidationError(f"unknown method tag {self.method!r}")
        if not 0.0 <= self.G <= 1.0:
            raise ValidationError("G must lie in [0, 1]")

    @classmethod
    def from_overlap(cls, overlap: float, **kwargs: Any) -> "GmResult":
        g = min(1.0, max(0.0, float(overlap)))
        g_sq = g * g
        return cls(G=g, G_squared=g_sq, E_G=1.0 - g_sq, **kwargs)

    @classmethod
    def from_overlap_squared(cls, overlap_sq: float, **kwargs: Any) -> "GmResult":
        g_sq = min(1.0, max(0.0, float(overlap_sq)))
        return cls(G=math.sqrt(g_sq), G_squared=g_sq, E_G=1.0 - g_sq, **kwargs)


def sqrt_binomials(n: int) -> np.ndarray:
    """sqrt(C(n, m)) for m = 0..n, each within 2.2e-16 relative of exact.

    C(n, m) = C(n, m - 1) (n - m + 1) / m in integers up to m = n/2, mirrored
    beyond; a C(n, m) past a double's range takes its integer square root
    first, and from n = 2054 that overflows too (OverflowError).
    """
    half, c = [], 1
    for m in range(n // 2 + 1):
        half.append(math.sqrt(c) if c.bit_length() < 1024 else float(math.isqrt(c)))
        c = c * (n - m) // (m + 1)
    return np.array(half + (half[::-1] if n % 2 else half[-2::-1]))


def dicke_to_dense(state: SymmetricDickeState) -> PureState:
    """Expand a Dicke-basis state into the full 2^N amplitude vector.

    Every bitstring of Hamming weight m receives amplitude
    ``a_m / sqrt(C(N, m))``.
    """
    n = state.N
    if n > DENSE_QUBIT_CAP:
        raise CapacityError(f"dense expansion is capped at {DENSE_QUBIT_CAP} qubits")
    weights = np.zeros(1, dtype=np.int64)  # Hamming weight of each index, one bit per doubling
    for _ in range(n):
        weights = np.concatenate([weights, weights + 1])
    scale = 1.0 / sqrt_binomials(n)
    amps = state.amplitudes[weights] * scale[weights]
    return PureState(n_qubits=n, amplitudes=amps)


def sym3q_to_dense(state: SymThreeQubitCanonical) -> PureState:
    """Dense 8-amplitude vector of the canonical symmetric three-qubit state."""
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = state.g
    amps[0b011] = state.t
    amps[0b101] = state.t
    amps[0b110] = state.t
    amps[0b111] = state.h * cmath.exp(1j * state.gamma)
    return PureState(n_qubits=3, amplitudes=amps)


def sym3q_to_dicke(state: SymThreeQubitCanonical) -> SymmetricDickeState:
    """Dicke-basis amplitudes (m = 0..3) of the canonical three-qubit state."""
    amps = np.array(
        [
            state.g,
            0.0,
            math.sqrt(3.0) * state.t,
            state.h * cmath.exp(1j * state.gamma),
        ],
        dtype=complex,
    )
    return SymmetricDickeState(N=3, amplitudes=amps)


def rank2_to_matrix(state: RankTwoCanonical) -> np.ndarray:
    """Density matrix 1/2 V (I + x . sigma) V^dagger of the canonical rank-two state.

    V's columns |e0> = cos(d/2)|00> + sin(d/2)|11> and |e1> = cos(s/2)|01> +
    sin(s/2)|10>, d = gamma1 - gamma2 and s = gamma1 + gamma2, span the
    subspace, and ``x`` is the state's Bloch vector in that basis.  The result
    is Hermitian, trace one, and positive semidefinite of rank at most two.
    """
    d, s = state.gamma1 - state.gamma2, state.gamma1 + state.gamma2
    basis = np.zeros((4, 2))
    basis[[0, 3], 0] = math.cos(0.5 * d), math.sin(0.5 * d)
    basis[[1, 2], 1] = math.cos(0.5 * s), math.sin(0.5 * s)
    x1, x2, x3 = state.x
    bloch = 0.5 * np.array([[1.0 + x3, x1 - 1j * x2], [x1 + 1j * x2, 1.0 - x3]])
    return basis @ bloch @ basis.T


# ---------------------------------------------------------------------------
# JSON serialization: {"kind": "pure"|"dicke"|"sym3q"|"rank2", ...fields}
# ---------------------------------------------------------------------------

StateLike = PureState | SymmetricDickeState | SymThreeQubitCanonical | RankTwoCanonical


def _complex_pairs(arr: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in arr]


def _from_complex_pairs(pairs: Any, what: str) -> np.ndarray:
    try:
        return np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a list of [re, im] pairs") from exc


def _integer_field(value: Any, what: str) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real_field(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return float(value)


def _three_reals(value: Any, what: str) -> list[float]:
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise ValidationError(f"{what} must be a list of three numbers, got {value!r}")
    return [_real_field(v, what) for v in value]


# Each kind's dataclass and JSON fields in output order, as (JSON key,
# attribute, encoder, decoder); a decoder takes the JSON value and its key.
_AMPLITUDES = ("amplitudes", "amplitudes", _complex_pairs, _from_complex_pairs)
_KINDS: dict[str, tuple[type, tuple[tuple[str, str, Callable, Callable], ...]]] = {
    "pure": (PureState, (("n_qubits", "n_qubits", int, _integer_field), _AMPLITUDES)),
    "dicke": (SymmetricDickeState, (("n_qubits", "N", int, _integer_field), _AMPLITUDES)),
    "sym3q": (SymThreeQubitCanonical, tuple(
        (key, key, float, _real_field) for key in ("g", "t", "h", "gamma")
    )),
    "rank2": (RankTwoCanonical, (
        ("gamma1", "gamma1", float, _real_field),
        ("gamma2", "gamma2", float, _real_field),
        ("x", "x", np.ndarray.tolist, _three_reals),
    )),
}
_KIND_OF_TYPE = {cls: kind for kind, (cls, _) in _KINDS.items()}


def state_kind(state: StateLike) -> str:
    """The JSON ``kind`` string of a state object."""
    try:
        return _KIND_OF_TYPE[type(state)]
    except KeyError:
        raise ValidationError(f"{type(state).__name__} is not a state kind") from None


def state_to_dict(state: StateLike) -> dict[str, Any]:
    """JSON-compatible dictionary for a state (lossless float round-trip)."""
    kind = state_kind(state)
    fields = _KINDS[kind][1]
    return {"kind": kind, **{key: enc(getattr(state, attr)) for key, attr, enc, _ in fields}}


def state_from_dict(data: dict[str, Any]) -> StateLike:
    """Inverse of :func:`state_to_dict`; raises ValidationError on bad input."""
    try:
        kind = data["kind"]
    except (TypeError, KeyError):
        raise ValidationError("state JSON must be an object with a 'kind' field")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValidationError(f"unknown state kind {kind!r}")
    cls, fields = _KINDS[kind]
    try:
        return cls(**{attr: dec(data[key], key) for key, attr, _, dec in fields})
    except KeyError as exc:
        raise ValidationError(f"state JSON is missing field {exc}") from exc


def load_state(path: str) -> StateLike:
    with open(path, "r", encoding="utf-8") as handle:
        return state_from_dict(json.load(handle))


def save_state(state: StateLike, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(state_to_dict(state), handle, indent=2)
        handle.write("\n")
