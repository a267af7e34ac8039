"""Global minimum of the rank-two overlap and the W-state extremality check.

Restricting to the x1 = x2 = 0 axis (where the overlap is smallest in each
subspace by convexity and sign symmetry), the per-subspace minimum over x3 is
located inside the window where the closed form is rational, by one
golden-section search run on arrays of grid cells at once.  Scanning the
canonical angle triangle then certifies that the smallest value over all
subspaces is 4/9, reached by the two-qubit marginal of the W state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optim import golden_section_min_vector
from .rank2 import _ClosedFormContext, _closed_form_value, _require_range, g_numeric
from .states import RankTwoCanonical, ValidationError

W_MIN = 4.0 / 9.0
GOLDEN_TOL = 1e-10
_QUARTER = math.pi / 4.0
_HALF = math.pi / 2.0
_BLOCK_ROWS = 16  # gamma1 rows per batched search; whole grids cost memory, not time


def g_symmetric_subspace(x3: float, gamma1: float) -> float:
    """Closed-form overlap on the symmetric-subspace line gamma2 = pi/2 - gamma1.

    Two branches: a rational piece below the upper window edge and a linear
    piece above it.  Valid for gamma1 in [pi/4, pi/2].
    """
    gamma1 = _require_range(gamma1, _QUARTER, _HALF, "gamma1")
    x3 = _require_range(x3, -1.0, 1.0, "x3")
    swing = math.sqrt(2.0) * math.sin(2.0 * gamma1 + _QUARTER)
    edge = (1.0 - swing) / (3.0 + swing)
    if x3 < edge:
        cos_sq = math.cos(gamma1) ** 2
        denominator = -1.0 + 3.0 * x3 + (1.0 + x3) * math.cos(2.0 * gamma1)
        return 0.5 - (1.0 + x3) * x3 * cos_sq / denominator
    return 0.25 * (1.0 + x3) * (1.0 + math.sin(2.0 * gamma1))


def x3_star_symmetric(gamma1: float) -> float:
    """Minimizing x3 on the symmetric-subspace line for a given gamma1.

    It is the unique root with modulus at most one of the quadratic
    (3 + cos(2 g1)) x^2 + (-2 + 2 cos(2 g1)) x + cos(2 g1) - 1 = 0.
    """
    gamma1 = _require_range(gamma1, _QUARTER, _HALF, "gamma1")
    s = math.sin(gamma1)
    return 2.0 * s * (s - math.sqrt(2.0)) / (3.0 + math.cos(2.0 * gamma1))


def g_min_symmetric(gamma1: float) -> float:
    """Minimum overlap over x3 on the symmetric-subspace line."""
    gamma1 = _require_range(gamma1, _QUARTER, _HALF, "gamma1")
    c2 = math.cos(2.0 * gamma1)
    numerator = (1.0 + c2 + math.sqrt(2.0) * math.sin(gamma1)) ** 2
    return numerator / (3.0 + c2) ** 2


def g_equal_gamma(x3: float, gamma1: float) -> float:
    """Closed-form overlap on the equal-angle line gamma2 = gamma1 <= pi/4."""
    gamma1 = _require_range(gamma1, 0.0, _QUARTER, "gamma1")
    x3 = _require_range(x3, -1.0, 1.0, "x3")
    edge = -math.tan(gamma1) ** 2
    if x3 <= edge:
        return 0.5 * (1.0 - x3) * math.cos(gamma1) ** 2
    if x3 < 0.0:
        numerator = -((1.0 - x3) ** 2) * (1.0 + x3) * math.sin(2.0 * gamma1) ** 2
        denominator = (
            -1.0
            + x3 * (2.0 + 7.0 * x3)
            + (1.0 - x3) ** 2 * math.cos(4.0 * gamma1)
        )
        return numerator / denominator
    return 0.5 * (1.0 + x3)


@dataclass(frozen=True)
class GlobalMinReport:
    """Result of scanning every rank-two subspace for its smallest overlap.

    ``cells`` has one row (gamma1, gamma2, x3_min, g_min) per grid cell and is
    the source of the per-subspace-minimum surface data.
    """

    min_g: float
    argmin: tuple[float, float, float]  # (gamma1, gamma2, x3)
    grid_spec: str
    margin: float
    cells: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 < self.min_g <= 0.5 + 1e-12:
            raise ValidationError("min_g must lie in (0, 1/2]")


def scan_global_min(resolution: int) -> GlobalMinReport:
    """Per-subspace minima over a grid of the canonical angle triangle.

    gamma1 ranges over ``resolution`` evenly spaced values in (0, pi/2] (for
    even resolutions the grid contains pi/4 exactly) and gamma2 over
    ``resolution`` values in [0, min(gamma1, pi/2 - gamma1)].  The minimum
    over x3 is restricted to the window between the closed form's two linear
    branches, where the overlap is smallest, and located by one golden-section
    search over the cells of 16 gamma1 rows at a time; each cell takes the
    steps of a scalar search, so the batching does not change the result.
    Ties resolve to the lowest gamma1, then gamma2.
    """
    if not isinstance(resolution, (int, np.integer)):
        raise ValidationError("resolution must be an integer")
    if resolution < 32:
        raise ValidationError("resolution must be at least 32")

    gamma1_values = np.linspace(_HALF / resolution, _HALF, resolution)
    cells = np.empty((resolution * resolution, 4))
    cells[:, 0] = np.repeat(gamma1_values, resolution)
    # one linspace per row: a stacked linspace rounds the degenerate row
    # gamma1 = pi/2 differently and so changes every row
    cells[:, 1] = np.concatenate(
        [np.linspace(0.0, min(g1, _HALF - g1), resolution) for g1 in gamma1_values]
    )
    block = _BLOCK_ROWS * resolution
    for start in range(0, cells.shape[0], block):
        rows = cells[start : start + block]
        ctx = _ClosedFormContext.from_angles(rows[:, 0], rows[:, 1])
        lo, hi = ctx.x3_3, ctx.x3_4
        x, value = golden_section_min_vector(
            lambda v: _closed_form_value(v, ctx), lo, hi, tol=GOLDEN_TOL
        )
        # the window can be exactly flat (Bell-pair subspace); canonicalize
        # tied minimizers to the smallest |x3|
        straddles = (hi - lo > GOLDEN_TOL) & (lo < 0.0) & (0.0 < hi)
        at_zero = _closed_form_value(np.where(straddles, 0.0, x), ctx)
        snap = straddles & (at_zero <= value + 1e-12)
        rows[:, 2] = np.where(snap, 0.0, x)
        rows[:, 3] = np.where(snap, at_zero, value)

    values = cells[:, 3]
    best = int(np.argmin(values))  # the first minimal cell in row order
    min_g = float(values[best])
    above = values[values > min_g]
    margin = float(above.min() - min_g) if above.size else 0.0
    spec = (
        f"{resolution}x{resolution} cells; gamma1 in (0, pi/2] step pi/(2*{resolution}), "
        f"gamma2 in [0, min(gamma1, pi/2 - gamma1)]; golden-section tol {GOLDEN_TOL:g}"
    )
    return GlobalMinReport(
        min_g=min_g,
        argmin=tuple(float(v) for v in cells[best, :3]),
        grid_spec=spec,
        margin=margin,
        cells=cells,
    )


# x1 values of the published pointwise lower bound; the overlap functional is
# also sampled there when the Bloch ball admits the point (x1 <= 2*sqrt(2)/3)
UNIQUENESS_X1 = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
_X1_PHYSICAL_MAX = 2.0 * math.sqrt(2.0) / 3.0


def uniqueness_bound(x1: float) -> float:
    """Pointwise lower bound on the overlap at (x1, 0, -1/3) in the W subspace.

    Quarter of the overlap functional evaluated at the W state's own closest
    product direction; strictly above 4/9 for every x1 > 0.
    """
    return 0.25 * (2.0 / 9.0) * (
        5.0 + 3.0 * x1 + math.sqrt(9.0 + 3.0 * x1 * (10.0 + 9.0 * x1))
    )


def verify_w_uniqueness() -> bool:
    """Certify that only the W point attains the global minimum 4/9.

    Checks that (a) the analytic lower bound exceeds 4/9 for every sampled
    x1 > 0 and the numeric overlap respects it wherever the state exists, and
    (b) the overlap in the W subspace is rotation-invariant about x3, so the
    x2 direction is covered by the x1 samples.
    """
    for x1 in UNIQUENESS_X1:
        bound = uniqueness_bound(x1)
        if x1 > 0.0 and not bound > W_MIN:
            return False
        if x1 <= _X1_PHYSICAL_MAX:
            state = RankTwoCanonical(_QUARTER, _QUARTER, np.array([x1, 0.0, -1.0 / 3.0]))
            if g_numeric(state) < bound - 1e-9:
                return False

    for radius in (0.1, 0.5, 0.9):
        reference = g_numeric(
            RankTwoCanonical(_QUARTER, _QUARTER, np.array([radius, 0.0, -1.0 / 3.0]))
        )
        for angle in (0.7, 2.1, 4.4):
            rotated = RankTwoCanonical(
                _QUARTER,
                _QUARTER,
                np.array(
                    [radius * math.cos(angle), radius * math.sin(angle), -1.0 / 3.0]
                ),
            )
            if abs(g_numeric(rotated) - reference) > 1e-8:
                return False
    return True
