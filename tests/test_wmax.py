import math
import tracemalloc

import numpy as np
import pytest

import gme
from gme import wmax
from gme._optim import golden_section_min as batched_golden_section_min
from gme.rank2 import _ClosedFormContext, _closed_form_value, _stationarity_quartic, f_objective
from gme.wmax import GOLDEN_TOL

from conftest import golden_section_min, rng_for

QUARTER = math.pi / 4
HALF = math.pi / 2


class TestSymmetricSubspace:
    def test_center_and_lower_pole(self):
        for g1 in np.linspace(QUARTER, HALF, 6):
            assert gme.g_symmetric_subspace(0.0, float(g1)) == pytest.approx(
                0.5, abs=1e-12
            )
            assert gme.g_symmetric_subspace(-1.0, float(g1)) == pytest.approx(
                0.5, abs=1e-12
            )

    def test_w_point(self):
        assert gme.g_symmetric_subspace(-1 / 3, QUARTER) == pytest.approx(
            4.0 / 9.0, abs=1e-12
        )

    def test_rejects_angle_out_of_range(self):
        with pytest.raises(gme.ValidationError):
            gme.g_symmetric_subspace(0.0, 0.3)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_general_closed_form(self, seed):
        rng = rng_for(3200 + seed)
        for _ in range(100):
            g1 = float(rng.uniform(QUARTER, HALF))
            x3 = float(rng.uniform(-1.0, 1.0))
            a = gme.g_symmetric_subspace(x3, g1)
            b = gme.g_closed_form(x3, g1, HALF - g1)
            assert abs(a - b) <= 1e-10


class TestX3Star:
    def test_w_value(self):
        assert gme.x3_star_symmetric(QUARTER) == pytest.approx(-1.0 / 3.0, abs=1e-14)

    def test_edge_value(self):
        assert gme.x3_star_symmetric(HALF) == pytest.approx(
            1.0 - math.sqrt(2.0), abs=1e-14
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_quadratic_residual(self, seed):
        rng = rng_for(3300 + seed)
        for _ in range(10):
            g1 = float(rng.uniform(QUARTER, HALF))
            x = gme.x3_star_symmetric(g1)
            c2 = math.cos(2 * g1)
            residual = (3 + c2) * x * x + (-2 + 2 * c2) * x + c2 - 1.0
            assert abs(residual) <= 1e-10
            assert abs(x) <= 1.0


class TestGMinSymmetric:
    def test_w_value(self):
        assert gme.g_min_symmetric(QUARTER) == pytest.approx(4.0 / 9.0, abs=1e-14)

    def test_edge_value(self):
        assert gme.g_min_symmetric(HALF) == pytest.approx(0.5, abs=1e-14)

    def test_monotone_increasing(self):
        grid = np.linspace(QUARTER, HALF, 200)
        values = [gme.g_min_symmetric(float(g)) for g in grid]
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))

    def test_floor_at_w_value(self):
        for g1 in np.linspace(QUARTER, HALF, 64):
            value = gme.g_min_symmetric(float(g1))
            assert value >= 4.0 / 9.0 - 1e-12
            if g1 > QUARTER + 1e-6:
                assert value > 4.0 / 9.0

    def test_consistency_with_explicit_minimization(self):
        for g1 in np.linspace(QUARTER, HALF, 9):
            x = gme.x3_star_symmetric(float(g1))
            assert gme.g_min_symmetric(float(g1)) == pytest.approx(
                gme.g_symmetric_subspace(x, float(g1)), abs=1e-10
            )


class TestEqualGamma:
    def test_upper_branch_is_angle_free(self):
        for g1 in (0.0, 0.2, 0.5, QUARTER):
            for x3 in (0.0, 0.4, 1.0):
                assert gme.g_equal_gamma(x3, g1) == pytest.approx(
                    0.5 * (1 + x3), abs=1e-14
                )

    def test_product_subspace(self):
        assert gme.g_equal_gamma(-1.0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_w_point(self):
        assert gme.g_equal_gamma(-1 / 3, QUARTER) == pytest.approx(4 / 9, abs=1e-12)

    def test_rejects_angle_out_of_range(self):
        with pytest.raises(gme.ValidationError):
            gme.g_equal_gamma(0.0, 1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_general_closed_form(self, seed):
        rng = rng_for(3400 + seed)
        for _ in range(100):
            g1 = float(rng.uniform(0.0, QUARTER))
            x3 = float(rng.uniform(-1.0, 1.0))
            assert abs(
                gme.g_equal_gamma(x3, g1) - gme.g_closed_form(x3, g1, g1)
            ) <= 1e-9


class TestMonotonicityInGamma2:
    @pytest.mark.parametrize("seed", range(6))
    def test_second_angle_direction(self, seed):
        """Smaller overlap for larger gamma2 when x3 < 0, larger when x3 > 0."""
        rng = rng_for(3500 + seed)
        step = 1e-6
        for _ in range(20):
            g1 = float(rng.uniform(0.3, HALF - 0.05))
            g2 = float(rng.uniform(0.02, min(g1, HALF - g1) - 0.02))
            coeffs = gme.closed_form_coeffs(0.0, g1, g2)
            x3 = float(rng.uniform(-0.95, 0.95))
            # stay away from the branch edges where the derivative jumps
            if min(abs(x3 - coeffs.x3_3), abs(x3 - coeffs.x3_4), abs(x3)) < 0.05:
                continue
            diff = gme.g_closed_form(x3, g1, g2 + step) - gme.g_closed_form(
                x3, g1, g2 - step
            )
            if x3 < 0:
                assert diff <= 1e-12
            else:
                assert diff >= -1e-12


def _scalar_window(g1, g2):
    """Edges (x3_3, x3_4) of the rational branch, with Python floats."""
    sg1, cg1, sg2, cg2 = math.sin(g1), math.cos(g1), math.sin(g2), math.cos(g2)
    inner = (cg1 * cg2 + sg1 * sg1) * sg2
    den = 1.0 + cg1 * (cg2 - sg2 * (cg1 * sg2 + sg1 * sg1 * (sg2 / cg2)))
    return -sg1 * (sg1 + inner) / den, -sg1 * (-sg1 + inner) / den


def _scalar_closed_form(x3, g1, g2, window):
    """Closed form at one point, one branch test after another."""
    x3_3, x3_4 = window
    low = 0.25 * (1.0 - x3) * (1.0 + math.cos(g1 + g2))
    high = 0.25 * (1.0 + x3) * (1.0 + math.cos(g1 - g2))
    amp = math.sin(g1) * math.cos(g2)
    shifted = amp - math.cos(g1) * math.sin(g2) * x3
    u1 = x3 * x3 - shifted * shifted
    if x3 == x3_3 or x3 == x3_4:
        return low if x3 == x3_3 else high
    if x3 < x3_3:
        return low
    if x3 > x3_4:
        return high
    if u1 >= -1e-15:
        return low if x3 <= 0.0 else high
    return (1.0 - x3 * x3) * amp * shifted / (-2.0 * u1)


def _scalar_scan(resolution):
    """Reference scan: one scalar golden-section search per cell, in row order."""
    rows, best = [], (math.inf, 0.0, 0.0, 0.0)
    for row_g1 in np.linspace(HALF / resolution, HALF, resolution):
        for row_g2 in np.linspace(0.0, min(row_g1, HALF - row_g1), resolution):
            g1, g2 = float(row_g1), float(row_g2)
            lo, hi = window = _scalar_window(g1, g2)

            def f(v):
                return _scalar_closed_form(v, g1, g2, window)

            if hi - lo <= GOLDEN_TOL:
                x = 0.5 * (lo + hi)
                value = f(x)
            else:
                x, value = golden_section_min(f, lo, hi, GOLDEN_TOL)
                if lo < 0.0 < hi and f(0.0) <= value + 1e-12:
                    x, value = 0.0, f(0.0)
            rows.append((g1, g2, x, value))
            if value < best[0]:
                best = (value, g1, g2, x)
    cells = np.array(rows)
    above = cells[cells[:, 3] > best[0], 3]
    return cells, best[0], best[1:], float(above.min() - best[0])


def _closed_form_search_scan(resolution):
    """Reference cells: one linspace per gamma1 row and a golden search of the
    full three-branch closed form, then the scan's Newton steps and zero snap."""
    gamma1 = np.linspace(HALF / resolution, HALF, resolution)
    gamma2 = [np.linspace(0.0, min(g1, HALF - g1), resolution) for g1 in gamma1]
    cells = np.empty((resolution * resolution, 4))
    cells[:, 0] = np.repeat(gamma1, resolution)
    cells[:, 1] = np.concatenate(gamma2)
    block = wmax._BLOCK_ROWS * resolution
    for start in range(0, cells.shape[0], block):
        rows = cells[start : start + block]
        ctx = _ClosedFormContext.from_angles(rows[:, 0], rows[:, 1])
        lo, hi = ctx.x3_3, ctx.x3_4
        x = batched_golden_section_min(
            lambda v: _closed_form_value(v, ctx), lo, hi, tol=wmax.BRACKET_WIDTH
        )
        for _ in range(wmax.NEWTON_STEPS):
            p, dp = _stationarity_quartic(x, ctx)
            ok = np.isfinite(p) & (dp > 0.0)
            x = np.where(ok, np.clip(x - p / np.where(ok, dp, 1.0), lo, hi), x)
        value = _closed_form_value(x, ctx)
        straddles = (hi - lo > GOLDEN_TOL) & (lo < 0.0) & (0.0 < hi)
        at_zero = _closed_form_value(np.where(straddles, 0.0, x), ctx)
        snap = straddles & (at_zero <= value + 1e-12)
        rows[:, 2] = np.where(snap, 0.0, x)
        rows[:, 3] = np.where(snap, at_zero, value)
    return cells


class TestScanGlobalMin:
    @pytest.mark.parametrize("resolution", [32, 33, 256])
    def test_matches_closed_form_search(self, resolution):
        """Searching the rational branch alone and the stacked gamma2 linspace
        change no bit of the cells."""
        cells = gme.scan_global_min(resolution).cells
        assert np.array_equal(cells, _closed_form_search_scan(resolution))

    def test_rejects_small_resolution(self):
        with pytest.raises(gme.ValidationError):
            gme.scan_global_min(16)

    @pytest.mark.parametrize("resolution", [32.5, "64", None, True])
    def test_rejects_non_integer_resolution(self, resolution):
        with pytest.raises(gme.ValidationError, match="integer"):
            gme.scan_global_min(resolution)

    def test_resolution_cap_raises_before_allocating(self):
        cap = gme.wmax.RESOLUTION_CAP
        assert cap >= 256  # the benchmark's wmax-scan resolution
        tracemalloc.start()
        try:
            with pytest.raises(gme.CapacityError, match=f"capped at {cap}"):
                gme.scan_global_min(cap + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (cap + 1) ** 2 * 8  # one float per cell would be this much

    @pytest.mark.parametrize("resolution", [32, 33, 64])
    def test_matches_scalar_search(self, resolution):
        """The batched search reproduces one scalar search per cell.

        33 has no grid point at pi/4; the gamma2 = 0 rows exercise the
        flat-window tie rule.
        """
        cells, min_g, argmin, margin = _scalar_scan(resolution)
        report = gme.scan_global_min(resolution)
        assert np.max(np.abs(report.cells[:, [0, 1, 3]] - cells[:, [0, 1, 3]])) <= 1e-12
        assert np.max(report.cells[:, 3] - cells[:, 3]) <= 1e-15
        assert abs(report.min_g - min_g) <= 1e-12
        assert np.max(np.abs(np.array(report.argmin[:2]) - np.array(argmin[:2]))) <= 1e-12
        assert abs(report.margin - margin) <= 1e-12
        # golden section resolves x3 only to about sqrt(eps) where the branch
        # is flat, so x3 is checked for stationarity and against the reference
        assert np.max(np.abs(report.cells[:, 2] - cells[:, 2])) <= 1e-5
        g1, g2, x3 = report.cells[:, :3].T
        ctx = _ClosedFormContext.from_angles(g1, g2)
        p, _ = _stationarity_quartic(x3, ctx)
        settled = (np.abs(p) <= 1e-12) | (x3 == ctx.x3_3) | (x3 == ctx.x3_4) | (x3 == 0.0)
        assert np.all(settled)

    @pytest.mark.parametrize("resolution", [32, 64, 256])
    def test_symmetric_line_is_exact(self, resolution):
        """The last cell of each row with pi/4 <= gamma1 < pi/2 lies on the
        symmetric-subspace line, where the minimizer has a closed form."""
        report = gme.scan_global_min(resolution)
        last = report.cells[resolution - 1 :: resolution]
        line = last[(last[:, 0] >= QUARTER) & (last[:, 0] < HALF)]
        assert line.shape[0] >= resolution // 2
        for g1, _, x3, value in line:
            assert abs(x3 - gme.x3_star_symmetric(float(g1))) <= 1e-10
            assert abs(value - gme.g_min_symmetric(float(g1))) <= 1e-14

    def test_argmin_is_the_w_point(self):
        report = gme.scan_global_min(256)
        expected = np.array([QUARTER, QUARTER, -1.0 / 3.0])
        assert np.max(np.abs(np.array(report.argmin) - expected)) <= 1e-12

    def test_never_above_fine_golden_search(self):
        """Every cell is at most the batched golden search run to GOLDEN_TOL
        over the same 16-row blocks, with the same zero snap."""
        resolution = 256
        report = gme.scan_global_min(resolution)
        block = gme.wmax._BLOCK_ROWS * resolution
        for start in range(0, report.cells.shape[0], block):
            rows = report.cells[start : start + block]
            ctx = _ClosedFormContext.from_angles(rows[:, 0], rows[:, 1])
            lo, hi = ctx.x3_3, ctx.x3_4
            x = batched_golden_section_min(
                lambda v: _closed_form_value(v, ctx), lo, hi, tol=GOLDEN_TOL
            )
            value = _closed_form_value(x, ctx)
            straddles = (hi - lo > GOLDEN_TOL) & (lo < 0.0) & (0.0 < hi)
            at_zero = _closed_form_value(np.where(straddles, 0.0, x), ctx)
            reference = np.where(straddles & (at_zero <= value + 1e-12), at_zero, value)
            assert np.max(rows[:, 3] - reference) <= 1e-15

    def test_locates_w_minimum(self):
        report = gme.scan_global_min(32)
        assert report.min_g == pytest.approx(4.0 / 9.0, abs=1e-6)
        assert report.argmin[0] == pytest.approx(QUARTER, abs=HALF / 32 + 1e-12)
        assert report.argmin[1] == pytest.approx(QUARTER, abs=HALF / 32 + 1e-12)
        assert report.argmin[2] == pytest.approx(-1.0 / 3.0, abs=1e-5)
        assert report.margin >= 0.0
        assert report.cells.shape == (32 * 32, 4)

    def test_minimizers_on_the_negative_side(self):
        report = gme.scan_global_min(32)
        x3_min = report.cells[:, 2]
        assert np.all(x3_min > -1.0)
        assert np.all(x3_min <= 0.0)

    def test_gamma2_zero_rows(self):
        report = gme.scan_global_min(32)
        rows = report.cells[np.abs(report.cells[:, 1]) < 1e-15]
        assert rows.shape[0] >= 32
        assert np.max(np.abs(rows[:, 3] - 0.5)) <= 1e-8
        assert np.max(np.abs(rows[:, 2])) <= 1e-6

    def test_no_state_beats_w_entanglement(self):
        report = gme.scan_global_min(32)
        e_g = 1.0 - report.cells[:, 3]
        assert np.max(e_g) <= 5.0 / 9.0 + 1e-9


class TestUniqueness:
    def test_bound_at_zero_is_w_value(self):
        assert gme.uniqueness_bound(0.0) == pytest.approx(4.0 / 9.0, abs=1e-15)

    def test_bound_at_one(self):
        expected = (2.0 / 36.0) * (8.0 + math.sqrt(66.0))
        assert gme.uniqueness_bound(1.0) == pytest.approx(expected, abs=1e-15)
        assert gme.uniqueness_bound(1.0) > 4.0 / 9.0

    def test_bound_is_increasing(self):
        xs = np.linspace(0.0, 1.0, 50)
        values = [gme.uniqueness_bound(float(x)) for x in xs]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("x1", [0.0, 0.01, 0.3, 0.7, 2.0 * math.sqrt(2.0) / 3.0])
    def test_bound_is_attained_by_the_w_product(self, x1):
        """The bound is a quarter of the overlap functional at W's closest
        product, so the overlap at (x1, 0, -1/3) is at least the bound."""
        state = gme.RankTwoCanonical(QUARTER, QUARTER, [x1, 0.0, -1.0 / 3.0])
        attained = 0.25 * f_objective(state, wmax._W_PRODUCT)
        assert abs(gme.uniqueness_bound(x1) - attained) <= 2.3e-16
        assert gme.g_numeric(state) >= attained - 1e-15

    @pytest.mark.parametrize("x1", [math.nan, math.inf, -0.1, 1.5])
    def test_bound_rejects_x1_outside_unit_interval(self, x1):
        with pytest.raises(gme.ValidationError, match="x1 must lie in"):
            gme.uniqueness_bound(x1)

    def test_certificate(self):
        assert gme.verify_w_uniqueness() is True

    def test_certificate_calls_no_solver(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the certificate called max_on_sphere")

        for module in (gme._optim, gme.rank2, gme.oracle):
            monkeypatch.setattr(module, "max_on_sphere", fail)
        assert wmax.verify_w_uniqueness() is True

    def test_certificate_rejects_a_rotation_dependence(self, monkeypatch):
        """A density matrix tilted by 1e-7 at any one rotated state breaks check (b)."""
        build = wmax.rank2_to_matrix
        for radius, angle in wmax._ROTATIONS:
            target = (radius * math.cos(angle), radius * math.sin(angle))
            tilted = []

            def tilt(state):
                rho = build(state)
                if state.x[1] != 0.0 and tuple(state.x[:2]) == target:
                    tilted.append(state)
                    rho = rho + 1e-7 * np.diag([1.0, -1.0, 0.0, 0.0])
                return rho

            monkeypatch.setattr(wmax, "rank2_to_matrix", tilt)
            assert wmax.verify_w_uniqueness() is False
            assert len(tilted) == 1

    @pytest.mark.parametrize(
        "x1", [x1 for x1 in wmax.UNIQUENESS_X1 if x1 <= wmax._X1_PHYSICAL_MAX]
    )
    def test_certificate_rejects_a_bound_above_the_overlap(self, monkeypatch, x1):
        """Raising the bound by 1e-12 at one physical sample breaks check (a')."""
        bound = wmax.uniqueness_bound
        monkeypatch.setattr(wmax, "uniqueness_bound", lambda v: bound(v) + 1e-12 * (v == x1))
        assert wmax.verify_w_uniqueness() is False

    def test_certificate_rejects_w_min_above_a_bound(self, monkeypatch):
        """A W value no lower than the bound at the first sample breaks check (a)."""
        monkeypatch.setattr(wmax, "W_MIN", gme.uniqueness_bound(wmax.UNIQUENESS_X1[0]))
        assert wmax.verify_w_uniqueness() is False
