import math

import numpy as np
import pytest

import gme
from gme._optim import golden_section_min
from gme.wmax import GOLDEN_TOL

from conftest import rng_for

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


class TestScanGlobalMin:
    def test_rejects_small_resolution(self):
        with pytest.raises(gme.ValidationError):
            gme.scan_global_min(16)

    @pytest.mark.parametrize("resolution", [32.5, "64", None])
    def test_rejects_non_integer_resolution(self, resolution):
        with pytest.raises(gme.ValidationError):
            gme.scan_global_min(resolution)

    @pytest.mark.parametrize("resolution", [32, 33, 64])
    def test_matches_scalar_search(self, resolution):
        """The batched search reproduces one scalar search per cell.

        33 has no grid point at pi/4; the gamma2 = 0 rows exercise the
        flat-window tie rule.
        """
        cells, min_g, argmin, margin = _scalar_scan(resolution)
        report = gme.scan_global_min(resolution)
        assert np.max(np.abs(report.cells - cells)) <= 1e-12
        assert abs(report.min_g - min_g) <= 1e-12
        assert np.max(np.abs(np.array(report.argmin) - np.array(argmin))) <= 1e-12
        assert abs(report.margin - margin) <= 1e-12

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

    def test_certificate(self):
        assert gme.verify_w_uniqueness() is True
