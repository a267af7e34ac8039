"""Bracketing, bisection, golden-section, and sphere-scan utilities."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.optimize import minimize

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def bisect_roots_vector(
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    f_lo: np.ndarray,
    tol: float = 1e-12,
    max_steps: int = 80,
) -> np.ndarray:
    """Bisection over many brackets at once.

    ``f`` must be vectorized and may return NaN; brackets that hit a NaN stop
    shrinking and are left for the caller's residual filter to discard.
    """
    lo = lo.astype(float).copy()
    hi = hi.astype(float).copy()
    f_lo = f_lo.astype(float).copy()
    alive = np.isfinite(f_lo)
    for _ in range(max_steps):
        width = hi - lo
        if not np.any(alive & (width > tol)):
            break
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        ok = alive & np.isfinite(f_mid)
        same_side = ok & ((f_mid > 0.0) == (f_lo > 0.0))
        other_side = ok & ~same_side
        lo = np.where(same_side, mid, lo)
        f_lo = np.where(same_side, f_mid, f_lo)
        hi = np.where(other_side, mid, hi)
        alive = alive & np.isfinite(f_mid)
    return 0.5 * (lo + hi)


def golden_section_min(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
) -> tuple[float, float]:
    """Minimum of a unimodal function on [lo, hi]; returns (x, f(x))."""
    if hi < lo:
        lo, hi = hi, lo
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def golden_section_min_vector(
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray]:
    """``golden_section_min`` on many intervals ``lo <= hi`` at once.

    ``f`` must be elementwise.  Each interval takes the scalar search's steps
    and freezes once its width is at most ``tol`` (one that starts that narrow
    returns its midpoint), so each result matches the scalar search bitwise.
    """
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    active = b - a > tol
    while np.any(active):
        left = fc < fd  # the minimum lies in [a, d]
        # a frozen interval keeps a and b; its probes are never read again
        b = np.where(active & left, d, b)
        a = np.where(active & ~left, c, a)
        probe = np.where(left, b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a))
        f_probe = f(probe)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, f_probe, fd), np.where(left, fc, f_probe)
        active = b - a > tol
    x = 0.5 * (a + b)
    return x, f(x)


def max_on_sphere(
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    n_polar: int = 256,
    n_azimuth: int = 512,
    n_starts: int = 8,
    xatol: float = 1e-10,
) -> tuple[float, tuple[float, float, float]]:
    """Maximize a smooth function of a unit vector.

    ``fn`` evaluates the objective elementwise on broadcast Cartesian
    components: on the whole grid, then at single points in the Nelder-Mead
    polish started from the best ``n_starts`` grid cells.
    """
    polar = np.linspace(0.0, math.pi, n_polar)
    azimuth = np.linspace(0.0, 2.0 * math.pi, n_azimuth, endpoint=False)
    st = np.sin(polar)[:, None]
    ct = np.cos(polar)[:, None]
    ca = np.cos(azimuth)[None, :]
    sa = np.sin(azimuth)[None, :]
    values = fn(st * ca, st * sa, ct * np.ones_like(ca))

    flat = np.argsort(values, axis=None)[::-1][: max(1, n_starts)]
    best_val = -math.inf
    best_angles = (0.0, 0.0)

    def neg(x: np.ndarray) -> float:
        th, ph = float(x[0]), float(x[1])
        s = math.sin(th)
        return -float(fn(s * math.cos(ph), s * math.sin(ph), math.cos(th)))

    for idx in flat:
        i, j = np.unravel_index(idx, values.shape)
        start = np.array([polar[i], azimuth[j]])
        res = minimize(
            neg,
            start,
            method="Nelder-Mead",
            options={"xatol": xatol, "fatol": 1e-14, "maxiter": 600},
        )
        if -res.fun > best_val:
            best_val = -res.fun
            best_angles = (float(res.x[0]), float(res.x[1]))
    th, ph = best_angles
    s = math.sin(th)
    direction = (s * math.cos(ph), s * math.sin(ph), math.cos(th))
    return best_val, direction
