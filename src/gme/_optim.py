"""Bisection, golden-section search and the two-sphere ascent, each batched."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SPHERE_GRID = (64, 128)  # polar x azimuth cells; polar midpoints, as a pole cell repeats
SPHERE_STARTS = 8  # best cells that ascend
SPHERE_ROUNDS = 50  # cap on ascent rounds
SPHERE_GAIN_TOL = 1e-15  # the ascent ends once no start gains this much in a round
SPHERE_UPDATES = 3  # alternating updates per round, from each start and its Newton step


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
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum of a unimodal ``f`` on each interval [lo, hi]; returns (x, f(x)).

    ``lo <= hi`` are floats or arrays, and ``f`` is elementwise.  An interval
    freezes once its width is at most ``tol`` (one that starts that narrow
    returns its midpoint), so each gets the bits it would get searched alone.
    """
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    active = b - a > tol
    while np.any(active):
        left = np.less(fc, fd)  # the minimum lies in [a, d]; a numpy bool for floats too
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


def _unit(field: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Rows of ``field`` normalized; a vanishing row keeps its row of ``previous``."""
    norm = np.linalg.norm(field, axis=-1, keepdims=True)
    return np.where(norm > 0.0, field / np.where(norm > 0.0, norm, 1.0), previous)


def _newton_step(s1: np.ndarray, a, b, t) -> np.ndarray:
    """Newton step per row for ``a.s1 + |b + T^T s1|`` on the unit sphere.

    Solves ``[[H - lam I, s1], [s1^T, 0]]``, ``lam = s1.grad``; a zero field's terms drop.
    """
    w = b + s1 @ t
    norm = np.linalg.norm(w, axis=-1)[:, None, None]
    norm = np.where(norm > 0.0, norm, np.inf)
    q = (w @ t.T)[:, :, None] / norm
    grad = a[:, None] + q
    lam = np.sum(s1[:, :, None] * grad, axis=1, keepdims=True)
    system = np.zeros((len(s1), 4, 4))
    system[:, :3, :3] = (t @ t.T - q * q.transpose(0, 2, 1)) / norm - lam * np.eye(3)
    system[:, :3, 3] = system[:, 3, :3] = s1
    step = np.linalg.pinv(system)[:, :3, :3] @ (lam * s1[:, :, None] - grad)
    return _unit(s1 + step[:, :, 0], s1)


def max_on_sphere(m: np.ndarray) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Maximize ``(1, s1)^T M (1, s2)`` over unit vectors; returns (value, (s1, s2)).

    With ``c0, b, a, T = M[0,0], M[0,1:], M[1:,0], M[1:,1:]`` the best ``s2``
    lies along ``b + T^T s1``, so ``c0 + a.s1 + |b + T^T s1|`` is scanned on a
    grid.  The best cells ascend by alternating updates ``s2 <- unit(b + T^T
    s1)``, ``s1 <- unit(a + T s2)`` (the two-party higher-order power method),
    from ``s1`` and from two Newton steps on it, keeping the higher end: near
    a circle of maxima the updates alone creep, and one Newton step leaves a
    curved ridge.  No update lowers the value; a vanishing field keeps the
    previous vector.  ``m`` is a real 4x4 array.
    """
    c0, b, a, t = m[0, 0], m[0, 1:], m[1:, 0], m[1:, 1:]
    polar = (np.arange(SPHERE_GRID[0]) + 0.5).repeat(SPHERE_GRID[1]) * (math.pi / SPHERE_GRID[0])
    azimuth = np.linspace(0.0, 2.0 * math.pi, SPHERE_GRID[1], endpoint=False)
    ring = np.sin(polar) * np.exp(1j * np.tile(azimuth, SPHERE_GRID[0]))
    grid = np.column_stack([ring.real, ring.imag, np.cos(polar)])
    scan = c0 + grid @ a + np.linalg.norm(b + grid @ t, axis=-1)
    starts = np.argsort(scan)[::-1][:SPHERE_STARTS]
    s1, value, count = grid[starts], scan[starts], len(starts)
    s2 = np.tile((0.0, 0.0, 1.0), (2 * count, 1))  # kept only where its field vanishes
    for _ in range(SPHERE_ROUNDS):
        s1 = np.concatenate([s1, _newton_step(_newton_step(s1, a, b, t), a, b, t)])
        for _ in range(SPHERE_UPDATES):
            s2 = _unit(b + s1 @ t, s2)
            s1 = _unit(a + s2 @ t.T, s1)
        ends = c0 + s1 @ a + s2 @ b + np.sum((s1 @ t) * s2, axis=-1)
        keep = np.where(ends[count:] > ends[:count], np.arange(count, 2 * count), np.arange(count))
        s1, s2 = s1[keep], np.concatenate([s2[keep]] * 2)
        gain, value = ends[keep] - value, ends[keep]
        if np.all(gain < SPHERE_GAIN_TOL):
            break
    best = int(np.argmax(value))
    return float(value[best]), (s1[best], s2[best])


def __getattr__(name: str):
    # exists only for perfbench, whose tracer finds its optim.nelder_mead binding
    # through vars(module): scipy's minimize is stored in the globals on first
    # access, so import gme loads no scipy. ROADMAP item 1's benchmark change
    # retires that span and deletes this hook.
    if name != "minimize":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import minimize

    globals()[name] = minimize
    return minimize
