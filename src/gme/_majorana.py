"""Stationary spinors of a symmetric product overlap.

The overlap of sum_m a_m |D_m> with (|0> + w|1>)^(x)N / (1 + |w|^2)^(N/2) is
P(u) / (1 + |u|^2)^(N/2) with u = conj(w) and the Majorana polynomial
P(u) = sum_m c_m u^m, c_m = a_m sqrt(C(N, m)) (Aulbach, Markham and Murao,
NJP 12, 073025, 2010; Martin et al., PRA 81, 062347, 2010).  With v = conj(u)
taken as a second unknown, stationarity in u gives v(u) = -P'(u) / R(u),
R = u P' - N P, and stationarity in v then leaves the polynomial
E(u) = P sum_{m>=1} m conj(c_m) (-P')^(m-1) R^(N-m)
       + u sum_m conj(c_m) (-P')^m R^(N-m).
Its roots with v(u) = conj(u) are the stationary spinors.  A near-zero c_m
gives E a negligible top coefficient, so it is solved per hemisphere:
|u| <= 1 from c, |u| >= 1 as 1/u' from the reversed c (the bit-flipped
state).  Polynomials are coefficient arrays in ascending powers.  For real
c >= 0 the real spinors w = tan(alpha) are the stationary angles of
f(alpha) = sum_m c_m cos^(N-m) sin^m(alpha), which one log-space kernel finds.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
from numpy.polynomial import polynomial as poly

from .states import sqrt_binomials

CONJUGATE_TOL = 1e-6  # |v(u) - conj(u)| allowed per unit of 1 + |u|
FLAT_TOL = 1e-13  # a kernel this small against its terms is zero to rounding
POLISH_STEPS = 4  # Newton steps on each kept root
PINV_RCOND = 1e-9  # Newton directions flatter than this, relative, take no step
DISC_RADIUS = 1.0 + 1e-6  # each hemisphere's |u| bound; they overlap at the equator
TRIM_TOL = 1e-20  # top coefficients below this, relative, are dropped; E's noise is ~1e-17
GRID_CELLS_PER_SQRT_N = 16  # about ten grid cells to the ~1/sqrt(N) width of a term's bump
POLE_GAP = 1e-9  # slope samples this near each pole; a maximum nearer gains ~N POLE_GAP^2
ANGLE_STEPS = 30  # cap on the Newton-or-bisection steps per bracket


def coefficients(amplitudes: np.ndarray) -> np.ndarray:
    """Majorana coefficients c_m = a_m sqrt(C(N, m)) (:func:`states.sqrt_binomials`)."""
    return amplitudes * sqrt_binomials(len(amplitudes) - 1)


def angle_kernel(coeffs: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, ...]:
    """log f, the slope g and the Newton step g / g' at each angle 0 < alpha < pi/2.

    f(alpha) = sum_m c_m cos^(N-m) sin^m(alpha) for c_m >= 0 has
    f' = f g / (sin cos), g = E_w[m] - N sin^2 = E_w[m] cos^2 - E_w[N - m] sin^2
    (the last form keeps its sign exact near the poles) and
    g' = Var_w(m) / (sin cos) - N sin(2 alpha), where the weights w_m, f's
    terms over f, are a softmax of their logarithms, so no term overflows.
    """
    n, m = len(coeffs) - 1, np.flatnonzero(coeffs)
    cos, sin = np.cos(alpha), np.sin(alpha)
    log_terms = np.log(coeffs[m]) + np.log(cos)[:, None] * (n - m) + np.log(sin)[:, None] * m
    top = log_terms.max(axis=1)
    w = np.exp(log_terms - top[:, None])
    total = w.sum(axis=1)
    mean, rest, cross = (w @ np.stack([m, n - m, m * (n - m)], axis=1)).T / total
    g = mean * cos * cos - rest * sin * sin
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        newton = g / ((mean * rest - cross) / (sin * cos) - 2.0 * n * sin * cos)
    return top + np.log(total), g, newton


def stationary_angles(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every interior alpha where f is stationary, and f there; none when f is flat.

    g's sign changes are bracketed at POLE_GAP from each pole, where its limit
    may be 0, and on the midpoints of an even number of polar cells, which
    keeps pi/4, where a mirror-symmetric state's g vanishes, off the grid.
    Newton steps on g refine each bracket, bisecting where a step would leave
    it, until no angle moves by more than four ulps.
    """
    n = len(coeffs) - 1
    cells = 2 * (int(0.5 * GRID_CELLS_PER_SQRT_N * math.sqrt(n)) + 8)
    grid = np.r_[POLE_GAP, (np.arange(cells) + 0.5) * (0.5 * np.pi / cells), 0.5 * np.pi - POLE_GAP]
    slope = angle_kernel(coeffs, grid)[1]
    if np.max(np.abs(slope)) <= FLAT_TOL * n:
        return np.empty(0), np.empty(0)
    cross = np.flatnonzero(slope[:-1] * slope[1:] < 0.0)
    lo, hi, sign = grid[cross], grid[cross + 1], np.sign(slope[cross])
    step = lo + (hi - lo) * slope[cross] / (slope[cross] - slope[cross + 1])
    for _ in range(ANGLE_STEPS):
        alpha = step
        log_f, g, newton = angle_kernel(coeffs, alpha)
        lo, hi = np.where(g * sign > 0.0, alpha, lo), np.where(g * sign < 0.0, alpha, hi)
        step = alpha - newton
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        if np.all(np.abs(step - alpha) <= 4.0 * np.spacing(alpha)):
            break
    return alpha, np.exp(log_f)


def _roots(p: np.ndarray, *terms: np.ndarray) -> np.ndarray | None:
    """Roots of p; None when p is zero to rounding against its terms.

    Top coefficients below TRIM_TOL of the largest only add roots far outside
    the unit disc and swamp the companion matrix, so they are dropped.
    """
    size = np.abs(p)
    if np.max(size) <= FLAT_TOL * max(np.max(np.abs(t)) for t in terms):
        return None
    return poly.polyroots(p[: np.flatnonzero(size > TRIM_TOL * np.max(size))[-1] + 1])


def _polish(c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Newton steps on f(u) = P'(u) (1 + |u|^2) - N conj(u) P(u) = P' + conj(u) R.

    f vanishes where v(u) = conj(u) and, unlike E, does not cancel to
    rounding near a state whose overlap depends on |w| alone.  f is not
    analytic, so a step solves f + a du + b conj(du) = 0 (a = df/du,
    b = df/dconj(u) = R) as a real 2x2 system, through a pseudo-inverse: near
    such a state f is flat along a circle, where a full step is noise.
    """
    n = len(c) - 1
    dp, ddp = poly.polyder(c), poly.polyder(c, 2)
    for _ in range(POLISH_STEPS):
        p, d1, d2 = (poly.polyval(u, k) for k in (c, dp, ddp))
        s, ubar = 1.0 + np.abs(u) ** 2, u.conjugate()
        f, a, b = d1 * s - n * ubar * p, d2 * s - (n - 1) * ubar * d1, u * d1 - n * p
        jac = np.array([[(a + b).real, (b - a).imag], [(a + b).imag, (a - b).real]])
        step = np.linalg.pinv(jac.transpose(2, 0, 1), rcond=PINV_RCOND) @ np.array(
            [f.real, f.imag]
        ).T[..., None]
        u = u - step[:, 0, 0] - 1j * step[:, 1, 0]
    return u


def _hemisphere(c: np.ndarray) -> np.ndarray | None:
    """Stationary u with |u| <= DISC_RADIUS; None when E is zero to rounding."""
    n = len(c) - 1
    dp = poly.polyder(c)
    r = poly.polysub(poly.polymulx(dp), n * c)

    def term(k: int, j: int) -> np.ndarray:  # (-P')^k R^j
        return poly.polymul(poly.polypow(-dp, k), poly.polypow(r, j))

    from_u = poly.polymul(c, reduce(poly.polyadd, [
        m * c[m].conjugate() * term(m - 1, n - m) for m in range(1, n + 1)
    ]))
    from_v = poly.polymulx(reduce(poly.polyadd, [
        c[m].conjugate() * term(m, n - m) for m in range(n + 1)
    ]))
    u = _roots(poly.polyadd(from_u, from_v), from_u, from_v)
    if u is None:
        return None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v = -poly.polyval(u, dp) / poly.polyval(u, r)
    keep = np.abs(v - u.conjugate()) <= CONJUGATE_TOL * (1.0 + np.abs(u))
    return _polish(c, u[keep & (np.abs(u) <= DISC_RADIUS)])


def stationary_spinors(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bloch angles (theta, phi) of every stationary spinor, w = e^(i phi) tan(theta/2).

    A large root of E hangs on a small leading coefficient, so |w| > 1 is
    solved as |w'| < 1 for the bit-flipped state (c reversed, w' = 1/w); its
    w' = 0 is the pole theta = pi.  A root on the equator may come from both
    sides.  When E is zero to rounding, one c_m carries the state and the
    overlap depends on |w| alone: the single-angle kernel on |c| gives the
    interior moduli, taken at phi = 0, and each pole is a candidate unless c_m
    is its neighbour, c_1 for theta = 0 and c_(N-1) for theta = pi.
    """
    c = np.asarray(coeffs, dtype=complex)
    north, south = _hemisphere(c), _hemisphere(c[::-1])
    if north is None or south is None:
        m = int(np.argmax(np.abs(c)))
        poles = [pole for pole, k in ((0.0, 1), (np.pi, len(c) - 2)) if m != k]
        theta = np.concatenate([2.0 * stationary_angles(np.abs(c))[0], poles])
        return theta, np.zeros_like(theta)
    theta = np.concatenate([2.0 * np.arctan(np.abs(north)), np.pi - 2.0 * np.arctan(np.abs(south))])
    return theta, np.concatenate([-np.angle(north), np.angle(south)])
