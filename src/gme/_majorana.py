"""Stationary spinors of a symmetric product overlap as polynomial roots.

The overlap of sum_m a_m |D_m> with (|0> + w|1>)^(x)N / (1 + |w|^2)^(N/2) is
P(u) / (1 + |u|^2)^(N/2) with u = conj(w) and the Majorana polynomial
P(u) = sum_m c_m u^m, c_m = a_m sqrt(C(N, m)) (Aulbach, Markham and Murao,
NJP 12, 073025, 2010; Martin et al., PRA 81, 062347, 2010).  With v = conj(u)
taken as a second unknown, stationarity in u gives v(u) = -P'(u) / R(u),
R = u P' - N P, and stationarity in v then leaves the polynomial
E(u) = P sum_{m>=1} m conj(c_m) (-P')^(m-1) R^(N-m)
       + u sum_m conj(c_m) (-P')^m R^(N-m).
Its roots with v(u) = conj(u) are the stationary spinors; for real c >= 0
the real roots of D(t) = (1 + t^2) P'(t) - N t P(t) give the real ones.  A
near-zero c_m gives E or D a negligible top coefficient, so each is solved per
hemisphere: |u| <= 1 from c, |u| >= 1 as 1/u' from the reversed c (the
bit-flipped state).  Polynomials are coefficient arrays in ascending powers.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
from numpy.polynomial import polynomial as poly

from .states import sqrt_binomial

CONJUGATE_TOL = 1e-6  # |v(u) - conj(u)| allowed per unit of 1 + |u|
REAL_TOL = 1e-6  # |Im t| allowed per unit of 1 + |t| for a real root
FLAT_TOL = 1e-13  # a kernel this small against its terms is zero to rounding
POLISH_STEPS = 4  # Newton steps on each kept root
PINV_RCOND = 1e-9  # Newton directions flatter than this, relative, take no step
DISC_RADIUS = 1.0 + 1e-6  # each hemisphere's |u| bound; they overlap at the equator
TRIM_TOL = 1e-20  # top coefficients below this, relative, are dropped; E's noise is ~1e-17
NEWTON_STEPS = 2  # Newton steps on each real root of D


def coefficients(amplitudes: np.ndarray) -> np.ndarray:
    """Majorana coefficients c_m = a_m sqrt(C(N, m)) of Dicke amplitudes a_m."""
    n = len(amplitudes) - 1
    return np.array([a * sqrt_binomial(n, m) for m, a in enumerate(amplitudes)])


def _flat(kernel: np.ndarray, *terms: np.ndarray) -> bool:
    return np.max(np.abs(kernel)) <= FLAT_TOL * max(np.max(np.abs(t)) for t in terms)


def _roots(
    p: np.ndarray, *terms: np.ndarray, scale: np.ndarray | float = 1.0
) -> np.ndarray | None:
    """Roots of p; None when p is zero to rounding against its terms.

    Top coefficients below TRIM_TOL of the largest, each measured in units of
    its ``scale``, only add roots far outside the unit disc and swamp the
    companion matrix, so they are dropped.
    """
    if _flat(p, *terms):
        return None
    size = np.abs(p) / scale
    return poly.polyroots(p[: np.flatnonzero(size > TRIM_TOL * np.max(size))[-1] + 1])


def _real_roots(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D of c and its real roots t >= 0; none when D is zero to rounding."""
    n = len(c) - 1
    rising = poly.polymul([1.0, 0.0, 1.0], poly.polyder(c))
    falling = n * poly.polymulx(c)
    d = poly.polysub(rising, falling)
    # D_k carries sqrt(C(N, k)), whose hundreds of decades at large N are no
    # sign of a negligible amplitude
    binomial = np.cumprod(np.sqrt(np.r_[1.0, np.arange(n, 0, -1) / np.arange(1.0, n + 1)]))
    t = _roots(d, rising, falling, scale=binomial[: len(d)])
    if t is None:
        return d, np.empty(0)
    t = t[np.abs(t.imag) <= REAL_TOL * (1.0 + np.abs(t))].real
    return d, t[t >= 0.0]


def _newton(d: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Newton steps on roots of d in the disc; a step out of it (a double root's) is not taken."""
    slope = poly.polyder(d)
    for _ in range(NEWTON_STEPS):
        powers = t[:, None] ** np.arange(len(d))
        with np.errstate(divide="ignore", invalid="ignore"):
            moved = t - (powers @ d) / (powers[:, : len(slope)] @ slope)
        t = np.where(np.abs(moved) <= DISC_RADIUS, moved, t)
    return t


def real_stationary_points(coeffs: np.ndarray) -> np.ndarray:
    """Every t = tan(alpha) >= 0 where sum_m c_m cos^(N-m) sin^m(alpha) is stationary.

    The derivative in alpha is cos^N(alpha) D(t), and D's top coefficient is
    -c_(N-1): t <= 1 comes from D and t >= 1 as 1/t' from the D of the
    reversed c, each half Newton-polished on its own untrimmed D.  A flat
    objective (D zero to rounding) yields no points; the endpoints are the
    caller's.
    """
    (d, near), (d_rev, far) = _real_roots(coeffs), _real_roots(coeffs[::-1])
    near = _newton(d, near[near <= DISC_RADIUS])
    far = _newton(d_rev, far[far <= DISC_RADIUS])
    return np.concatenate([near[near >= 0.0], 1.0 / far[far > 0.0]])


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
    sides.  When E is zero to rounding, only one c_m is nonzero and the
    overlap depends on |w| alone: the real kernel on |c_m|, again on each
    side, gives the moduli, taken at phi = 0.
    """
    c = np.asarray(coeffs, dtype=complex)
    north, south = _hemisphere(c), _hemisphere(c[::-1])
    if north is None or south is None:
        north, south = (_real_roots(np.abs(x))[1].astype(complex) for x in (c, c[::-1]))
    theta = np.concatenate([2.0 * np.arctan(np.abs(north)), np.pi - 2.0 * np.arctan(np.abs(south))])
    return theta, np.concatenate([-np.angle(north), np.angle(south)])
