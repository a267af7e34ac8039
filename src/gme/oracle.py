"""Brute-force maximal-overlap computations.

These are the reference implementations every analytic solver is checked
against: alternating single-party optimization for dense pure states, for
symmetric states a dense two-angle grid whose local maxima Newton steps polish,
and for two-qubit mixed states the bilinear ascent of ``max_on_sphere`` on the
Pauli components of the density matrix, which shares only the optimizer with
the rank-two functional.

The pure-state oracle stacks its random restarts on a leading array axis and
updates all active restarts of a chunk in one vectorized sweep; a restart that
converges freezes and leaves the stack.  A chunk's stacked arrays hold at most
2**17 complex amplitudes (2 MiB), which bounds the memory a solve adds at any
qubit count.

The symmetric oracle's grid has 16 ceil(sqrt N) angle rows and a power of two
of at least four times as many phases, so a cell shrinks like 1/sqrt(N) as the
overlap's peaks do.  Each row's phase sums are one FFT, a few rows at a time;
the float grid a call holds is 0.3 MiB at N = 20 and 23 MiB at N = 2000.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._linalg import ID2, PAULIS, bloch_of_spinor, spinor_from_bloch
from ._optim import max_on_sphere
from ._rng import restart_stream
from .states import (
    BlochVector,
    CapacityError,
    GmResult,
    PureState,
    SymmetricDickeState,
    ValidationError,
    sqrt_binomials,
)

DEFAULT_SEED = 42
# the pure oracle keeps every restart's best spinors, restarts x n x 2 complex:
# 40 MiB for 20 qubits at the cap
RESTART_CAP = 1 << 16
# complex values in one chunk: of n-qubit pure-oracle restarts, max(1,
# _CHUNK_AMPLITUDES >> n) of them; of symmetric-oracle grid rows, one FFT's output
_CHUNK_AMPLITUDES = 1 << 17
# symmetric oracle: angle rows per ceil(sqrt N), starts per run of tied peaks, Newton
# rounds; tie width (of the top cell), shortest step, freezing gain (of |p|), weak-axis
# curvature floor (of N)
_SYM_CELLS_PER_SQRT_N, _SYM_STARTS, _SYM_ROUNDS = 16, 8, 50
_SYM_TIE, _SYM_MIN_STEP, _SYM_GAIN_TOL, _SYM_WEAK_FLOOR = 1e-12, 1e-10, 4e-16, 1e-10


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the brute-force solvers."""

    restarts: int = 32
    max_iters: int = 500
    tol: float = 1e-12
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer")
            object.__setattr__(self, name, int(value))
        if self.restarts < 1:
            raise ValidationError("restarts must be at least 1")
        if self.restarts > RESTART_CAP:
            raise CapacityError(f"restarts is capped at {RESTART_CAP}")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be at least 1")
        tol = self.tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise ValidationError("tol must be a number")
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValidationError("tol must be finite and positive")


def _sweep(amplitudes: np.ndarray, spinors: np.ndarray, overlap: np.ndarray) -> np.ndarray:
    """One Gauss-Seidel sweep, party 0 to n-1, over a stack of restarts.

    ``spinors`` has shape ``(R, n, 2)`` and is updated in place; the returned
    overlaps are each restart's last nonzero partial-contraction norm, or its
    entry of ``overlap`` if every norm of the sweep vanished.  Every reduction
    runs along one restart's own row, so a restart's arithmetic does not
    depend on which other restarts share the stack.
    """
    count, n = spinors.shape[:2]
    # suffixes[n-1-k]: the conjugate spinors k+1..n-1 multiplied out, shape
    # (R, 2^(n-1-k)); each is dropped once party k is updated
    suffixes = [np.ones((count, 1), dtype=complex)]
    for k in range(n - 1, 0, -1):
        column = spinors[:, k].conj()[:, :, None]
        suffixes.append((column * suffixes[-1][:, None, :]).reshape(count, -1))
    overlap = overlap.copy()
    # the state with the conjugate spinors 0..k-1 contracted in, shape (R|1, 2, 2^(n-1-k))
    m = amplitudes.reshape(1, 2, -1)
    for k in range(n):
        w = np.einsum("...ak,...k->...a", m, suffixes.pop())
        norm = np.linalg.norm(w, axis=-1)
        moved = norm > 0.0
        spinors[moved, k] = w[moved] / norm[moved, None]
        overlap[moved] = norm[moved]
        if k < n - 1:
            bra = spinors[:, k].conj()
            absorbed = bra[:, 0, None] * m[:, 0]
            absorbed += bra[:, 1, None] * m[:, 1]
            m = absorbed.reshape(count, 2, -1)
    return overlap


def _ascend(
    amplitudes: np.ndarray, spinors: np.ndarray, cfg: OracleConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Sweep a stack of restarts until each converges or ``max_iters`` runs out.

    A restart whose sweep gained less than ``cfg.tol`` freezes and leaves the
    active set.  Returns the final overlaps and a converged flag per restart;
    ``spinors`` is updated in place.
    """
    count = len(spinors)
    overlap = np.zeros(count)
    converged = np.zeros(count, dtype=bool)
    active = np.arange(count)
    for _ in range(cfg.max_iters):
        stack = spinors[active]
        previous = overlap[active]
        current = _sweep(amplitudes, stack, previous)
        if np.any(current < previous - 1e-12):
            raise RuntimeError("alternating sweep decreased the overlap")
        spinors[active] = stack
        overlap[active] = current
        done = current - previous < cfg.tol
        converged[active[done]] = True
        active = active[~done]
        if active.size == 0:
            break
    return overlap, converged


def gm_pure_oracle(psi: PureState, cfg: OracleConfig | None = None) -> GmResult:
    """Maximal overlap of a dense pure state with product states.

    Runs alternating single-party optimization (the higher-order power
    method): with all parties but one held fixed, the optimal remaining
    spinor is the normalized partial contraction, so every sweep increases the
    overlap monotonically.  Random restarts guard against local maxima.

    The restarts are stacked on a leading axis and swept together, in chunks
    of at most ``max(1, 2**17 >> n)`` restarts to cap the memory a sweep
    holds.  A sweep builds each restart's suffix products of the conjugate
    spinors once, then moves left to right, so it costs O(2^n) per restart.
    Converged restarts freeze and leave the stack.  Restart ``k`` starts from
    ``restart_stream(cfg.seed, k)`` and its result does not depend on the
    chunking or on the other restarts; the first maximal restart wins.
    """
    cfg = cfg or OracleConfig()
    n = psi.n_qubits
    chunk = max(1, _CHUNK_AMPLITUDES >> n)
    spinors = np.empty((cfg.restarts, n, 2), dtype=complex)
    overlaps = np.empty(cfg.restarts)
    any_converged = False

    for start in range(0, cfg.restarts, chunk):
        stop = min(start + chunk, cfg.restarts)
        for r in range(start, stop):
            stream = restart_stream(cfg.seed, r)
            spinors[r] = [spinor_from_bloch(stream.bloch_point()) for _ in range(n)]
        overlaps[start:stop], converged = _ascend(psi.amplitudes, spinors[start:stop], cfg)
        any_converged = any_converged or bool(converged.any())

    best = int(np.argmax(overlaps))
    warning = None
    if not any_converged:
        warning = f"no restart converged within {cfg.max_iters} sweeps"
    closest = tuple(BlochVector(np.array(bloch_of_spinor(s))) for s in spinors[best])
    return GmResult.from_overlap(
        float(overlaps[best]), closest_product=closest, method="oracle", warning=warning
    )


def _overlap_jet(coeff: np.ndarray, x: np.ndarray, derivatives: bool = False) -> list:
    """``[p]`` at each spinor row of ``x``, or ``[p, g1, g2]`` with
    ``p(x + u v) = p + g1 u + g2 u^2 + ...`` along ``v = (-conj x1, conj x0)``."""
    n, m = len(coeff) - 1, np.arange(len(coeff))
    # z^k at column k + 2 (zero for k = -2, -1), from |z| and arg z: no rounding builds up in k
    pw = [np.pad(np.abs(z)[:, None] ** m * np.exp(1j * np.angle(z)[:, None] * m), ((0, 0), (2, 0)))
          for z in x.T]

    def partial(s0: int, s1: int) -> np.ndarray:  # d^(s0+s1) p / dx0^s0 dx1^s1
        falling = [n - m - i for i in range(s0)] + [m - i for i in range(s1)]
        weight = coeff * np.prod(falling, axis=0)
        return np.sum(weight * pw[0][:, n + 2 - s0 - m] * pw[1][:, m + 2 - s1], axis=1)

    if not derivatives:
        return [partial(0, 0)]
    v0, v1 = -x[:, 1].conj(), x[:, 0].conj()
    return [partial(0, 0), v0 * partial(1, 0) + v1 * partial(0, 1),
            0.5 * v0**2 * partial(2, 0) + v0 * v1 * partial(1, 1) + 0.5 * v1**2 * partial(0, 2)]


def _newton_polish(coeff: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Raise |p| from each unit spinor row of ``x`` (updated in place); returns |p|.

    ``|p(unit(x + u v))| = |g(u)| / (1 + |u|^2)^(N/2)`` has the log
    ``2 Re(a u + b u^2) - N |u|^2`` to second order (``a = g1/p``,
    ``b = g2/p - a^2/2``).  A step maximizes that on the axes ``w``, ``i w``
    (``b w^2 = |b|``) of curvatures ``|N - 2|b||`` (floored, as a ring of
    maxima zeroes it) and ``N + 2|b|``, and is halved until |p| rises.  A
    start freezes once a round gains at most ``_SYM_GAIN_TOL`` of |p|.
    """
    n = len(coeff) - 1
    value = np.abs(_overlap_jet(coeff, x)[0])
    active = np.arange(len(x))
    for _ in range(_SYM_ROUNDS):
        p, g1, g2 = _overlap_jet(coeff, x[active], derivatives=True)
        a = g1 / p
        b = g2 / p - 0.5 * a * a
        w = np.exp(-0.5j * np.angle(b))
        weak = np.maximum(np.abs(n - 2.0 * np.abs(b)), _SYM_WEAK_FLOOR * n)
        step = w * ((a * w).real / weak - 1j * (a * w).imag / (n + 2.0 * np.abs(b)))
        tangent = np.stack([-x[active, 1].conj(), x[active, 0].conj()], axis=1)
        before = value[active]
        # a step under _SYM_MIN_STEP gains under 2N * 1e-20 of |p|: not tried
        pending = np.flatnonzero(np.abs(step) >= _SYM_MIN_STEP)
        while pending.size:
            trial = x[active[pending]] + step[pending, None] * tangent[pending]
            trial /= np.linalg.norm(trial, axis=1, keepdims=True)
            got = np.abs(_overlap_jet(coeff, trial)[0])
            rose = got > value[active[pending]]
            x[active[pending[rose]]] = trial[rose]
            value[active[pending[rose]]] = got[rose]
            pending = pending[~rose]
            step[pending] *= 0.5
            pending = pending[np.abs(step[pending]) >= _SYM_MIN_STEP]
        active = active[value[active] - before > _SYM_GAIN_TOL * before]
        if active.size == 0:
            break
    return value


def gm_symmetric_oracle(
    state: SymmetricDickeState, cfg: OracleConfig | None = None
) -> GmResult:
    """Maximal overlap of a symmetric state with symmetric product states.

    Scans |p| (the overlap with the product of ``conj(x)``) on a grid of
    ``x = (cos alpha, e^(-i phase) sin alpha)``: ``16 ceil(sqrt N)`` rows of
    alpha at polar midpoints and a power of two of at least four times as many
    phases, each row's phase sums one FFT of ``coeff_m cos^(N-m) sin^m``.
    Every 8-neighbour local maximum of the grid (periodic in phase) within 1%
    of the top cell starts Newton steps in the pole-free tangent chart, except
    that of a run of peaks tied to rounding (a ring of maxima, a pole row) only
    the first 8 start.  The best polished value wins.

    A call holds the float grid, 8 bytes a cell (0.3 MiB at N = 20, 23 MiB at
    N = 2000), and builds it a few rows at a time.
    """
    del cfg  # deterministic; kept for signature symmetry with the pure oracle
    n = state.N
    m = np.arange(n + 1)
    coeff = state.amplitudes * sqrt_binomials(n)
    rows = _SYM_CELLS_PER_SQRT_N * (math.isqrt(n - 1) + 1)
    # cols >= 64 sqrt(N) >= N + 1 for every N up to DICKE_QUBIT_CAP: the FFT never folds
    cols = 1 << (4 * rows - 1).bit_length()
    alphas = (np.arange(rows) + 0.5) * (0.5 * math.pi / rows)
    image = np.empty((rows, cols))
    chunk = max(1, _CHUNK_AMPLITUDES // cols)
    for lo in range(0, rows, chunk):
        alpha = alphas[lo : lo + chunk, None]
        # cos^(N-m) sin^m from logarithms: one exp a term, where two powers cost six times as much
        terms = np.exp((n - m) * np.log(np.cos(alpha)) + m * np.log(np.sin(alpha)))
        sums = np.fft.fft(coeff * terms, cols)
        image[lo : lo + chunk] = sums.real**2 + sums.imag**2

    # a maximum's nearest cell is within d <= (pi / 4 rows) sqrt(1 + 1/4) < 0.055 / sqrt(N)
    # (the phase metric is sin alpha cos alpha <= 1/2), where |p|^2 is above exp(-2 N d^2)
    # > 0.99 of the maximum (curvature at most 2N there): the peak that cell climbs to
    # reads at least 0.99 of the top cell
    top = image.max()
    i, j = np.nonzero(image >= 0.99 * top)
    value = image[i, j]
    for di, dj in np.ndindex(3, 3):
        # a row past the edge clips to the cell's own row, which the test meets anyway
        peak = value >= image[np.clip(i + di - 1, 0, rows - 1), (j + dj - 1) % cols]
        i, j, value = i[peak], j[peak], value[peak]
    order = np.argsort(-value, kind="stable")
    i, j, value = i[order], j[order], value[order]
    # a peak with _SYM_STARTS higher ones within _SYM_TIE of it ties them to rounding
    # (a ring of maxima, a pole row) and adds no start
    keep = np.arange(len(value)) - np.searchsorted(-value, -value - _SYM_TIE * top) < _SYM_STARTS
    alpha, phase = alphas[i[keep]], j[keep] * (2.0 * math.pi / cols)
    x = np.stack([np.cos(alpha), np.exp(-1j * phase) * np.sin(alpha)], axis=1)

    value = _newton_polish(coeff, x)
    best = int(np.argmax(value))
    bloch = BlochVector(np.array(bloch_of_spinor(x[best].conj())))
    return GmResult.from_overlap(float(value[best]), closest_product=(bloch,) * n, method="oracle")


def g_mixed_oracle(rho: np.ndarray, cfg: OracleConfig | None = None) -> float:
    """Maximum of tr[rho (rho_1 x rho_2)] over pure product states.

    With ``rho_k = (I + s_k.sigma) / 2`` the overlap is a quarter of the
    bilinear form ``(1, s1)^T M (1, s2)`` with
    ``M_mn = tr[rho (sigma_m x sigma_n)]`` over ``(I, X, Y, Z)``, maximized by
    the grid scan and alternating ascent of ``max_on_sphere``.
    """
    del cfg  # deterministic; kept for signature symmetry
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValidationError("expected a 4x4 two-qubit density matrix")
    if not np.all(np.isfinite(rho)):
        raise ValidationError("density matrix entries must be finite")
    if float(np.max(np.abs(rho - rho.conj().T))) > 1e-8:
        raise ValidationError("density matrix must be Hermitian")
    if abs(float(np.trace(rho).real) - 1.0) > 1e-8:
        raise ValidationError("density matrix must have unit trace")
    eigenvalues = np.linalg.eigvalsh(rho)
    if float(eigenvalues.min()) < -1e-8:
        raise ValidationError("density matrix must be positive semidefinite")

    basis = np.array([ID2, *PAULIS])
    m = np.einsum("ikjl,mji,nlk->mn", rho.reshape(2, 2, 2, 2), basis, basis).real
    return 0.25 * max_on_sphere(m)[0]
