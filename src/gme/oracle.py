"""Brute-force maximal-overlap computations.

These are the reference implementations every analytic solver is checked
against: alternating single-party optimization for dense pure states, a dense
two-angle grid for symmetric states, and for two-qubit mixed states the
bilinear ascent of ``max_on_sphere`` on the Pauli components of the density
matrix, which shares only the optimizer with the rank-two functional.

The pure-state oracle stacks its random restarts on a leading array axis and
updates all active restarts of a chunk in one vectorized sweep; a restart that
converges freezes and leaves the stack.  A chunk's stacked arrays hold at most
2**17 complex amplitudes (2 MiB), which bounds the memory a solve adds at any
qubit count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._linalg import ID2, PAULIS, bloch_of_spinor, spinor_from_bloch
from ._optim import max_on_sphere, minimize
from ._rng import restart_stream
from .states import (
    BlochVector,
    GmResult,
    PureState,
    SymmetricDickeState,
    ValidationError,
    sqrt_binomial,
)

DEFAULT_SEED = 42
# amplitudes in one stacked array of a chunk of pure-oracle restarts; a chunk
# of n-qubit restarts holds max(1, _CHUNK_AMPLITUDES >> n) of them
_CHUNK_AMPLITUDES = 1 << 17


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


def _symmetric_overlap_grid(
    state: SymmetricDickeState, alphas: np.ndarray, phases: np.ndarray
) -> np.ndarray:
    """|overlap| of |a>^(x)N with the state over an (alpha, phase) grid."""
    n = state.N
    m = np.arange(n + 1)
    coeff = np.array([sqrt_binomial(n, k) for k in m])
    basis = (
        coeff[None, :]
        * np.cos(alphas)[:, None] ** (n - m)[None, :]
        * np.sin(alphas)[:, None] ** m[None, :]
    )
    phase_mat = state.amplitudes[:, None] * np.exp(
        -1j * m[:, None] * phases[None, :]
    )
    return np.abs(basis @ phase_mat)


def _symmetric_overlap_scalar(
    state: SymmetricDickeState, alpha: float, phase: float
) -> float:
    n = state.N
    total = 0.0j
    for m in range(n + 1):
        total += (
            state.amplitudes[m]
            * sqrt_binomial(n, m)
            * math.cos(alpha) ** (n - m)
            * math.sin(alpha) ** m
            * complex(math.cos(m * phase), -math.sin(m * phase))
        )
    return abs(total)


def gm_symmetric_oracle(
    state: SymmetricDickeState, cfg: OracleConfig | None = None
) -> GmResult:
    """Maximal overlap of a symmetric state with symmetric product states.

    Scans the two angles of the single-party spinor
    cos(alpha)|0> + e^(i*phase) sin(alpha)|1> on a dense 1024x1024 grid, then
    polishes the best cells to 1e-12.
    """
    del cfg  # deterministic; kept for signature symmetry with the pure oracle
    alphas = np.linspace(0.0, math.pi / 2, 1024)
    phases = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    grid = _symmetric_overlap_grid(state, alphas, phases)

    best = -1.0
    best_point = (0.0, 0.0)
    for idx in np.argsort(grid, axis=None)[::-1][:3]:
        i, j = np.unravel_index(idx, grid.shape)

        def neg(x: np.ndarray) -> float:
            return -_symmetric_overlap_scalar(state, float(x[0]), float(x[1]))

        res = minimize(
            neg,
            np.array([alphas[i], phases[j]]),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 600},
        )
        if -res.fun > best:
            best = -res.fun
            best_point = (float(res.x[0]), float(res.x[1]))

    alpha, phase = best_point
    bloch = BlochVector(
        np.array(
            [
                math.sin(2 * alpha) * math.cos(phase),
                math.sin(2 * alpha) * math.sin(phase),
                math.cos(2 * alpha),
            ]
        )
    )
    return GmResult.from_overlap(
        best, closest_product=(bloch,) * state.N, method="oracle"
    )


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
