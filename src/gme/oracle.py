"""Brute-force maximal-overlap computations.

These are the reference implementations every analytic solver is checked
against: alternating single-party optimization for dense pure states, a dense
two-angle grid for symmetric states, and an eigenvalue-reduced sphere scan for
two-qubit mixed states.  The pure and mixed oracles deliberately use different
algorithms so their errors are independent when cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from ._linalg import (
    PAULIS,
    bloch_of_spinor,
    hermitian_max_eig_2x2,
    spinor_from_bloch,
)
from ._optim import max_on_sphere
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


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the brute-force solvers."""

    restarts: int = 32
    max_iters: int = 500
    tol: float = 1e-12
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValidationError("restarts must be at least 1")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be at least 1")
        if not self.tol > 0.0:
            raise ValidationError("tol must be positive")


def _contract_except(tensor: np.ndarray, spinors: list[np.ndarray], k: int) -> np.ndarray:
    """Contract every party's conjugate spinor into the tensor except party k."""
    t = tensor
    for j in sorted((j for j in range(len(spinors)) if j != k), reverse=True):
        t = np.tensordot(t, spinors[j].conj(), axes=([j], [0]))
    return t


def gm_pure_oracle(psi: PureState, cfg: OracleConfig | None = None) -> GmResult:
    """Maximal overlap of a dense pure state with product states.

    Runs alternating single-party optimization: with all parties but one held
    fixed, the optimal remaining spinor is the normalized partial contraction,
    so every sweep increases the overlap monotonically.  Random restarts guard
    against local maxima.
    """
    cfg = cfg or OracleConfig()
    n = psi.n_qubits
    tensor = psi.amplitudes.reshape((2,) * n)

    best_overlap = -1.0
    best_spinors: list[np.ndarray] | None = None
    any_converged = False

    for r in range(cfg.restarts):
        stream = restart_stream(cfg.seed, r)
        spinors = [spinor_from_bloch(stream.bloch_point()) for _ in range(n)]
        overlap = 0.0
        converged = False
        for _ in range(cfg.max_iters):
            previous = overlap
            for k in range(n):
                w = _contract_except(tensor, spinors, k)
                norm = float(np.linalg.norm(w))
                if norm > 0.0:
                    spinors[k] = w / norm
                    overlap = norm
            if overlap < previous - 1e-12:
                raise RuntimeError("alternating sweep decreased the overlap")
            if overlap - previous < cfg.tol:
                converged = True
                break
        any_converged = any_converged or converged
        if overlap > best_overlap:
            best_overlap = overlap
            best_spinors = [s.copy() for s in spinors]

    warning = None
    if not any_converged:
        warning = f"no restart converged within {cfg.max_iters} sweeps"
    closest = tuple(BlochVector(np.array(bloch_of_spinor(s))) for s in best_spinors)
    return GmResult.from_overlap(
        best_overlap, closest_product=closest, method="oracle", warning=warning
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


def _conditional_blocks(rho: np.ndarray) -> list[np.ndarray]:
    """2x2 blocks A_k with Tr_1[rho (P x I)] = (A_0 + sum_i s_i A_i) / 2."""
    r = rho.reshape(2, 2, 2, 2)
    blocks = [np.einsum("ikil->kl", r)]
    for pauli in PAULIS:
        blocks.append(np.einsum("ikjl,ji->kl", r, pauli))
    return blocks


def g_mixed_oracle(rho: np.ndarray, cfg: OracleConfig | None = None) -> float:
    """Maximum of tr[rho (rho_1 x rho_2)] over pure product states.

    For a fixed first-party Bloch vector the optimum over the second party is
    the largest eigenvalue of the conditional 2x2 operator, leaving a smooth
    two-variable maximization over the sphere.
    """
    del cfg  # deterministic grid scan; kept for signature symmetry
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValidationError("expected a 4x4 two-qubit density matrix")
    if float(np.max(np.abs(rho - rho.conj().T))) > 1e-8:
        raise ValidationError("density matrix must be Hermitian")
    if abs(float(np.trace(rho).real) - 1.0) > 1e-8:
        raise ValidationError("density matrix must have unit trace")
    eigenvalues = np.linalg.eigvalsh(rho)
    if float(eigenvalues.min()) < -1e-8:
        raise ValidationError("density matrix must be positive semidefinite")

    a0, a1, a2, a3 = _conditional_blocks(rho)

    def grid_fn(sx: np.ndarray, sy: np.ndarray, sz: np.ndarray) -> np.ndarray:
        m00 = 0.5 * (a0[0, 0] + sx * a1[0, 0] + sy * a2[0, 0] + sz * a3[0, 0]).real
        m11 = 0.5 * (a0[1, 1] + sx * a1[1, 1] + sy * a2[1, 1] + sz * a3[1, 1]).real
        m01 = 0.5 * (a0[0, 1] + sx * a1[0, 1] + sy * a2[0, 1] + sz * a3[0, 1])
        return hermitian_max_eig_2x2(m00, m11, m01)

    value, _ = max_on_sphere(grid_fn, n_polar=256, n_azimuth=512)
    return float(value)
