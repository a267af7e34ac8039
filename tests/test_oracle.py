import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

import gme
from gme._linalg import bloch_of_spinor, spinor_from_bloch
from gme._rng import restart_stream
from gme.oracle import _newton_polish
from gme.states import BlochVector, GmResult, sqrt_binomials, sym3q_to_dicke

from conftest import (
    apply_local_unitaries,
    partial_trace,
    random_generic_canonical,
    random_pure_state,
    random_unitary_2x2,
    rng_for,
)
from test_sym3q import _boundary_family, _near_w_family, _small_t_family


class TestOracleConfig:
    def test_defaults(self):
        cfg = gme.OracleConfig()
        assert cfg.restarts == 32 and cfg.max_iters == 500
        assert cfg.tol == 1e-12 and cfg.seed == 42

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"restarts": 0},
            {"max_iters": 0},
            {"tol": 0.0},
            {"tol": -1.0},
            {"restarts": 2.5},
            {"seed": 1.5},
            {"max_iters": 10.0},
            {"restarts": True},
            {"seed": False},
            {"tol": float("inf")},
            {"tol": float("nan")},
            {"tol": "1e-12"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(gme.ValidationError):
            gme.OracleConfig(**kwargs)

    def test_restart_cap(self):
        cap = gme.oracle.RESTART_CAP
        assert gme.OracleConfig(restarts=cap).restarts == cap
        for restarts in (cap + 1, 10**12):
            with pytest.raises(gme.CapacityError, match=f"restarts is capped at {cap}"):
                gme.OracleConfig(restarts=restarts)

    def test_numpy_integers_are_plain_ints(self):
        cfg = gme.OracleConfig(restarts=np.int64(3), seed=np.uint64(7))
        assert type(cfg.restarts) is int and type(cfg.seed) is int
        psi = random_pure_state(rng_for(4050), 3)
        assert gme.gm_pure_oracle(psi, cfg).G == gme.gm_pure_oracle(
            psi, gme.OracleConfig(restarts=3, seed=7)
        ).G


class TestPureOracle:
    def test_basis_product_state(self):
        amps = np.zeros(8)
        amps[0] = 1.0
        result = gme.gm_pure_oracle(gme.PureState(3, amps))
        assert result.G == pytest.approx(1.0, abs=1e-12)
        assert result.warning is None

    def test_random_product_state(self):
        rng = rng_for(4000)
        spinors = []
        for _ in range(4):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            spinors.append(z / np.linalg.norm(z))
        amps = spinors[0]
        for s in spinors[1:]:
            amps = np.kron(amps, s)
        result = gme.gm_pure_oracle(gme.PureState(4, amps))
        assert result.G == pytest.approx(1.0, abs=1e-10)

    def test_w_state(self, w_dicke):
        result = gme.gm_pure_oracle(gme.dicke_to_dense(w_dicke))
        assert result.G_squared == pytest.approx(4.0 / 9.0, abs=1e-9)

    def test_ghz_state(self, ghz_dicke):
        result = gme.gm_pure_oracle(gme.dicke_to_dense(ghz_dicke))
        assert result.G_squared == pytest.approx(0.5, abs=1e-9)

    def test_closest_product_is_consistent(self, w_dicke):
        psi = gme.dicke_to_dense(w_dicke)
        result = gme.gm_pure_oracle(psi)
        # rebuild the product state from the reported Bloch vectors
        amps = np.array([1.0], dtype=complex)
        for bloch in result.closest_product:
            a, b, c = bloch.s
            polar = math.acos(np.clip(c, -1, 1))
            azimuth = math.atan2(b, a)
            amps = np.kron(
                amps,
                np.array(
                    [
                        math.cos(polar / 2),
                        np.exp(1j * azimuth) * math.sin(polar / 2),
                    ]
                ),
            )
        assert abs(np.vdot(amps, psi.amplitudes)) == pytest.approx(
            result.G, abs=1e-9
        )

    def test_deterministic(self):
        psi = random_pure_state(rng_for(4100), 3)
        cfg = gme.OracleConfig(seed=7)
        a = gme.gm_pure_oracle(psi, cfg)
        b = gme.gm_pure_oracle(psi, cfg)
        assert a.G == b.G
        assert all(
            np.array_equal(x.s, y.s)
            for x, y in zip(a.closest_product, b.closest_product)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_restart_monotonicity(self, seed):
        psi = random_pure_state(rng_for(4200 + seed), 3)
        few = gme.gm_pure_oracle(psi, gme.OracleConfig(restarts=4, seed=3))
        many = gme.gm_pure_oracle(psi, gme.OracleConfig(restarts=32, seed=3))
        assert many.G >= few.G - 1e-15

    @pytest.mark.parametrize("seed", range(6))
    def test_local_unitary_invariance(self, seed):
        rng = rng_for(4300 + seed)
        psi = random_pure_state(rng, 3)
        us = [random_unitary_2x2(rng) for _ in range(3)]
        rotated = gme.PureState(3, apply_local_unitaries(psi.amplitudes, us))
        a = gme.gm_pure_oracle(psi)
        b = gme.gm_pure_oracle(rotated)
        assert abs(a.G - b.G) <= 1e-8

    def test_non_convergence_warning(self):
        psi = random_pure_state(rng_for(4400), 3)
        result = gme.gm_pure_oracle(
            psi, gme.OracleConfig(restarts=2, max_iters=1, tol=1e-15)
        )
        assert result.warning is not None


def _contract_except(tensor: np.ndarray, spinors: list[np.ndarray], k: int) -> np.ndarray:
    """Contract every party's conjugate spinor into the tensor except party k."""
    t = tensor
    for j in sorted((j for j in range(len(spinors)) if j != k), reverse=True):
        t = np.tensordot(t, spinors[j].conj(), axes=([j], [0]))
    return t


def _reference_pure_oracle(psi: gme.PureState, cfg: gme.OracleConfig) -> GmResult:
    """The one-restart-at-a-time alternating oracle the batched sweep replaced."""
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


def _attained_overlap(psi: gme.PureState, closest_product) -> float:
    """|<product|psi>| with the product rebuilt from its Bloch vectors."""
    tensor = psi.amplitudes.reshape((2,) * psi.n_qubits)
    for bloch in closest_product:
        a, b, c = bloch.s
        polar = math.acos(np.clip(c, -1, 1))
        spinor = np.array(
            [math.cos(polar / 2), np.exp(1j * math.atan2(b, a)) * math.sin(polar / 2)]
        )
        tensor = np.tensordot(spinor.conj(), tensor, axes=([0], [0]))
    return float(abs(tensor))


class TestBatchedPureOracle:
    """The batched sweep against the per-restart loop it replaced."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_per_restart_reference(self, n):
        psi = random_pure_state(rng_for(4800 + n), n)
        for restarts in (1, 7, 32):
            cfg = gme.OracleConfig(restarts=restarts, seed=n)
            batched = gme.gm_pure_oracle(psi, cfg)
            reference = _reference_pure_oracle(psi, cfg)
            assert abs(batched.G_squared - reference.G_squared) <= 1e-12
            assert batched.warning == reference.warning
            attained = _attained_overlap(psi, batched.closest_product) ** 2
            assert abs(attained - batched.G_squared) <= 1e-10

    @pytest.mark.parametrize(
        "n, cfg",
        [
            # a loose tolerance freezes restarts early, far from the optimum
            (6, gme.OracleConfig(restarts=7, tol=1e-4, seed=11)),
            (9, gme.OracleConfig(restarts=32, tol=1e-5, seed=12)),
            # too few sweeps: every restart is cut off unconverged
            (5, gme.OracleConfig(restarts=7, max_iters=3, seed=13)),
        ],
    )
    def test_matches_reference_when_stopped_early(self, n, cfg):
        psi = random_pure_state(rng_for(4900 + n), n)
        batched = gme.gm_pure_oracle(psi, cfg)
        reference = _reference_pure_oracle(psi, cfg)
        assert abs(batched.G_squared - reference.G_squared) <= 1e-12
        assert batched.warning == reference.warning

    def test_best_of_independent_restarts_across_chunks(self):
        # at n = 15 a chunk holds 4 restarts, so 9 restarts span three chunks
        n, restarts, seed = 15, 9, 5
        psi = random_pure_state(rng_for(4955), n)
        batched = gme.gm_pure_oracle(psi, gme.OracleConfig(restarts=restarts, seed=seed))
        singles = [
            gme.gm_pure_oracle(psi, gme.OracleConfig(restarts=1, seed=seed + k))
            for k in range(restarts)
        ]
        winner = int(np.argmax([single.G for single in singles]))
        assert winner >= 4  # the winner lies outside the first chunk
        assert batched.G == singles[winner].G
        assert batched.warning == singles[winner].warning
        for got, want in zip(batched.closest_product, singles[winner].closest_product):
            assert np.array_equal(got.s, want.s)


class TestSymmetricOracle:
    def test_w_state(self, w_dicke):
        assert gme.gm_symmetric_oracle(w_dicke).G_squared == pytest.approx(
            4.0 / 9.0, abs=1e-10
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_phase_is_optimal_for_nonneg(self, seed):
        rng = rng_for(4500 + seed)
        n = int(rng.integers(2, 8))
        amps = np.abs(rng.normal(size=n + 1))
        st = gme.SymmetricDickeState(n, amps / np.linalg.norm(amps))
        brute = gme.gm_symmetric_oracle(st).G
        zero_phase = gme.gm_dicke_nonneg(st).G
        assert abs(brute - zero_phase) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_pure_oracle(self, n):
        rng = rng_for(4600 + n)
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        st = gme.SymmetricDickeState(n, amps / np.linalg.norm(amps))
        sym = gme.gm_symmetric_oracle(st).G
        full = gme.gm_pure_oracle(gme.dicke_to_dense(st)).G
        assert abs(sym - full) <= 1e-7


def _reference_overlap_grid(
    state: gme.SymmetricDickeState, alphas: np.ndarray, phases: np.ndarray
) -> np.ndarray:
    """|overlap| of |a>^(x)N with the state over an (alpha, phase) grid."""
    n = state.N
    m = np.arange(n + 1)
    coeff = sqrt_binomials(n)
    basis = (
        coeff[None, :]
        * np.cos(alphas)[:, None] ** (n - m)[None, :]
        * np.sin(alphas)[:, None] ** m[None, :]
    )
    phase_mat = state.amplitudes[:, None] * np.exp(
        -1j * m[:, None] * phases[None, :]
    )
    return np.abs(basis @ phase_mat)


def _reference_overlap_scalar(
    state: gme.SymmetricDickeState, alpha: float, phase: float
) -> float:
    n = state.N
    root = sqrt_binomials(n)
    total = 0.0j
    for m in range(n + 1):
        total += (
            state.amplitudes[m]
            * root[m]
            * math.cos(alpha) ** (n - m)
            * math.sin(alpha) ** m
            * complex(math.cos(m * phase), -math.sin(m * phase))
        )
    return abs(total)


def _reference_symmetric_oracle(state: gme.SymmetricDickeState) -> GmResult:
    """The symmetric oracle the Newton polish replaced: the full grid sorted,
    and its top 3 cells polished by scalar Nelder-Mead."""
    alphas = np.linspace(0.0, math.pi / 2, 1024)
    phases = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    grid = _reference_overlap_grid(state, alphas, phases)

    best = -1.0
    best_point = (0.0, 0.0)
    for idx in np.argsort(grid, axis=None)[::-1][:3]:
        i, j = np.unravel_index(idx, grid.shape)

        def neg(x: np.ndarray) -> float:
            return -_reference_overlap_scalar(state, float(x[0]), float(x[1]))

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


def _dicke(amplitudes) -> gme.SymmetricDickeState:
    amplitudes = np.asarray(amplitudes, dtype=complex)
    return gme.SymmetricDickeState(len(amplitudes) - 1, amplitudes / np.linalg.norm(amplitudes))


def _random_complex_dicke(seed: int, n: int) -> gme.SymmetricDickeState:
    rng = rng_for(seed)
    return _dicke(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))


def _symmetric_families():
    """Seeded (id, state) pairs: complex and non-negative Dicke vectors, and
    generic, boundary, near-W and small-t canonical three-qubit states."""
    for n in range(2, 21):
        yield f"complex-{n}", _random_complex_dicke(5100 + n, n)
    for n in (2, 3, 6, 10, 14, 20):
        yield f"nonneg-{n}", _dicke(np.abs(rng_for(5200 + n).normal(size=n + 1)))
    for seed in range(6):
        yield f"generic-{seed}", sym3q_to_dicke(random_generic_canonical(rng_for(5300 + seed)))
    for name, family in (
        ("boundary", _boundary_family), ("near_w", _near_w_family), ("small_t", _small_t_family)
    ):
        for k, st in enumerate(family()):
            yield f"{name}-{k}", sym3q_to_dicke(st)


_POLE_STATE = gme.SymThreeQubitCanonical(1 / math.sqrt(2), 1e-4, 0.70710676, 0.0)


def _known_answers():
    """(id, state, G^2): Platonic states of Martin et al., PRA 81, 062347 (2010),
    and GHZ_N and W_N."""
    yield "tetrahedron", _dicke([math.sqrt(1 / 3), 0, 0, math.sqrt(2 / 3), 0]), 1 / 3
    yield "octahedron", _dicke([0, 1, 0, 0, 0, 1, 0]), 2 / 9
    for n in (2, 3, 5, 8, 13, 20):
        yield f"ghz-{n}", _dicke([1] + [0] * (n - 1) + [1]), 0.5
        yield f"w-{n}", _dicke([0, 1] + [0] * (n - 1)), ((n - 1) / n) ** (n - 1)


def _attained(state: gme.SymmetricDickeState, result: GmResult) -> float:
    """|<a|^(x)N |psi>|^2 for the reported closest product, in Dicke form:
    sum_m a_m sqrt(C(N, m)) cos^(N-m)(theta/2) (e^(-i phi) sin(theta/2))^m, with
    exact binomials and each part of the sum added by ``math.fsum``.  (A dense
    2^N-term ``vdot`` is off by about 1e-12 at N = 20.)"""
    s = result.closest_product[0].s
    half, azimuth = 0.5 * math.atan2(math.hypot(s[0], s[1]), s[2]), math.atan2(s[1], s[0])
    n = state.N
    terms = [
        complex(a) * math.sqrt(math.comb(n, m))
        * cmath.rect(math.cos(half) ** (n - m) * math.sin(half) ** m, -m * azimuth)
        for m, a in enumerate(state.amplitudes)
    ]
    return abs(complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))) ** 2


class TestNewtonSymmetricOracle:
    """The grid-local-maxima Newton polish against the sort-and-Nelder-Mead
    oracle it replaced, known answers, and the product it reports."""

    def test_matches_reference_on_seeded_families(self):
        for name, st in _symmetric_families():
            got = gme.gm_symmetric_oracle(st).G_squared
            want = _reference_symmetric_oracle(st).G_squared
            assert abs(got - want) <= 1e-12, name
            assert got >= want - 1e-13, name

    def test_pole_state_matches_sym3q(self):
        # the maximum sits about 3e-4 rad from a pole, where every top cell of
        # the old grid sat on the pole row and the old polish stopped short
        result = gme.gm_symmetric_oracle(sym3q_to_dicke(_POLE_STATE))
        assert abs(result.G_squared - gme.gm_sym3q(_POLE_STATE).G_squared) <= 1e-13

    @pytest.mark.parametrize(
        "state, expected", [(st, g2) for _, st, g2 in _known_answers()],
        ids=[name for name, _, _ in _known_answers()],
    )
    def test_known_answers(self, state, expected):
        tol = 1e-14 if state.N <= 6 else 1e-13
        assert gme.gm_symmetric_oracle(state).G_squared == pytest.approx(expected, abs=tol)

    def test_reported_product_attains_the_value(self):
        states = [st for _, st in _symmetric_families()]
        states += [st for _, st, _ in _known_answers()] + [sym3q_to_dicke(_POLE_STATE)]
        for st in states:
            result = gme.gm_symmetric_oracle(st)
            assert abs(_attained(st, result) - result.G_squared) <= 1e-12

    @pytest.mark.parametrize("kind", ["flat", "complex"])
    def test_large_n_without_overflow(self, kind):
        n = 200
        if kind == "flat":
            st = _dicke(np.ones(n + 1))
        else:
            st = _random_complex_dicke(5400, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gme.gm_symmetric_oracle(st).G_squared
        assert abs(got - _reference_symmetric_oracle(st).G_squared) <= 1e-12


def _whole_grid_symmetric_oracle(state: gme.SymmetricDickeState) -> GmResult:
    """The symmetric oracle with its former fixed grid and start selection: the
    whole 1024x1024 grid from two matrix products, the 8 highest local maxima of
    its 64x64 image of 16x16 block maxima, each at its block's best cell; the
    polish is the package's."""
    n = state.N
    m = np.arange(n + 1)
    coeff = state.amplitudes * sqrt_binomials(n)
    alphas = (np.arange(1024) + 0.5) * (0.5 * math.pi / 1024)
    phases = np.arange(1024) * (2.0 * math.pi / 1024)
    basis = np.cos(alphas)[:, None] ** (n - m) * np.sin(alphas)[:, None] ** m
    phase_mat = coeff[:, None] * np.exp(-1j * m[:, None] * phases[None, :])
    grid = (basis @ phase_mat.real) ** 2 + (basis @ phase_mat.imag) ** 2

    side, block = 1024 // 16, 16
    blocks = grid.reshape(side, block, side, block)
    image = blocks.max(axis=(1, 3))
    peak = image >= 0.25 * image.max()
    padded = np.pad(image, ((1, 1), (0, 0)), constant_values=-1.0)
    for di, dj in np.ndindex(3, 3):
        peak &= image >= np.roll(padded[di : di + side], dj - 1, axis=1)
    order = np.argsort(-image[peak], kind="stable")[:8]
    rows, cols = np.array(np.nonzero(peak))[:, order]
    i, j = np.divmod(blocks[rows, :, cols, :].reshape(len(rows), -1).argmax(axis=1), block)
    alpha, phase = alphas[rows * block + i], phases[cols * block + j]
    x = np.stack([np.cos(alpha), np.exp(-1j * phase) * np.sin(alpha)], axis=1)

    value = _newton_polish(coeff, x)
    best = int(np.argmax(value))
    bloch = BlochVector(np.array(bloch_of_spinor(x[best].conj())))
    return GmResult.from_overlap(float(value[best]), closest_product=(bloch,) * n, method="oracle")


def _grid_cases():
    yield from _symmetric_families()
    for name, st, _ in _known_answers():
        yield name, st
    yield "pole", sym3q_to_dicke(_POLE_STATE)
    yield "flat-200", _dicke(np.ones(201))
    yield "complex-200", _random_complex_dicke(5400, 200)
    sparse = np.zeros(601)
    sparse[1], sparse[200] = 1.0, 0.5
    yield "sparse-600", _dicke(sparse)


def _coherent_pair(n: int, first, second, weight: float) -> gme.SymmetricDickeState:
    """|y1>^(x)N + weight |y2>^(x)N, with y = (cos b, e^(i c) sin b) for the
    (b, c) pairs ``first`` and ``second``; |p|^2 peaks near both."""
    m = np.arange(n + 1)

    def coherent(b: float, c: float) -> np.ndarray:
        log_power = (n - m) * math.log(math.cos(b)) + m * math.log(math.sin(b))
        return sqrt_binomials(n) * np.exp(log_power + 1j * m * c)

    return _dicke(coherent(*first) + weight * coherent(*second))


def _grid_guards():
    """(id, state): two maxima 2e-4 apart in G^2, the higher at the middle of a
    cell and the lower at a node of a grid one step too coarse, 8 rows per
    ceil(sqrt N): its cell near the higher reads about 0.988 of its maximum,
    under 0.99 of the lower's node, and that grid returns the lower.  The pair
    at N = 64 is close enough to interfere; its centres were moved until the
    maxima sat at that cell middle and node.  At N = 1024 they do not interfere,
    so G^2 = 1 / (2 - 2e-4)."""
    yield "near-pair-64", _coherent_pair(
        64, (0.784947700611892, 0.01202941430246664),
        (1.239923022457146, 0.14728096192451728), 0.9998998079392424,
    )
    yield "mid-cell-1024", _coherent_pair(
        1024, (math.pi / 4, math.pi / 1024),
        (401 * math.pi / 1024, 600 * math.pi / 1024), math.sqrt(1 - 2e-4),
    )


def _sparse_dicke(n: int, amplitudes: dict) -> gme.SymmetricDickeState:
    a = np.zeros(n + 1, dtype=complex)
    a[list(amplitudes)] = list(amplitudes.values())
    return gme.SymmetricDickeState(n, a)


def _many_peak_states():
    """(id, state, G^2): more than 8 grid peaks within 2e-4 of each other, and a
    top-8 rule misses the maximum.  At N = 60 the former 1024x1024 grid's 8
    highest peaks gave 0.08041256649050277; at N = 66 the sized grid has 13 such
    peaks, and its 8 highest give 0.0652287697065698."""
    yield "n60", _sparse_dicke(60, {
        15: -0.45711716685840215 + 0.018449074311243346j,
        37: 0.20931820403567447 + 0.6101436642891005j,
        46: 0.5223148772813054 + 0.3190631517085139j,
    }), 0.08041262423245805
    yield "n66", _sparse_dicke(66, {
        35: 0.14954240280962158 + 0.4599794257238139j,
        45: -0.135822828012068 - 0.5635774595812102j,
        58: 0.39174426379028626 + 0.5258564784263055j,
    }), 0.06522879240107819


def _check_against_whole_grid(name: str, state: gme.SymmetricDickeState) -> None:
    got = gme.gm_symmetric_oracle(state).G_squared
    want = _whole_grid_symmetric_oracle(state).G_squared
    assert abs(got - want) <= 1e-12 * want, name
    assert got >= want - 1e-13, name


def _traced_peak(state: gme.SymmetricDickeState) -> int:
    gme.gm_symmetric_oracle(state)
    tracemalloc.start()
    try:
        gme.gm_symmetric_oracle(state)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSymmetricGridScan:
    """The grid sized from N against the fixed 1024x1024 grid it replaced, the
    states a coarser grid or a capped start count gets wrong, and the memory a
    call adds."""

    def test_matches_whole_grid(self):
        for name, st in _grid_cases():
            _check_against_whole_grid(name, st)

    @pytest.mark.parametrize(
        "name, state", list(_grid_guards()), ids=[name for name, _ in _grid_guards()]
    )
    def test_resolution_guard(self, name, state):
        _check_against_whole_grid(name, state)

    @pytest.mark.parametrize(
        "state, expected", [(st, g2) for _, st, g2 in _many_peak_states()],
        ids=[name for name, _, _ in _many_peak_states()],
    )
    def test_every_near_maximal_peak_starts(self, state, expected):
        got = gme.gm_symmetric_oracle(state).G_squared
        assert abs(got - expected) <= 1e-12 * expected

    def test_call_at_20_qubits_stays_under_4_mib(self):
        assert _traced_peak(_random_complex_dicke(5500, 20)) < 4 * 2**20

    def test_call_at_2000_qubits_stays_under_80_mib(self):
        # 80 MiB is what the fixed 1024x1024 grid's call held at N = 2000
        assert _traced_peak(_random_complex_dicke(5600, 2000)) <= 80 * 2**20


class TestMixedOracle:
    def test_w_marginal(self):
        q = math.pi / 4
        rho = gme.rank2_to_matrix(gme.RankTwoCanonical(q, q, [0, 0, -1 / 3]))
        assert gme.g_mixed_oracle(rho) == pytest.approx(4.0 / 9.0, abs=1e-8)

    def test_maximally_mixed(self):
        assert gme.g_mixed_oracle(np.eye(4) / 4) == pytest.approx(0.25, abs=1e-10)

    def test_bell_state(self):
        psi = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
        assert gme.g_mixed_oracle(np.outer(psi, psi.conj())) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(gme.ValidationError):
            gme.g_mixed_oracle(np.eye(4))  # trace 4
        with pytest.raises(gme.ValidationError):
            gme.g_mixed_oracle(np.diag([1.5, -0.5, 0.0, 0.0]))  # not PSD
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.3
        with pytest.raises(gme.ValidationError):
            gme.g_mixed_oracle(bad)  # not Hermitian

    def test_rejects_nan_entry(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[1, 2] = rho[2, 1] = math.nan
        with pytest.raises(gme.ValidationError, match="finite"):
            gme.g_mixed_oracle(rho)

    def test_rejects_infinite_entry(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 3] = rho[3, 0] = math.inf
        with pytest.raises(gme.ValidationError, match="finite"):
            gme.g_mixed_oracle(rho)

    @pytest.mark.parametrize("seed", range(6))
    def test_consistency_triangle(self, seed):
        """Squared pure-state overlap equals the marginal overlap, every pair."""
        psi = random_pure_state(rng_for(4700 + seed), 3)
        squared = gme.gm_pure_oracle(psi).G_squared
        for traced in range(3):
            keep = tuple(i for i in range(3) if i != traced)
            rho = partial_trace(psi.amplitudes, 3, keep)
            assert abs(gme.g_mixed_oracle(rho) - squared) <= 1e-7
