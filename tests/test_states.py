import math

import numpy as np
import pytest

import gme

from conftest import random_pure_state, random_rank2, rng_for, SZ


class TestPureState:
    def test_renormalizes_small_deviation(self):
        amps = np.array([1.0 + 5e-7, 0.0], dtype=complex)
        st = gme.PureState(1, amps)
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) <= 1e-9

    def test_rejects_large_deviation(self):
        with pytest.raises(gme.ValidationError):
            gme.PureState(1, np.array([1.1, 0.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(gme.ValidationError):
            gme.PureState(2, np.array([1.0, 0.0]))

    def test_rejects_above_cap(self):
        with pytest.raises(gme.CapacityError):
            gme.PureState(21, np.zeros(2**21))

    def test_amplitudes_read_only(self):
        st = gme.PureState(1, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            st.amplitudes[0] = 0.5


class TestSymmetricDickeState:
    def test_non_negative_flag(self):
        assert gme.SymmetricDickeState(2, [0.6, 0.8, 0.0]).non_negative
        assert not gme.SymmetricDickeState(2, [0.6, -0.8, 0.0]).non_negative
        assert not gme.SymmetricDickeState(2, [0.6, 0.8j, 0.0]).non_negative
        # imaginary noise below 1e-12 still counts as non-negative
        assert gme.SymmetricDickeState(2, [0.6, 0.8 + 1e-13j, 0.0]).non_negative

    def test_rejects_norm(self):
        with pytest.raises(gme.ValidationError):
            gme.SymmetricDickeState(2, [1.0, 1.0, 0.0])


class TestSymThreeQubitCanonical:
    def test_norm_constraint(self):
        st = gme.SymThreeQubitCanonical(0.8, 0.2, math.sqrt(0.24), 0.3)
        assert abs(st.g**2 + 3 * st.t**2 + st.h**2 - 1.0) <= 1e-9

    def test_rejects_negative_parameters(self):
        with pytest.raises(gme.ValidationError):
            gme.SymThreeQubitCanonical(-0.8, 0.2, math.sqrt(0.24), 0.0)

    def test_rejects_gamma_out_of_range(self):
        with pytest.raises(gme.ValidationError):
            gme.SymThreeQubitCanonical(1.0, 0.0, 0.0, 2.0)

    def test_rejects_bad_norm(self):
        with pytest.raises(gme.ValidationError):
            gme.SymThreeQubitCanonical(0.9, 0.5, 0.5, 0.0)

    @pytest.mark.parametrize("field", ["g", "t", "h", "gamma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, bad):
        values = {"g": 0.8, "t": 0.2, "h": math.sqrt(0.24), "gamma": 0.3}
        values[field] = bad
        with pytest.raises(gme.ValidationError):
            gme.SymThreeQubitCanonical(**values)


class TestRankTwoCanonical:
    def test_angle_ordering(self):
        with pytest.raises(gme.ValidationError):
            gme.RankTwoCanonical(0.2, 0.5, [0, 0, 0])

    def test_angle_sum(self):
        with pytest.raises(gme.ValidationError):
            gme.RankTwoCanonical(1.4, 0.9, [0, 0, 0])

    def test_bloch_ball(self):
        with pytest.raises(gme.ValidationError):
            gme.RankTwoCanonical(0.5, 0.2, [0.8, 0.8, 0.8])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_x(self, bad):
        for k in range(3):
            x = [0.0, 0.0, 0.0]
            x[k] = bad
            with pytest.raises(gme.ValidationError):
                gme.RankTwoCanonical(0.7, 0.3, x)

    def test_tiny_x2_snaps_to_zero(self):
        st = gme.RankTwoCanonical(0.5, 0.2, [0.1, 1e-15, 0.0])
        assert st.x[1] == 0.0


class TestGmResult:
    def test_eg_identity(self):
        r = gme.GmResult.from_overlap_squared(0.3, method="oracle")
        assert r.E_G == 1.0 - r.G_squared
        assert abs(r.G - math.sqrt(0.3)) <= 1e-15

    def test_clamps_to_unit_interval(self):
        r = gme.GmResult.from_overlap(1.0 + 1e-12, method="oracle")
        assert r.G == 1.0 and r.E_G == 0.0

    def test_rejects_unknown_method(self):
        with pytest.raises(gme.ValidationError):
            gme.GmResult(G=0.5, G_squared=0.25, E_G=0.75, method="magic")


class TestDickeToDense:
    def test_single_qubit_identity(self):
        st = gme.SymmetricDickeState(1, [1.0, 0.0])
        dense = gme.dicke_to_dense(st)
        assert np.allclose(dense.amplitudes, [1.0, 0.0])

    def test_w_state(self, w_dicke):
        dense = gme.dicke_to_dense(w_dicke)
        expected = np.zeros(8)
        for idx in (0b100, 0b010, 0b001):
            expected[idx] = 1.0 / math.sqrt(3.0)
        assert np.allclose(dense.amplitudes, expected, atol=1e-15)

    def test_ghz_state(self, ghz_dicke):
        dense = gme.dicke_to_dense(ghz_dicke)
        expected = np.zeros(8)
        expected[0b000] = expected[0b111] = 1.0 / math.sqrt(2.0)
        assert np.allclose(dense.amplitudes, expected, atol=1e-15)

    def test_capacity_error(self):
        amps = np.zeros(22)
        amps[0] = 1.0
        st = gme.SymmetricDickeState(21, amps)
        with pytest.raises(gme.CapacityError):
            gme.dicke_to_dense(st)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_permutation_invariance(self, n):
        rng = rng_for(100 + n)
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        st = gme.SymmetricDickeState(n, amps / np.linalg.norm(amps))
        dense = gme.dicke_to_dense(st).amplitudes
        perm = rng.permutation(n)
        permuted = dense.reshape((2,) * n).transpose(perm).reshape(-1)
        assert np.max(np.abs(permuted - dense)) <= 1e-12


class TestSym3qToDense:
    def test_product(self):
        st = gme.SymThreeQubitCanonical(1.0, 0.0, 0.0, 0.0)
        dense = gme.sym3q_to_dense(st)
        assert dense.amplitudes[0] == 1.0
        assert np.all(dense.amplitudes[1:] == 0.0)

    def test_w_class(self, w_canonical):
        dense = gme.sym3q_to_dense(w_canonical)
        for idx in (0b011, 0b101, 0b110):
            assert abs(dense.amplitudes[idx] - 1.0 / math.sqrt(3.0)) <= 1e-12
        assert abs(dense.amplitudes[0]) == 0.0

    def test_phase_on_all_ones(self):
        inv = 1.0 / math.sqrt(2.0)
        st = gme.SymThreeQubitCanonical(inv, 0.0, inv, math.pi / 2)
        dense = gme.sym3q_to_dense(st)
        assert abs(dense.amplitudes[0b000] - inv) <= 1e-12
        assert abs(dense.amplitudes[0b111] - 1j * inv) <= 1e-12


class TestRank2ToMatrix:
    def test_degenerate_projector(self):
        st = gme.RankTwoCanonical(0.0, 0.0, [0, 0, 1])
        rho = gme.rank2_to_matrix(st)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho - expected)) <= 1e-12
        assert abs(np.trace(rho @ rho).real - 1.0) <= 1e-12

    def test_w_marginal_eigendecomposition(self):
        q = math.pi / 4
        rho = gme.rank2_to_matrix(gme.RankTwoCanonical(q, q, [0, 0, -1 / 3]))
        psi_plus = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2.0)
        e00 = np.array([1, 0, 0, 0], dtype=complex)
        expected = np.outer(e00, e00) / 3 + 2 / 3 * np.outer(psi_plus, psi_plus)
        assert np.max(np.abs(rho - expected)) <= 1e-12

    def test_bell_state_at_lower_pole(self):
        q = math.pi / 4
        rho = gme.rank2_to_matrix(gme.RankTwoCanonical(q, q, [0, 0, -1.0]))
        psi_plus = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2.0)
        assert np.max(np.abs(rho - np.outer(psi_plus, psi_plus))) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_density_matrix_properties(self, seed):
        st = random_rank2(rng_for(200 + seed))
        rho = gme.rank2_to_matrix(st)
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        eigenvalues = np.linalg.eigvalsh(rho)
        assert eigenvalues.min() >= -1e-10
        assert eigenvalues.max() <= 1.0 + 1e-10
        assert abs(eigenvalues.sum() - 1.0) <= 1e-10
        assert np.sum(eigenvalues > 1e-10) <= 2

    @pytest.mark.parametrize("seed", range(4))
    def test_dephasing_conjugation_flips_transverse_components(self, seed):
        st = random_rank2(rng_for(300 + seed))
        rho = gme.rank2_to_matrix(st)
        u = np.kron(SZ, SZ)
        flipped = gme.rank2_to_matrix(
            gme.RankTwoCanonical(st.gamma1, st.gamma2, [-st.x[0], -st.x[1], st.x[2]])
        )
        assert np.max(np.abs(u @ rho @ u - flipped)) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_complex_conjugation_flips_x2(self, seed):
        st = random_rank2(rng_for(400 + seed))
        rho = gme.rank2_to_matrix(st)
        flipped = gme.rank2_to_matrix(
            gme.RankTwoCanonical(st.gamma1, st.gamma2, [st.x[0], -st.x[1], st.x[2]])
        )
        assert np.max(np.abs(rho.conj() - flipped)) <= 1e-12


class TestSerialization:
    def test_round_trip_all_kinds(self, w_dicke, w_canonical):
        states = [
            random_pure_state(rng_for(1), 2),
            w_dicke,
            w_canonical,
            gme.RankTwoCanonical(0.7, 0.3, [0.1, -0.2, 0.3]),
        ]
        for st in states:
            back = gme.state_from_dict(gme.state_to_dict(st))
            assert type(back) is type(st)
            if hasattr(st, "amplitudes"):
                assert np.max(np.abs(back.amplitudes - st.amplitudes)) <= 1e-15

    def test_file_round_trip(self, tmp_path, w_dicke):
        path = tmp_path / "w.json"
        gme.save_state(w_dicke, str(path))
        back = gme.load_state(str(path))
        assert isinstance(back, gme.SymmetricDickeState)
        assert np.max(np.abs(back.amplitudes - w_dicke.amplitudes)) <= 1e-15

    def test_rejects_unknown_kind(self):
        with pytest.raises(gme.ValidationError):
            gme.state_from_dict({"kind": "mystery"})

    def test_rejects_missing_fields(self):
        with pytest.raises(gme.ValidationError):
            gme.state_from_dict({"kind": "sym3q", "g": 1.0})
