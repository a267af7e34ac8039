import json
import math
import os

import numpy as np
import pytest

import gme
from gme.cli import main

W_T = 1.0 / math.sqrt(3.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bogus"])
        assert info.value.code == 64

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sym3", "--nope", "1"])
        assert info.value.code == 64

    def test_no_subcommand(self, capsys):
        assert main([]) == 64


class TestSym3:
    def test_w_class_value(self, capsys):
        code, out, _ = run(
            capsys, "sym3", "--g", "0", "--t", f"{W_T!r}", "--h", "0", "--gamma", "0"
        )
        assert code == 0
        assert "G^2         = 0.444444444444" in out
        assert "E_G         = 0.555555555556" in out

    def test_renorm_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "sym3", "--g", "1.6", "--t", "0.4", "--h", "0.979795897113",
            "--gamma", "0.6", "--renorm",
        )
        assert code == 0

    def test_norm_violation_exits_2(self, capsys):
        code, _, err = run(
            capsys, "sym3", "--g", "1.6", "--t", "0.4", "--h", "0.98", "--gamma", "0"
        )
        assert code == 2
        assert "validation error" in err

    def test_degrees_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "sym3", "--g", "0", "--t", f"{W_T!r}", "--h", "0",
            "--gamma", "0", "--deg",
        )
        assert code == 0


class TestRank2:
    def test_closed_form_w_point(self, capsys):
        code, out, _ = run(
            capsys,
            "rank2",
            "--gamma1", "0.7853981633974483",
            "--gamma2", "0.7853981633974483",
            "--x", "0,0,-0.3333333333333333",
            "--closed-form",
        )
        assert code == 0
        assert "G^2         = 0.444444444444" in out

    def test_closed_form_requires_axis(self, capsys):
        code, _, err = run(
            capsys,
            "rank2", "--gamma1", "0.7", "--gamma2", "0.2",
            "--x", "0.5,0,0", "--closed-form",
        )
        assert code == 2
        assert "x1 = x2 = 0" in err

    def test_non_finite_x_exits_2(self, capsys):
        code, out, err = run(
            capsys, "rank2", "--gamma1", "0.7", "--gamma2", "0.3", "--x", "nan,0,0"
        )
        assert code == 2
        assert "finite" in err and out == ""

    def test_solver_error_exits_3(self, capsys, monkeypatch):
        edge = gme.closed_form_coeffs(0.0, 0.9, 0.3).x3_3
        monkeypatch.setattr(gme.rank2, "BRANCH_MATCH_TOL", -1.0)
        code, _, err = run(
            capsys, "rank2", "--gamma1", "0.9", "--gamma2", "0.3",
            "--x", f"0,0,{edge!r}", "--closed-form",
        )
        assert code == 3
        assert err == "gm: solver error: closed form: branch mismatch at window edge\n"

    def test_numeric_path(self, capsys):
        code, out, _ = run(
            capsys,
            "rank2", "--gamma1", "0.7", "--gamma2", "0.2", "--x", "0.3,0.2,-0.4",
            "--json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["result"]["method"] == "rank2_numeric"


class TestDicke:
    def test_amps_inline(self, capsys):
        code, out, _ = run(capsys, "dicke", "--amps", "0,1,0,0")
        assert code == 0
        assert "G^2         = 0.444444444444" in out

    def test_negative_amplitudes_exit_2(self, capsys):
        code, _, err = run(capsys, "dicke", "--amps", "0.6,-0.8")
        assert code == 2
        assert "oracle" in err

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        gme.save_state(gme.SymmetricDickeState(3, [0, 1, 0, 0]), str(path))
        code, out, _ = run(capsys, "dicke", "--file", str(path))
        assert code == 0
        assert "0.444444444444" in out

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "dicke", "--file", "/nonexistent/state.json")
        assert code == 2


class TestJsonRoundTrip:
    def test_input_echo_reparses(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        st = gme.PureState(3, amps)
        path = tmp_path / "pure.json"
        gme.save_state(st, str(path))
        code, out, _ = run(capsys, "pure", "--file", str(path), "--json")
        assert code == 0
        record = json.loads(out)
        back = gme.state_from_dict(record["input"])
        assert np.max(np.abs(back.amplitudes - st.amplitudes)) <= 1e-15
        assert record["wall_time_ms"] > 0.0

    def test_result_fields(self, capsys):
        code, out, _ = run(
            capsys, "sym3", "--g", "0.8", "--t", "0.2",
            "--h", f"{math.sqrt(0.24)!r}", "--gamma", "0.3", "--json",
        )
        record = json.loads(out)
        result = record["result"]
        assert result["E_G"] == pytest.approx(1.0 - result["G_squared"], abs=1e-15)
        assert result["method"] == "sym3q"
        tags = {c["case_tag"] for c in result["candidates"]}
        assert "Case1" in tags


class TestOracleCommand:
    def test_dispatch_all_kinds(self, capsys, tmp_path):
        states = {
            "pure": gme.PureState(2, np.array([1.0, 0, 0, 0])),
            "dicke": gme.SymmetricDickeState(3, [0, 1, 0, 0]),
            "sym3q": gme.SymThreeQubitCanonical(0.0, W_T, 0.0, 0.0),
            "rank2": gme.RankTwoCanonical(
                math.pi / 4, math.pi / 4, [0, 0, -1 / 3]
            ),
        }
        expected = {"pure": 1.0, "dicke": 4 / 9, "sym3q": 4 / 9, "rank2": 4 / 9}
        for kind, st in states.items():
            path = tmp_path / f"{kind}.json"
            gme.save_state(st, str(path))
            code, out, _ = run(capsys, "oracle", "--file", str(path), "--json")
            assert code == 0
            record = json.loads(out)
            assert record["result"]["G_squared"] == pytest.approx(
                expected[kind], abs=1e-7
            )

    def test_seed_env_override(self, capsys, tmp_path, monkeypatch):
        rng = np.random.default_rng(6)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        st = gme.PureState(3, amps / np.linalg.norm(amps))
        path = tmp_path / "pure.json"
        gme.save_state(st, str(path))
        monkeypatch.setenv("GM_SEED", "12345")
        _, out_env, _ = run(capsys, "pure", "--file", str(path), "--json")
        monkeypatch.delenv("GM_SEED")
        _, out_flag, _ = run(
            capsys, "pure", "--file", str(path), "--seed", "12345", "--json"
        )
        a = json.loads(out_env)["result"]
        b = json.loads(out_flag)["result"]
        assert a["G"] == b["G"]

    def test_non_integer_seed_env_exits_2(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "pure.json"
        gme.save_state(gme.PureState(2, np.array([1.0, 0, 0, 0])), str(path))
        monkeypatch.setenv("GM_SEED", "abc")
        code, _, err = run(capsys, "pure", "--file", str(path))
        assert code == 2
        assert "GM_SEED" in err

    @pytest.mark.parametrize("amplitudes", [[1, 0, 0, 0], [[1, 0, 0]] * 4, 1.0])
    def test_malformed_amplitudes_exit_2(self, capsys, tmp_path, amplitudes):
        path = tmp_path / "pure.json"
        path.write_text(
            json.dumps({"kind": "pure", "n_qubits": 2, "amplitudes": amplitudes})
        )
        code, _, err = run(capsys, "pure", "--file", str(path))
        assert code == 2
        assert "[re, im] pairs" in err

    def test_warning_exits_3(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        st = gme.PureState(4, amps / np.linalg.norm(amps))
        path = tmp_path / "pure.json"
        gme.save_state(st, str(path))
        code, out, _ = run(
            capsys, "pure", "--file", str(path), "--max-iters", "1", "--restarts", "2"
        )
        assert code == 3
        assert "warning" in out


class TestCrosscheck:
    def test_w_state_all_solvers_agree(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        gme.save_state(gme.SymThreeQubitCanonical(0.0, W_T, 0.0, 0.0), str(path))
        code, out, _ = run(capsys, "crosscheck", "--file", str(path), "--json")
        assert code == 0
        record = json.loads(out)
        values = record["G_squared"]
        assert set(values) >= {"sym3q", "dicke", "symmetric_oracle", "pure_oracle"}
        assert record["max_delta"] <= 1e-7
        for value in values.values():
            assert value == pytest.approx(4.0 / 9.0, abs=1e-7)


class TestFigures:
    def test_fig1_shape_and_coincidence(self, capsys, tmp_path):
        out_path = tmp_path / "fig1.csv"
        code, _, _ = run(capsys, "fig1", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 202  # header + 201 samples
        assert len(header) == 5
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        # curves (a) and (c) share the upper linear branch: equal angle gap
        edge_a = gme.closed_form_coeffs(0.0, math.pi / 4, 0.0).x3_4
        edge_c = gme.closed_form_coeffs(0.0, 3 * math.pi / 8, math.pi / 8).x3_4
        shared = data[:, 0] >= max(edge_a, edge_c)
        assert shared.sum() > 50
        assert np.max(np.abs(data[shared, 1] - data[shared, 3])) <= 1e-12

    def test_fig2_and_scan_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "scan"
        code, out, _ = run(
            capsys, "wmax-scan", "--resolution", "32", "--out", str(out_dir), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["min_g"] == pytest.approx(4.0 / 9.0, abs=1e-6)
        report = json.loads((out_dir / "wmax_report.json").read_text())
        assert report["argmin"]["x3"] == pytest.approx(-1 / 3, abs=1e-5)
        grid_lines = (out_dir / "wmax_grid.csv").read_text().splitlines()
        assert grid_lines[0] == "gamma1,gamma2,x3_min,g_min"
        assert len(grid_lines) == 1 + 32 * 32

        fig2_path = tmp_path / "fig2.csv"
        code, _, _ = run(capsys, "fig2", "--resolution", "32", "--out", str(fig2_path))
        assert code == 0
        assert fig2_path.read_text().splitlines()[1:] == grid_lines[1:]
