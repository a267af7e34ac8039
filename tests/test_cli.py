import json
import math
import os

import numpy as np
import pytest

import gme
from gme import cli
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

    @pytest.mark.parametrize("command", ["fig1", "fig2"])
    def test_figure_json_flag_removed(self, capsys, tmp_path, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--out", str(tmp_path / "fig.csv"), "--json"])
        assert info.value.code == 64


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

    @pytest.mark.parametrize("flag", ["--restarts", "--seed", "--max-iters"])
    def test_oracle_flags_are_usage_errors(self, capsys, flag):
        # gm_sym3q never runs an oracle, so sym3 takes no oracle flags
        with pytest.raises(SystemExit) as info:
            main(["sym3", "--g", "0", "--t", f"{W_T!r}", "--h", "0", "--gamma", "0", flag, "3"])
        assert info.value.code == 64

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

    def test_qubit_cap_exit_2(self, capsys):
        cap = gme.states.DICKE_QUBIT_CAP
        code, out, err = run(capsys, "dicke", "--amps", ",".join(["1"] * (cap + 2)))
        assert code == 2 and out == ""
        assert err == f"gm: validation error: Dicke states are capped at N = {cap}\n"


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

    @pytest.mark.parametrize(
        "state",
        [
            {"kind": "pure", "n_qubits": "abc", "amplitudes": [[1, 0]] + [[0, 0]] * 3},
            {"kind": "pure", "n_qubits": 3.7, "amplitudes": [[1, 0]] + [[0, 0]] * 7},
            {"kind": "sym3q", "g": [1], "t": 0.0, "h": 0.0, "gamma": 0.0},
            {"kind": "rank2", "gamma1": 0.7, "gamma2": 0.2, "x": 5},
        ],
        ids=["n_qubits_text", "n_qubits_fraction", "sym3q_g_list", "rank2_x_scalar"],
    )
    def test_malformed_fields_exit_2(self, capsys, tmp_path, state):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        code, _, err = run(capsys, "oracle", "--file", str(path))
        assert code == 2
        assert "validation error" in err

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

    @pytest.mark.parametrize("as_json", [False, True])
    def test_disagreement_exits_3(self, capsys, tmp_path, monkeypatch, as_json):
        path = tmp_path / "w.json"
        gme.save_state(gme.SymThreeQubitCanonical(0.0, W_T, 0.0, 0.0), str(path))
        flags = ["--json"] if as_json else []
        code, agreeing, err = run(capsys, "crosscheck", "--file", str(path), *flags)
        assert code == 0 and err == ""
        wrong = gme.GmResult.from_overlap_squared(4.0 / 9.0 + 2.0 * cli.CROSSCHECK_TOL)
        monkeypatch.setattr(cli, "gm_sym3q", lambda state, cfg=None: wrong)
        code, out, err = run(capsys, "crosscheck", "--file", str(path), *flags)
        assert code == 3
        assert err.startswith("gm: crosscheck failed: ") and err.count("\n") == 1
        if as_json:
            record = json.loads(out)
            assert record["G_squared"]["sym3q"] == wrong.G_squared
            assert record["max_delta"] > cli.CROSSCHECK_TOL
            assert set(record) == set(json.loads(agreeing))
        else:
            lines = out.splitlines()
            assert [line.split("=")[0] for line in lines[:-1]] == [
                line.split("=")[0] for line in agreeing.splitlines()[:-1]
            ]
            assert f"G^2[sym3q] = {cli._sig(wrong.G_squared)}" in lines

    def test_dicke_above_dense_cap(self, capsys, tmp_path):
        # no dense route above DENSE_QUBIT_CAP; the Dicke solver and the symmetric oracle remain
        amps = np.zeros(31)
        amps[[1, 2]] = 0.6, 0.8
        path = tmp_path / "dicke30.json"
        gme.save_state(gme.SymmetricDickeState(30, amps), str(path))
        code, out, err = run(capsys, "crosscheck", "--file", str(path), "--json")
        assert code == 0 and err == ""
        record = json.loads(out)
        assert set(record["G_squared"]) == {"dicke", "symmetric_oracle"}
        assert record["max_delta"] <= cli.CROSSCHECK_TOL


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


class TestInputErrors:
    """Unreadable inputs and unwritable outputs are validation errors."""

    def test_directory_as_state_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "oracle", "--file", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("gm: validation error: ")

    def test_non_utf8_state_file(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_bytes(b'{"kind": "\xff"}')
        code, out, err = run(capsys, "oracle", "--file", str(path))
        assert code == 2 and out == ""
        assert err.startswith("gm: validation error: 'utf-8' codec can't decode")

    def test_scan_output_under_a_file(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, out, err = run(
            capsys, "wmax-scan", "--resolution", "32", "--out", str(blocker / "sub")
        )
        assert code == 2 and out == ""
        assert err.startswith("gm: validation error: ")

    def test_figure_output_under_a_file(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, out, err = run(capsys, "fig1", "--out", str(blocker / "x.csv"))
        assert code == 2 and out == ""
        assert err.startswith("gm: validation error: ")

    @pytest.mark.parametrize("command, target", [("wmax-scan", "sub"), ("fig2", "x.csv")])
    def test_unwritable_output_fails_before_the_scan(
        self, capsys, tmp_path, monkeypatch, command, target
    ):
        calls = []
        monkeypatch.setattr(gme.cli, "scan_global_min", lambda *args: calls.append(args))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, out, err = run(
            capsys, command, "--resolution", "32", "--out", str(blocker / target)
        )
        assert code == 2 and out == ""
        assert err.startswith("gm: validation error: ")
        assert calls == []

    @pytest.mark.parametrize("command", ["wmax-scan", "fig2"])
    def test_resolution_cap_exit_2(self, capsys, tmp_path, command):
        cap = gme.wmax.RESOLUTION_CAP
        code, out, err = run(
            capsys, command, "--resolution", str(cap + 1), "--out", str(tmp_path / "o")
        )
        assert code == 2 and out == ""
        assert err == f"gm: validation error: resolution is capped at {cap}\n"

    def test_dicke_qubit_cap_from_file(self, capsys, tmp_path):
        cap = gme.states.DICKE_QUBIT_CAP
        path = tmp_path / "dicke.json"
        amps = [[1.0 / math.sqrt(cap + 2), 0.0]] * (cap + 2)
        path.write_text(json.dumps({"kind": "dicke", "n_qubits": cap + 1, "amplitudes": amps}))
        code, out, err = run(capsys, "oracle", "--file", str(path))
        assert code == 2 and out == ""
        assert err == f"gm: validation error: Dicke states are capped at N = {cap}\n"

    @pytest.mark.parametrize("command", ["pure", "oracle", "crosscheck"])
    def test_restart_cap_exit_2(self, capsys, tmp_path, command):
        cap = gme.oracle.RESTART_CAP
        path = tmp_path / "pure.json"
        gme.save_state(gme.PureState(1, np.array([1.0, 0.0])), str(path))
        code, out, err = run(
            capsys, command, "--file", str(path), "--restarts", "1000000000000"
        )
        assert code == 2 and out == ""
        assert err == f"gm: validation error: restarts is capped at {cap}\n"

    @pytest.mark.parametrize(
        "command, state, expected",
        [
            ("pure", gme.SymmetricDickeState(3, [0, 1, 0, 0]), "pure"),
            ("dicke", gme.SymThreeQubitCanonical(0.0, W_T, 0.0, 0.0), "dicke"),
        ],
    )
    def test_wrong_kind_exit_2(self, capsys, tmp_path, command, state, expected):
        path = tmp_path / "state.json"
        gme.save_state(state, str(path))
        code, out, err = run(capsys, command, "--file", str(path))
        assert code == 2 and out == ""
        assert err == (
            f"gm: validation error: gm {command} expects a state of kind '{expected}'\n"
        )


class TestRoutes:
    """The solver routes of each state kind, by crosscheck name and in order."""

    CFG = gme.OracleConfig()

    @pytest.mark.parametrize(
        "state, names",
        [
            (gme.PureState(2, [1, 0, 0, 0]), ["pure_oracle"]),
            (
                gme.PureState(3, [1, 0, 0, 0, 0, 0, 0, 0]),
                ["pure_oracle", "pair_reduction_0", "pair_reduction_1", "pair_reduction_2"],
            ),
            (
                gme.SymmetricDickeState(3, [0, 1, 0, 0]),
                ["dicke", "symmetric_oracle", "pure_oracle"],
            ),
            (
                gme.SymmetricDickeState(2, [0.6, 0.8j, 0]),
                ["symmetric_oracle", "pure_oracle"],
            ),
            (
                gme.SymmetricDickeState(21, np.eye(22)[1]),
                ["dicke", "symmetric_oracle"],
            ),
            (
                gme.SymThreeQubitCanonical(0.0, W_T, 0.0, 0.0),
                ["sym3q", "dicke", "symmetric_oracle", "pure_oracle", "pair_reduction"],
            ),
            (
                gme.SymThreeQubitCanonical(0.8, 0.2, math.sqrt(0.24), 0.3),
                ["sym3q", "symmetric_oracle", "pure_oracle", "pair_reduction"],
            ),
            (
                gme.RankTwoCanonical(0.7, 0.3, [0, 0, -0.4]),
                ["rank2_closed", "rank2_numeric", "mixed_oracle"],
            ),
            (
                gme.RankTwoCanonical(0.7, 0.2, [0.3, 0.2, -0.4]),
                ["rank2_numeric", "mixed_oracle"],
            ),
        ],
        ids=[
            "pure_n2", "pure_n3", "dicke_nonneg", "dicke_complex", "dicke_above_dense_cap",
            "sym3q_nonneg", "sym3q_complex", "rank2_axis", "rank2_off_axis",
        ],
    )
    def test_route_names(self, state, names):
        oracle, build = cli._ROUTES[gme.state_to_dict(state)["kind"]]
        routes = build(state, self.CFG)
        assert list(routes) == names
        assert oracle in routes

    @pytest.mark.parametrize(
        "state",
        [
            gme.PureState(3, [1, 0, 0, 0, 0, 0, 0, 0]),
            gme.SymThreeQubitCanonical(0.0, W_T, 0.0, 0.0),
            gme.RankTwoCanonical(0.7, 0.3, [0, 0, -0.4]),
        ],
        ids=["pure_n3", "sym3q_nonneg", "rank2_axis"],
    )
    def test_every_route_returns_a_gm_result(self, state):
        routes = cli._ROUTES[gme.state_to_dict(state)["kind"]][1](state, self.CFG)
        results = {name: route() for name, route in routes.items()}
        analytic = {"dicke", "sym3q", "rank2_closed", "rank2_numeric"}
        assert all(isinstance(result, gme.GmResult) for result in results.values())
        assert {name: result.method for name, result in results.items()} == {
            name: name if name in analytic else "oracle" for name in routes
        }

    def test_oracle_route_per_kind(self):
        oracles = {kind: oracle for kind, (oracle, _) in cli._ROUTES.items()}
        assert oracles == {
            "pure": "pure_oracle",
            "dicke": "symmetric_oracle",
            "sym3q": "symmetric_oracle",
            "rank2": "mixed_oracle",
        }

    def test_routes_are_lazy(self, capsys, tmp_path, monkeypatch):
        # every solver but the symmetric oracle fails when called: building the
        # routes calls none of them, and gm oracle calls only the oracle
        def fail(*args, **kwargs):
            raise RuntimeError("route called")

        monkeypatch.setattr(cli, "gm_dicke_nonneg", fail)
        monkeypatch.setattr(cli, "gm_pure_oracle", fail)
        amps = np.zeros(22)
        amps[1] = 1.0
        state = gme.SymmetricDickeState(21, amps)
        routes = cli._ROUTES["dicke"][1](state, self.CFG)
        with pytest.raises(RuntimeError):
            routes["dicke"]()
        path = tmp_path / "dicke.json"
        gme.save_state(state, str(path))
        code, out, _ = run(capsys, "oracle", "--file", str(path), "--restarts", "2", "--json")
        assert code == 0
        assert json.loads(out)["result"]["method"] == "oracle"
