"""Command-line front end.

Subcommands parse a state (from a JSON file or inline flags), dispatch to the
matching solver, and print the result with 12 significant digits, or as a
JSON record with ``--json``.  The solvers that apply to each state kind are
listed once, in ``_ROUTES``: ``crosscheck`` runs them all, ``oracle`` and
``pure`` only the kind's oracle.  Exit codes: 0 success, 2 validation error
(including unreadable or non-UTF-8 files, unwritable outputs and a value above
a size cap, such as ``--restarts`` above ``oracle.RESTART_CAP``), 3 solver
warning, solver error, or a ``crosscheck`` whose routes differ by more than
``CROSSCHECK_TOL``, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from .dicke import gm_dicke_nonneg
from .oracle import (
    DEFAULT_SEED,
    OracleConfig,
    g_mixed_oracle,
    gm_pure_oracle,
    gm_symmetric_oracle,
)
from .rank2 import g_closed_form, g_from_pure_3qubit, g_numeric
from .states import (
    DENSE_QUBIT_CAP,
    GmResult,
    PureState,
    RankTwoCanonical,
    StateLike,
    SymThreeQubitCanonical,
    SymmetricDickeState,
    ValidationError,
    dicke_to_dense,
    load_state,
    rank2_to_matrix,
    state_kind,
    state_to_dict,
    sym3q_to_dicke,
)
from .sym3q import gm_sym3q
from .wmax import scan_global_min

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER_WARNING = 3
EXIT_USAGE = 64
# crosscheck exits 3 when two solver routes' G^2 differ by more than this
CROSSCHECK_TOL = 1e-6

FIG1_PAIRS = (
    (math.pi / 4, 0.0),
    (math.pi / 2, 0.0),
    (3 * math.pi / 8, math.pi / 8),
    (math.pi / 4, math.pi / 4),
)
FIG1_SAMPLES = 201


class _Parser(argparse.ArgumentParser):
    """Parser that reports usage problems with exit code 64."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _result_to_dict(result: GmResult) -> dict[str, Any]:
    return {
        "G": result.G,
        "G_squared": result.G_squared,
        "E_G": result.E_G,
        "method": result.method,
        "closest_product": [[float(v) for v in b.s] for b in result.closest_product],
        "candidates": [
            {
                "phi": c.phi,
                "theta": c.theta,
                "lambda": c.lam,
                "G_j_squared": c.G_j_squared,
                "case_tag": c.case_tag.value,
                "residual": c.residual,
            }
            for c in result.candidates
        ],
        "warning": result.warning,
    }


def _sig(value: float) -> str:
    return f"{value:.12g}"


def _finish(state: StateLike, result: GmResult, started: float, as_json: bool,
            diagnostics: dict[str, Any] | None = None) -> int:
    wall_time_ms = (time.perf_counter() - started) * 1e3
    if as_json:
        record = {
            "input": state_to_dict(state),
            "result": _result_to_dict(result),
            "wall_time_ms": wall_time_ms,
            "diagnostics": diagnostics or {},
        }
        print(json.dumps(record))
    else:
        print(f"method      : {result.method}")
        print(f"G           = {_sig(result.G)}")
        print(f"G^2         = {_sig(result.G_squared)}")
        print(f"E_G         = {_sig(result.E_G)}")
        for bloch in result.closest_product[:1]:
            comps = ", ".join(_sig(float(v)) for v in bloch.s)
            print(f"closest Bloch vector (per party): ({comps})")
        if result.candidates:
            print(f"candidates  : {len(result.candidates)} (see --json for the trail)")
        if result.warning:
            print(f"warning     : {result.warning}")
        print(f"wall time   : {_sig(wall_time_ms)} ms")
    return EXIT_SOLVER_WARNING if result.warning else EXIT_OK


def _load(args: argparse.Namespace) -> StateLike:
    """The state in ``--file``; it must be of kind ``args.kind`` unless that is None."""
    state = load_state(args.file)
    if args.kind is not None and state_kind(state) != args.kind:
        raise ValidationError(f"gm {args.command} expects a state of kind {args.kind!r}")
    return state


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"could not parse {what}: {exc}") from exc


def _oracle_config(args: argparse.Namespace) -> OracleConfig:
    seed = args.seed
    if seed is None:
        try:
            seed = int(os.environ.get("GM_SEED", DEFAULT_SEED))
        except ValueError:
            raise ValidationError("GM_SEED must be an integer") from None
    return OracleConfig(restarts=args.restarts, max_iters=args.max_iters, seed=seed)


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _tagged(solver: Callable[..., float], method: str) -> Callable[..., GmResult]:
    """``solver``, which returns G^2 alone, as a function returning a GmResult."""
    return lambda *args: GmResult.from_overlap_squared(solver(*args), method=method)


def _pure_routes(state: PureState, cfg: OracleConfig) -> dict[str, Route]:
    routes: dict[str, Route] = {"pure_oracle": lambda: gm_pure_oracle(state, cfg)}
    if state.n_qubits == 3:
        pair_reduction = _tagged(g_from_pure_3qubit, "oracle")
        for party in range(3):
            routes[f"pair_reduction_{party}"] = partial(pair_reduction, state, party, cfg)
    return routes


def _dicke_routes(state: SymmetricDickeState, cfg: OracleConfig) -> dict[str, Route]:
    routes: dict[str, Route] = {}
    if state.non_negative:
        routes["dicke"] = lambda: gm_dicke_nonneg(state)
    routes["symmetric_oracle"] = lambda: gm_symmetric_oracle(state, cfg)
    if state.N <= DENSE_QUBIT_CAP:
        routes["pure_oracle"] = lambda: gm_pure_oracle(dicke_to_dense(state), cfg)
    return routes


def _sym3q_routes(state: SymThreeQubitCanonical, cfg: OracleConfig) -> dict[str, Route]:
    dicke = sym3q_to_dicke(state)
    pair_reduction = _tagged(g_from_pure_3qubit, "oracle")
    return {
        "sym3q": lambda: gm_sym3q(state, cfg),
        **_dicke_routes(dicke, cfg),
        "pair_reduction": lambda: pair_reduction(dicke_to_dense(dicke), 2, cfg),
    }


def _rank2_routes(state: RankTwoCanonical, cfg: OracleConfig) -> dict[str, Route]:
    routes: dict[str, Route] = {}
    if state.x[0] == 0.0 and state.x[1] == 0.0:
        closed = _tagged(g_closed_form, "rank2_closed")
        routes["rank2_closed"] = partial(closed, float(state.x[2]), state.gamma1, state.gamma2)
    routes["rank2_numeric"] = partial(_tagged(g_numeric, "rank2_numeric"), state)
    mixed_oracle = _tagged(g_mixed_oracle, "oracle")
    routes["mixed_oracle"] = lambda: mixed_oracle(rank2_to_matrix(state), cfg)
    return routes


# kind -> (its oracle's route name, a function giving every solver route that
# applies: lazy calls in crosscheck order, each returning a GmResult)
Route = Callable[[], GmResult]
_ROUTES: dict[str, tuple[str, Callable[[Any, OracleConfig], dict[str, Route]]]] = {
    "pure": ("pure_oracle", _pure_routes),
    "dicke": ("symmetric_oracle", _dicke_routes),
    "sym3q": ("symmetric_oracle", _sym3q_routes),
    "rank2": ("mixed_oracle", _rank2_routes),
}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_dicke(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.file:
        state = _load(args)
    else:
        amps = _parse_floats(args.amps, "--amps")
        state = SymmetricDickeState(N=len(amps) - 1, amplitudes=np.array(amps))
    result = gm_dicke_nonneg(state)
    return _finish(state, result, started, args.json)


def _cmd_sym3(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    g, t, h = args.g, args.t, args.h
    gamma = _angle(args.gamma, args.deg)
    if args.renorm:
        norm = math.sqrt(g * g + 3 * t * t + h * h)
        if norm == 0.0:
            raise ValidationError("cannot renormalize the zero vector")
        g, t, h = g / norm, t / norm, h / norm
    state = SymThreeQubitCanonical(g=g, t=t, h=h, gamma=gamma)
    result = gm_sym3q(state)
    diagnostics = {"candidates": len(result.candidates)}
    return _finish(state, result, started, args.json, diagnostics)


def _cmd_rank2(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    x = _parse_floats(args.x, "--x")
    if len(x) != 3:
        raise ValidationError("--x must have exactly three components")
    state = RankTwoCanonical(
        gamma1=_angle(args.gamma1, args.deg),
        gamma2=_angle(args.gamma2, args.deg),
        x=np.array(x),
    )
    method = "rank2_closed" if args.closed_form else "rank2_numeric"
    route = _rank2_routes(state, OracleConfig()).get(method)
    if route is None:
        raise ValidationError("--closed-form requires x1 = x2 = 0")
    return _finish(state, route(), started, args.json)


def _cmd_oracle(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    state = _load(args)
    cfg = _oracle_config(args)
    oracle, routes = _ROUTES[state_kind(state)]
    result = routes(state, cfg)[oracle]()
    diagnostics = {"restarts": cfg.restarts, "max_iters": cfg.max_iters, "seed": cfg.seed}
    return _finish(state, result, started, args.json, diagnostics)


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    state = _load(args)
    cfg = _oracle_config(args)
    routes = _ROUTES[state_kind(state)][1](state, cfg)
    values = {name: route().G_squared for name, route in routes.items()}
    names = sorted(values)
    deltas = {
        f"{a} vs {b}": abs(values[a] - values[b])
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    }
    max_delta = max(deltas.values()) if deltas else 0.0
    wall = (time.perf_counter() - started) * 1e3
    if args.json:
        print(
            json.dumps(
                {
                    "input": state_to_dict(state),
                    "G_squared": values,
                    "pairwise_deltas": deltas,
                    "max_delta": max_delta,
                    "wall_time_ms": wall,
                }
            )
        )
    else:
        for name in names:
            print(f"G^2[{name}] = {_sig(values[name])}")
        for pair, delta in deltas.items():
            print(f"|delta| {pair} = {_sig(delta)}")
        print(f"max pairwise delta = {_sig(max_delta)}")
        print(f"wall time   : {_sig(wall)} ms")
    if not max_delta <= CROSSCHECK_TOL:
        print(
            f"gm: crosscheck failed: max pairwise delta {_sig(max_delta)} "
            f"exceeds {CROSSCHECK_TOL:g}",
            file=sys.stderr,
        )
        return EXIT_SOLVER_WARNING
    return EXIT_OK


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(f"{value:.17g}" for value in row) + "\n")


def _cmd_wmax_scan(args: argparse.Namespace) -> int:
    os.makedirs(args.out, exist_ok=True)  # before the scan, so a bad --out fails first
    report = scan_global_min(args.resolution)
    report_path = os.path.join(args.out, "wmax_report.json")
    grid_path = os.path.join(args.out, "wmax_grid.csv")
    payload = {
        "min_g": report.min_g,
        "argmin": {
            "gamma1": report.argmin[0],
            "gamma2": report.argmin[1],
            "x3": report.argmin[2],
        },
        "grid_spec": report.grid_spec,
        "margin": report.margin,
    }
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    _write_csv(grid_path, ("gamma1", "gamma2", "x3_min", "g_min"), report.cells)
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"min g       = {_sig(report.min_g)}")
        print(
            "argmin      = (gamma1, gamma2, x3) = "
            f"({_sig(report.argmin[0])}, {_sig(report.argmin[1])}, {_sig(report.argmin[2])})"
        )
        print(f"margin      = {_sig(report.margin)}")
        print(f"report      : {report_path}")
        print(f"grid        : {grid_path}")
    return EXIT_OK


def _cmd_fig1(args: argparse.Namespace) -> int:
    x3_values = np.linspace(-1.0, 1.0, FIG1_SAMPLES)
    header = ["x3"] + [
        f"g[gamma1={g1:.12g};gamma2={g2:.12g}]" for g1, g2 in FIG1_PAIRS
    ]
    rows = []
    for x3 in x3_values:
        rows.append(
            [float(x3)]
            + [g_closed_form(float(x3), g1, g2) for g1, g2 in FIG1_PAIRS]
        )
    _write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} samples x {len(FIG1_PAIRS)} curves to {args.out}")
    return EXIT_OK


def _cmd_fig2(args: argparse.Namespace) -> int:
    open(args.out, "a", encoding="utf-8").close()  # a bad --out fails before the scan
    report = scan_global_min(args.resolution)
    _write_csv(args.out, ("gamma1", "gamma2", "x3_min", "g_min"), report.cells)
    print(f"wrote {report.cells.shape[0]} cells to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="structured JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gm", description="geometric measure of entanglement")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("dicke", parents=[], help="non-negative Dicke amplitudes")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", help="state JSON of kind 'dicke'")
    group.add_argument("--amps", help="comma-separated real amplitudes a0,a1,...")
    _add_common(p)
    p.set_defaults(handler=_cmd_dicke, kind="dicke")

    p = sub.add_parser("sym3", help="canonical symmetric three-qubit state")
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--deg", action="store_true", help="angles are in degrees")
    p.add_argument(
        "--renorm",
        action="store_true",
        help="project (g, t, h) onto the normalization constraint first",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_sym3)

    p = sub.add_parser("rank2", help="canonical two-qubit rank-two state")
    p.add_argument("--gamma1", type=float, required=True)
    p.add_argument("--gamma2", type=float, required=True)
    p.add_argument("--x", required=True, help="Bloch vector x1,x2,x3")
    p.add_argument("--deg", action="store_true", help="angles are in degrees")
    p.add_argument(
        "--closed-form",
        action="store_true",
        help="use the closed form (requires x1 = x2 = 0)",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_rank2)

    for name, kind, handler, text in (
        ("pure", "pure", _cmd_oracle, "dense pure state (alternating oracle)"),
        ("oracle", None, _cmd_oracle, "brute-force solver for any state JSON"),
        ("crosscheck", None, _cmd_crosscheck, "run every applicable solver and compare"),
    ):
        p = sub.add_parser(name, help=text)
        what = "any kind" if kind is None else f"kind {kind!r}"
        p.add_argument("--file", required=True, help=f"state JSON of {what}")
        _add_common(p)
        p.add_argument("--restarts", type=int, default=32, help="oracle restarts")
        p.add_argument(
            "--seed", type=int, default=None, help="oracle seed (default GM_SEED or 42)"
        )
        p.add_argument(
            "--max-iters", type=int, default=500, help="sweep cap per oracle restart"
        )
        p.set_defaults(handler=handler, kind=kind)

    p = sub.add_parser("wmax-scan", help="per-subspace minimum scan")
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(handler=_cmd_wmax_scan)

    p = sub.add_parser("fig1", help="overlap curves over x3 for four subspaces (CSV)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_fig1)

    p = sub.add_parser("fig2", help="per-subspace minimum surface (CSV)")
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_fig2)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler: Callable[[argparse.Namespace], int] | None = getattr(
        args, "handler", None
    )
    if handler is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return handler(args)
    except (ValidationError, OSError, UnicodeDecodeError) as exc:
        print(f"gm: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except json.JSONDecodeError as exc:
        print(f"gm: validation error: invalid JSON ({exc})", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as exc:
        print(f"gm: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_WARNING


if __name__ == "__main__":
    sys.exit(main())
