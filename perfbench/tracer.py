"""Span tracer that wraps ``gme``'s public functions from outside the package.

``install`` replaces every binding of each traced function across ``gme`` and
its submodules (``from ._optim import ...`` copies names into the importing
module, so patching only the defining module would miss calls). Each call
becomes a span (name, start, end, parent, request id) kept in memory and
written out by ``dump``; aggregates per span name are updated as spans close,
so the per-layer numbers do not depend on how many spans are kept.

A traced function that no longer exists is recorded in ``absent`` instead of
failing, and its span name gets no aggregate, so the benchmark keeps running
after the program drops it and reports its metrics as absent, not as 0.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable

SPAN_CAP = 100_000  # spans kept for ``dump``; aggregates count every span

# (span name, module that defines it, attribute) for every traced function.
TARGETS = (
    ("states.convert", "gme.states", "sym3q_to_dicke"),
    ("states.convert", "gme.states", "dicke_to_dense"),
    ("states.convert", "gme.states", "rank2_to_matrix"),
    ("dicke.gm_dicke_nonneg", "gme.dicke", "gm_dicke_nonneg"),
    ("sym3q.gm_sym3q", "gme.sym3q", "gm_sym3q"),
    ("sym3q.find_case2_roots", "gme.sym3q", "find_case2_roots"),
    ("rank2.g_numeric", "gme.rank2", "g_numeric"),
    ("rank2.g_closed_form", "gme.rank2", "g_closed_form"),
    ("rank2.g_from_pure_3qubit", "gme.rank2", "g_from_pure_3qubit"),
    ("wmax.scan_global_min", "gme.wmax", "scan_global_min"),
    ("wmax.verify_w_uniqueness", "gme.wmax", "verify_w_uniqueness"),
    ("oracle.gm_pure_oracle", "gme.oracle", "gm_pure_oracle"),
    ("oracle.gm_symmetric_oracle", "gme.oracle", "gm_symmetric_oracle"),
    ("oracle.g_mixed_oracle", "gme.oracle", "g_mixed_oracle"),
    ("optim.bisect_roots_vector", "gme._optim", "bisect_roots_vector"),
    ("optim.golden_section", "gme._optim", "golden_section_min"),
    ("optim.max_on_sphere", "gme._optim", "max_on_sphere"),
    ("optim.nelder_mead", "gme._optim", "minimize"),
    ("rng.restart_stream", "gme._rng", "restart_stream"),
)

#: span names patched only in the module named in TARGETS, not wherever the
#: function is bound. scipy's ``minimize`` is the ``_optim`` polish only there:
#: ``gme.oracle`` binds the same function for its own polish, which stays
#: oracle time.
LOCAL_ONLY = {"optim.nelder_mead"}

#: span names whose per-call durations are kept for a median
KEEP_DURATIONS = {
    "dicke.gm_dicke_nonneg",
    "sym3q.gm_sym3q",
    "rank2.g_numeric",
    "wmax.scan_global_min",
}


class Aggregate:
    """Totals for one span name."""

    __slots__ = ("calls", "total_ns", "self_ns", "durations", "counts")

    def __init__(self, keep_durations: bool) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.durations: list[int] | None = [] if keep_durations else None
        self.counts: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


class Tracer:
    """Spans and per-name aggregates for the calls made while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name id, start, end, parent index, request]
        self.dropped = 0
        self.request = -1
        self.covered_ns = 0  # time inside top-level spans, summed over requests
        self.agg: dict[str, Aggregate] = {}
        self.absent: list[str] = []
        self.pending_restarts = 0
        self._stack: list[list[Any]] = []  # [name, start, child ns, span index]
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list[Any]:
        start = time.perf_counter_ns()
        index = -1
        if len(self.spans) < SPAN_CAP:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            self.spans.append([self._name_ids[name], start, 0, parent, self.request])
        else:
            self.dropped += 1
        frame = [name, start, 0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list[Any]) -> int:
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - frame[1]
        if frame[3] >= 0:
            self.spans[frame[3]][2] = end
        agg = self.agg[frame[0]]
        agg.calls += 1
        agg.total_ns += duration
        agg.self_ns += duration - frame[2]
        if agg.durations is not None:
            agg.durations.append(duration)
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered_ns += duration
        return duration

    def parent_name(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, note: Callable | None) -> Callable:
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = exit_(frame)
            if note is not None:
                note(self, self.agg[name], args, kwargs, result, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, notes: dict[str, Callable]) -> None:
        """Patch every binding of every target inside the loaded gme modules."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "gme" or key.startswith("gme."))
        ]
        for name, module_name, attr in TARGETS:
            home = sys.modules.get(module_name)
            original = getattr(home, attr, None)
            scope = [home] if name in LOCAL_ONLY else modules
            bindings = [] if original is None else [
                (module, key)
                for module in scope
                for key, value in vars(module).items()
                if value is original
            ]
            if not bindings:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
                self.agg[name] = Aggregate(name in KEEP_DURATIONS)
            wrapper = self._wrap(name, original, notes.get(name))
            for module, key in bindings:
                setattr(module, key, wrapper)
                self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Aggregates in a JSON-ready form; a span name that is absent has none."""
        return {
            "agg": {
                name: {
                    "calls": a.calls,
                    "total_ns": a.total_ns,
                    "self_ns": a.self_ns,
                    "durations": a.durations,
                    "counts": a.counts,
                }
                for name, a in self.agg.items()
            },
            "covered_ns": self.covered_ns,
            "absent": self.absent,
            "dropped": self.dropped,
        }

    def dump(self, path: str, extra: dict[str, Any]) -> None:
        """Write kept spans as JSON lines after one header line."""
        with open(path, "w", encoding="utf-8") as handle:
            header = {
                "names": self.names,
                "fields": ["name", "start_ns", "end_ns", "parent", "request"],
                "kept": len(self.spans),
                "dropped": self.dropped,
                "absent": self.absent,
                **extra,
            }
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# -- notes: counts taken at the same boundary as the span ---------------------


def _note_sym3q(tracer, agg, args, kwargs, result, duration):
    agg.add("candidates", len(result.candidates))
    agg.add("oracle_won", result.method == "oracle")


def _note_symmetric_oracle(tracer, agg, args, kwargs, result, duration):
    if tracer.parent_name() == "sym3q.gm_sym3q":
        tracer.agg["sym3q.gm_sym3q"].add("fallbacks", 1)


def _note_bisect(tracer, agg, args, kwargs, result, duration):
    lo = args[1] if len(args) > 1 else kwargs["lo"]
    agg.add("brackets", len(lo))


def _note_minimize(tracer, agg, args, kwargs, result, duration):
    agg.add("nfev", getattr(result, "nfev", 0))


def _note_pure(tracer, agg, args, kwargs, result, duration):
    psi = args[0] if args else kwargs["psi"]
    n = psi.n_qubits
    restarts, tracer.pending_restarts = tracer.pending_restarts, 0
    agg.add("restarts", restarts)
    agg.add(f"ns.n{n}", duration)
    agg.add(f"restarts.n{n}", restarts)
    agg.add("unconverged", result.warning is not None)


def _note_restart(tracer, agg, args, kwargs, result, duration):
    # handed to the enclosing pure-oracle solve, which knows its qubit count
    if tracer.parent_name() == "oracle.gm_pure_oracle":
        tracer.pending_restarts += 1


def _note_scan(tracer, agg, args, kwargs, result, duration):
    resolution = args[0] if args else kwargs["resolution"]
    agg.add("cells", resolution * resolution)


NOTES = {
    "sym3q.gm_sym3q": _note_sym3q,
    "oracle.gm_symmetric_oracle": _note_symmetric_oracle,
    "optim.bisect_roots_vector": _note_bisect,
    "optim.nelder_mead": _note_minimize,
    "oracle.gm_pure_oracle": _note_pure,
    "rng.restart_stream": _note_restart,
    "wmax.scan_global_min": _note_scan,
}
