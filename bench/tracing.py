"""Span tracing of the entdistill layers, installed from outside the package.

``Tracer.install()`` wraps every public function of the layer modules at
every module binding it has: ``qmat.embed_op``, ``noise.embed_op`` and
``oracle.embed_op`` are one function, so one wrapper replaces all three.
Each call records a span (name, start, end, parent span, run id) in
memory; ``uninstall()`` puts every original binding back.

Self time is a span's duration minus the part its child spans cover.
The program is single-threaded, so children never overlap and the
covered part is the sum of the direct children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from time import perf_counter_ns

LAYERS = ("cli", "noise", "distill_mixed", "distill_pure", "oracle", "qmat", "states")

# Span names that differ from "<module>.<function>".
RENAME = {
    "oracle.oracle_effective_povm": "oracle.effective_povm",
    "oracle.oracle_mixed_post_state": "oracle.mixed_post_state",
    "oracle.oracle_pure_post_state": "oracle.pure_post_state",
    "oracle.oracle_mixed_post_state_direct": "oracle.direct",
    "oracle.oracle_pure_post_state_direct": "oracle.direct",
    "oracle.oracle_distill_mixed": "oracle.distill_mixed",
    "oracle.oracle_distill_pure": "oracle.distill_pure",
}

# Functions reported one by one; every other wrapped function still counts
# towards its module's totals.
REPORTED = [
    "cli.main", "cli.emit_records",
    "noise.purified_coeffs", "noise.purified_coeffs_gate_noisy",
    "noise.purified_coeffs_general", "noise.depolarized_cnot_apply",
    "distill_mixed.parity_weights", "distill_mixed.parity_weights_gate_noisy",
    "distill_mixed.parity_weights_general", "distill_mixed.distill_map",
    "distill_mixed.lower_bound", "distill_pure.pure_filter_fidelity",
    "oracle.effective_povm", "oracle.mixed_post_state", "oracle.pure_post_state",
    "oracle.direct",
    "qmat.tensor", "qmat.embed_op", "qmat.partial_trace", "qmat.permute_qubits",
]

PARSE_SPANS = ("cli.build_parser", "cli.parse_args")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def self_times(parent, start, end) -> list[int]:
    """Per-span self time: duration minus the durations of its direct children."""
    covered = [0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


class Tracer:
    """In-memory span recorder plus the counters kept at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.povm_calls = 0
        self.povm_args: set = set()
        self.embed_flops = 0
        self.emit_bytes = 0
        self.emit_rows = 0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        hook = {
            "oracle.effective_povm": self._count_povm,
            "qmat.embed_op": self._count_embed,
            "cli.emit_records": self._count_emit,
            "cli.build_parser": self._trace_parse_args,
        }.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = hook(args, kwargs) if hook else None
            i = len(tracer.start)
            stack = tracer._stack
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.run.append(tracer.run_id)
            tracer.end.append(0)
            stack.append(i)
            tracer.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = perf_counter_ns()
                stack.pop()
            if after:
                after(result)
            return result

        return traced

    def _count_povm(self, args, kwargs):
        self.povm_calls += 1
        self.povm_args.add((
            tuple(float(p) for p in _arg(args, kwargs, 0, "p_list")),
            float(_arg(args, kwargs, 1, "epsilon")),
            int(_arg(args, kwargs, 2, "n")),
        ))

    def _count_embed(self, args, kwargs):
        def after(result):
            # Each embedded operator is applied with two d x d complex
            # matmuls; one complex multiply-add is 8 real flops.
            self.embed_flops += 2 * 8 * result.shape[0] ** 3
        return after

    def _count_emit(self, args, kwargs):
        records = _arg(args, kwargs, 0, "records")
        fmt = _arg(args, kwargs, 1, "fmt")
        out = _arg(args, kwargs, 2, "out")
        before = out.tell()

        def after(result):
            self.emit_rows += len(records) + (fmt != "json")
            self.emit_bytes += out.tell() - before
        return after

    def _trace_parse_args(self, args, kwargs):
        def after(parser):
            parser.parse_args = self._wrap(parser.parse_args, "cli.parse_args")
        return after

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of every public layer function with a wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module("entdistill")]
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"entdistill.{layer}")
            modules.append(mod)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(obj, RENAME.get(name, name)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self seconds)}."""
        out: dict[str, list] = {}
        for nid, s in zip(self.name, self_times(self.parent, self.start, self.end)):
            entry = out.setdefault(self.names[nid], [0, 0])
            entry[0] += 1
            entry[1] += s
        return {k: (c, ns * 1e-9) for k, (c, ns) in out.items()}

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything recorded so far."""
        totals = self.totals()

        def calls(name):
            return totals.get(name, (0, 0.0))[0]

        def self_s(name):
            return totals.get(name, (0, 0.0))[1]

        m: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            mine = [v for k, v in totals.items() if k.split(".")[0] == layer]
            m[f"{layer}.calls"] = (sum(c for c, _ in mine), "count")
            m[f"{layer}.self_s"] = (sum(s for _, s in mine), "s")
        for name in REPORTED:
            m[f"{name}.calls"] = (calls(name), "count")
            m[f"{name}.self_s"] = (self_s(name), "s")
        parse = sum(self_s(n) for n in PARSE_SPANS)
        m["cli.parse_s"] = (parse, "s")
        m["cli.glue.self_s"] = (m["cli.self_s"][0] - parse - self_s("cli.emit_records"), "s")
        m["cli.emit_bytes"] = (self.emit_bytes, "bytes")
        m["cli.rows"] = (self.emit_rows, "count")
        m["oracle.effective_povm.unique_frac"] = (
            len(self.povm_args) / self.povm_calls if self.povm_calls else 0.0, "ratio")
        m["qmat.dense_gflop_computed"] = (self.embed_flops * 1e-9, "GFLOP")
        return m

    def write(self, path) -> None:
        """Write every span as JSON: names, then one column per field."""
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "fields": {
                    "name": self.name.tolist(), "start_ns": self.start.tolist(),
                    "end_ns": self.end.tolist(), "parent": self.parent.tolist(),
                    "run": self.run.tolist(),
                },
            }, fh)
