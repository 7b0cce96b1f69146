"""Span recorder and layer wrappers for the benchmark's traced run.

Timed runs never call :func:`install_layer_wrappers`, so they measure the
program exactly as users run it.  The traced run wraps the public entry
point of each layer from here (no change to the program) and records one
span per call: name, start, end, parent span, op id and thread.  Spans stay
in memory and are written out once, as Chrome trace-event JSON that opens
in Perfetto.

A span's *self time* is its duration minus the time its child spans (and
garbage-collector pauses, seen through ``gc.callbacks``) cover.  Summing
self time per span name gives a per-layer breakdown that adds up to the
root spans' wall time.  The self time of the root spans and of the
:data:`GLUE_SPANS` (the compiler driver and the pass manager, which only
call into the layers) is the part no layer accounts for: the unattributed
remainder.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: GC pauses at least this long (or any gen-2 pause) become their own
#: spans in the exported trace; shorter ones are only summed.
_GC_SPAN_MIN_NS = 1_000_000

#: Spans of glue code, not of a layer: their self time is unattributed.
GLUE_SPANS = ("core.pipeline.compile", "ir.passes.run")

_MISSING = object()


@dataclass
class Span:
    name: str
    id: int
    parent: int | None
    op: int
    tid: int
    start: int
    end: int = 0
    #: Nanoseconds covered by child spans and GC pauses inside this span.
    covered: int = 0
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.covered


class Recorder:
    """Thread-aware in-memory span store (one per process)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.gc_ns = 0
        self.gc_collections = 0
        self.gc_gen2 = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self, name: str) -> bool:
        return any(span.name == name for span in self._stack())

    def begin(self, name: str, **args: Any) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = Span(
            name=name,
            id=span_id,
            parent=parent.id if parent else None,
            op=parent.op if parent else span_id,
            tid=threading.get_ident(),
            start=time.perf_counter_ns(),
            args=args,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].covered += span.end - span.start
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Span]:
        span = self.begin(name, **args)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        *,
        annotate: Callable[[tuple, dict, Any], dict[str, Any]] | None = None,
        outermost: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` recording a span per call; ``outermost`` skips nested
        calls made while a span of the same name is already open."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if outermost and self.active(name):
                return fn(*args, **kwargs)
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    span.args.update(annotate(args, kwargs, result))
                return result
            finally:
                self.end(span)

        return wrapper

    # -- garbage collector ----------------------------------------------------

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._local.gc_start = time.perf_counter_ns()
            return
        start = getattr(self._local, "gc_start", None)
        if start is None:
            return
        end = time.perf_counter_ns()
        self._local.gc_start = None
        pause = end - start
        self.gc_ns += pause
        self.gc_collections += 1
        generation = info.get("generation", 0)
        if generation == 2:
            self.gc_gen2 += 1
        stack = self._stack()
        if stack:
            stack[-1].covered += pause
        if generation == 2 or pause >= _GC_SPAN_MIN_NS:
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            self.spans.append(
                Span(
                    name="python.gc",
                    id=span_id,
                    parent=parent.id if parent else None,
                    op=parent.op if parent else span_id,
                    tid=threading.get_ident(),
                    start=start,
                    end=end,
                    args={"generation": generation},
                )
            )

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- export ----------------------------------------------------------------

    def as_records(self) -> list[dict[str, Any]]:
        return [
            {
                "name": s.name, "id": s.id, "parent": s.parent, "op": s.op,
                "tid": s.tid, "start": s.start, "end": s.end,
                "covered": s.covered, "args": s.args,
            }
            for s in self.spans
        ]

    def summary(self) -> dict[str, Any]:
        return {
            "records": self.as_records(),
            "gc_ns": self.gc_ns,
            "gc_collections": self.gc_collections,
            "gc_gen2": self.gc_gen2,
        }


def spans_from_records(records: list[dict[str, Any]]) -> list[Span]:
    return [Span(**record) for record in records]


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Self time (ms) and call count per span name (GC spans excluded —
    their time is reported from the recorder's counters)."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"self_ms": 0.0, "calls": 0})
    for span in spans:
        if span.name == "python.gc":
            continue
        entry = totals[span.name]
        entry["self_ms"] += span.self_ns / 1e6
        entry["calls"] += 1
    return dict(totals)


def write_chrome_trace(path: str, processes: list[tuple[int, str, list[Span]]]) -> None:
    """Chrome trace-event JSON (``traceEvents`` of complete ``X`` events)."""
    origin = min((s.start for _, _, spans in processes for s in spans), default=0)
    events: list[dict[str, Any]] = []
    for pid, label, spans in processes:
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": label}}
        )
        for span in spans:
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".")[0],
                    "ph": "X",
                    "pid": pid,
                    "tid": span.tid % 2**31,
                    "ts": (span.start - origin) / 1e3,
                    "dur": (span.end - span.start) / 1e3,
                    "args": {
                        "id": span.id, "parent": span.parent, "op": span.op,
                        "self_us": span.self_ns / 1e3, **span.args,
                    },
                }
            )
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# -- layer wrappers --------------------------------------------------------------


def _pass_layer(pass_name: str) -> str:
    if pass_name == "canonicalize":
        return "transforms.canonicalize"
    if pass_name == "convert-hls-to-llvm":
        return "transforms.hls_to_llvm"
    if pass_name.startswith("stencil-") or pass_name in (
        "convert-stencil-to-hls", "hls-bundle-assignment",
    ):
        return "transforms.stencil_hls"
    return "transforms.other"


def _all_subclasses(cls: type) -> list[type]:
    found: list[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def _cache_args(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"stage": args[2] if len(args) > 2 else kwargs.get("stage")}


def _cache_get_args(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {**_cache_args(args, kwargs, result), "hit": result is not None}


def install_layer_wrappers(recorder: Recorder) -> Callable[[], None]:
    """Wrap each layer's public entry points in ``recorder`` spans; returns
    a function that takes every wrapper out again.

    Module-level functions are replaced wherever a ``repro`` module holds
    a reference to them (``from x import f`` copies the reference), so
    every call site records.
    """
    import repro.cli  # noqa: F401 - imports the compile stack
    import repro.kernels.reference as reference
    import repro.service.server as server
    from repro.baselines import ALL_FRAMEWORKS, StencilHMLSFramework
    from repro.core.compile_cache import CompileCache
    from repro.core.pipeline import MiddleEndResult, PassPrefixArtifact, StencilHMLSCompiler
    from repro.dialects.builtin import ModuleOp
    from repro.evaluation import harness
    from repro.fpga.dataflow_sim import FunctionalDataflowSimulator, TimingModel
    from repro.fpga.synthesis import VitisHLSBackend
    from repro.ir.analysis import AnalysisManager
    from repro.ir.pass_registry import PassRegistry
    from repro.ir.passes import ModulePass, PassManager

    PassRegistry.default()  # registers (and so imports) every built-in pass

    functions = [
        ("repro.kernels.pw_advection", "build_pw_advection", "kernels.build"),
        ("repro.kernels.tracer_advection", "build_tracer_advection", "kernels.build"),
        ("repro.ir.verifier", "verify_module", "ir.verifier.verify"),
        ("repro.ir.verifier", "verify_module_diagnostics", "ir.verifier.verify"),
        ("repro.ir.hashing", "module_hash", "ir.hashing.module_hash"),
        ("repro.fpp.preprocessor", "run_fpp", "fpp.run"),
        (reference.__name__, "pw_advection_reference", "kernels.reference"),
        (reference.__name__, "tracer_advection_reference", "kernels.reference"),
    ]
    #: (namespace, name, original) per replacement; ``_MISSING`` when the
    #: name was inherited.
    undo: list[tuple[Any, str, Any]] = []
    replaced: dict[int, Callable[..., Any]] = {}
    for module_name, attr, span_name in functions:
        original = getattr(sys.modules[module_name], attr)
        replaced[id(original)] = recorder.wrap(original, span_name)
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None and callable(value):
                undo.append((module, attr, value))
                setattr(module, attr, wrapper)
    builders = dict(harness.KERNEL_BUILDERS)
    for kernel, builder in builders.items():
        harness.KERNEL_BUILDERS[kernel] = replaced.get(id(builder), builder)

    methods: list[tuple[type, str, str, dict[str, Any]]] = [
        (AnalysisManager, "get", "ir.analysis.get", {}),
        (VitisHLSBackend, "synthesise", "fpga.synthesis.synthesise", {}),
        (ModuleOp, "clone", "ir.core.clone", {"outermost": True}),
        (MiddleEndResult, "clone", "ir.core.clone", {"outermost": True}),
        (PassPrefixArtifact, "clone", "ir.core.clone", {"outermost": True}),
        (CompileCache, "get", "core.compile_cache.get", {"annotate": _cache_get_args}),
        (CompileCache, "put", "core.compile_cache.put", {"annotate": _cache_args}),
        (harness.EvaluationHarness, "run_case", "evaluation.harness.run_case", {}),
        (harness.EvaluationHarness, "result_key", "evaluation.harness.result_key", {}),
        (StencilHMLSCompiler, "compile", "core.pipeline.compile", {}),
        (PassManager, "run", "ir.passes.run", {}),
        (FunctionalDataflowSimulator, "run", "fpga.dataflow_sim.run", {}),
        (TimingModel, "estimate", "fpga.dataflow_sim.estimate", {}),
        (server.CompileService, "handle_compile_request", "service.handle_request", {}),
        (server.CompileService, "_compile_sync", "service.compile_flight", {}),
    ]
    for framework in ALL_FRAMEWORKS:
        if framework is not StencilHMLSFramework:
            methods.append((framework, "compile", "baselines.compile", {}))
    for pass_cls in _all_subclasses(ModulePass):
        if "apply" in vars(pass_cls):
            methods.append(
                (pass_cls, "apply", _pass_layer(getattr(pass_cls, "name", "")), {})
            )
    for cls, attr, span_name, options in methods:
        # ``getattr`` (not ``vars``) so an inherited method is wrapped on
        # the subclass only — ModuleOp.clone must not wrap every op clone.
        undo.append((cls, attr, vars(cls).get(attr, _MISSING)))
        setattr(cls, attr, recorder.wrap(getattr(cls, attr), span_name, **options))
    recorder.watch_gc()

    def uninstall() -> None:
        recorder.unwatch_gc()
        harness.KERNEL_BUILDERS.update(builders)
        for namespace, attr, original in reversed(undo):
            if original is _MISSING:
                delattr(namespace, attr)
            else:
                setattr(namespace, attr, original)

    return uninstall
