"""End-to-end benchmark of Stencil-HMLS: the compiler and the evaluation
matrix, with a traced per-layer breakdown that also covers ``shmls-serve``.

    python3 perfbench/run.py --workload cold_compile --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout (it imports ``src/repro``).  Each
workload measures one user-facing cost for about ``--seconds`` (see
:mod:`sections`), in passes over a fixed set of work:

* ``cold_compile`` — cold compiles, a closed loop with one caller and no
  cache; a pass compiles {pw, tracer} @ 8M × five pipeline variants once
  each, in seeded order.  The designs are then simulated against numpy.
* ``eval_matrix`` — the full evaluation matrix (the paper's cases × five
  frameworks plus the ablation variants × both kernels @ 8M); a pass runs
  it with no cache, with a cold cache and with a warm cache, each phase in
  a new worker process as a ``shmls-bench`` run would.

A run does a fixed number of whole passes (:data:`WORKLOADS`), so every
run of a workload, on any commit, takes its medians and tails over the
same number of ops.

Both print the same end-to-end metrics (:func:`end_to_end`), each
meaning what it says for the workload's own pass and ops.  ``--trace 0``
measures with nothing installed.  ``--trace 1`` alternates untraced
and traced runs of a fixed amount of compile and matrix work (then runs
an open loop against a traced ``shmls-serve``), prints the per-layer
metrics, the unattributed time and the tracing overhead, and writes a
Chrome trace (it opens in Perfetto) to
``.perfbench/trace-<workload>-seed<seed>.json``.  Cache, state and server
files live in a temporary directory under ``.perfbench/`` that is removed
at exit.  The last line of stdout is the JSON result; the lines before it
are the same metrics as a readable row with sample counts, a breakdown
by kernel or cache phase, and the failures if any.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

ROOT = Path.cwd()
WORK_DIR = ROOT / ".perfbench"

#: Per workload: ``pass_s`` is about how long a pass takes on a shared
#: 2-core x86 host; a run does ``round(--seconds / pass_s)`` passes (at
#: least one): at ``--seconds 45``, 15 compile passes or 2 matrix passes.
#: The count is fixed, not timed, so every commit's medians and tails
#: cover the same ops.
#: ``trace`` is the fixed work of a traced run —
#: ``compile`` rounds and ``matrix`` passes, each op run once untraced and
#: once traced, then ``serve`` slices against a traced server.  ``full``
#: selects the full evaluation matrix for the traced run.
WORKLOADS: dict[str, dict[str, Any]] = {
    "cold_compile": {
        "pass_s": 3.0,
        "full": False,
        "trace": {"compile": 2, "matrix": 1, "serve": 3},
    },
    "eval_matrix": {
        "pass_s": 22.5,
        "full": True,
        "trace": {"compile": 1, "matrix": 1, "serve": 2},
    },
}
#: The serve traffic.  Nothing in the repository records real request
#: traffic, so this is an assumption: a shared server that mostly answers
#: repeats.  Warm requests arrive at 32 per second, as if each of the 32
#: clients of the service soak (``benchmarks/test_service_perf.py``) sent
#: one a second; one distinct cold Stencil-HMLS compile is in flight at a
#: time, one per slice.  A slice lasts ``SERVE_SLICE_S``, and at least 1.5
#: cold latencies past the cold answer, so the server compiles for at most
#: ~40% of it and a cold request never queues behind another.
SERVE_RATE = 32.0
SERVE_SLICE_S = 1.5
SETUP_PROBES = 3

#: Which end-to-end metric (on which workload) each per-layer metric
#: should move; printed with the per-layer metrics of a traced run.  The
#: service layers have no end-to-end metric of their own (see README).
LAYER_MAP = {
    "pass_s (cold_compile)": [
        "kernels.build_ms", "ir.verifier.*", "ir.analysis.*", "ir.hashing.*",
        "ir.passes.run_ms", "transforms.*", "ir.ops.*", "fpp.run_ms",
        "fpga.synthesis.synthesise_ms", "core.pipeline.compile_ms",
    ],
    "pass_s, compile_tracer_tail_ms (cold_compile)": ["python.gc_ms", "python.gc_gen2"],
    "pass_s (eval_matrix, cold and warm phases)": [
        "core.compile_cache.*", "ir.core.clone_ms",
    ],
    "pass_s (eval_matrix)": [
        "evaluation.harness.run_case_ms", "evaluation.harness.result_key_ms",
        "baselines.compile_ms", "fpga.dataflow_sim.estimate_ms",
    ],
    "none (shmls-serve, traced run only)": ["service.*", "loadgen.lag_ms"],
    "setup_s (both)": ["startup.import_s"],
    "failed (correctness only)": ["fpga.dataflow_sim.run_ms", "kernels.reference_ms"],
}

CACHE_STAGES = ("middle-end", "pass-prefix", "pass-prefix-hash", "synthesis", "result")


def setup_probe() -> None:
    """One set-up as a user pays it: imports and kernel module builds;
    prints ``ready <import_s>``."""
    began = time.perf_counter()
    import repro.cli  # noqa: F401

    import_s = time.perf_counter() - began
    import sections

    for kernel in sections.KERNELS:
        sections.harness_module.KERNEL_BUILDERS[kernel](
            sections.PW_ADVECTION_SIZES[sections.COMPILE_SIZE].shape
        )
    print(f"ready {import_s:.6f}", flush=True)


def measure_setup() -> tuple[list[float], list[float]]:
    """``SETUP_PROBES`` set-ups, each in a fresh interpreter:
    (seconds until ready, seconds of ``import repro.cli``)."""
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        began = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", "cold_compile", "--seed", "0", "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = probe.stdout.readline()
            setups.append(time.perf_counter() - began)
            probe.wait(timeout=60)
        finally:
            probe.stdout.close()
            if probe.poll() is None:
                probe.kill()
                probe.wait()
        if not line.startswith("ready ") or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
        imports.append(float(line.split()[1]))
    return setups, imports


def drive(loads: dict[str, Any], work: dict[str, float]) -> None:
    """Run ``work`` (compile rounds, matrix passes, serve slices per load)
    interleaved evenly: always step the load that has done the smallest
    share of its steps."""
    targets = {name: max(1, round(work[name])) for name in loads}
    if "matrix" in loads:
        targets["matrix"] *= loads["matrix"].steps_per_pass()
    while True:
        pending = [name for name in loads if loads[name].steps < targets[name]]
        if not pending:
            return
        name = min(pending, key=lambda n: loads[n].steps / targets[n])
        loads[name].step()


class Paired:
    """A load run twice, untraced and traced, its ops alternating between
    the two sides (and swapping which side goes first).

    Both sides then meet the same host drift and the same heap, so their
    summed op times compare.  ``pairs()`` gives the (untraced, traced) op
    pairs of one step; with ``install`` the layer wrappers are installed in
    this process around each traced op only.
    """

    def __init__(
        self, pairs: Callable[[], list[tuple[Callable[[], None], Callable[[], None]]]],
        recorder: Any, install: bool, steps_per_pass: int = 1,
    ) -> None:
        import spans

        self.pairs = pairs
        self.recorder = recorder
        self.install = spans.install_layer_wrappers if install else None
        self._steps_per_pass = steps_per_pass
        self._flip = False
        self.steps = 0

    def steps_per_pass(self) -> int:
        return self._steps_per_pass

    def step(self) -> None:
        for untraced, traced in self.pairs():
            sides = [untraced, self._traced(traced)]
            for side in reversed(sides) if self._flip else sides:
                side()
            self._flip = not self._flip
        self.steps += 1

    def _traced(self, op: Callable[[], None]) -> Callable[[], None]:
        if self.install is None:
            return op

        def run() -> None:
            uninstall = self.install(self.recorder)
            try:
                op()
            finally:
                uninstall()

        return run


def end_to_end(args: argparse.Namespace, tmp: str) -> tuple[dict, dict, Any, list[str]]:
    """Set-up probes, then the workload's passes, then the untimed checks.

    ``pass_s`` is the median pass time, ``peak_rss_mb`` the peak memory of
    the working process and ``design_mpts_geomean`` the geometric mean of
    the modelled MPt/s of the Stencil-HMLS designs made.  The breakdown
    lines (per kernel, or per cache phase) are printed, not reported.
    """
    import sections

    outcome = sections.Outcome()
    setups, _ = measure_setup()
    passes = max(1, round(args.seconds / WORKLOADS[args.workload]["pass_s"]))
    if args.workload == "cold_compile":
        compiler = sections.CompileLoad(random.Random(f"{args.seed}-compile"), outcome)
        for _ in range(passes):
            compiler.step()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        sections.oracle_check(outcome)
        passes_s = [ms / 1e3 for ms in compiler.rounds_ms]
        mpts = compiler.design_mpts_geomean()
        tracer, pw = compiler.times_ms["tracer_advection"], compiler.times_ms["pw_advection"]
        tracer_tail = sections.tail(tracer)
        breakdown = [
            ("compile_tracer_ms", statistics.median(tracer), "ms", f"median of n={len(tracer)}"),
            ("compile_tracer_tail_ms", tracer_tail[0], "ms",
             f"p{tracer_tail[1]:.0f} of n={tracer_tail[2]}"),
            ("compile_pw_ms", statistics.median(pw), "ms", f"median of n={len(pw)}"),
        ]
    else:
        matrix = sections.MatrixLoad(ROOT, True, tmp, outcome)
        try:
            for _ in range(passes * matrix.steps_per_pass()):
                matrix.step()
        finally:
            matrix.close()
        rss_mb = matrix.peak_rss_mb
        passes_s = matrix.passes_s
        mpts = sections.geomean(matrix.design_mpts)
        breakdown = [
            (f"matrix_{phase}_s", statistics.median(times), "s", f"median of n={len(times)}")
            for phase, times in matrix.times.items()
        ]
    if not passes_s:
        raise RuntimeError("no pass of the workload completed")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(passes_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "design_mpts_geomean": (mpts, "MPt/s"),
    }
    notes = {
        "setup_s": f"n={len(setups)}",
        "pass_s": f"n={len(passes_s)}",
    }
    lines = ["breakdown (printed, not reported):"] + [
        f"  {name:<44} {value:14.4f} {unit}  ({note})" for name, value, unit, note in breakdown
    ]
    return metrics, notes, outcome, lines


def traced(args: argparse.Namespace, tmp: str) -> tuple[dict, dict, Any, list[str]]:
    import sections
    import spans

    config = WORKLOADS[args.workload]
    trace = config["trace"]
    outcome = sections.Outcome()
    _, imports = measure_setup()

    # One untimed round pays the first-use costs (registries, interning,
    # lazy imports); the matrix workers are fresh processes on both sides.
    sections.CompileLoad(random.Random(f"{args.seed}-warm-up"), outcome).step()
    recorder = spans.Recorder()
    compilers = [sections.CompileLoad(random.Random(f"{args.seed}-compile"), outcome)
                 for _ in range(2)]
    matrices: list[Any] = []
    try:
        for traced_side in (False, True):
            matrices.append(
                sections.MatrixLoad(ROOT, config["full"], tmp, outcome, trace=traced_side))
        untraced_compiler, compiler = compilers
        untraced_matrix, matrix = matrices
        drive(
            {
                "compile": Paired(
                    lambda: [
                        (functools.partial(untraced_compiler.op, kernel, variant),
                         functools.partial(compiler.op, kernel, variant, recorder))
                        for kernel, variant in compiler.round_order()
                    ],
                    recorder, install=True,
                ),
                "matrix": Paired(
                    lambda: [(untraced_matrix.step, matrix.step)], recorder, install=False,
                    steps_per_pass=matrix.steps_per_pass(),
                ),
            },
            {"compile": trace["compile"], "matrix": trace["matrix"]},
        )
    finally:
        for load in matrices:
            load.close()
    worker_traces = matrix.traces
    untraced_s, traced_s = (
        sum(map(sum, c.times_ms.values())) / 1e3 + sum(map(sum, m.times.values()))
        for c, m in ((untraced_compiler, untraced_matrix), (compiler, matrix))
    )

    server_trace = str(Path(tmp) / "server-trace.json")
    server = sections.Server(ROOT, tmp, trace_out=server_trace)
    serve = None
    try:
        serve = sections.ServeLoad(
            ROOT, server, f"{args.seed}-serve", outcome, rate=SERVE_RATE,
            slice_s=SERVE_SLICE_S,
        )
        serve.warm_up()
        for _ in range(trace["serve"]):
            serve.step()
        served = serve.finish()
        server_rss = server.peak_rss_mb()
    finally:
        if serve is not None:
            serve.close()
        server.stop()
    if args.workload == "cold_compile":
        uninstall = spans.install_layer_wrappers(recorder)
        try:
            sections.oracle_check(outcome, recorder)
        finally:
            uninstall()
    # Span ids are per process, so every process's spans stay apart.
    summaries = [("shmls-serve", json.loads(Path(server_trace).read_text()))]
    summaries += [(f"matrix {phase} #{i}", summary)
                  for i, (phase, summary) in enumerate(worker_traces)]
    processes = [("perfbench", recorder.spans)] + [
        (label, spans.spans_from_records(summary["records"])) for label, summary in summaries
    ]
    gc_ns = recorder.gc_ns + sum(summary["gc_ns"] for _, summary in summaries)
    gc_gen2 = recorder.gc_gen2 + sum(summary["gc_gen2"] for _, summary in summaries)

    WORK_DIR.mkdir(exist_ok=True)
    trace_path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    spans.write_chrome_trace(
        str(trace_path),
        [(pid, label, recorded) for pid, (label, recorded) in enumerate(processes, 1)],
    )
    print(f"chrome trace: {trace_path}", file=sys.stderr)

    everything = [span for _, recorded in processes for span in recorded]
    totals = spans.layer_totals(everything)

    def ms(name: str) -> float:
        return totals.get(name, {}).get("self_ms", 0.0)

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    def unattributed_pct(select: Any) -> float:
        """Self time of the selected root ops and of the glue spans inside
        them, as a share of the ops' wall time."""
        total = unattributed = 0
        for _, recorded in processes:
            roots = {s.id: s for s in recorded if s.parent is None and select(s)}
            total += sum(s.end - s.start for s in roots.values())
            unattributed += sum(s.self_ns for s in roots.values())
            unattributed += sum(s.self_ns for s in recorded
                                if s.op in roots and s.name in spans.GLUE_SPANS)
        return 100.0 * unattributed / total if total else 0.0

    layer = compiler.layer
    metrics: dict[str, tuple[float, str]] = {
        "kernels.build_ms": (ms("kernels.build"), "ms"),
        "ir.verifier.verify_ms": (ms("ir.verifier.verify"), "ms"),
        "ir.verifier.calls": (calls("ir.verifier.verify"), "count"),
        "ir.analysis.get_ms": (ms("ir.analysis.get"), "ms"),
        "ir.analysis.verify_hits": (layer["verify_hits"], "count"),
        "ir.analysis.verify_misses": (layer["verify_misses"], "count"),
        "ir.hashing.module_hash_ms": (ms("ir.hashing.module_hash"), "ms"),
        "ir.hashing.calls": (calls("ir.hashing.module_hash"), "count"),
        "ir.passes.run_ms": (ms("ir.passes.run"), "ms"),
        "transforms.canonicalize_ms": (ms("transforms.canonicalize"), "ms"),
        "transforms.stencil_hls_ms": (ms("transforms.stencil_hls"), "ms"),
        "transforms.hls_to_llvm_ms": (ms("transforms.hls_to_llvm"), "ms"),
        "transforms.other_ms": (ms("transforms.other"), "ms"),
        "ir.ops.hls": (layer.get("ops_hls", 0), "count"),
        "ir.ops.llvm": (layer.get("ops_llvm", 0), "count"),
        "fpp.run_ms": (ms("fpp.run"), "ms"),
        "fpga.synthesis.synthesise_ms": (ms("fpga.synthesis.synthesise"), "ms"),
        "core.pipeline.compile_ms": (ms("core.pipeline.compile"), "ms"),
        "python.gc_ms": (gc_ns / 1e6, "ms"),
        "python.gc_gen2": (gc_gen2, "count"),
        "ir.core.clone_ms": (ms("ir.core.clone"), "ms"),
        "core.compile_cache.bytes_on_disk": (
            matrix.bytes_on_disk + served["cache_disk_bytes"], "bytes"),
        "evaluation.harness.run_case_ms": (ms("evaluation.harness.run_case"), "ms"),
        "evaluation.harness.result_key_ms": (ms("evaluation.harness.result_key"), "ms"),
        "baselines.compile_ms": (ms("baselines.compile"), "ms"),
        "service.handle_request_ms": (ms("service.handle_request"), "ms"),
        "service.compile_flight_ms": (ms("service.compile_flight"), "ms"),
        "service.peak_rss_mb": (server_rss, "MB"),
        "service.warm_hits": (served["warm_hits"], "count"),
        "service.coalesced": (served["coalesced"], "count"),
        "service.shed": (served["shed"], "count"),
        "service.cold_dispatches": (served["cold_dispatches"], "count"),
        "loadgen.lag_ms": (statistics.median(serve.lag_ms), "ms"),
        "startup.import_s": (statistics.median(imports), "s"),
        "fpga.dataflow_sim.run_ms": (ms("fpga.dataflow_sim.run"), "ms"),
        "fpga.dataflow_sim.estimate_ms": (ms("fpga.dataflow_sim.estimate"), "ms"),
        "kernels.reference_ms": (ms("kernels.reference"), "ms"),
        "trace.unattributed_pct": (
            unattributed_pct(lambda s: s.name.startswith(("op.compile", "op.matrix"))), "%"),
        "trace.tracer_op_unattributed_pct": (
            unattributed_pct(
                lambda s: s.name == "op.compile" and s.args.get("kernel") == "tracer_advection"
            ), "%"),
        "trace.overhead_pct": (100.0 * (traced_s / untraced_s - 1.0), "%"),
    }
    for stage in CACHE_STAGES:
        gets = [s for s in everything
                if s.name == "core.compile_cache.get" and s.args.get("stage") == stage]
        puts = [s for s in everything
                if s.name == "core.compile_cache.put" and s.args.get("stage") == stage]
        prefix = f"core.compile_cache.{stage}"
        metrics[f"{prefix}.get_ms"] = (sum(s.self_ns for s in gets) / 1e6, "ms")
        metrics[f"{prefix}.put_ms"] = (sum(s.self_ns for s in puts) / 1e6, "ms")
        metrics[f"{prefix}.hits"] = (sum(1 for s in gets if s.args.get("hit")), "count")
        metrics[f"{prefix}.misses"] = (sum(1 for s in gets if not s.args.get("hit")), "count")
    metrics["failed_ratio"] = (outcome.failed / max(outcome.attempted, 1), "ratio")
    notes = {"trace.overhead_pct": f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s"}
    lines = [f"  moves {target}: {', '.join(layers)}" for target, layers in LAYER_MAP.items()]
    return metrics, notes, outcome, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Exit through ``finally`` on SIGTERM so the server and the load
    # generator are stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup_probe()
        return 0

    WORK_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        metrics, notes, outcome, lines = (traced if args.trace else end_to_end)(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={outcome.attempted} failed={outcome.failed} "
          f"failed_ratio={outcome.failed / max(outcome.attempted, 1):.4f}")
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {value:14.4f} {unit}{note}")
    for line in lines:
        print(line)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
