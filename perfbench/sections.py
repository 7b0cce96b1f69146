"""The three user-facing costs the benchmark measures, one load each.

* :class:`CompileLoad` — cold single-kernel compiles, a closed loop with
  one caller and no cache (``shmls-compile``).
* :class:`MatrixLoad` — the evaluation matrix with ``jobs=1``, with no
  cache, a cold cache and a warm cache (``shmls-bench``), each phase in a
  :mod:`matrix_worker` process.
* :class:`ServeLoad` — an open loop of requests from a :mod:`loadgen`
  process against a ``shmls-serve`` subprocess (traced runs only).

A load advances in short steps (``step()``, counted in ``steps``): a
compile round, one matrix case through every phase, or a serve slice.  A
timed run steps one load through a fixed number of passes; the traced
run interleaves all three.
Every load checks its outputs and counts each failed op in an
:class:`Outcome`.  With a :class:`~spans.Recorder` each op is a root span,
so the traced run attributes its time to the layers below it.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.pipeline import StencilHMLSCompiler
from repro.evaluation import harness as harness_module
from repro.evaluation.harness import (
    ABLATION_VARIANTS,
    DEFAULT_CASES,
    PIPELINE_VARIANTS,
    EvaluationHarness,
)
from repro.evaluation.report import _deterministic_entry, merge_results
from repro.fpga.dataflow_sim import FunctionalDataflowSimulator, TimingModel
from repro.kernels import reference
from repro.kernels.grids import (
    PW_ADVECTION_SIZES,
    TEST_SIZE,
    TRACER_ADVECTION_SIZES,
    initial_fields,
)
from repro.kernels.pw_advection import (
    PW_INPUT_FIELDS,
    PW_OUTPUT_FIELDS,
    PW_SCALARS,
    pw_advection_small_data,
)
from repro.kernels.tracer_advection import (
    TRACER_INPUT_FIELDS,
    TRACER_SCALARS,
    TRACER_WORKSPACE_FIELDS,
)
from loadgen import WARM_SPECS, results_text
from repro.service.client import ServiceClient, ServiceError
from repro.service.spec import parse_request

KERNELS = ("pw_advection", "tracer_advection")
COMPILE_VARIANTS = ("default", "no-pack", "no-split", "single-bundle", "staged")
COMPILE_SIZE = "8M"
#: ``shmls-bench``'s default: the paper averages every measurement over 10 runs.
MATRIX_REPEATS = 10
#: The cache phases of a matrix pass; ``warm`` opens a new CompileCache on
#: the directory the ``cold`` phase filled.
MATRIX_PHASES = ("nocache", "cold", "warm")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def span(recorder: Any, name: str, **args: Any) -> Any:
    return recorder.span(name, **args) if recorder is not None else nullcontext()


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, n)``; the maximum when there are fewer than 11."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, n


# -- cold compile -------------------------------------------------------------------


class CompileLoad:
    """Cold compiles; each :meth:`step` is one round over every
    (kernel, variant) pair in seeded order.

    Whole rounds keep the kernel/variant mix identical for every seed, so
    the per-kernel medians compare across seeds.
    """

    def __init__(self, rng: random.Random, outcome: Outcome) -> None:
        self.rng = rng
        self.outcome = outcome
        self.pairs = [(k, v) for k in KERNELS for v in COMPILE_VARIANTS]
        self.times_ms: dict[str, list[float]] = {kernel: [] for kernel in KERNELS}
        #: The summed op time of each whole round.
        self.rounds_ms: list[float] = []
        self.designs: dict[tuple[str, str], tuple[str, float]] = {}
        self.layer: dict[str, float] = {"verify_hits": 0, "verify_misses": 0}
        self.steps = 0

    def round_order(self) -> list[tuple[str, str]]:
        order = list(self.pairs)
        self.rng.shuffle(order)
        return order

    def step(self) -> None:
        round_ms = [self.op(kernel, variant) for kernel, variant in self.round_order()]
        if None not in round_ms:
            self.rounds_ms.append(sum(round_ms))
        self.steps += 1

    def op(self, kernel: str, variant: str, recorder: Any = None) -> float | None:
        """One cold compile; returns its time in ms (None when it failed)."""
        size = PW_ADVECTION_SIZES[COMPILE_SIZE]
        self.outcome.attempted += 1
        began = time.perf_counter()
        try:
            with span(recorder, "op.compile", kernel=kernel, variant=variant):
                module = harness_module.KERNEL_BUILDERS[kernel](size.shape)
                compiler = StencilHMLSCompiler(pass_pipeline=PIPELINE_VARIANTS[variant])
                xclbin = compiler.compile(module)
            elapsed_ms = (time.perf_counter() - began) * 1e3
            summary = json.dumps(xclbin.summary(), sort_keys=True)
            mpts = TimingModel().estimate(xclbin.design, size.points).mpts
        except Exception as err:  # noqa: BLE001 - every op failure is counted
            self.outcome.fail(f"compile {kernel}@{variant}: {type(err).__name__}: {err}")
            return None
        seen = self.designs.setdefault((kernel, variant), (summary, mpts))
        if seen != (summary, mpts) or not mpts > 0:
            self.outcome.fail(f"compile {kernel}@{variant}: design differs between ops")
            return None
        self.times_ms[kernel].append(elapsed_ms)
        stats = compiler.analysis_statistics
        if stats is not None:
            self.layer["verify_hits"] += stats.hits.get("verify", 0)
            self.layer["verify_misses"] += stats.misses.get("verify", 0)
        if kernel == "tracer_advection" and variant == "default":
            self.layer["ops_hls"] = sum(1 for _ in xclbin.hls_module.walk())
            self.layer["ops_llvm"] = sum(1 for _ in xclbin.llvm_module.walk())
        return elapsed_ms

    def design_mpts_geomean(self) -> float:
        return geomean(mpts for _, mpts in self.designs.values())


def geomean(values: Any) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def oracle_check(outcome: Outcome, recorder: Any = None) -> None:
    """Simulate every cold-compile (kernel, variant) design at ``TEST_SIZE``
    and compare it with the numpy reference kernels."""
    shape = TEST_SIZE.shape
    for kernel in KERNELS:
        for variant in COMPILE_VARIANTS:
            outcome.attempted += 1
            try:
                with span(recorder, "op.oracle", kernel=kernel, variant=variant):
                    module = harness_module.KERNEL_BUILDERS[kernel](shape)
                    xclbin = StencilHMLSCompiler(
                        pass_pipeline=PIPELINE_VARIANTS[variant]
                    ).compile(module)
                    ok = _simulate_matches(kernel, xclbin, shape)
            except Exception as err:  # noqa: BLE001
                outcome.fail(f"oracle {kernel}@{variant}: {type(err).__name__}: {err}")
                continue
            if not ok:
                outcome.fail(f"oracle {kernel}@{variant}: simulation differs from numpy")


def _simulate_matches(kernel: str, xclbin: Any, shape: tuple[int, int, int]) -> bool:
    import numpy as np

    if kernel == "pw_advection":
        arrays = initial_fields(shape, PW_INPUT_FIELDS + PW_OUTPUT_FIELDS)
        small = pw_advection_small_data(shape)
        checked = PW_OUTPUT_FIELDS
        run_reference = reference.pw_advection_reference
        scalars = dict(PW_SCALARS)
    else:
        arrays = initial_fields(shape, TRACER_INPUT_FIELDS + TRACER_WORKSPACE_FIELDS)
        small = {}
        checked = TRACER_WORKSPACE_FIELDS
        run_reference = reference.tracer_advection_reference
        scalars = dict(TRACER_SCALARS)
    expected = {name: array.copy() for name, array in arrays.items()}
    run_reference(expected, small, scalars, shape)
    simulated = {name: array.copy() for name, array in arrays.items()}
    simulated.update({name: array.copy() for name, array in small.items()})
    FunctionalDataflowSimulator(xclbin.hls_module, xclbin.plan).run(simulated, scalars)
    return all(np.allclose(simulated[name], expected[name]) for name in checked)


# -- evaluation matrix ----------------------------------------------------------------


def matrix_cases(full: bool) -> list[Any]:
    """The paper's cases (× five frameworks), plus with ``full`` the
    ablation variants × both kernels at 8M on Stencil-HMLS."""
    cases = list(DEFAULT_CASES)
    if full:
        cases += EvaluationHarness(repeats=MATRIX_REPEATS).cases_for(
            list(KERNELS), [COMPILE_SIZE], frameworks=["Stencil-HMLS"],
            variants=list(ABLATION_VARIANTS),
        )
    return cases


class MatrixWorker:
    """A :mod:`matrix_worker` process that runs one phase of one pass."""

    def __init__(self, root: Path, phase: str, full: bool, cache_dir: str, trace: bool) -> None:
        self.phase = phase
        command = [sys.executable, str(root / "perfbench" / "matrix_worker.py"),
                   "--phase", phase, "--full", str(int(full)), "--cache-dir", cache_dir]
        self.process = subprocess.Popen(
            command + (["--trace"] if trace else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def read(self) -> dict[str, Any]:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"the {self.phase} matrix worker exited")
        return json.loads(line)

    def ask(self, command: dict[str, Any]) -> dict[str, Any]:
        assert self.process.stdin is not None
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        return self.read()

    def close(self) -> None:
        """Close its stdin, which ends the worker, and wait for it (kill it
        if it does not exit)."""
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


class MatrixLoad:
    """Passes of the matrix with no cache, a cold cache and a warm cache;
    each :meth:`step` runs one case through every phase, in that order, so
    the warm phase reads what the cold phase just wrote.

    Each phase of each pass runs in a new :mod:`matrix_worker` process that
    holds one harness (and cache), as a ``shmls-bench`` run does: its
    first-use costs, its heap and its peak memory are those of one real
    matrix run, and every pass pays the same.  Each worker times its own
    cases; a phase's time is their sum.  Every phase's deterministic report
    must be byte-identical to the no-cache report.
    """

    def __init__(
        self, root: Path, full: bool, tmp: str, outcome: Outcome, trace: bool = False
    ) -> None:
        self.root = root
        self.full = full
        self.trace = trace
        self.cases = matrix_cases(full)
        self.tmp = tmp
        self.outcome = outcome
        #: Per phase, the seconds of each whole pass.
        self.times: dict[str, list[float]] = {phase: [] for phase in MATRIX_PHASES}
        #: The seconds of each whole pass (all phases).
        self.passes_s: list[float] = []
        #: Modelled MPt/s of the Stencil-HMLS designs in the last report.
        self.design_mpts: list[float] = []
        self.bytes_on_disk = 0
        #: Peak RSS of the no-cache and cold-cache worker processes.
        self.peak_rss_mb = 0.0
        self.steps = 0
        #: (phase, recorded spans) of each worker that traced.
        self.traces: list[tuple[str, dict[str, Any]]] = []
        self._next = 0
        self._cache_dir = ""
        self._elapsed: dict[str, float] = {}
        self.workers: list[MatrixWorker] = []

    def steps_per_pass(self) -> int:
        return len(self.cases)

    def step(self) -> None:
        if self._next == 0:
            self._start_pass()
        for worker in self.workers:
            reply = worker.ask({"cmd": "case", "index": self._next})
            self.outcome.attempted += 1
            for error in reply["errors"]:
                self.outcome.fail(error)
            self._elapsed[worker.phase] += reply["elapsed"]
        self._next += 1
        self.steps += 1
        if self._next == len(self.cases):
            self._next = 0
            self._end_pass()

    def _start_pass(self) -> None:
        self._cache_dir = tempfile.mkdtemp(prefix="matrix-cache-", dir=self.tmp)
        self._elapsed = dict.fromkeys(MATRIX_PHASES, 0.0)
        for phase in MATRIX_PHASES:
            self.workers.append(
                MatrixWorker(self.root, phase, self.full, self._cache_dir, self.trace))
        for worker in self.workers:
            if worker.read().get("ready") != len(self.cases):
                raise RuntimeError(f"the {worker.phase} matrix worker has other cases")

    def _end_pass(self) -> None:
        reference_report = None
        for worker in self.workers:
            reply = worker.ask({"cmd": "end"})
            if reply["trace"] is not None:
                self.traces.append((worker.phase, reply["trace"]))
            if worker.phase != "warm":
                self.peak_rss_mb = max(self.peak_rss_mb, reply["rss_mb"])
            self.outcome.attempted += 1
            if reference_report is None:
                reference_report = reply["report"]
            elif reply["report"] != reference_report:
                self.outcome.fail(
                    f"matrix {worker.phase}: report differs from the no-cache report")
            self.times[worker.phase].append(self._elapsed[worker.phase])
        self.close()
        self.passes_s.append(sum(self._elapsed.values()))
        self.design_mpts = [
            entry["mpts"] for entry in json.loads(reference_report or "[]")
            if entry["framework"] == "Stencil-HMLS"
        ]
        self.bytes_on_disk = sum(
            p.stat().st_size for p in Path(self._cache_dir).rglob("*") if p.is_file()
        )
        shutil.rmtree(self._cache_dir, ignore_errors=True)

    def close(self) -> None:
        """Stop the workers of the pass in flight, if any."""
        for worker in self.workers:
            worker.close()
        self.workers = []


# -- shmls-serve ------------------------------------------------------------------------

def cold_specs() -> list[dict[str, Any]]:
    """Distinct single-case Stencil-HMLS tracer specs that no warm spec
    covers, in a fixed order: the non-staged pipeline variants first, the
    two sizes alternating.

    Only tracer compiles are long enough to stall the server's event loop
    (a pw compile takes ~50 ms), so each cold request is one such stall.
    The order is not seeded: staged and ablation variants share cached
    pipeline prefixes, so a cold request's cost depends on which specs came
    before it.  A fixed order keeps that cost the same for every seed; the
    seed decides when in its slice each cold request is sent.
    """
    warm = {
        (case.kernel, case.size.label, case.variant)
        for spec in WARM_SPECS
        for case in parse_request(spec).cases()
        if case.framework == "Stencil-HMLS"
    }
    return [
        {"kernel": "tracer_advection", "size": size, "framework": "Stencil-HMLS",
         "variant": variant}
        for variant in PIPELINE_VARIANTS
        for size in reversed(TRACER_ADVECTION_SIZES)
        if ("tracer_advection", size, variant) not in warm
    ]


class Server:
    """A ``shmls-serve`` subprocess with fresh cache and state directories."""

    def __init__(self, root: Path, tmp: str, trace_out: str | None = None) -> None:
        self.dir = Path(tempfile.mkdtemp(prefix="serve-", dir=tmp))
        port_file = self.dir / "port"
        command = [
            sys.executable, str(root / "perfbench" / "serve_main.py"),
            "--trace-out", trace_out or "", "--",
            "--port", "0", "--port-file", str(port_file),
            "--state-dir", str(self.dir / "state"), "--cache-dir", str(self.dir / "cache"),
        ]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.process = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + 60
        while not port_file.exists() or not port_file.read_text().strip():
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("shmls-serve did not start")
            time.sleep(0.005)
        self.port = int(port_file.read_text())
        self.client = ServiceClient("127.0.0.1", self.port, timeout=30.0)
        while True:
            try:
                if self.client.healthz():
                    break
            except (OSError, ServiceError):
                pass
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("shmls-serve did not answer /healthz")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM not available")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class ServeLoad:
    """The open loop against ``server``, sent by a :mod:`loadgen` process;
    each :meth:`step` is one slice of ``slice_s`` seconds with one cold
    request, the next of :func:`cold_specs`."""

    def __init__(
        self, root: Path, server: Server, seed: str, outcome: Outcome, *,
        rate: float, slice_s: float,
    ) -> None:
        self.server = server
        self.outcome = outcome
        self.rng = random.Random(seed)
        #: ``warm_idle``: the warm requests that did not overlap the
        #: slice's cold request.
        self.latency_ms: dict[str, list[float]] = {"warm": [], "warm_idle": [], "cold": []}
        self.lag_ms: list[float] = []
        self.cold_results: list[tuple[dict[str, Any], str]] = []
        self.steps = 0
        self.cold_pool = cold_specs()
        self.process = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "loadgen.py"), "--port", str(server.port),
             "--seed", seed, "--rate", str(rate), "--slice-s", str(slice_s)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._before: dict[str, Any] = {}

    def _ask(self, command: dict[str, Any]) -> dict[str, Any]:
        assert self.process.stdin is not None and self.process.stdout is not None
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("the load generator exited")
        reply = json.loads(line)
        self.outcome.attempted += reply["attempted"]
        for failure in reply["failures"]:
            self.outcome.fail(f"serve {failure}")
        return reply

    def warm_up(self) -> None:
        """Serve every warm spec once (untimed); later answers must match."""
        self._ask({"cmd": "warm_up"})
        self._before = self.server.client.stats()

    def step(self) -> None:
        cold = self.cold_pool.pop(0) if self.cold_pool else None
        reply = self._ask({"cmd": "slice", "cold": cold})
        self.latency_ms["warm"] += reply["warm_ms"]
        self.latency_ms["warm_idle"] += reply["warm_idle_ms"]
        self.latency_ms["cold"] += reply["cold_ms"]
        self.lag_ms += reply["lag_ms"]
        self.cold_results += [(spec, text) for spec, text in reply["cold_results"]]
        self.steps += 1

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self._ask({"cmd": "stop"})
            except (OSError, RuntimeError, ValueError):
                pass
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None:
                stream.close()

    def finish(self) -> dict[str, Any]:
        """Untimed checks and the server's counters over the timed slices.

        Every cold spec is requested again and must be served identically,
        and one seeded pick must match an in-process evaluation.
        """
        self.close()
        client = self.server.client
        after = client.stats()
        for spec, text in self.cold_results:
            self.outcome.attempted += 1
            try:
                if results_text(client.compile(spec)) != text:
                    self.outcome.fail(f"serve repeat {spec}: results differ")
            except Exception as err:  # noqa: BLE001
                self.outcome.fail(f"serve repeat {spec}: {type(err).__name__}: {err}")
        for spec, text in self.rng.sample(self.cold_results, min(1, len(self.cold_results))):
            self.outcome.attempted += 1
            harness = EvaluationHarness(repeats=1)
            cases = harness.cases_for(
                spec["kernel"], [spec["size"]], frameworks=[spec["framework"]],
                variants=[spec["variant"]],
            )
            local = merge_results(
                [_deterministic_entry(r.as_dict()) for r in harness.run_matrix(cases, jobs=1)]
            )
            if json.dumps(local, sort_keys=True) != text:
                self.outcome.fail(f"serve {spec}: results differ from an in-process evaluation")
        before, now = self._before["service"], after["service"]
        return {
            "warm_hits": now["warm_requests"] - before["warm_requests"],
            "cold_dispatches": now["dispatched"] - before["dispatched"],
            "shed": now["shed"] - before["shed"],
            "coalesced": after["singleflight"]["coalesced"]
            - self._before["singleflight"]["coalesced"],
            "cache_disk_bytes": (after.get("cache") or {}).get("disk_bytes", 0),
        }
