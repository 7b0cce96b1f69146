"""The end-to-end Stencil-HMLS compilation pipeline (Figure 1 of the paper).

Source code is turned into stencil-dialect IR by a frontend
(:mod:`repro.frontends`); this module drives everything below that level:

    stencil dialect
      │   staged stencil→HLS lowering (the nine steps of §3.3, see
      │   repro.transforms.stencil_hls; scheduled via the pass registry)
      ▼
    HLS dialect                      ──► kept for functional simulation
      │   HLSToLLVMPass (§3.2)
      ▼
    annotated LLVM dialect
      │   f++ preprocessing + runtime linking
      ▼
    Vitis-HLS-like synthesis model   ──► KernelDesign
      ▼
    Xclbin (design + plan + IR + reports)

The middle-end is driven by an MLIR-style textual pipeline spec (default
``canonicalize,convert-stencil-to-hls,convert-hls-to-llvm``); pass
``pass_pipeline=...`` (or ``--pass-pipeline`` on the CLI) to customise it,
e.g. to ablate individual lowering stages.  Per-pass timing/change
statistics of the last compilation are kept on ``compiler.pass_statistics``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from repro.core.compile_cache import CacheKey, CompileCache
from repro.core.config import CompilerOptions
from repro.core.plan import DataflowPlan
from repro.dialects import hls, stencil
from repro.dialects.builtin import ModuleOp
from repro.fpga.device import ALVEO_U280, FPGADevice
from repro.fpga.synthesis import KernelDesign, VitisHLSBackend
from repro.fpga.xclbin import Xclbin
from repro.fpp.preprocessor import FPPReport, run_fpp
from repro.ir.analysis import AnalysisManager, AnalysisStats
from repro.ir.hashing import fingerprint_mapping, module_hash
from repro.ir.pass_registry import PassRegistry, canonical_pipeline_spec
from repro.ir.passes import PassContext, PassManager, PassStatistics
from repro.ir.verifier import verify_module
from repro.transforms.hls_to_llvm import HLSToLLVMPass
from repro.transforms.stencil_hls import HLSBundleAssignmentPass, LoweringContext


def select_plan(plans: dict[str, DataflowPlan], kernel_name: str | None = None) -> DataflowPlan:
    """Look up one kernel's plan, accepting base or ``<name>_hls`` spellings.

    Raises a :class:`KeyError` listing the available kernel names when the
    lookup fails, and a :class:`ValueError` when ``kernel_name`` is needed
    but missing.
    """
    if kernel_name is None:
        if len(plans) != 1:
            raise ValueError(
                "module contains several kernels; pass kernel_name explicitly "
                f"(available: {', '.join(sorted(plans))})"
            )
        return next(iter(plans.values()))
    for candidate in (kernel_name, f"{kernel_name}_hls"):
        if candidate in plans:
            return plans[candidate]
    raise KeyError(
        f"no kernel named '{kernel_name}' was lowered "
        f"(available: {', '.join(sorted(plans))})"
    )


@dataclass
class CompilationArtifacts:
    """All intermediate artefacts of one compilation, for inspection/tests."""

    stencil_module: ModuleOp
    hls_module: ModuleOp
    llvm_module: ModuleOp
    plan: DataflowPlan
    fpp_report: FPPReport
    design: KernelDesign
    pass_statistics: list[PassStatistics] = field(default_factory=list)


@dataclass
class MiddleEndResult:
    """Device-independent output of the pass pipeline — the unit the
    compile cache stores under the ``middle-end`` stage."""

    hls_module: ModuleOp
    llvm_module: ModuleOp
    plans: dict[str, DataflowPlan]
    fpp_report: FPPReport
    pass_statistics: list[PassStatistics]

    def clone(self, *, note: str = "") -> "MiddleEndResult":
        """A copy whose IR modules the caller may freely mutate.

        Plans/reports are treated as immutable and shared; statistics are
        copied so a ``note`` (e.g. ``cached``) can be stamped per retrieval.
        """
        return MiddleEndResult(
            hls_module=self.hls_module.clone(),
            llvm_module=self.llvm_module.clone(),
            plans=dict(self.plans),
            fpp_report=self.fpp_report,
            pass_statistics=[
                dataclasses.replace(stat, note=note or stat.note)
                for stat in self.pass_statistics
            ],
        )

    def with_note(self, note: str = "") -> "MiddleEndResult":
        """Restamp statistics *without* cloning the IR.

        Valid only when the modules are already private to the caller —
        which is exactly what a mapped-cache hit hands back (every decode
        builds fresh objects), so mapped restores skip the pickle
        round-trip :meth:`clone` pays.
        """
        return MiddleEndResult(
            hls_module=self.hls_module,
            llvm_module=self.llvm_module,
            plans=dict(self.plans),
            fpp_report=self.fpp_report,
            pass_statistics=[
                dataclasses.replace(stat, note=note or stat.note)
                for stat in self.pass_statistics
            ],
        )

    # -- mapped-cache codec (see repro.core.compile_cache) --------------------

    def __mapped_sections__(self) -> tuple[dict, dict]:
        # llvm_module and the plans reference shared IR objects (plan
        # analyses point into the module), so they serialise together;
        # the HLS snapshot is an independent clone and gets its own
        # lazily-decoded section.
        return {}, {
            "hls": self.hls_module,
            "payload": (self.llvm_module, self.plans, self.fpp_report),
            "statistics": self.pass_statistics,
        }

    @classmethod
    def __from_mapped__(cls, meta: dict, section, has) -> "MiddleEndResult":
        llvm_module, plans, fpp_report = section("payload")
        return cls(
            hls_module=section("hls"),
            llvm_module=llvm_module,
            plans=plans,
            fpp_report=fpp_report,
            pass_statistics=section("statistics"),
        )


@dataclass
class PassPrefixArtifact:
    """Middle-end snapshot after one pipeline *prefix* — the unit of the
    per-pass artefact cache (stage ``pass-prefix``).

    Stored under ``(incoming module fingerprint, canonical spec prefix,
    options fingerprint)``, so an ablation sweep that only toggles a late
    sub-pass resumes from the longest shared prefix instead of re-running
    every upstream pass.  The module, the :class:`LoweringContext` and the
    HLS snapshot reference each other's IR objects, so they are cloned
    *together* (one pickle round-trip) to stay consistent.
    """

    module: ModuleOp
    lowering: "LoweringContext | None"
    hls_module: ModuleOp | None
    statistics: list[PassStatistics]
    #: Fingerprint of ``module`` — the next stage's chain key, precomputed
    #: so warm lookups never have to re-hash restored snapshots.
    out_hash: str

    def clone(self, *, note: str = "") -> "PassPrefixArtifact":
        module, lowering, hls_module = CompileCache._loads(
            CompileCache._dumps((self.module, self.lowering, self.hls_module))
        )
        return PassPrefixArtifact(
            module=module,
            lowering=lowering,
            hls_module=hls_module,
            statistics=[
                dataclasses.replace(stat, note=note or stat.note)
                for stat in self.statistics
            ],
            out_hash=self.out_hash,
        )

    def with_note(self, note: str = "") -> "PassPrefixArtifact":
        """Restamp statistics without re-serialising the snapshot — the
        mapped-cache counterpart of :meth:`clone` (decoded sections are
        already private objects)."""
        return PassPrefixArtifact(
            module=self.module,
            lowering=self.lowering,
            hls_module=self.hls_module,
            statistics=[
                dataclasses.replace(stat, note=note or stat.note)
                for stat in self.statistics
            ],
            out_hash=self.out_hash,
        )

    # -- mapped-cache codec (see repro.core.compile_cache) --------------------

    def __mapped_sections__(self) -> tuple[dict, dict]:
        # The module and the LoweringContext reference each other's IR
        # objects, so they share one section; the HLS snapshot (when
        # present) is independent and decodes lazily — a chain walk that
        # never simulates the kernel never touches it.
        meta = {"out_hash": self.out_hash}
        parts: dict[str, Any] = {
            "payload": (self.module, self.lowering),
            "statistics": self.statistics,
        }
        if self.hls_module is not None:
            parts["hls"] = self.hls_module
        return meta, parts

    @classmethod
    def __from_mapped__(cls, meta: dict, section, has) -> "PassPrefixArtifact":
        module, lowering = section("payload")
        return cls(
            module=module,
            lowering=lowering,
            hls_module=section("hls") if has("hls") else None,
            statistics=section("statistics"),
            out_hash=meta["out_hash"],
        )


class StencilHMLSCompiler:
    """Compile stencil-dialect modules into simulated FPGA bitstreams."""

    def __init__(
        self,
        options: CompilerOptions | None = None,
        device: FPGADevice = ALVEO_U280,
        clock_mhz: float | None = None,
        canonicalize: bool = True,
        pass_pipeline: str | None = None,
        cache: CompileCache | None = None,
    ) -> None:
        self.options = options or CompilerOptions()
        self.options.validate()
        self.device = device
        self.backend = VitisHLSBackend(device, clock_mhz)
        self.canonicalize = canonicalize
        self.pass_pipeline = pass_pipeline
        #: Optional content-addressed artefact cache shared across sessions.
        self.cache = cache
        #: Per-pass statistics of the most recent compilation.
        self.pass_statistics: list[PassStatistics] = []
        #: Analysis-cache hit/miss counters of the most recent middle-end
        #: run: None unless one of its passes used the pass context's
        #: AnalysisManager (the pass manager verifies without it).
        self.analysis_statistics: AnalysisStats | None = None

    def default_pipeline(self) -> str:
        prefix = "canonicalize," if self.canonicalize else ""
        return f"{prefix}convert-stencil-to-hls,convert-hls-to-llvm"

    def cache_key(self, stencil_module: ModuleOp, spec: str | None = None) -> CacheKey:
        """Content address of compiling ``stencil_module`` with this compiler.

        Device-independent: the ``middle-end`` stage uses it as-is, the
        ``synthesis`` stage appends device/clock/kernel to ``extra``.  The
        pipeline component is the *canonicalised* spec, so the full pass
        list and every pass option participate in the key.
        """
        spec = spec or self.pass_pipeline or self.default_pipeline()
        return CacheKey(
            module_hash=module_hash(stencil_module),
            pipeline=canonical_pipeline_spec(spec),
            options=fingerprint_mapping(dataclasses.asdict(self.options)),
        )

    # -- public API -------------------------------------------------------------

    def compile(self, stencil_module: ModuleOp, kernel_name: str | None = None) -> Xclbin:
        """Run the full flow and return the xclbin-like artefact."""
        artifacts = self.compile_with_artifacts(stencil_module, kernel_name)
        return Xclbin(
            kernel_name=artifacts.plan.kernel_name,
            design=artifacts.design,
            plan=artifacts.plan,
            stencil_module=artifacts.stencil_module,
            hls_module=artifacts.hls_module,
            llvm_module=artifacts.llvm_module,
            fpp_report=artifacts.fpp_report,
        )

    def compile_with_artifacts(
        self, stencil_module: ModuleOp, kernel_name: str | None = None
    ) -> CompilationArtifacts:
        verify_module(stencil_module)
        spec = self.pass_pipeline or self.default_pipeline()
        self.analysis_statistics = None

        key = self.cache_key(stencil_module, spec) if self.cache is not None else None
        mapped = self.cache is not None and self.cache.fmt == "mapped"
        middle: MiddleEndResult | None = None
        if self.cache is not None and key is not None:
            # Mapped hits decode to fresh private objects already, so the
            # note is restamped in place; pickle hits clone defensively.
            middle = self.cache.get(
                key,
                "middle-end",
                rehydrate=(
                    (lambda m: m.with_note("cached"))
                    if mapped
                    else (lambda m: m.clone(note="cached"))
                ),
            )
        if middle is None:
            middle = self._run_middle_end(stencil_module.clone(), spec)
            if self.cache is not None and key is not None:
                # Store a private copy: the caller may mutate the returned
                # IR.  Mapped stores encode immediately (isolation built
                # in), so the clone round-trip is pickle-format-only.
                self.cache.put(key, "middle-end", middle if mapped else middle.clone())
        self.pass_statistics = list(middle.pass_statistics)

        plan = select_plan(middle.plans, kernel_name)

        design: KernelDesign | None = None
        synth_key: CacheKey | None = None
        if self.cache is not None and key is not None:
            synth_key = dataclasses.replace(
                key,
                extra=f"device={self.device.name}|clock={self.backend.clock_mhz}"
                f"|kernel={plan.kernel_name}",
            )
            design = self.cache.get(synth_key, "synthesis")
        if design is None:
            fpp_report = middle.fpp_report
            # Vitis-HLS-like synthesis.  The plan carries the effective
            # options (including any per-pass pipeline overrides).
            design = self.backend.synthesise(plan, fpp_report, plan.options or self.options)
            if self.cache is not None and synth_key is not None:
                self.cache.put(synth_key, "synthesis", design)

        return CompilationArtifacts(
            stencil_module=stencil_module,
            hls_module=middle.hls_module,
            llvm_module=middle.llvm_module,
            plan=plan,
            fpp_report=middle.fpp_report,
            design=design,
            pass_statistics=list(self.pass_statistics),
        )

    # -- middle-end (device-independent pass pipeline) -----------------------

    def _run_middle_end(self, working: ModuleOp, spec: str) -> MiddleEndResult:
        context = PassContext()
        context.set(LoweringContext(options=self.options))
        manager = PassRegistry.parse(spec, context=context)
        passes = manager.passes
        statistics: list[PassStatistics] = []

        # Snapshot the HLS-dialect module right before it is lowered to LLVM
        # dialect: it is what the functional dataflow simulator executes.  A
        # convert-hls-to-llvm scheduled *before* the stencil lowering no-ops
        # on a stencil module — only snapshot once kernels were lowered.
        snapshots: dict[str, ModuleOp] = {}

        # Per-pass-prefix artefact cache: resume from the longest cached
        # prefix, then store a snapshot after each freshly-executed pass so
        # future sweeps sharing a longer prefix resume even later.
        use_prefix = self.cache is not None and len(passes) > 1
        start_index = 0
        prefix_parts: list[str] = []
        incoming_hash = ""
        options_fp = ""
        if use_prefix:
            options_fp = fingerprint_mapping(dataclasses.asdict(self.options))
            incoming_hash = module_hash(working)
            # Walk the chain through the tiny ``pass-prefix-hash`` sidecar
            # entries (just the out-hash strings) so no snapshot payload is
            # unpickled along the way; only the longest prefix's artefact
            # is then fetched and cloned — one pickle round-trip total.
            chain_hash = incoming_hash
            chain_keys: list[CacheKey] = []
            for pass_ in passes:
                prefix_parts.append(pass_.describe())
                key = CacheKey(chain_hash, ",".join(prefix_parts), options_fp)
                next_hash = self.cache.get(key, "pass-prefix-hash")
                if not isinstance(next_hash, str):
                    break
                chain_keys.append(key)
                chain_hash = next_hash
            while chain_keys:
                # Fall back to shorter prefixes if a snapshot went missing
                # (e.g. its store failed while the sidecar's succeeded).
                artifact = self.cache.get(chain_keys[-1], "pass-prefix")
                if artifact is not None:
                    restored = (
                        artifact.with_note("prefix-cached")
                        if self.cache.fmt == "mapped"
                        else artifact.clone(note="prefix-cached")
                    )
                    start_index = len(chain_keys)
                    working = restored.module
                    context = PassContext()
                    if restored.lowering is not None:
                        context.set(restored.lowering)
                    statistics = list(restored.statistics)
                    if restored.hls_module is not None:
                        snapshots["hls"] = restored.hls_module
                    incoming_hash = restored.out_hash
                    break
                chain_keys.pop()
            prefix_parts = prefix_parts[:start_index]

        def snapshot_hls(pass_, module) -> None:
            if isinstance(pass_, HLSToLLVMPass) and "hls" not in snapshots:
                lowering = context.get(LoweringContext)
                if lowering is not None and lowering.plans:
                    snapshots["hls"] = module.clone()

        def store_prefix(pass_, module, stat: PassStatistics) -> None:
            nonlocal incoming_hash
            statistics.append(stat)
            if not use_prefix:
                return
            prefix_parts.append(pass_.describe())
            if len(prefix_parts) == len(passes):
                # The full-length "prefix" is not stored: the middle-end
                # stage already caches the completed pipeline's result.
                return
            key = CacheKey(incoming_hash, ",".join(prefix_parts), options_fp)
            out_hash = module_hash(module)
            artifact = PassPrefixArtifact(
                module=module,
                lowering=context.get(LoweringContext),
                hls_module=snapshots.get("hls"),
                statistics=list(statistics),
                out_hash=out_hash,
            )
            # isolate=True snapshots the live, still-mutating module with a
            # single serialisation shared by both cache tiers.
            self.cache.put(key, "pass-prefix", artifact, isolate=True)
            self.cache.put(key, "pass-prefix-hash", out_hash)
            incoming_hash = out_hash

        manager.context = context
        manager.run(
            working,
            on_pass_start=snapshot_hls,
            on_pass_end=store_prefix,
            start_index=start_index,
        )
        analyses = context.get(AnalysisManager)
        self.analysis_statistics = analyses.stats if analyses is not None else None

        lowering = context.get(LoweringContext)
        plans = dict(lowering.plans) if lowering is not None else {}
        if not plans:
            missing = lowering.next_missing_stage() if lowering is not None else None
            if missing is not None:
                raise ValueError(
                    f"pipeline '{spec}' stopped before the stencil lowering "
                    f"finished: add '{missing}' (and the stages after it), or "
                    "use 'convert-stencil-to-hls'"
                )
            if any(True for _ in working.walk_type(stencil.ApplyOp)):
                raise ValueError(
                    f"pipeline '{spec}' schedules no stencil lowering stage: "
                    "add 'convert-stencil-to-hls' (or the stencil-* sub-passes)"
                )
            raise ValueError(
                "module contains no stencil kernel to compile "
                f"(pipeline: '{spec}')"
            )

        # A plan without AXI bundle assignment synthesises into a nonsense
        # design (zero ports): complete the pipeline while the HLS-dialect
        # interface ops are still around, or refuse if they are already gone.
        if lowering.unbundled_kernels:
            if "hls" in snapshots:
                raise ValueError(
                    "pipeline lowered to LLVM before 'hls-bundle-assignment' "
                    f"ran for kernel(s) {', '.join(sorted(lowering.unbundled_kernels))}; "
                    "schedule it before convert-hls-to-llvm"
                )
            bundle = PassManager([HLSBundleAssignmentPass()], context=context)
            bundle.run(working)
            statistics.extend(bundle.statistics)
            plans = dict(lowering.plans)

        hls_module = snapshots.get("hls")
        if any(isinstance(op, hls.DIALECT_OPERATIONS) for op in working.walk()):
            # The custom pipeline stopped at (or never left) the HLS dialect:
            # snapshot it and finish the mandatory LLVM lowering implicitly.
            if hls_module is None:
                hls_module = working.clone()
            tail = PassManager([HLSToLLVMPass()], context=context)
            tail.run(working)
            statistics.extend(tail.statistics)
        elif hls_module is None:
            hls_module = working.clone()

        fpp_report = run_fpp(working)

        return MiddleEndResult(
            hls_module=hls_module,
            llvm_module=working,
            plans=plans,
            fpp_report=fpp_report,
            pass_statistics=statistics,
        )
