"""Diagnostics engine, analysis manager and shmls-lint tests.

Covers the four tentpole pieces end to end:

* :mod:`repro.ir.diagnostics` — op-path rendering, the engine's emit /
  severity / pass-scope API and :class:`DiagnosticError`;
* :mod:`repro.ir.analysis` — fingerprint-keyed caching with real hit/miss
  counters;
* the pass manager's plain verification — N+1 verifier runs for N
  passes, no hashing, and pass/position/spec-located errors;
* :mod:`repro.tools.lint` — every rule fires on its seeded-defect corpus
  fixture and stays quiet on the paper kernels;
* the ``--verify-diagnostics`` harness — expectation parsing, ``{{...}}``
  regex islands and strict 1:1 matching.
"""

import json
from pathlib import Path

import pytest

from repro.dialects import stencil
from repro.evaluation.harness import STAGED_PIPELINE
from repro.frontends.builder import StencilKernelBuilder
from repro.ir.analysis import AnalysisManager, AnalysisStats
from repro.ir.diagnostics import (
    Diagnostic,
    DiagnosticEngine,
    DiagnosticError,
    op_path,
)
from repro.ir.pass_registry import PassRegistry
from repro.kernels.grids import PW_ADVECTION_SIZES
from repro.kernels.pw_advection import build_pw_advection
from repro.tools.lint import (
    ExpectedDiagnostic,
    compile_expectation,
    lint_corpus_file,
    main as lint_main,
    parse_expected_diagnostics,
    verify_diagnostics,
)

CORPUS = Path(__file__).parent / "diagnostics"


def small_kernel():
    builder = StencilKernelBuilder("k", (8, 8, 8))
    src = builder.input_field("src")
    out = builder.output_field("out")
    builder.add_stencil(out, src[0, 0, 1] + src[0, 0, -1])
    return builder.build()


class TestOpPath:
    def test_nested_access_path(self):
        module = small_kernel()
        access = next(iter(module.walk_type(stencil.AccessOp)))
        path = op_path(access)
        assert path.startswith("func @k / block 0 / op ")
        assert "stencil.apply / block 0 / op " in path
        assert path.endswith(": stencil.access")

    def test_symbol_label(self):
        from repro.dialects.func import FuncOp

        module = small_kernel()
        func = next(iter(module.walk_type(FuncOp)))
        assert op_path(func) == "func @k"

    def test_detached_op_renders_plain_label(self):
        module = small_kernel()
        assert op_path(module) == "builtin.module"


class TestDiagnosticEngine:
    def test_emit_attaches_op_path(self):
        module = small_kernel()
        access = next(iter(module.walk_type(stencil.AccessOp)))
        engine = DiagnosticEngine()
        diag = engine.error("bad access", op=access, rule="demo")
        assert diag.path == op_path(access)
        assert diag.render().endswith("error: bad access [demo]")

    def test_severity_counters_and_exit_queries(self):
        engine = DiagnosticEngine()
        engine.warning("w1")
        engine.remark("fyi")
        assert not engine.has_errors and engine.has_warnings
        engine.error("e1")
        assert engine.has_errors
        assert engine.count("warning") == 1
        assert [d.severity for d in engine.errors] == ["error"]

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            DiagnosticEngine().emit("fatal", "nope")

    def test_pass_scope_stamps_pass_name(self):
        engine = DiagnosticEngine()
        with engine.pass_scope("canonicalize"):
            inner = engine.warning("inside")
        outer = engine.warning("outside")
        assert inner.pass_name == "canonicalize"
        assert outer.pass_name == ""

    def test_check_raises_with_structured_payload(self):
        engine = DiagnosticEngine()
        engine.warning("only a warning")
        engine.check()  # warnings alone never raise
        engine.error("boom", path="func @k")
        with pytest.raises(DiagnosticError) as err:
            engine.check()
        assert err.value.diagnostics[0].message == "boom"
        assert "func @k: error: boom" in str(err.value)

    def test_notes_render_indented(self):
        diag = Diagnostic("error", "msg", path="p", notes=("why", "how"))
        assert diag.render_lines() == ["p: error: msg", "  note: why", "  note: how"]

    def test_as_dict_omits_empty_fields(self):
        diag = Diagnostic("warning", "msg")
        assert diag.as_dict() == {
            "severity": "warning",
            "message": "msg",
            "path": "",
        }


class TestAnalysisManager:
    def test_unknown_analysis(self):
        with pytest.raises(KeyError):
            AnalysisManager().get("nope", small_kernel())

    def test_repeat_get_is_a_cache_hit(self):
        manager = AnalysisManager()
        module = small_kernel()
        first = manager.get("def-use", module)
        second = manager.get("def-use", module)
        assert first is second
        assert manager.stats.hits == {"def-use": 1}
        assert manager.stats.misses == {"def-use": 1}

    def test_mutation_invalidates_the_fingerprint_key(self):
        manager = AnalysisManager()
        module = small_kernel()
        manager.get("verify", module)
        next(iter(module.walk_type(stencil.StoreOp))).erase()
        manager.get("verify", module)
        assert manager.stats.misses == {"verify": 2}
        assert manager.stats.total_hits == 0

    def test_lru_eviction_respects_max_entries(self):
        manager = AnalysisManager(max_entries=1)
        module = small_kernel()
        manager.get("def-use", module)
        manager.get("verify", module)  # evicts def-use
        manager.get("def-use", module)
        assert manager.stats.hits.get("def-use", 0) == 0
        assert manager.stats.misses["def-use"] == 2
        assert len(manager) == 1

    def test_def_use_reports_unused_results(self):
        module = small_kernel()
        next(iter(module.walk_type(stencil.StoreOp))).erase()
        analysis = AnalysisManager().get("def-use", module)
        assert any(
            isinstance(result.op, stencil.ApplyOp)
            for result in analysis.unused_results
        )

    def test_access_bounds_flags_explicit_oob_domain(self):
        builder = StencilKernelBuilder("oob", (8, 8, 8))
        src = builder.input_field("src")
        out = builder.output_field("out")
        builder.add_stencil(
            out, src[0, 0, 1], lower=(0, 0, 0), upper=(8, 8, 8)
        )
        analysis = AnalysisManager().get("access-bounds", builder.build())
        assert len(analysis.violations) == 1
        record = analysis.violations[0]
        assert record.out_of_bounds_axes == (2,)
        assert record.access_upper[2] == 9 and record.field_upper[2] == 8

    def test_stencil_deps_transitive_reachability(self):
        builder = StencilKernelBuilder("chain", (8, 8, 8))
        src = builder.input_field("src")
        a = builder.field("a")
        b = builder.output_field("b")
        builder.add_stencil(a, src[0, 0, 1] + src[0, 0, -1])
        builder.add_stencil(b, a[0, 0, 1] + a[0, 0, -1])
        deps = AnalysisManager().get("stencil-deps", builder.build())
        assert deps.reaches(0, 1)
        assert not deps.reaches(1, 0)
        assert len(deps.waves) == 2

    def test_stats_summary_lines(self):
        stats = AnalysisStats()
        stats.record_miss("verify")
        stats.record_hit("verify")
        assert stats.summary_lines() == ["analysis verify: 1 hits, 1 misses"]


class TestPassManagerVerification:
    """The pass manager verifies plainly: once on the pipeline input and
    once on each pass's output, with no fingerprint and no cache."""

    def test_n_passes_verify_n_plus_one_times_without_hashing(self, monkeypatch):
        import sys

        import repro.ir.hashing as hashing
        import repro.ir.passes as passes

        calls = {"verify": 0, "module_hash": 0}
        verify = passes.verify_module_diagnostics
        original_hash = hashing.module_hash

        def counting_verify(module):
            calls["verify"] += 1
            return verify(module)

        def counting_hash(*args, **kwargs):
            calls["module_hash"] += 1
            return original_hash(*args, **kwargs)

        monkeypatch.setattr(passes, "verify_module_diagnostics", counting_verify)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, "module_hash", None) is original_hash
            ):
                monkeypatch.setattr(module, "module_hash", counting_hash)
        manager = PassRegistry.parse(STAGED_PIPELINE)
        manager.run(build_pw_advection((16, 16, 8)))
        assert calls == {"verify": len(manager.passes) + 1, "module_hash": 0}
        assert manager.context.get(AnalysisManager) is None

    def test_broken_ir_raises_located_error(self):
        from repro.dialects import arith
        from repro.dialects.func import FuncOp
        from repro.ir.core import VerifyException
        from repro.ir.passes import ModulePass

        class BreakIR(ModulePass):
            name = "break-ir"

            def apply(self, module):
                func = next(iter(module.walk_type(FuncOp)))
                func.entry_block.add_op(arith.ConstantOp.from_float(0.0))
                return True

        manager = PassRegistry.parse("canonicalize").add(BreakIR())
        with pytest.raises(VerifyException) as err:
            manager.run(small_kernel())
        assert str(err.value).startswith(
            "verification failed after pass 'break-ir' "
            "(position 1 in pipeline 'canonicalize,break-ir'): "
        )

    def test_default_compile_has_no_analysis_statistics(self):
        from repro.core.pipeline import StencilHMLSCompiler

        compiler = StencilHMLSCompiler()
        compiler.compile(build_pw_advection(PW_ADVECTION_SIZES["8M"].shape))
        assert compiler.analysis_statistics is None


FIXTURE_RULES = {
    "oob_access.py": "out-of-bounds-access",
    "dead_field.py": "dead-field",
    "small_data_blowup.py": "small-data-budget",
    "unconsumed_option.py": "unconsumed-option",
    "bundle_conflict.py": "bundle-conflict",
    "infeasible_depth.py": "infeasible-config",
}


class TestLintCorpus:
    def test_corpus_is_complete(self):
        assert {p.name for p in CORPUS.glob("*.py")} == set(FIXTURE_RULES)

    @pytest.mark.parametrize("fixture,rule", sorted(FIXTURE_RULES.items()))
    def test_fixture_fires_its_rule_with_a_location(self, fixture, rule):
        failures, engine = lint_corpus_file(str(CORPUS / fixture))
        assert failures == []
        fired = [d for d in engine.diagnostics if d.rule == rule]
        assert fired, f"{fixture} never fired {rule}"
        assert all(d.path for d in fired)

    def test_clean_kernels_lint_clean(self):
        code = lint_main(
            ["sweep", "--kernels", "pw_advection,tracer_advection",
             "--sizes", "8M", "--variants", "default,staged"]
        )
        assert code == 0


class TestVerifyDiagnosticsHarness:
    def test_regex_islands(self):
        pattern = compile_expectation("needs {{[0-9]+}} ports (max {{[0-9]+}})")
        assert pattern.search("kernel needs 34 ports (max 32)")
        assert not pattern.search("kernel needs many ports (max 32)")

    def test_expectation_requires_matching_severity(self):
        diag = Diagnostic("warning", "late option", path="pipeline 'x'")
        assert ExpectedDiagnostic("warning", "late option").matches(diag)
        assert not ExpectedDiagnostic("error", "late option").matches(diag)

    def test_parse_expected_comments(self):
        text = (
            "# expected-error: boom\n"
            "code = 1\n"
            "# expected-warning: careful {{[a-z]+}}\n"
        )
        expectations = parse_expected_diagnostics(text)
        assert [(e.severity, e.pattern) for e in expectations] == [
            ("error", "boom"),
            ("warning", "careful {{[a-z]+}}"),
        ]

    def test_unexpected_diagnostic_is_a_failure(self):
        failures = verify_diagnostics(
            [], [Diagnostic("error", "surprise", path="p")]
        )
        assert failures == ["unexpected diagnostic: p: error: surprise"]

    def test_unmatched_expectation_is_a_failure(self):
        failures = verify_diagnostics([ExpectedDiagnostic("error", "boom")], [])
        assert failures == ["expected-error never emitted: boom"]

    def test_matching_is_one_to_one(self):
        diag = Diagnostic("error", "boom", path="p")
        failures = verify_diagnostics(
            [ExpectedDiagnostic("error", "boom"), ExpectedDiagnostic("error", "boom")],
            [diag],
        )
        assert failures == ["expected-error never emitted: boom"]

    def test_remarks_are_free_unless_expected(self):
        assert verify_diagnostics([], [Diagnostic("remark", "fyi")]) == []


class TestLintCLI:
    def test_kernel_subcommand_clean(self, capsys):
        assert lint_main(["kernel", "pw_advection", "--size", "8M"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_error_exit_code_and_json_shape(self, capsys):
        code = lint_main(["corpus", str(CORPUS / "oob_access.py"), "--json"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 2
        (target,) = payload["targets"]
        assert target["errors"] >= 1
        diag = target["diagnostics"][0]
        assert diag["severity"] == "error"
        assert diag["rule"] == "out-of-bounds-access"
        assert "stencil.access" in diag["path"]

    def test_warning_exit_code(self):
        assert lint_main(["corpus", str(CORPUS / "unconsumed_option.py")]) == 1

    def test_verify_diagnostics_over_the_whole_corpus(self, capsys):
        files = sorted(str(p) for p in CORPUS.glob("*.py"))
        assert lint_main(["corpus", *files, "--verify-diagnostics"]) == 0
        assert "all diagnostics match" in capsys.readouterr().out

    def test_verify_diagnostics_fails_on_drift(self, tmp_path, capsys):
        fixture = tmp_path / "drift.py"
        fixture.write_text(
            (CORPUS / "oob_access.py").read_text().replace(
                "# expected-error:", "# expected-error: NOT EMITTED\n#"
            )
        )
        assert lint_main(["corpus", str(fixture), "--verify-diagnostics"]) == 2
        out = capsys.readouterr().out
        assert "never emitted" in out or "unexpected diagnostic" in out


class TestOrchestratorDryRunLint:
    def test_clean_plan_exits_zero(self, capsys):
        from repro.evaluation.orchestrator import lint_plan, plan_matrix

        plan = plan_matrix(
            kernels=["pw_advection"], sizes=["8M"], variants=["staged"],
            frameworks=["Stencil-HMLS"],
        )
        assert lint_plan(plan) == 0
        assert "none doomed" in capsys.readouterr().out

    def test_doomed_case_exits_two(self, monkeypatch, capsys):
        from repro.evaluation import harness as harness_module
        from repro.evaluation.orchestrator import lint_plan, plan_matrix

        monkeypatch.setitem(
            harness_module.PIPELINE_VARIANTS,
            "doomed",
            STAGED_PIPELINE.replace(
                "stencil-wave-pipelining", "stencil-wave-pipelining{depth=1000000}"
            ),
        )
        plan = plan_matrix(
            kernels=["pw_advection"], sizes=["8M"], variants=["doomed"],
            frameworks=["Stencil-HMLS"],
        )
        assert lint_plan(plan) == 2
        out = capsys.readouterr().out
        assert "doomed" in out and "infeasible-config" in out

    def test_dry_run_cli_reports_lint(self, tmp_path, capsys):
        from repro.evaluation.orchestrator import main as orchestrator_main

        code = orchestrator_main(
            ["--dry-run", "--quick", "--kernels", "pw_advection",
             "--variants", "staged", "--state-dir", str(tmp_path / "state")]
        )
        assert code == 0
        assert "lint:" in capsys.readouterr().out

    def test_no_lint_opt_out(self, tmp_path, capsys):
        from repro.evaluation.orchestrator import main as orchestrator_main

        code = orchestrator_main(
            ["--dry-run", "--no-lint", "--quick", "--kernels", "pw_advection",
             "--variants", "staged", "--state-dir", str(tmp_path / "state")]
        )
        assert code == 0
        assert "lint:" not in capsys.readouterr().out
