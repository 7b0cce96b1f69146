"""The per-pass-prefix cache: markers everywhere, snapshots at branch points.

Every executed proper prefix of a cache-backed compile leaves a tiny
marker (stage ``pass-prefix-hash``).  A ``pass-prefix`` snapshot is stored
only by the second pipeline through a prefix, at the deepest prefix whose
marker another pipeline wrote; the third and later ones restore it.  Keys
are rooted at the input module's hash, so a compile hashes one module once.
"""

from __future__ import annotations

import io
import pickle
import sys

import pytest

from repro.core.compile_cache import CompileCache
from repro.core.pipeline import StencilHMLSCompiler, prefix_keys
from repro.evaluation.harness import (
    ABLATION_VARIANTS,
    PIPELINE_VARIANTS,
    STAGED_PIPELINE,
    staged_variant,
)
from repro.ir import hashing
from repro.ir.core import Block, Operation, SSAValue
from repro.ir.printer import print_module
from repro.kernels.grids import PW_ADVECTION_SIZES
from repro.kernels.pw_advection import build_pw_advection
from repro.kernels.tracer_advection import build_tracer_advection

#: A tracer grid small enough for a dozen compiles, still multi-wave.
_TRACER_SHAPE = (64, 16, 8)


@pytest.fixture()
def module():
    return build_pw_advection(PW_ADVECTION_SIZES["8M"].shape)


def _fingerprint(xclbin) -> tuple:
    """Everything a design is judged by: the summary, the printed HLS and
    LLVM modules and the synthesised design itself."""
    return (
        xclbin.summary(),
        print_module(xclbin.hls_module),
        print_module(xclbin.llvm_module),
        xclbin.design,
    )


def _count_module_hash(monkeypatch) -> dict[str, int]:
    """Count every ``module_hash`` call, under any name it was imported as."""
    calls = {"module_hash": 0}
    original = hashing.module_hash

    def counting(*args, **kwargs):
        calls["module_hash"] += 1
        return original(*args, **kwargs)

    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            getattr(loaded, "module_hash", None) is original
        ):
            monkeypatch.setattr(loaded, "module_hash", counting)
    return calls


class TestBranchPointSnapshots:
    @pytest.mark.parametrize("variant", ["default", "staged"])
    def test_one_off_pipeline_stores_no_snapshot(self, module, variant, tmp_path):
        cache = CompileCache(tmp_path)
        compiler = StencilHMLSCompiler(pass_pipeline=PIPELINE_VARIANTS[variant], cache=cache)
        compiler.compile(module)
        passes = len(compiler.pass_statistics)
        assert cache.stats.stores.get("pass-prefix", 0) == 0
        # One marker per proper prefix; the full pipeline is the
        # middle-end entry.
        assert cache.stats.stores["pass-prefix-hash"] == passes - 1

    def test_prefix_keys_are_rooted_at_the_input_module(self, module):
        key = StencilHMLSCompiler(pass_pipeline=STAGED_PIPELINE).cache_key(module)
        keys = prefix_keys(key)
        entries = STAGED_PIPELINE.split(",")
        assert [k.pipeline for k in keys] == [
            ",".join(entries[:depth]) for depth in range(1, len(entries))
        ]
        assert {k.module_hash for k in keys} == {key.module_hash}
        assert {k.options for k in keys} == {key.options}

    def test_each_cache_backed_compile_hashes_one_module_once(
        self, module, monkeypatch, tmp_path
    ):
        cache = CompileCache(tmp_path)
        calls = _count_module_hash(monkeypatch)
        # Cold, second through the prefix (stores the snapshot), third
        # (restores it) and a middle-end hit: one hash each.
        for variant in ("staged", "single-bundle-staged", "depth-8", "staged"):
            before = calls["module_hash"]
            StencilHMLSCompiler(
                pass_pipeline=PIPELINE_VARIANTS[variant], cache=cache
            ).compile(module)
            assert calls["module_hash"] - before == 1, variant
        assert cache.stats.hits["middle-end"] == 1

    def test_a_compile_stores_at_most_one_snapshot(self, module, tmp_path):
        cache = CompileCache(tmp_path)
        for variant in ABLATION_VARIANTS:
            before = cache.stats.stores.get("pass-prefix", 0)
            StencilHMLSCompiler(
                pass_pipeline=PIPELINE_VARIANTS[variant], cache=cache
            ).compile(module)
            assert cache.stats.stores.get("pass-prefix", 0) - before <= 1, variant

    @pytest.mark.parametrize(
        "build, shape",
        [
            (build_pw_advection, PW_ADVECTION_SIZES["8M"].shape),
            (build_tracer_advection, _TRACER_SHAPE),
        ],
        ids=["pw", "tracer"],
    )
    def test_ablation_designs_through_one_cache_equal_cold(self, build, shape, tmp_path):
        module = build(shape)
        cache = CompileCache(tmp_path)
        for variant in ABLATION_VARIANTS:
            spec = PIPELINE_VARIANTS[variant]
            cold = StencilHMLSCompiler(pass_pipeline=spec).compile(module)
            shared = StencilHMLSCompiler(pass_pipeline=spec, cache=cache).compile(module)
            assert _fingerprint(shared) == _fingerprint(cold), variant
        # The sweep really went through branch-point snapshots.
        assert cache.stats.hits["pass-prefix"] > 0
        assert cache.stats.errors == 0


class TestMissingAndCorruptSnapshots:
    """Snapshots are the exception, so a missing or damaged one must fall
    back to a shorter snapshot or to scratch — never serve a wrong design."""

    def test_flipped_and_deleted_snapshots_fall_back(self, module, tmp_path):
        cache = CompileCache(tmp_path)
        # Branch points: depth 2 (ii-2 after staged), 6
        # (single-bundle-staged) and 4 (depth-8).
        for variant in ("staged", "ii-2", "single-bundle-staged", "depth-8"):
            StencilHMLSCompiler(pass_pipeline=PIPELINE_VARIANTS[variant], cache=cache).compile(
                module
            )
        assert cache.stats.stores["pass-prefix"] == 3
        keys = prefix_keys(StencilHMLSCompiler(pass_pipeline=STAGED_PIPELINE).cache_key(module))
        snapshot = {
            depth: cache._path(keys[depth - 1].digest("pass-prefix")) for depth in (2, 4, 6)
        }
        assert all(path.is_file() for path in snapshot.values())
        data = bytearray(snapshot[6].read_bytes())
        data[len(data) // 2] ^= 0x01
        snapshot[6].write_bytes(bytes(data))
        snapshot[4].unlink()

        probes = {
            # Shares the 6-prefix: the corrupt snapshot falls back to depth 2.
            staged_variant("hls-bundle-assignment", bundle_small=0): 6,
            # Shares the 4-prefix: the deleted snapshot falls back to depth 2.
            PIPELINE_VARIANTS["depth-64"]: 4,
        }
        fresh = CompileCache(tmp_path)
        for spec, marked in probes.items():
            errors = fresh.stats.errors
            compiler = StencilHMLSCompiler(pass_pipeline=spec, cache=fresh)
            warm = compiler.compile(module)
            cold = StencilHMLSCompiler(pass_pipeline=spec).compile(module)
            assert _fingerprint(warm) == _fingerprint(cold)
            reused = [s.name for s in compiler.pass_statistics if s.note == "prefix-cached"]
            assert reused == STAGED_PIPELINE.split(",")[:2]
            if marked == 6:
                assert fresh.stats.errors == errors + 1
        # The re-run re-stored both branch points; they restore cleanly now.
        assert fresh.stats.stores["pass-prefix"] == 2
        assert all(path.is_file() for path in snapshot.values())
        again = CompileCache(tmp_path)
        for spec, marked in (
            (staged_variant("hls-bundle-assignment", bundles=0, bundle_small=0), 6),
            (staged_variant("stencil-wave-pipelining", depth=32), 4),
        ):
            compiler = StencilHMLSCompiler(pass_pipeline=spec, cache=again)
            compiler.compile(module)
            reused = [s.name for s in compiler.pass_statistics if s.note == "prefix-cached"]
            assert reused == STAGED_PIPELINE.split(",")[:marked]
        assert again.stats.errors == 0

    def test_every_snapshot_gone_starts_from_scratch(self, module, tmp_path):
        cache = CompileCache(tmp_path)
        for variant in ("staged", "single-bundle-staged"):
            StencilHMLSCompiler(pass_pipeline=PIPELINE_VARIANTS[variant], cache=cache).compile(
                module
            )
        keys = prefix_keys(StencilHMLSCompiler(pass_pipeline=STAGED_PIPELINE).cache_key(module))
        cache._path(keys[5].digest("pass-prefix")).unlink()
        spec = staged_variant("hls-bundle-assignment", bundle_small=0)
        fresh = CompileCache(tmp_path)
        compiler = StencilHMLSCompiler(pass_pipeline=spec, cache=fresh)
        warm = compiler.compile(module)
        assert not any(s.note == "prefix-cached" for s in compiler.pass_statistics)
        assert fresh.stats.hits["pass-prefix-hash"] == 6
        assert fresh.stats.stores["pass-prefix"] == 1
        assert _fingerprint(warm) == _fingerprint(
            StencilHMLSCompiler(pass_pipeline=spec).compile(module)
        )


class _IRCountingPickler(pickle.Pickler):
    """Pickles to nowhere, counting every IR object it meets."""

    def __init__(self, file) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.ir_objects = 0

    def reducer_override(self, obj):
        if isinstance(obj, (Operation, SSAValue, Block)):
            self.ir_objects += 1
        return NotImplemented


def _ir_objects(value) -> int:
    pickler = _IRCountingPickler(io.BytesIO())
    pickler.dump(value)
    return pickler.ir_objects


class TestIRFreePlans:
    @pytest.mark.parametrize(
        "build, shape",
        [
            (build_pw_advection, PW_ADVECTION_SIZES["8M"].shape),
            (build_tracer_advection, _TRACER_SHAPE),
        ],
        ids=["pw", "tracer"],
    )
    @pytest.mark.parametrize("variant", ["default", "staged"])
    def test_design_and_plans_pickle_no_ir(self, build, shape, variant):
        compiler = StencilHMLSCompiler(pass_pipeline=PIPELINE_VARIANTS[variant])
        module = build(shape)
        artifacts = compiler.compile_with_artifacts(module)
        spec = compiler.pass_pipeline or compiler.default_pipeline()
        middle = compiler._run_middle_end(module.clone(), spec)
        assert middle.plans
        assert _ir_objects(middle.plans) == 0
        assert _ir_objects(artifacts.design) == 0
        assert _ir_objects(artifacts.plan) == 0
        # The counter does see IR where there is some.
        assert _ir_objects(artifacts.hls_module) > 0
