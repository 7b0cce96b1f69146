"""Tests for the HLS→LLVM lowering (§3.2) and the f++ preprocessing step."""

import pytest

from repro.core.config import CompilerOptions
from repro.dialects import arith, hls, llvm as llvm_d, scf
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import CallOp, FuncOp, ReturnOp
from repro.fpp.preprocessor import FPPError, run_fpp
from repro.ir.core import Operation
from repro.ir.passes import PassManager
from repro.ir.types import LLVMPointerType, LLVMStructType, f64
from repro.ir.verifier import verify_module
from repro.kernels.pw_advection import build_pw_advection
from repro.kernels.tracer_advection import build_tracer_advection
from repro.transforms.hls_to_llvm import (
    DATAFLOW_ANNOTATION,
    FIFO_READ,
    FIFO_WRITE,
    HLSToLLVMPass,
    INTERFACE_ANNOTATION,
    PIPELINE_PREFIX,
    UNROLL_PREFIX,
)
from repro.transforms.stencil_to_hls import StencilToHLSPass


def small_hls_kernel():
    """A hand-written HLS-dialect kernel exercising every lowering rule."""
    module = ModuleOp()
    func = FuncOp.with_body("kernel", [f64], [], attributes={"hls.kernel": arith.IntAttr(1)})
    module.add_op(func)
    block = func.entry_block
    block.add_op(hls.InterfaceOp(func.args[0], "m_axi", "gmem0"))
    stream = hls.CreateStreamOp(f64, depth=8)
    block.add_op(stream)
    producer = hls.DataflowOp(label="producer")
    block.add_op(producer)
    value = arith.ConstantOp.from_float(1.0)
    producer.body.add_ops([value, hls.WriteOp(stream.result, value.result)])
    consumer = hls.DataflowOp(label="consumer")
    block.add_op(consumer)
    zero = arith.ConstantOp.from_index(0)
    ten = arith.ConstantOp.from_index(10)
    one = arith.ConstantOp.from_index(1)
    loop = scf.ForOp(zero.result, ten.result, one.result)
    loop.body.add_op(hls.PipelineOp(2))
    loop.body.add_op(hls.UnrollOp(4))
    read = hls.ReadOp(stream.result)
    loop.body.add_ops([read, scf.YieldOp()])
    consumer.body.add_ops([zero, ten, one, loop])
    block.add_op(ReturnOp([]))
    return module, func


def lowered_pw(small_shape):
    module = build_pw_advection(small_shape)
    PassManager([StencilToHLSPass(CompilerOptions()), HLSToLLVMPass()]).run(module)
    return module


class TestHLSToLLVM:
    def test_no_hls_ops_remain(self):
        module, _ = small_hls_kernel()
        PassManager([HLSToLLVMPass()]).run(module)
        assert not [op for op in module.walk() if isinstance(op, hls.DIALECT_OPERATIONS)]
        verify_module(module)

    def test_stream_lowering_produces_legal_vitis_stream(self):
        module, _ = small_hls_kernel()
        PassManager([HLSToLLVMPass()]).run(module)
        allocas = [op for op in module.walk() if isinstance(op, llvm_d.AllocaOp)]
        assert len(allocas) == 1
        assert llvm_d.is_legal_stream_type(allocas[0].result.type)
        geps = [op for op in module.walk() if isinstance(op, llvm_d.GEPOp)]
        assert geps and geps[0].indices == (0, 0)
        depth_calls = [
            op for op in module.walk()
            if isinstance(op, llvm_d.CallOp) and op.callee == llvm_d.SET_STREAM_DEPTH_INTRINSIC
        ]
        assert len(depth_calls) == 1

    def test_directives_become_void_annotation_calls(self):
        module, _ = small_hls_kernel()
        PassManager([HLSToLLVMPass()]).run(module)
        callees = [op.callee for op in module.walk() if isinstance(op, CallOp)]
        assert f"{PIPELINE_PREFIX}2" in callees
        assert f"{UNROLL_PREFIX}4" in callees
        assert DATAFLOW_ANNOTATION in callees
        assert INTERFACE_ANNOTATION in callees
        # Annotation functions are declared as externals.
        declared = {op.sym_name for op in module.body.ops if isinstance(op, FuncOp) and op.is_declaration}
        assert f"{PIPELINE_PREFIX}2" in declared

    def test_dataflow_regions_outlined_into_stage_functions(self):
        module, func = small_hls_kernel()
        PassManager([HLSToLLVMPass()]).run(module)
        stage_funcs = [
            op for op in module.body.ops
            if isinstance(op, FuncOp) and "hls.dataflow_stage" in op.attributes
        ]
        assert len(stage_funcs) == 2
        # The kernel now calls the stage functions instead of holding regions.
        kernel_calls = [op.callee for op in func.walk() if isinstance(op, CallOp)]
        assert any(c.endswith("producer") for c in kernel_calls)
        assert any(c.endswith("consumer") for c in kernel_calls)
        assert not list(func.walk_type(hls.DataflowOp))

    def test_fifo_accesses_lowered_to_intrinsics(self):
        module, _ = small_hls_kernel()
        PassManager([HLSToLLVMPass()]).run(module)
        callees = [op.callee for op in module.walk() if isinstance(op, llvm_d.CallOp)]
        assert FIFO_READ in callees
        assert FIFO_WRITE in callees

    def test_full_kernel_lowering_verifies(self, small_shape):
        module = lowered_pw(small_shape)
        verify_module(module)
        assert not [op for op in module.walk() if isinstance(op, hls.DIALECT_OPERATIONS)]


def enclosing_func(op):
    while not isinstance(op, FuncOp):
        op = op.parent_op()
    return op


class TestMovedOutlining:
    """Dataflow outlining moves the region's ops into the stage functions."""

    def outlined_tracer(self, small_shape):
        module = build_tracer_advection(small_shape)
        PassManager([StencilToHLSPass(CompilerOptions())]).run(module)
        bodies = [
            [op for op in dataflow.body.walk() if not isinstance(op, hls.DIALECT_OPERATIONS)]
            for dataflow in module.walk_type(hls.DataflowOp)
        ]
        assert len(bodies) > 1
        PassManager([HLSToLLVMPass()]).run(module)
        return module, bodies

    def test_stage_functions_hold_the_original_ops(self, small_shape):
        module, bodies = self.outlined_tracer(small_shape)
        stages = []
        for ops in bodies:
            stage = enclosing_func(ops[0])
            assert "hls.dataflow_stage" in stage.attributes
            held = {id(op) for op in stage.walk()}
            assert all(id(op) in held for op in ops)
            stages.append(stage)
        assert len({id(stage) for stage in stages}) == len(bodies)

    def test_stage_ops_use_no_parent_function_value(self, small_shape):
        module, _ = self.outlined_tracer(small_shape)
        stages = [f for f in module.walk_type(FuncOp) if "hls.dataflow_stage" in f.attributes]
        assert stages
        for stage in stages:
            for op in stage.walk():
                for operand in op.operands:
                    owner = operand.owner()
                    definer = owner if isinstance(owner, Operation) else owner.parent_op()
                    assert enclosing_func(definer) is stage, (stage.sym_name, op.name)

    def test_outlined_module_verifies(self, small_shape):
        module, _ = self.outlined_tracer(small_shape)
        verify_module(module)


class TestFPP:
    def test_report_counts_on_pw_kernel(self, small_shape):
        module = lowered_pw(small_shape)
        report = run_fpp(module)
        assert report.dataflow_functions == 1
        assert report.interface_annotations == 12          # one per kernel argument
        # 6 small-data copy loops + 3 compute loops are pipelined.
        assert report.pipelined_loops == 9
        assert report.streams_checked == 18
        assert report.array_partitions == 6
        assert report.kernel_functions == ["pw_advection_hls"]
        assert any(name.startswith("load_data") for name in report.runtime_functions)
        assert report.total_directives > 20

    def test_annotation_calls_removed_and_metadata_attached(self, small_shape):
        module = lowered_pw(small_shape)
        run_fpp(module)
        callees = [op.callee for op in module.walk() if isinstance(op, CallOp)]
        assert not any(c.startswith("_hls_") for c in callees)
        pipelined = [
            op for op in module.walk()
            if isinstance(op, scf.ForOp) and "llvm.loop.pipeline.ii" in op.attributes
        ]
        assert pipelined
        assert all(op.attributes["llvm.loop.pipeline.ii"].value == 1 for op in pipelined)
        dataflow_funcs = [
            op for op in module.walk_type(FuncOp) if "fpga.dataflow.func" in op.attributes
        ]
        assert dataflow_funcs

    def test_unroll_metadata_attached_to_loop(self):
        module, _ = small_hls_kernel()
        PassManager([HLSToLLVMPass()]).run(module)
        report = run_fpp(module)
        assert report.unrolled_loops == 1
        loops = [op for op in module.walk() if isinstance(op, scf.ForOp)]
        assert any("llvm.loop.unroll.count" in op.attributes for op in loops)

    def test_missing_stream_depth_rejected(self):
        module, _ = small_hls_kernel()
        PassManager([HLSToLLVMPass()]).run(module)
        for op in list(module.walk()):
            if isinstance(op, llvm_d.CallOp) and op.callee == llvm_d.SET_STREAM_DEPTH_INTRINSIC:
                op.erase()
        with pytest.raises(FPPError):
            run_fpp(module)
        # Non-strict mode tolerates it (useful while debugging lowerings).
        report = run_fpp(module, strict=False)
        assert report.streams_checked == 1

    def test_unroll_outside_loop_rejected(self):
        module = ModuleOp()
        func = FuncOp.with_body("f", [], [])
        module.add_op(func)
        func.entry_block.add_ops([CallOp(f"{UNROLL_PREFIX}2", []), ReturnOp([])])
        with pytest.raises(FPPError):
            run_fpp(module)

    def test_idempotent_on_plain_module(self):
        module = ModuleOp()
        func = FuncOp.with_body("f", [], [])
        func.entry_block.add_op(ReturnOp([]))
        module.add_op(func)
        report = run_fpp(module)
        assert report.total_directives == 0
