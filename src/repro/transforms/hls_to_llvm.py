"""Lowering of the HLS dialect to annotated LLVM-dialect IR (§3.2).

Following the approach of Fortran-HLS that the paper adopts, HLS directives
are encoded as calls to void functions (they act as annotations and do not
perturb the structure of the IR); the ``f++`` preprocessing step
(:mod:`repro.fpp`) later pattern-matches those calls and turns them into the
intrinsics / metadata the AMD Xilinx backend expects.

Streams are lowered to the only form the Vitis backend accepts as legal:

* the stream value becomes a pointer to a single-element struct whose
  element type is the stream's element type, and
* the ``llvm.fpga.set.stream.depth`` intrinsic is called on a pointer to the
  first struct element, obtained through ``getelementptr`` with offset
  ``[0, 0]``.

Dataflow regions are outlined into stage functions called from the kernel
(this is the structure Vitis HLS expects for ``#pragma HLS dataflow``).
"""

from __future__ import annotations

from repro.ir.core import Block, Operation, SSAValue
from repro.ir.passes import ModulePass
from repro.ir.attributes import StringAttr, UnitAttr
from repro.ir.types import LLVMStructType, i32
from repro.dialects import hls, llvm as llvm_d
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import CallOp, FuncOp, ReturnOp

#: Prefix used for all directive-encoding annotation functions.
ANNOTATION_PREFIX = "_hls_"

PIPELINE_PREFIX = f"{ANNOTATION_PREFIX}pipeline_ii_"
UNROLL_PREFIX = f"{ANNOTATION_PREFIX}unroll_factor_"
DATAFLOW_ANNOTATION = f"{ANNOTATION_PREFIX}dataflow"
INTERFACE_ANNOTATION = f"{ANNOTATION_PREFIX}interface"
ARRAY_PARTITION_PREFIX = f"{ANNOTATION_PREFIX}array_partition_"
FIFO_READ = "llvm.fpga.fifo.pop"
FIFO_WRITE = "llvm.fpga.fifo.push"
FIFO_EMPTY = "llvm.fpga.fifo.empty"
FIFO_FULL = "llvm.fpga.fifo.full"


class HLSToLLVMPass(ModulePass):
    """Lower every HLS-dialect construct of the module to LLVM-dialect form."""

    name = "convert-hls-to-llvm"

    def __init__(self) -> None:
        self._declared: set[str] = set()
        self._outline_counter = 0

    def apply(self, module: ModuleOp) -> bool:
        self._declared = {
            op.sym_name for op in module.body.ops if isinstance(op, FuncOp) and op.is_declaration
        }
        changed = False
        for func in list(module.walk_type(FuncOp)):
            if func.is_declaration:
                continue
            if "hls.kernel" in func.attributes or any(
                isinstance(op, hls.DIALECT_OPERATIONS) for op in func.walk()
            ):
                self._lower_function(module, func)
                changed = True
        return changed

    # -- helpers -----------------------------------------------------------------

    def _declare(self, module: ModuleOp, name: str) -> None:
        if name in self._declared:
            return
        module.add_op(FuncOp.declaration(name, [], []))
        self._declared.add(name)

    # -- per-function lowering ------------------------------------------------------

    def _lower_function(self, module: ModuleOp, func: FuncOp) -> None:
        # 1. Outline dataflow regions into stage functions first (they may
        #    contain further HLS operations which are lowered afterwards).
        has_dataflow = any(isinstance(op, hls.DataflowOp) for op in func.walk())
        if has_dataflow:
            self._outline_dataflow_regions(module, func)
            self._declare(module, DATAFLOW_ANNOTATION)
            func.entry_block.insert_op(CallOp(DATAFLOW_ANNOTATION, []), 0)

        # 2. Lower the remaining HLS operations everywhere in the module (the
        #    outlined stage functions included).
        for target in list(module.walk_type(FuncOp)):
            if target.is_declaration:
                continue
            self._lower_ops(module, target)

    # -- dataflow outlining ------------------------------------------------------------

    def _outline_dataflow_regions(self, module: ModuleOp, func: FuncOp) -> None:
        for op in list(func.walk_type(hls.DataflowOp)):
            self._outline_one(module, func, op)

    def _outline_one(self, module: ModuleOp, func: FuncOp, dataflow: hls.DataflowOp) -> None:
        body = dataflow.body
        # Values defined outside the region but used inside become parameters.
        inner_ops = list(body.walk())
        inner_results = {res for op in inner_ops for res in op.results}
        inner_blocks = {body}
        for op in inner_ops:
            for region in op.regions:
                inner_blocks.update(region.blocks)
        captured: list[SSAValue] = []
        for op in inner_ops:
            for operand in op.operands:
                if operand in inner_results:
                    continue
                owner = operand.owner()
                if isinstance(owner, Block) and owner in inner_blocks:
                    continue
                if operand not in captured:
                    captured.append(operand)

        label = dataflow.label or f"stage_{self._outline_counter}"
        self._outline_counter += 1
        stage_name = f"{func.sym_name}_{label}"
        stage_func = FuncOp.with_body(stage_name, [v.type for v in captured], [],
                                      attributes={"hls.dataflow_stage": UnitAttr()})
        for arg, value in zip(stage_func.entry_block.args, captured):
            arg.name_hint = value.name_hint
        # Rebind the body's uses of captured values to the stage arguments
        # (in walk order, so each argument's uses are in program order),
        # then move the ops themselves.
        arg_of = dict(zip(captured, stage_func.entry_block.args))
        for op in inner_ops:
            for index, operand in enumerate(op.operands):
                arg = arg_of.get(operand)
                if arg is not None:
                    op.replace_operand(index, arg)
        for op in list(body.ops):
            stage_func.entry_block.add_op(op.detach())
        stage_func.entry_block.add_op(ReturnOp())
        module.add_op(stage_func)

        call = CallOp(stage_name, captured)
        dataflow.parent.insert_op_before(call, dataflow)
        dataflow.erase()

    # -- op-by-op lowering -----------------------------------------------------------------

    def _lower_ops(self, module: ModuleOp, func: FuncOp) -> None:
        for op in list(func.walk()):
            if op.parent is None:
                continue
            if isinstance(op, hls.CreateStreamOp):
                self._lower_create_stream(module, op)
            elif isinstance(op, hls.ReadOp):
                self._lower_simple_call(module, op, FIFO_READ, [op.stream], [op.result.type])
            elif isinstance(op, hls.WriteOp):
                self._lower_simple_call(module, op, FIFO_WRITE, [op.value, op.stream], [])
            elif isinstance(op, hls.EmptyOp):
                self._lower_simple_call(module, op, FIFO_EMPTY, [op.stream], [op.result.type])
            elif isinstance(op, hls.FullOp):
                self._lower_simple_call(module, op, FIFO_FULL, [op.stream], [op.result.type])
            elif isinstance(op, hls.PipelineOp):
                self._lower_annotation(module, op, f"{PIPELINE_PREFIX}{op.ii}")
            elif isinstance(op, hls.UnrollOp):
                self._lower_annotation(module, op, f"{UNROLL_PREFIX}{op.factor}")
            elif isinstance(op, hls.ArrayPartitionOp):
                self._lower_annotation(module, op, f"{ARRAY_PARTITION_PREFIX}{op.kind}")
            elif isinstance(op, hls.InterfaceOp):
                self._lower_interface(module, op)

    def _lower_create_stream(self, module: ModuleOp, op: hls.CreateStreamOp) -> None:
        block = op.parent
        element_type = op.element_type
        struct_type = LLVMStructType([element_type])
        one = llvm_d.ConstantOp(1, i32)
        alloca = llvm_d.AllocaOp(one.result, struct_type)
        alloca.result.name_hint = op.result.name_hint
        gep = llvm_d.GEPOp(alloca.result, [0, 0], element_type)
        depth = llvm_d.ConstantOp(op.depth, i32)
        set_depth = llvm_d.CallOp(llvm_d.SET_STREAM_DEPTH_INTRINSIC, [gep.result, depth.result])
        for new_op in (one, alloca, gep, depth, set_depth):
            block.insert_op_before(new_op, op)
        op.result.replace_all_uses_with(alloca.result)
        op.erase()

    def _lower_simple_call(self, module: ModuleOp, op: Operation, callee: str,
                           operands: list[SSAValue], result_types: list) -> None:
        self._declare(module, callee)
        call = llvm_d.CallOp(callee, operands, result_types)
        block = op.parent
        block.insert_op_before(call, op)
        for old_res, new_res in zip(op.results, call.results):
            old_res.replace_all_uses_with(new_res)
        op.erase()

    def _lower_annotation(self, module: ModuleOp, op: Operation, callee: str) -> None:
        """Directives become calls to empty void functions with no arguments."""
        self._declare(module, callee)
        call = CallOp(callee, [])
        op.parent.insert_op_before(call, op)
        op.erase(safe=False)

    def _lower_interface(self, module: ModuleOp, op: hls.InterfaceOp) -> None:
        self._declare(module, INTERFACE_ANNOTATION)
        call = CallOp(INTERFACE_ANNOTATION, [op.argument])
        call.attributes["protocol"] = StringAttr(op.protocol)
        call.attributes["bundle"] = StringAttr(op.bundle)
        op.parent.insert_op_before(call, op)
        op.erase()
