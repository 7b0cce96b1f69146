"""Stage 5: per-output-field compute stages, window mapping and write-back.

Steps 4–6 of §3.3: the computation of each stencil output field is split
into its own concurrently-running dataflow stage (step 4), every
``stencil.access`` offset is mapped onto the corresponding lane of the
shift-buffer window (step 5), and all ``stencil.store`` operations collapse
into a single ``write_data`` dataflow stage per wave (step 6).  With
``split_compute_per_field=False`` (ablation A1) all stages of a wave share
one compute region and one set of window streams.

The compute and write stages of each wave are *inserted at the wave's
anchor* recorded by ``stencil-wave-pipelining`` — not appended at the end —
so the resulting program order is identical to the monolithic lowering
(wave N's write precedes wave N+1's load, which the functional dataflow
simulator's in-order interpretation of chained waves requires).  Once every
wave is emitted the original stencil function is detached from the module.
"""

from __future__ import annotations

from repro.core.plan import ComputeStageSpec, StreamSpec, WavePlan, WriteFieldSpec, WriteSpec
from repro.dialects import arith, hls, llvm as llvm_d, scf, stencil
from repro.dialects.func import CallOp
from repro.ir.core import Block, BlockArgument, SSAValue
from repro.ir.types import f64
from repro.runtime.window import window_index, window_size
from repro.transforms.stencil_analysis import AnalysisError
from repro.transforms.stencil_hls.context import (
    PHASE_COMPUTED,
    PHASE_PIPELINED,
    InsertionCursor,
    StencilLoweringPass,
    WaveState,
    require_any_ready,
)


class StencilComputeSplitPass(StencilLoweringPass):
    """Emit the split compute stages and the per-wave write stage."""

    name = "stencil-compute-split"
    requires_phase = PHASE_PIPELINED
    produces_phase = PHASE_COMPUTED

    def apply(self, module) -> bool:
        lowering = self.lowering_context()
        require_any_ready(self, lowering)
        changed = False
        for state in self.ready_kernels(lowering):
            for wave in state.wave_states:
                state.plan.waves.append(self._emit_wave_compute(module, state, wave))
            # The HLS kernel fully replaces the original stencil function.
            state.source_func.detach()
            state.source_func.drop_all_references()
            # The finished plan outlives the IR: drop its last references
            # into the stencil function, so no plan (nor a design carrying
            # one) drags IR into a pickle.
            for stage in state.analysis.stages:
                stage.apply_op = None
            changed = True
        return changed

    # ------------------------------------------------------------- steps 4-6

    def _emit_wave_compute(self, module, state, wave: WaveState) -> WavePlan:
        options = state.options
        analysis = state.analysis
        wave_index = wave.index
        rank = analysis.rank
        arg_info_by_name = {a.name: a for a in analysis.arguments}
        stages = [analysis.stages[i] for i in wave.stage_indices]
        if wave.anchor is None or wave.anchor.parent is not state.entry_block:
            # The movement stages this wave anchors on were rewritten away —
            # another lowering ran in between.
            raise ValueError(
                f"stencil-compute-split: wave {wave.index} of kernel "
                f"'{state.kernel_name}' lost its dataflow anchor; a pass such "
                "as convert-hls-to-llvm ran between stencil-wave-pipelining "
                "and stencil-compute-split — reorder the pipeline spec"
            )
        cursor = InsertionCursor(state.entry_block, wave.anchor)

        compute_specs: list[ComputeStageSpec] = []
        result_streams: list[tuple[str, SSAValue]] = []  # (output field, stream)
        write_fields: list[WriteFieldSpec] = []
        if options.split_compute_per_field:
            stage_groups = [[stage] for stage in stages]
        else:
            stage_groups = [list(stages)] if stages else []

        for group_index, group in enumerate(stage_groups):
            group_streams: dict[tuple[int, int], SSAValue] = {}
            for stage in group:
                for result_index, out_field in enumerate(stage.output_fields):
                    name = f"{out_field}_result_w{wave_index}"
                    create = hls.CreateStreamOp(f64, depth=options.stream_depth, name_hint=name)
                    cursor.insert(create)
                    group_streams[(stage.index, result_index)] = create.result
                    result_streams.append((out_field, create.result))
                    state.plan.streams.append(
                        StreamSpec(
                            name=name,
                            kind="result",
                            element_bits=64,
                            depth=options.stream_depth,
                            producer=f"compute_{stage.index}",
                            consumer=f"write_data_w{wave_index}",
                        )
                    )
                    info = arg_info_by_name.get(out_field)
                    write_fields.append(
                        WriteFieldSpec(
                            field_name=out_field,
                            lower=stage.lower_bound,
                            upper=stage.upper_bound,
                            field_lower=info.lower if info is not None else (0,) * rank,
                            grid_shape=info.shape if info is not None else analysis.grid_shape,
                        )
                    )

            label = f"compute_w{wave_index}_{group_index}"
            compute_region = hls.DataflowOp(label=label)
            cursor.insert(compute_region)
            self._emit_compute_loop(
                compute_region.body,
                group,
                wave,
                group_streams,
                state,
            )
            for stage in group:
                compute_specs.append(
                    ComputeStageSpec(
                        label=f"compute_{stage.index}",
                        stage_index=stage.index,
                        wave=wave_index,
                        output_fields=list(stage.output_fields),
                        input_windows={
                            f: f"{f}_shift_w{wave_index}" for f in stage.input_fields
                        },
                        small_data=list(stage.small_data),
                        flops_per_point=stage.flops,
                        window_size=window_size(
                            rank,
                            max(wave.field_radius.get(f, 1) for f in stage.input_fields)
                            if stage.input_fields
                            else 1,
                        ),
                        domain_points=analysis.domain_points,
                        ii=options.target_ii,
                    )
                )

        # ------------------------------------------------------------- step 6
        write_callee = f"write_data_w{wave_index}"
        state.declare(module, write_callee)
        write_region = hls.DataflowOp(label=write_callee)
        cursor.insert(write_region)
        write_args = [stream for _, stream in result_streams] + [
            state.args_by_name[field_name] for field_name, _ in result_streams
        ]
        write_region.body.add_op(CallOp(write_callee, write_args))
        write_spec = WriteSpec(callee=write_callee, fields=write_fields, lanes=state.lanes)

        return WavePlan(
            index=wave_index,
            load=wave.load,
            shifts=wave.shifts,
            duplicates=wave.duplicates,
            computes=compute_specs,
            write=write_spec,
        )

    # ------------------------------------------------------- compute stage body

    def _emit_compute_loop(
        self,
        region_body: Block,
        stages,
        wave: WaveState,
        result_streams: dict[tuple[int, int], SSAValue],
        state,
    ) -> None:
        analysis = state.analysis
        domain_lower = analysis.domain_lower
        domain_upper = analysis.domain_upper
        domain_points = analysis.domain_points

        zero = arith.ConstantOp.from_index(0)
        upper = arith.ConstantOp.from_index(domain_points)
        one = arith.ConstantOp.from_index(1)
        region_body.add_ops([zero, upper, one])
        loop = scf.ForOp(zero.result, upper.result, one.result)
        region_body.add_op(loop)
        loop_body = loop.body
        loop_body.add_op(hls.PipelineOp(state.options.target_ii))
        iv = loop.induction_variable

        extents = [u - l for l, u in zip(domain_lower, domain_upper)]
        strides = []
        acc = 1
        for extent in reversed(extents):
            strides.insert(0, acc)
            acc *= extent

        dim_index_cache: dict[int, SSAValue] = {}

        def dim_index(dim: int) -> SSAValue:
            """Reconstruct the global index of dimension ``dim`` from the linear iv."""
            if dim in dim_index_cache:
                return dim_index_cache[dim]
            stride = arith.ConstantOp.from_index(strides[dim])
            extent = arith.ConstantOp.from_index(extents[dim])
            lower = arith.ConstantOp.from_index(domain_lower[dim])
            div = arith.DivsiOp(iv, stride.result)
            rem = arith.RemsiOp(div.result, extent.result)
            add = arith.AddiOp(rem.result, lower.result)
            loop_body.add_ops([stride, extent, lower, div, rem, add])
            dim_index_cache[dim] = add.result
            return add.result

        # Read every distinct window stream exactly once per iteration.  With
        # per-field splitting each group holds a single stage reading its own
        # stream copies; without splitting (ablation A1) the stages share one
        # set of window streams, so the read must be shared too.
        window_values_by_stream: dict[SSAValue, SSAValue] = {}
        stage_windows: dict[tuple[int, str], SSAValue] = {}
        for stage in stages:
            for field_name in stage.input_fields:
                stream = wave.stage_window_stream[(stage.index, field_name)]
                if stream not in window_values_by_stream:
                    read = hls.ReadOp(stream)
                    loop_body.add_op(read)
                    window_values_by_stream[stream] = read.result
                stage_windows[(stage.index, field_name)] = window_values_by_stream[stream]

        for stage in stages:
            apply_op = stage.apply_op
            assert apply_op is not None, "stencil-compute-split ran twice on a kernel"
            window_values = {
                field_name: stage_windows[(stage.index, field_name)]
                for field_name in stage.input_fields
            }

            value_map: dict[SSAValue, SSAValue] = {}
            # Map non-field operands of the apply to kernel arguments / local copies.
            for operand, block_arg in zip(apply_op.operands, apply_op.body.args):
                if isinstance(operand.type, (stencil.TempType, stencil.FieldType)):
                    continue
                name = operand.name_hint
                if isinstance(operand, BlockArgument) and name in state.args_by_name:
                    target = state.args_by_name[name]
                    local = state.local_copies.get((name, stage.index))
                    value_map[block_arg] = local if local is not None else target
                else:
                    raise AnalysisError(
                        "stencil-to-hls: non-field apply operands must be kernel "
                        "arguments (scalars or small data memrefs)"
                    )

            # Which field does each apply block argument correspond to?
            arg_field_names: dict[SSAValue, str] = {}
            for operand_index, operand in enumerate(apply_op.operands):
                if isinstance(operand.type, (stencil.TempType, stencil.FieldType)):
                    field_name = stage.input_fields[
                        sum(
                            1
                            for o in apply_op.operands[:operand_index]
                            if isinstance(o.type, (stencil.TempType, stencil.FieldType))
                        )
                    ]
                    arg_field_names[apply_op.body.args[operand_index]] = field_name

            for op in apply_op.body.ops:
                if isinstance(op, stencil.AccessOp):
                    field_name = arg_field_names[op.temp]
                    radius = wave.field_radius.get(field_name, 1)
                    lane = window_index(op.offset, radius)
                    extract = llvm_d.ExtractValueOp(window_values[field_name], [lane], f64)
                    loop_body.add_op(extract)
                    value_map[op.result] = extract.result
                elif isinstance(op, stencil.IndexOp):
                    value_map[op.result] = dim_index(op.dim)
                elif isinstance(op, stencil.ReturnOp):
                    for result_index, returned in enumerate(op.operands):
                        stream = result_streams.get((stage.index, result_index))
                        if stream is None:
                            continue
                        loop_body.add_op(hls.WriteOp(stream, value_map[returned]))
                else:
                    cloned = op.clone(value_map)
                    loop_body.add_op(cloned)
                    for old_res, new_res in zip(op.results, cloned.results):
                        value_map[old_res] = new_res

        loop_body.add_op(scf.YieldOp())
