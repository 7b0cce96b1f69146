"""Analysis of stencil-dialect kernels.

This performs step 1 of the Stencil-HMLS transformation — classification of
kernel arguments into stencil field inputs, stencil field outputs and
constants (scalars and small data arrays) — plus the structural analysis
(per-apply access offsets, inter-stencil dependencies, dataflow waves) that
the FPGA lowering, the baselines' behavioural models and the performance
model all rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.ir.core import BlockArgument, OpResult, SSAValue
from repro.dialects import stencil
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp
from repro.ir.types import FloatType, MemRefType
from repro.dialects.stencil import FieldType


class AnalysisError(Exception):
    """Raised when a kernel does not have the structure the flow expects."""


@dataclass
class ArgumentInfo:
    """Classification of one kernel argument (step 1 of §3.3)."""

    index: int
    name: str
    kind: str               # 'field_input' | 'field_output' | 'small_data' | 'scalar'
    element_bits: int = 64
    num_elements: int = 0    # static element count for fields / small data
    shape: tuple[int, ...] = ()
    lower: tuple[int, ...] = ()

    @property
    def is_field(self) -> bool:
        return self.kind in ("field_input", "field_output")


@dataclass
class StencilStageInfo:
    """One ``stencil.apply`` + the stores consuming its results."""

    index: int
    #: ``None`` once the stencil lowering has consumed it (see
    #: ``stencil-compute-split``), so finished plans hold no IR.
    apply_op: stencil.ApplyOp | None
    output_args: list[str] = field(default_factory=list)     # kernel args written
    output_fields: list[str] = field(default_factory=list)   # field names written (incl. temps)
    input_fields: list[str] = field(default_factory=list)    # field names read
    input_args: list[str] = field(default_factory=list)      # kernel args read
    small_data: list[str] = field(default_factory=list)
    scalars: list[str] = field(default_factory=list)
    offsets: dict[str, list[tuple[int, ...]]] = field(default_factory=dict)
    lower_bound: tuple[int, ...] = ()
    upper_bound: tuple[int, ...] = ()
    depends_on: list[int] = field(default_factory=list)      # indices of earlier stages
    flops: int = 0

    @property
    def domain_points(self) -> int:
        total = 1
        for lo, hi in zip(self.lower_bound, self.upper_bound):
            total *= max(hi - lo, 0)
        return total

    def window_size(self, radius: int | None = None) -> int:
        """Number of stencil values the shift buffer must provide per point."""
        rank = len(self.lower_bound) or 3
        if radius is None:
            radius = self.radius
        return (2 * radius + 1) ** rank

    @property
    def radius(self) -> int:
        r = 0
        for offs in self.offsets.values():
            for off in offs:
                for component in off:
                    r = max(r, abs(component))
        return r


@dataclass
class StencilKernelAnalysis:
    """Full analysis of a stencil kernel function."""

    func_name: str
    arguments: list[ArgumentInfo]
    stages: list[StencilStageInfo]
    rank: int
    grid_shape: tuple[int, ...]
    domain_lower: tuple[int, ...]
    domain_upper: tuple[int, ...]

    # -- argument queries ------------------------------------------------------

    def args_of_kind(self, kind: str) -> list[ArgumentInfo]:
        return [a for a in self.arguments if a.kind == kind]

    @property
    def field_inputs(self) -> list[ArgumentInfo]:
        return self.args_of_kind("field_input")

    @property
    def field_outputs(self) -> list[ArgumentInfo]:
        return self.args_of_kind("field_output")

    @property
    def small_data(self) -> list[ArgumentInfo]:
        return self.args_of_kind("small_data")

    @property
    def scalars(self) -> list[ArgumentInfo]:
        return self.args_of_kind("scalar")

    @property
    def num_field_ports(self) -> int:
        """AXI ports needed for field arguments (one per field)."""
        return len(self.field_inputs) + len(self.field_outputs)

    def ports_per_cu(self, bundle_small_data: bool = True) -> int:
        """m_axi ports per compute unit (scalars go over s_axilite, not ports).

        The paper's PW advection mapping: one port per field plus one port
        shared by all the small data (7 for PW advection).  With
        ``bundle_small_data=False`` every memory argument gets its own port
        (the tracer advection mapping: 17 ports).
        """
        ports = self.num_field_ports
        if self.small_data:
            ports += 1 if bundle_small_data else len(self.small_data)
        return ports

    # -- stage / dependency queries -------------------------------------------

    @property
    def num_stencil_stages(self) -> int:
        return len(self.stages)

    @property
    def domain_points(self) -> int:
        total = 1
        for lo, hi in zip(self.domain_lower, self.domain_upper):
            total *= max(hi - lo, 0)
        return total

    @property
    def total_grid_points(self) -> int:
        total = 1
        for extent in self.grid_shape:
            total *= extent
        return total

    def dependency_waves(self) -> list[list[int]]:
        """Group stages into topological waves.

        Stages in the same wave have no dependencies between them and can run
        as concurrent dataflow stages; consecutive waves must run
        back-to-back.  For PW advection all stages land in a single wave; the
        tracer advection chains produce many waves, which is why the paper's
        advantage shrinks there.
        """
        remaining = set(range(len(self.stages)))
        assigned: dict[int, int] = {}
        waves: list[list[int]] = []
        while remaining:
            wave = [
                i
                for i in sorted(remaining)
                if all(dep in assigned for dep in self.stages[i].depends_on)
            ]
            if not wave:
                raise AnalysisError("cyclic dependency between stencil stages")
            for i in wave:
                assigned[i] = len(waves)
            waves.append(wave)
            remaining -= set(wave)
        return waves

    @property
    def num_waves(self) -> int:
        return len(self.dependency_waves())

    @property
    def max_radius(self) -> int:
        return max((s.radius for s in self.stages), default=0)

    @property
    def total_flops_per_point(self) -> int:
        return sum(s.flops for s in self.stages)


# ---------------------------------------------------------------------------
# Analysis implementation
# ---------------------------------------------------------------------------

_FLOP_OPS = {
    "arith.addf", "arith.subf", "arith.mulf", "arith.divf", "arith.negf",
    "arith.maximumf", "arith.minimumf", "math.sqrt", "math.exp", "math.log",
    "math.absf", "math.powf", "math.fma", "math.sin", "math.cos", "math.tanh",
}


def _arg_name(arg: SSAValue, index: int) -> str:
    return arg.name_hint or f"arg{index}"


def _trace_to_argument(value: SSAValue) -> BlockArgument | None:
    """Follow external_load/load/cast chains back to the kernel argument."""
    current = value
    for _ in range(32):
        if isinstance(current, BlockArgument):
            return current
        if isinstance(current, OpResult):
            op = current.op
            if isinstance(op, (stencil.ExternalLoadOp, stencil.LoadOp, stencil.CastOp)):
                current = op.operands[0]
                continue
        return None
    return None


def analyse_stencil_function(func: FuncOp) -> StencilKernelAnalysis:
    """Analyse a stencil-dialect kernel function (see module docstring)."""
    entry = func.entry_block
    arg_names = {arg: _arg_name(arg, i) for i, arg in enumerate(entry.args)}

    # -- collect stores per apply result and field usage -----------------------
    stores = list(func.walk_type(stencil.StoreOp))
    external_stores = list(func.walk_type(stencil.ExternalStoreOp))
    applies = list(func.walk_type(stencil.ApplyOp))
    if not applies:
        raise AnalysisError(f"function '{func.sym_name}' contains no stencil.apply")

    written_args: set[BlockArgument] = set()
    for store in stores:
        arg = _trace_to_argument(store.field)
        if arg is not None:
            written_args.add(arg)
    for estore in external_stores:
        arg = _trace_to_argument(estore.target)
        if arg is not None:
            written_args.add(arg)

    read_args: set[BlockArgument] = set()
    for apply_op in applies:
        for operand in apply_op.operands:
            arg = _trace_to_argument(operand)
            if arg is not None:
                read_args.add(arg)

    # -- argument classification (step 1) ---------------------------------------
    arguments: list[ArgumentInfo] = []
    rank = 0
    grid_shape: tuple[int, ...] = ()
    for i, arg in enumerate(entry.args):
        name = arg_names[arg]
        arg_type = arg.type
        field_like = None
        for user in arg.users:
            if isinstance(user, stencil.ExternalLoadOp):
                field_like = user.result.type
                break
        if isinstance(arg_type, FieldType):
            field_like = arg_type
        if field_like is not None and field_like.rank >= 2:
            kind = "field_output" if arg in written_args else "field_input"
            if field_like.rank > rank:
                rank = field_like.rank
                grid_shape = field_like.shape
            arguments.append(
                ArgumentInfo(i, name, kind, element_bits=_element_bits(field_like.element_type),
                             num_elements=field_like.num_elements,
                             shape=field_like.shape,
                             lower=tuple(lb for lb, _ in field_like.bounds))
            )
        elif isinstance(arg_type, MemRefType) and arg_type.rank >= 2 and arg in (read_args | written_args) and field_like is None:
            # A multi-dimensional memref used directly (rare): treat as a field.
            kind = "field_output" if arg in written_args else "field_input"
            arguments.append(
                ArgumentInfo(i, name, kind, element_bits=_element_bits(arg_type.element_type),
                             num_elements=arg_type.num_elements if arg_type.has_static_shape else 0,
                             shape=arg_type.shape,
                             lower=(0,) * arg_type.rank)
            )
        elif isinstance(arg_type, MemRefType) or (field_like is not None and field_like.rank < 2):
            count = 0
            shape: tuple[int, ...] = ()
            if isinstance(arg_type, MemRefType) and arg_type.has_static_shape:
                count = arg_type.num_elements
                shape = arg_type.shape
            elif field_like is not None:
                count = field_like.num_elements
                shape = field_like.shape
            arguments.append(
                ArgumentInfo(i, name, "small_data",
                             element_bits=_element_bits(getattr(arg_type, "element_type", None) or field_like.element_type),
                             num_elements=count,
                             shape=shape,
                             lower=(0,) * len(shape))
            )
        else:
            arguments.append(ArgumentInfo(i, name, "scalar", element_bits=_element_bits(arg_type), num_elements=1))

    arg_info_by_name = {a.name: a for a in arguments}

    # -- per-stage analysis ------------------------------------------------------
    stage_by_result: dict[SSAValue, int] = {}
    stages: list[StencilStageInfo] = []
    domain_lower: tuple[int, ...] = ()
    domain_upper: tuple[int, ...] = ()

    # Map apply results to the field (argument or intermediate) they are stored to.
    result_field_names: dict[SSAValue, str] = {}
    for store in stores:
        arg = _trace_to_argument(store.field)
        field_name = arg_names.get(arg) if arg is not None else _value_name(store.field)
        result_field_names[store.temp] = field_name

    for stage_index, apply_op in enumerate(applies):
        info = StencilStageInfo(index=stage_index, apply_op=apply_op)
        # Outputs: where results get stored.
        for result in apply_op.results:
            for store in stores:
                if store.temp is result:
                    arg = _trace_to_argument(store.field)
                    name = arg_names.get(arg) if arg is not None else _value_name(store.field)
                    info.output_fields.append(name)
                    if arg is not None and arg_names[arg] in arg_info_by_name:
                        info.output_args.append(arg_names[arg])
                    if not info.lower_bound:
                        info.lower_bound = store.lower_bound
                        info.upper_bound = store.upper_bound
        # Inputs: operands of the apply.
        for operand_index, operand in enumerate(apply_op.operands):
            arg = _trace_to_argument(operand)
            name = arg_names.get(arg) if arg is not None else _value_name(operand)
            operand_type = operand.type
            block_arg = apply_op.body.args[operand_index]
            offsets = sorted(
                {a.offset for a in apply_op.walk_type(stencil.AccessOp) if a.temp is block_arg}
            )
            if isinstance(operand_type, (stencil.TempType, FieldType)):
                info.input_fields.append(name)
                if arg is not None:
                    info.input_args.append(name)
                info.offsets[name] = [tuple(o) for o in offsets]
                # Dependency on an earlier apply producing this temp?
                if isinstance(operand, OpResult) and isinstance(operand.op, stencil.ApplyOp):
                    producer_index = applies.index(operand.op)
                    if producer_index not in info.depends_on:
                        info.depends_on.append(producer_index)
            elif isinstance(operand_type, MemRefType):
                info.small_data.append(name)
            else:
                info.scalars.append(name)
        # Dependencies through intermediate fields written by earlier stages.
        for earlier in stages:
            if set(earlier.output_fields) & set(info.input_fields):
                if earlier.index not in info.depends_on:
                    info.depends_on.append(earlier.index)
        # Arithmetic intensity.
        info.flops = sum(1 for op in apply_op.walk() if op.name in _FLOP_OPS)
        for result in apply_op.results:
            stage_by_result[result] = stage_index
        stages.append(info)
        if info.lower_bound and (not domain_lower or info.domain_points > _box_points_count(domain_lower, domain_upper)):
            domain_lower, domain_upper = info.lower_bound, info.upper_bound

    if rank == 0 and stages:
        rank = len(stages[0].lower_bound)

    return StencilKernelAnalysis(
        func_name=func.sym_name,
        arguments=arguments,
        stages=stages,
        rank=rank,
        grid_shape=grid_shape,
        domain_lower=domain_lower,
        domain_upper=domain_upper,
    )


def analyse_module(module: ModuleOp, func_name: str | None = None) -> StencilKernelAnalysis:
    """Analyse the (single or named) stencil kernel function of a module."""
    funcs = [op for op in module.body.ops if isinstance(op, FuncOp) and not op.is_declaration]
    if func_name is not None:
        funcs = [f for f in funcs if f.sym_name == func_name]
    stencil_funcs = [f for f in funcs if any(True for _ in f.walk_type(stencil.ApplyOp))]
    if not stencil_funcs:
        raise AnalysisError("module contains no stencil kernel function")
    if len(stencil_funcs) > 1 and func_name is None:
        raise AnalysisError(
            "module contains multiple stencil kernels; pass func_name explicitly"
        )
    return analyse_stencil_function(stencil_funcs[0])


def _element_bits(type_) -> int:
    if isinstance(type_, FloatType):
        return type_.width
    width = getattr(type_, "width", None)
    return int(width) if width else 64


def _value_name(value: SSAValue) -> str:
    if value.name_hint:
        return value.name_hint
    if isinstance(value, OpResult):
        return f"{value.op.name.split('.')[-1]}_{value.op._uid}_{value.index}"
    return "value"


def _box_points_count(lb: Sequence[int], ub: Sequence[int]) -> int:
    total = 1
    for lo, hi in zip(lb, ub):
        total *= max(hi - lo, 0)
    return total
