"""Core SSA IR data structures.

The design follows MLIR/xDSL: a *module* is an operation containing a
region, a region contains blocks, blocks contain operations, operations
use SSA values (block arguments or results of other operations) and may
themselves contain nested regions.  Attributes are immutable compile-time
data attached to operations; types are attributes carried by SSA values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from repro.ir.interning import (
    InternedAttributeMeta,
    reconstruct_interned,
    table_reduce,
)


class VerifyException(Exception):
    """Raised when IR fails structural or semantic verification."""


# ---------------------------------------------------------------------------
# Attributes
# ---------------------------------------------------------------------------


class Attribute(metaclass=InternedAttributeMeta):
    """Base class for all attributes (and therefore all types).

    Attributes are immutable value objects and are *hash-consed*: every
    construction funnels through the per-process interner (see
    :mod:`repro.ir.interning`), so structurally equal attributes are the
    same object.  Equality is therefore an identity check on the hot path
    (with a structural fallback for robustness) and ``__hash__`` returns
    the hash precomputed at intern time.
    """

    name: str = "attribute"

    def parameters(self) -> tuple:
        """Return the tuple of parameters defining this attribute's identity.

        The default derives it from the instance dictionary; underscore
        fields (e.g. the interner's precomputed ``_hash``) are excluded.
        Subclasses on hot paths override this with an explicit tuple.
        """
        return tuple(
            sorted(
                (kv for kv in self.__dict__.items() if not kv[0].startswith("_")),
                key=lambda kv: kv[0],
            )
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return type(self) is type(other) and self.parameters() == other.parameters()

    def __hash__(self) -> int:
        # Interned instances carry a precomputed hash; candidates that are
        # hashed before interning (rare) fall back to the structural hash.
        cached = self.__dict__.get("_hash")
        if cached is not None:
            return cached
        return hash((type(self), self._hashable(self.parameters())))

    def __reduce__(self) -> tuple:
        # With a shared intern table active, pickle shrinks to a digest
        # reference the reader resolves against the mapped table.
        shared = table_reduce(self)
        if shared is not None:
            return shared
        # Re-intern on unpickle: the interner is per-process, so identity
        # equality must be re-established in pool workers / cache readers.
        state = {
            k: v
            for k, v in self.__dict__.items()
            if k not in ("_hash", "_digest", "_prefer_ref")
        }
        return (reconstruct_interned, (type(self), state))

    @staticmethod
    def _hashable(obj: Any) -> Any:
        if isinstance(obj, Attribute):
            return obj
        if isinstance(obj, (list, tuple)):
            return tuple(Attribute._hashable(o) for o in obj)
        if isinstance(obj, dict):
            return tuple(sorted((k, Attribute._hashable(v)) for k, v in obj.items()))
        return obj

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        params = ", ".join(
            f"{k}={v!r}" for k, v in self.__dict__.items() if not k.startswith("_")
        )
        return f"{type(self).__name__}({params})"


class TypeAttribute(Attribute):
    """Marker base class: attributes usable as the type of an SSA value."""

    name = "type"


# ---------------------------------------------------------------------------
# Traits
# ---------------------------------------------------------------------------


class OpTrait:
    """Marker describing a structural property of an operation class."""


class IsTerminator(OpTrait):
    """The operation terminates its parent block."""


class Pure(OpTrait):
    """The operation has no side effects and may be CSE'd / DCE'd."""


class HasCanonicalizer(OpTrait):
    """The operation provides folding rules used by canonicalisation."""


# ---------------------------------------------------------------------------
# SSA values
# ---------------------------------------------------------------------------


class SSAValue:
    """A value in SSA form: either an operation result or a block argument."""

    __slots__ = ("type", "uses", "name_hint")

    def __init__(self, type: Attribute, name_hint: str | None = None) -> None:
        self.type = type
        self.uses: list[Use] = []
        self.name_hint = name_hint

    # -- use/def chain ------------------------------------------------------

    def add_use(self, use: "Use") -> None:
        self.uses.append(use)

    def remove_use(self, use: "Use") -> None:
        self.uses.remove(use)

    def replace_all_uses_with(self, new_value: "SSAValue") -> None:
        """Rewrite every user of ``self`` to use ``new_value`` instead."""
        if new_value is self:
            return
        for use in list(self.uses):
            use.operation.replace_operand(use.index, new_value)

    @property
    def num_uses(self) -> int:
        return len(self.uses)

    @property
    def users(self) -> list["Operation"]:
        return [u.operation for u in self.uses]

    def owner(self) -> "Operation | Block":
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name_hint or ''}: {self.type!r}>"


@dataclass(frozen=True)
class Use:
    """A single (operation, operand-index) use of an SSA value."""

    operation: "Operation"
    index: int

    def __hash__(self) -> int:
        return hash((id(self.operation), self.index))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Use)
            and other.operation is self.operation
            and other.index == self.index
        )


class OpResult(SSAValue):
    """SSA value produced by an operation."""

    __slots__ = ("op", "index")

    def __init__(self, type: Attribute, op: "Operation", index: int) -> None:
        super().__init__(type)
        self.op = op
        self.index = index

    def owner(self) -> "Operation":
        return self.op


class BlockArgument(SSAValue):
    """SSA value introduced as a block argument."""

    __slots__ = ("block", "index")

    def __init__(self, type: Attribute, block: "Block", index: int) -> None:
        super().__init__(type)
        self.block = block
        self.index = index

    def owner(self) -> "Block":
        return self.block


# ---------------------------------------------------------------------------
# IR nodes
# ---------------------------------------------------------------------------


class IRNode:
    """Common base for operations, blocks and regions."""

    def parent_node(self) -> "IRNode | None":
        raise NotImplementedError


class _AttributeDict(dict):
    """Operation attribute dictionary that notifies its owner on mutation.

    In-place edits (``op.attributes["x"] = ...``, ``del``, ``pop``,
    ``update``, ...) are legitimate IR mutations, so they must invalidate
    the owner's cached structural fingerprint like every other mutation
    point does.
    """

    __slots__ = ("_owner",)

    def _touch(self) -> None:
        owner = getattr(self, "_owner", None)  # unset while unpickling
        if owner is not None:
            owner.invalidate_fingerprint()

    def __setitem__(self, key: Any, value: Any) -> None:
        super().__setitem__(key, value)
        self._touch()

    def __delitem__(self, key: Any) -> None:
        super().__delitem__(key)
        self._touch()

    def update(self, *args: Any, **kwargs: Any) -> None:
        super().update(*args, **kwargs)
        self._touch()

    def __ior__(self, other: Any) -> "_AttributeDict":
        result = super().__ior__(other)
        self._touch()
        return result

    def pop(self, *args: Any) -> Any:
        result = super().pop(*args)
        self._touch()
        return result

    def popitem(self) -> tuple[Any, Any]:
        result = super().popitem()
        self._touch()
        return result

    def setdefault(self, key: Any, default: Any = None) -> Any:
        had = key in self
        result = super().setdefault(key, default)
        if not had:
            self._touch()
        return result

    def clear(self) -> None:
        super().clear()
        self._touch()


_op_counter = itertools.count()


class Operation(IRNode):
    """A generic IR operation.

    Subclasses set ``name`` and ``traits`` and typically provide a
    ``build`` classmethod plus named accessors for operands/results.
    """

    name: str = "unregistered.op"
    traits: frozenset = frozenset()

    def __init__(
        self,
        operands: Sequence[SSAValue] = (),
        result_types: Sequence[Attribute] = (),
        attributes: dict[str, Attribute] | None = None,
        regions: Sequence["Region"] | None = None,
    ) -> None:
        #: Cached structural fingerprint: ``(digest, free values)`` computed
        #: bottom-up by :mod:`repro.ir.hashing`, or ``None`` when stale.
        self._fingerprint: "tuple[str, tuple[SSAValue, ...]] | None" = None
        self._operands: list[SSAValue] = []
        self.results: list[OpResult] = [
            OpResult(t, self, i) for i, t in enumerate(result_types)
        ]
        self.attributes = attributes or {}
        self.regions: list[Region] = []
        self.parent: Block | None = None
        self._uid = next(_op_counter)
        for operand in operands:
            self._append_operand(operand)
        for region in regions or []:
            self.add_region(region)

    # -- attributes ---------------------------------------------------------

    @property
    def attributes(self) -> dict[str, Attribute]:
        return self._attributes

    @attributes.setter
    def attributes(self, value: dict[str, Attribute]) -> None:
        wrapped = _AttributeDict(value)
        wrapped._owner = self
        self._attributes = wrapped
        self.invalidate_fingerprint()

    # -- fingerprint cache --------------------------------------------------

    def invalidate_fingerprint(self) -> None:
        """Drop this op's cached structural fingerprint and its ancestors'.

        Invariant: an op with a valid cache implies every attached
        descendant's cache is valid too (the fingerprint computation fills
        them bottom-up), and an op with no cache implies its ancestors have
        none either (invalidation always walks to the root) — so the walk
        can stop early at the first already-invalid ancestor.
        """
        op: Operation | None = self
        while op is not None and op._fingerprint is not None:
            op._fingerprint = None
            op = op.parent_op()

    # -- operands -----------------------------------------------------------

    @property
    def operands(self) -> tuple[SSAValue, ...]:
        return tuple(self._operands)

    def _append_operand(self, value: SSAValue) -> None:
        if not isinstance(value, SSAValue):
            raise TypeError(
                f"operand of {self.name} must be an SSAValue, got {type(value).__name__}"
            )
        index = len(self._operands)
        self._operands.append(value)
        value.add_use(Use(self, index))

    def replace_operand(self, index: int, new_value: SSAValue) -> None:
        old = self._operands[index]
        old.remove_use(Use(self, index))
        self._operands[index] = new_value
        new_value.add_use(Use(self, index))
        self.invalidate_fingerprint()

    def set_operands(self, new_operands: Sequence[SSAValue]) -> None:
        for i, operand in enumerate(self._operands):
            operand.remove_use(Use(self, i))
        self._operands = []
        for operand in new_operands:
            self._append_operand(operand)
        self.invalidate_fingerprint()

    # -- regions ------------------------------------------------------------

    def add_region(self, region: "Region") -> "Region":
        region.parent = self
        self.regions.append(region)
        self.invalidate_fingerprint()
        return region

    @property
    def has_regions(self) -> bool:
        return bool(self.regions)

    # -- traits -------------------------------------------------------------

    @classmethod
    def has_trait(cls, trait: type) -> bool:
        return any(issubclass(t, trait) if isinstance(t, type) else isinstance(t, trait)
                   for t in cls.traits)

    @property
    def is_terminator(self) -> bool:
        return self.has_trait(IsTerminator)

    @property
    def is_pure(self) -> bool:
        return self.has_trait(Pure)

    # -- structure ----------------------------------------------------------

    def parent_node(self) -> "Block | None":
        return self.parent

    def parent_op(self) -> "Operation | None":
        if self.parent is not None and self.parent.parent is not None:
            return self.parent.parent.parent
        return None

    def parent_region(self) -> "Region | None":
        return self.parent.parent if self.parent is not None else None

    def detach(self) -> "Operation":
        """Remove this operation from its parent block without erasing it."""
        if self.parent is not None:
            self.parent._remove_op(self)
            self.parent = None
        return self

    def erase(self, *, safe: bool = True) -> None:
        """Detach and drop this operation.

        With ``safe=True`` (the default), erasing an operation whose results
        still have uses raises :class:`VerifyException`.
        """
        if safe:
            for result in self.results:
                if result.num_uses:
                    raise VerifyException(
                        f"cannot erase {self.name}: result still has "
                        f"{result.num_uses} use(s)"
                    )
        self.detach()
        self.drop_all_references()

    def drop_all_references(self) -> None:
        # The operand list is about to change; if this op is still attached
        # (callers may drop references without erasing), the ancestor spine's
        # cached fingerprints go stale too.
        self.invalidate_fingerprint()
        for i, operand in enumerate(self._operands):
            operand.remove_use(Use(self, i))
        self._operands = []
        for region in self.regions:
            for block in region.blocks:
                for op in list(block.ops):
                    op.drop_all_references()

    def walk(self, *, reverse: bool = False) -> Iterator["Operation"]:
        """Yield this operation and all nested operations, pre-order."""
        yield self
        regions = reversed(self.regions) if reverse else self.regions
        for region in regions:
            blocks = reversed(region.blocks) if reverse else region.blocks
            for block in blocks:
                ops = reversed(list(block.ops)) if reverse else list(block.ops)
                for op in ops:
                    yield from op.walk(reverse=reverse)

    def walk_type(self, op_type: type) -> Iterator["Operation"]:
        for op in self.walk():
            if isinstance(op, op_type):
                yield op

    # -- convenience --------------------------------------------------------

    @property
    def result(self) -> OpResult:
        if len(self.results) != 1:
            raise ValueError(f"{self.name} has {len(self.results)} results, expected 1")
        return self.results[0]

    def get_attr(self, name: str, default: Any = None) -> Any:
        return self.attributes.get(name, default)

    def clone(self, value_map: dict[SSAValue, SSAValue] | None = None) -> "Operation":
        """Deep-copy this operation (and nested regions), remapping operands.

        ``value_map`` maps old SSA values to their replacements; cloned
        results and block arguments are added to the map so nested uses are
        remapped consistently.
        """
        value_map = value_map if value_map is not None else {}
        new_operands = [value_map.get(o, o) for o in self._operands]
        cloned = object.__new__(type(self))
        Operation.__init__(
            cloned,
            operands=new_operands,
            result_types=[r.type for r in self.results],
            attributes=dict(self.attributes),
        )
        for old_res, new_res in zip(self.results, cloned.results):
            new_res.name_hint = old_res.name_hint
            value_map[old_res] = new_res
        for region in self.regions:
            cloned.add_region(region.clone(value_map))
        return cloned

    def verify_(self) -> None:
        """Hook for per-operation verification; subclasses may override."""

    # No ``__eq__``: the inherited identity check stays in C, so the
    # ``list.index``/``list.remove`` of block surgery never call into Python.
    def __hash__(self) -> int:
        return self._uid

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name} #{self._uid}>"


class Block(IRNode):
    """A straight-line sequence of operations with typed block arguments."""

    def __init__(self, arg_types: Sequence[Attribute] = ()) -> None:
        self.args: list[BlockArgument] = [
            BlockArgument(t, self, i) for i, t in enumerate(arg_types)
        ]
        self._ops: list[Operation] = []
        self.parent: Region | None = None

    # -- arguments ----------------------------------------------------------

    def add_arg(self, type: Attribute, name_hint: str | None = None) -> BlockArgument:
        arg = BlockArgument(type, self, len(self.args))
        arg.name_hint = name_hint
        self.args.append(arg)
        self._invalidate_owner_fingerprint()
        return arg

    def erase_arg(self, arg: BlockArgument) -> None:
        if arg.num_uses:
            raise VerifyException("cannot erase a block argument that still has uses")
        self.args.remove(arg)
        for i, a in enumerate(self.args):
            a.index = i
        self._invalidate_owner_fingerprint()

    def _invalidate_owner_fingerprint(self) -> None:
        """A structural change in this block invalidates the owning op chain."""
        owner = self.parent_op()
        if owner is not None:
            owner.invalidate_fingerprint()

    # -- operations ---------------------------------------------------------

    @property
    def ops(self) -> tuple[Operation, ...]:
        return tuple(self._ops)

    @property
    def first_op(self) -> Operation | None:
        return self._ops[0] if self._ops else None

    @property
    def last_op(self) -> Operation | None:
        return self._ops[-1] if self._ops else None

    @property
    def terminator(self) -> Operation | None:
        last = self.last_op
        return last if last is not None and last.is_terminator else None

    def add_op(self, op: Operation) -> Operation:
        return self.insert_op(op, len(self._ops))

    def add_ops(self, ops: Iterable[Operation]) -> None:
        for op in ops:
            self.add_op(op)

    def insert_op(self, op: Operation, index: int) -> Operation:
        if op.parent is not None:
            raise VerifyException("operation already attached to a block")
        self._ops.insert(index, op)
        op.parent = self
        self._invalidate_owner_fingerprint()
        return op

    def insert_op_before(self, op: Operation, anchor: Operation) -> Operation:
        return self.insert_op(op, self._ops.index(anchor))

    def insert_op_after(self, op: Operation, anchor: Operation) -> Operation:
        return self.insert_op(op, self._ops.index(anchor) + 1)

    def index_of(self, op: Operation) -> int:
        return self._ops.index(op)

    def _remove_op(self, op: Operation) -> None:
        self._ops.remove(op)
        self._invalidate_owner_fingerprint()

    def walk(self) -> Iterator[Operation]:
        for op in list(self._ops):
            yield from op.walk()

    def parent_node(self) -> "Region | None":
        return self.parent

    def parent_op(self) -> Operation | None:
        return self.parent.parent if self.parent is not None else None

    def clone(self, value_map: dict[SSAValue, SSAValue] | None = None) -> "Block":
        value_map = value_map if value_map is not None else {}
        new_block = Block([a.type for a in self.args])
        for old_arg, new_arg in zip(self.args, new_block.args):
            new_arg.name_hint = old_arg.name_hint
            value_map[old_arg] = new_arg
        for op in self._ops:
            new_block.add_op(op.clone(value_map))
        return new_block

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Block args={len(self.args)} ops={len(self._ops)}>"


class Region(IRNode):
    """A list of blocks owned by an operation."""

    def __init__(self, blocks: Sequence[Block] | None = None) -> None:
        self.blocks: list[Block] = []
        self.parent: Operation | None = None
        for block in blocks or []:
            self.add_block(block)

    @classmethod
    def from_ops(cls, ops: Sequence[Operation], arg_types: Sequence[Attribute] = ()) -> "Region":
        block = Block(arg_types)
        block.add_ops(ops)
        return cls([block])

    @property
    def block(self) -> Block:
        if len(self.blocks) != 1:
            raise ValueError(f"region has {len(self.blocks)} blocks, expected 1")
        return self.blocks[0]

    @property
    def first_block(self) -> Block | None:
        return self.blocks[0] if self.blocks else None

    def add_block(self, block: Block) -> Block:
        block.parent = self
        self.blocks.append(block)
        if self.parent is not None:
            self.parent.invalidate_fingerprint()
        return block

    def walk(self) -> Iterator[Operation]:
        for block in self.blocks:
            yield from block.walk()

    def parent_node(self) -> Operation | None:
        return self.parent

    def clone(self, value_map: dict[SSAValue, SSAValue] | None = None) -> "Region":
        value_map = value_map if value_map is not None else {}
        return Region([b.clone(value_map) for b in self.blocks])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Region blocks={len(self.blocks)}>"
