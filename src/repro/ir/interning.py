"""Flyweight uniquing (hash-consing) of IR attributes and types.

Attributes are immutable value objects, so two structurally identical
instances are interchangeable.  The interner guarantees there is at most
*one* canonical instance per structural identity in each process:
``IntegerType(32) is IntegerType(32)`` holds, equality degenerates to a
pointer comparison on the hot path and every attribute carries a
precomputed hash.  This is the same flyweight scheme MLIR/xDSL use for
their uniqued attribute/type storage.

The interner is installed through :class:`InternedAttributeMeta` — the
metaclass of :class:`repro.ir.core.Attribute` — so *every* construction
site (dialect constructors, the parser, the builder, pickle) funnels
through it without cooperation from callers.

Interning is per-process.  Pickled attributes therefore re-intern on load
(:func:`reconstruct_interned` is the ``__reduce__`` target of
``Attribute``), which keeps identity-equality sound across the
``ProcessPoolExecutor`` workers of the evaluation matrix and across
compile-cache round-trips.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ir.core import Attribute


class InternStats:
    """Hit/miss counters of one interner (per process)."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "unique": self.misses,
            "hit_rate": self.hit_rate,
        }

    def snapshot(self) -> tuple[int, int]:
        return (self.hits, self.misses)


class AttributeInterner:
    """Uniquing table mapping structural identity to the canonical instance.

    Keys are ``(class, hashable(parameters()))``; the table owns the
    canonical instance and its key tuple.  ``intern`` is the only entry
    point: it either returns the existing canonical instance or registers
    the candidate (stamping its precomputed ``_hash``) and returns it.
    """

    __slots__ = ("_table", "stats", "_lock")

    def __init__(self) -> None:
        self._table: dict[tuple, "Attribute"] = {}
        self.stats = InternStats()
        # Identity equality relies on one canonical instance per structural
        # key; without the lock, two threads compiling concurrently (the
        # service's executor) could both miss and publish rival canonicals.
        self._lock = threading.Lock()

    def intern(self, attr: "Attribute") -> "Attribute":
        from repro.ir.core import Attribute

        key = (type(attr), Attribute._hashable(attr.parameters()))
        with self._lock:
            existing = self._table.get(key)
            if existing is not None:
                self.stats.hits += 1
                return existing
            self.stats.misses += 1
            # Stamp the precomputed hash before publication: every consumer
            # of the canonical instance sees an O(1) __hash__.
            attr.__dict__["_hash"] = hash(key)
            self._table[key] = attr
            return attr

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        """Drop the table (tests only — breaks identity of live attributes)."""
        self._table.clear()
        self.stats = InternStats()


#: The per-process interner every Attribute construction funnels through.
ATTRIBUTE_INTERNER = AttributeInterner()


def intern_stats() -> InternStats:
    """The process-wide interner's hit/miss counters."""
    return ATTRIBUTE_INTERNER.stats


class InternedAttributeMeta(type):
    """Metaclass routing attribute construction through the interner.

    ``Cls(...)`` builds the candidate (running validation in ``__init__``),
    then returns the canonical instance for its structural identity — the
    candidate is dropped on an intern hit.
    """

    def __call__(cls, *args: Any, **kwargs: Any) -> Any:
        instance = super().__call__(*args, **kwargs)
        return ATTRIBUTE_INTERNER.intern(instance)


def reconstruct_interned(cls: type, state: dict[str, Any]) -> "Attribute":
    """Pickle target: rebuild an attribute and re-intern it in this process.

    Bypasses ``__init__`` (the state was validated when first built) but
    never bypasses the interner, so unpickled attributes regain identity
    equality with locally-constructed ones — the invariant the
    process-parallel evaluation matrix relies on.
    """
    instance = object.__new__(cls)
    state.pop("_hash", None)  # recomputed (or inherited) at intern time
    instance.__dict__.update(state)
    return ATTRIBUTE_INTERNER.intern(instance)
