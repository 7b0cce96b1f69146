"""Content-addressed compile-session cache.

Entries are keyed by a :class:`CacheKey` — the canonical module hash
(:func:`repro.ir.hashing.module_hash`), the *canonicalised* pass-pipeline
spec (:func:`repro.ir.pass_registry.canonical_pipeline_spec`, so option
differences such as ``stencil-to-hls{pack=0}`` vs ``{pack=1}`` can never
collide), a fingerprint of the compiler options and a free-form ``extra``
discriminator (device, clock, framework, …) — plus a *stage* name, so the
compiler can reuse per-stage artefacts independently:

* ``middle-end``  — device-independent pass-pipeline output
  (HLS/LLVM modules, dataflow plans, f++ report, pass statistics)
* ``synthesis``   — the device-specific :class:`KernelDesign`
* ``result``      — a whole evaluation-harness :class:`FrameworkResult`

The cache is tiered: a per-process in-memory store, an optional on-disk
tier under ``cache_dir`` (written atomically so parallel evaluation
workers can share one directory), and an optional *shared network tier*
under ``remote_dir`` — any filesystem path several machines can mount
(NFS, sshfs, a synced directory).  The remote tier is
read-through/write-back: a local miss that hits the remote tier copies
the artefact into the local tier, and fresh local stores are published
back with the same atomic temp-file-then-rename protocol, so concurrent
writers on different machines never observe torn entries.  Keys are
content hashes, so cross-machine and cross-user dedup needs no
coordination at all.  Hit/miss/store counts are recorded per stage and
surfaced by ``--timing`` / the bench CLI.

Storage format
--------------

Every tier holds *bytes only*: one pickle of the value.  :meth:`put`
serialises once and hands the same payload to memory, disk and remote;
:meth:`get` unpickles once, so every hit is a fresh private object that
the caller may mutate freely, and mutating a value after ``put`` never
changes what is stored.  No caller clones on the way in or out.

On disk and on the remote tier each entry (``<digest>.pkl``) is framed
as a magic string, the CRC-32 of the payload, then the payload.  Every
disk/remote read checks both; a flipped byte, a truncated file or an
entry written in an older format counts in ``errors`` and is a miss, so
the artefact is recomputed rather than served wrong.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys
import tempfile
import threading
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Pickling an IR module recurses through its use-def web, whose depth grows
#: with program length; the default interpreter limit (1000) is too small for
#: the larger benchmark kernels.
_PICKLE_RECURSION_LIMIT = 100_000

_recursion_lock = threading.Lock()
_recursion_floor_set = False


def _ensure_pickle_recursion_floor() -> None:
    """Raise the process recursion limit to the pickling floor, once.

    A set-once floor (never lowered, never restored) is reentrancy-safe:
    the previous save/mutate/restore dance could clobber a parallel
    caller's restore and leave the process at an arbitrary limit.
    """
    global _recursion_floor_set
    if _recursion_floor_set:
        return
    with _recursion_lock:
        if _recursion_floor_set:
            return
        if sys.getrecursionlimit() < _PICKLE_RECURSION_LIMIT:
            sys.setrecursionlimit(_PICKLE_RECURSION_LIMIT)
        _recursion_floor_set = True


#: Disk/remote entry frame: magic, then the payload's CRC-32 (u32 LE).
_ENTRY_MAGIC = b"SHMLS-C1"
_ENTRY_CRC = struct.Struct("<I")
_ENTRY_HEADER_SIZE = len(_ENTRY_MAGIC) + _ENTRY_CRC.size


def _entry_header(payload: bytes | memoryview) -> bytes:
    return _ENTRY_MAGIC + _ENTRY_CRC.pack(zlib.crc32(payload))


def _entry_payload(entry: bytes) -> memoryview | None:
    """The verified payload of a framed entry; ``None`` if the magic or the
    CRC does not match (a corrupt, truncated or older-format entry)."""
    if len(entry) < _ENTRY_HEADER_SIZE or not entry.startswith(_ENTRY_MAGIC):
        return None
    (crc,) = _ENTRY_CRC.unpack_from(entry, len(_ENTRY_MAGIC))
    payload = memoryview(entry)[_ENTRY_HEADER_SIZE:]
    return payload if zlib.crc32(payload) == crc else None


@dataclass(frozen=True)
class CacheKey:
    """Content address of one compilation session.

    Keys are value objects; :meth:`digest` mixes in the *stage* name so
    one session can store several independent artefacts.  They serialise
    losslessly to JSON (:meth:`as_dict` / :meth:`from_dict`), which is how
    the orchestrator's resumability manifest records completed cases.

    >>> key = CacheKey(module_hash="abc", pipeline="canonicalize")
    >>> CacheKey.from_dict(key.as_dict()) == key
    True
    >>> key.digest("result") == key.digest("result")
    True
    >>> key.digest("result") != key.digest("middle-end")
    True
    """

    module_hash: str
    pipeline: str = ""
    options: str = ""
    extra: str = ""

    def digest(self, stage: str) -> str:
        """Stable hex digest of this key for one stage name."""
        from repro.ir.hashing import fingerprint_text

        return fingerprint_text(
            "\x1f".join((stage, self.module_hash, self.pipeline, self.options, self.extra))
        )

    def as_dict(self) -> dict[str, str]:
        """This key as a JSON-safe dict (the manifest export form)."""
        return {
            "module_hash": self.module_hash,
            "pipeline": self.pipeline,
            "options": self.options,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, entry: dict[str, str]) -> "CacheKey":
        """Rebuild a key exported by :meth:`as_dict`."""
        return cls(
            module_hash=entry["module_hash"],
            pipeline=entry.get("pipeline", ""),
            options=entry.get("options", ""),
            extra=entry.get("extra", ""),
        )


@dataclass
class CacheStats:
    """Per-stage hit/miss/store counters."""

    hits: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    misses: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    stores: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    errors: int = 0
    #: Presence checks answered by :meth:`CompileCache.probe` (which never
    #: touch the hit/miss counters — they restore nothing).
    probes: int = 0
    #: Entries removed by :meth:`CompileCache.gc` and the bytes they held.
    evicted_entries: int = 0
    evicted_bytes: int = 0
    #: On-disk footprint after the most recent ``gc``/``disk_bytes`` scan.
    disk_bytes: int = 0
    #: Shared-network-tier traffic: local misses served by ``remote_dir``
    #: (each also counts as a stage hit) and artefacts published back.
    remote_hits: int = 0
    remote_stores: int = 0

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    def as_dict(self) -> dict[str, Any]:
        stages = sorted(set(self.hits) | set(self.misses) | set(self.stores))
        return {
            "hits": self.total_hits,
            "misses": self.total_misses,
            "errors": self.errors,
            "probes": self.probes,
            "evicted_entries": self.evicted_entries,
            "evicted_bytes": self.evicted_bytes,
            "disk_bytes": self.disk_bytes,
            "remote_hits": self.remote_hits,
            "remote_stores": self.remote_stores,
            "stages": {
                stage: {
                    "hits": self.hits.get(stage, 0),
                    "misses": self.misses.get(stage, 0),
                    "stores": self.stores.get(stage, 0),
                }
                for stage in stages
            },
        }

    def summary_lines(self) -> list[str]:
        lines = [f"cache hits: {self.total_hits}, misses: {self.total_misses}"]
        for stage, counts in self.as_dict()["stages"].items():
            lines.append(
                f"  {stage:<12} hits={counts['hits']} misses={counts['misses']} "
                f"stores={counts['stores']}"
            )
        if self.disk_bytes or self.evicted_entries:
            lines.append(
                f"  disk: {self.disk_bytes} bytes"
                f" (evicted {self.evicted_entries} entries"
                f" / {self.evicted_bytes} bytes)"
            )
        if self.remote_hits or self.remote_stores:
            lines.append(
                f"  remote tier: {self.remote_hits} hits,"
                f" {self.remote_stores} stores"
            )
        return lines


class CompileCache:
    """Tiered (memory + optional disk + optional network) content-addressed
    artefact store.

    >>> cache = CompileCache()                       # memory-only tier
    >>> key = CacheKey(module_hash="abc", pipeline="canonicalize")
    >>> cache.get(key, "result") is None             # cold: a miss
    True
    >>> cache.put(key, "result", {"mpts": 1.5})
    >>> cache.get(key, "result")
    {'mpts': 1.5}
    >>> cache.stats.total_hits, cache.stats.total_misses
    (1, 1)

    Every hit is a fresh private object, so mutating one never reaches
    the stored entry:

    >>> cache.get(key, "result")["mpts"] = 0.0
    >>> cache.get(key, "result")
    {'mpts': 1.5}

    Pass ``cache_dir`` to add the on-disk tier (written atomically, safe
    to share between parallel evaluation workers) and ``remote_dir`` to
    add the shared network tier behind it (a mounted NFS/sshfs path;
    read-through on miss, write-back on store, same atomic-rename
    publishing — so warm artefacts dedup across machines).
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        *,
        remote_dir: str | Path | None = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.remote_dir = Path(remote_dir) if remote_dir is not None else None
        #: Digest → pickled payload (bytes only, never live objects).
        self._memory: dict[str, bytes | memoryview] = {}
        #: Incremental on-disk footprint; ``None`` until the first
        #: ``disk_bytes()``/``gc()`` rescan establishes the baseline.
        self._disk_bytes_counter: int | None = None
        #: One instance may be shared by several threads (the compile
        #: service runs request compiles on an executor while its event
        #: loop probes/serves warm hits): the memory tier, the stats
        #: counters and the incremental byte counter mutate under this
        #: lock.  Disk/remote tiers were already multi-process safe.
        self._lock = threading.RLock()
        self.stats = CacheStats()

    # -- paths ----------------------------------------------------------------

    def _path(self, digest: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / digest[:2] / f"{digest}.pkl"

    def _remote_path(self, digest: str) -> Path:
        assert self.remote_dir is not None
        return self.remote_dir / digest[:2] / f"{digest}.pkl"

    # -- pickle helpers -------------------------------------------------------

    @staticmethod
    def _dumps(value: Any) -> bytes:
        _ensure_pickle_recursion_floor()
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def _loads(blob: bytes | memoryview) -> Any:
        _ensure_pickle_recursion_floor()
        return pickle.loads(blob)

    # -- core API -------------------------------------------------------------

    def get(self, key: CacheKey, stage: str) -> Any | None:
        """Look up one stage artefact; ``None`` means miss.

        Lookup order is memory → local disk → shared remote tier; a remote
        hit is copied read-through into the local tiers.  The stored
        payload is unpickled once per call, so the caller owns the result.
        """
        digest = key.digest(stage)
        with self._lock:
            payload = self._memory.get(digest)
            tier = None
            if payload is None:
                payload, tier = self._read_tiers(digest)
            value = None
            if payload is not None:
                try:
                    value = self._loads(payload)
                except Exception:
                    # An unloadable entry (e.g. a class renamed since it
                    # was stored) is a miss + recompute, not a crash.
                    self.stats.errors += 1
                    self._memory.pop(digest, None)
            if value is None:
                self.stats.misses[stage] += 1
                return None
            self.stats.hits[stage] += 1
            if tier is not None:
                self._memory[digest] = payload
                self._after_tier_hit(digest, tier, payload)
        return value

    def probe(self, key: CacheKey, stage: str) -> bool:
        """Hit check *without restoring*: is the artefact in any tier?

        Nothing is unpickled, decoded or promoted between tiers, and the
        hit/miss counters are untouched — so a front-door service can
        answer "would this request be warm?" (admission control, the
        cache fast path) without paying a restore or skewing the stats
        that record real serves.  Probes are counted separately.

        >>> cache = CompileCache()
        >>> key = CacheKey(module_hash="abc")
        >>> cache.probe(key, "result")
        False
        >>> cache.put(key, "result", {"mpts": 2.0})
        >>> cache.probe(key, "result")
        True
        >>> cache.stats.total_hits, cache.stats.total_misses
        (0, 0)
        """
        digest = key.digest(stage)
        with self._lock:
            self.stats.probes += 1
            if digest in self._memory:
                return True
        if self.cache_dir is not None and self._path(digest).is_file():
            return True
        if self.remote_dir is not None and self._remote_path(digest).is_file():
            return True
        return False

    def _read_tiers(self, digest: str) -> tuple[memoryview | None, str | None]:
        """The verified payload for ``digest`` from local disk, then the
        remote tier.  An entry that fails its magic/CRC check counts in
        ``errors`` and the lookup moves on, as if the entry were absent."""
        tiers = []
        if self.cache_dir is not None:
            tiers.append(("disk", self._path(digest)))
        if self.remote_dir is not None:
            tiers.append(("remote", self._remote_path(digest)))
        for tier, path in tiers:
            try:
                entry = path.read_bytes()
            except OSError:
                continue
            payload = _entry_payload(entry)
            if payload is None:
                self.stats.errors += 1
                continue
            return payload, tier
        return None, None

    def _after_tier_hit(self, digest: str, tier: str, payload: memoryview) -> None:
        if tier == "disk":
            # Refresh mtime so gc()'s LRU sees *use* recency, not just
            # store recency — hot entries must outlive cold one-offs in
            # long-lived shared directories.
            try:
                os.utime(self._path(digest))
            except OSError:
                pass
        elif tier == "remote":
            self.stats.remote_hits += 1
            if self.cache_dir is not None:
                # Read-through: future lookups (and gc accounting) are
                # served locally, with a fresh mtime.
                self._write_local(self._path(digest), payload)

    def put(self, key: CacheKey, stage: str, value: Any) -> None:
        """Store one stage artefact.

        ``value`` is serialised once, here: the caller may keep mutating
        the live object afterwards.  The payload lands in every configured
        tier: memory, local disk and — written back with the same atomic
        rename — the shared remote directory.  A value that cannot be
        pickled counts in ``errors`` and is not stored.
        """
        digest = key.digest(stage)
        try:
            payload = self._dumps(value)
        except Exception:
            with self._lock:
                self.stats.errors += 1
            return
        with self._lock:
            self._memory[digest] = payload
            self.stats.stores[stage] += 1
            if self.cache_dir is not None:
                self._write_local(self._path(digest), payload)
            if self.remote_dir is not None and self._write_atomic(
                self._remote_path(digest), payload
            ):
                self.stats.remote_stores += 1

    def _write_local(self, path: Path, payload: bytes | memoryview) -> bool:
        """Write to the local disk tier, keeping the incremental byte
        counter in step (an overwrite replaces the old entry's bytes)."""
        old = 0
        if self._disk_bytes_counter is not None:
            try:
                old = path.stat().st_size
            except OSError:
                old = 0
        ok = self._write_atomic(path, payload)
        if ok and self._disk_bytes_counter is not None:
            self._disk_bytes_counter += _ENTRY_HEADER_SIZE + len(payload) - old
        return ok

    def _write_atomic(self, path: Path, payload: bytes | memoryview) -> bool:
        """Publish the framed ``payload`` at ``path`` via temp-file +
        same-directory rename (atomic on POSIX filesystems, including NFS
        mounts), so parallel writers on any machine never observe a torn
        entry."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(_entry_header(payload))
                    handle.write(payload)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            self.stats.errors += 1
            return False
        return True

    # -- maintenance ----------------------------------------------------------

    def _disk_entries(self) -> list[tuple[float, int, Path]]:
        """Every on-disk entry as ``(mtime, size, path)``, oldest first."""
        assert self.cache_dir is not None
        entries: list[tuple[float, int, Path]] = []
        for path in self.cache_dir.glob("*/*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue  # a parallel writer/GC raced us; skip
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort(key=lambda e: (e[0], e[2].name))
        return entries

    def disk_bytes(self) -> int:
        """Current on-disk footprint of the cache directory (0 if memory-only).

        The directory is scanned once to establish a baseline; afterwards
        the footprint is tracked incrementally on every local write, so
        ``--timing`` on a large warm cache stops paying an O(entries)
        ``glob`` + ``stat`` rescan per stats read.  (``gc`` rescans — it
        is the authoritative resync point, picking up entries written by
        *other* processes sharing the directory.)
        """
        if self.cache_dir is None:
            return 0
        with self._lock:
            if self._disk_bytes_counter is None:
                self._disk_bytes_counter = sum(
                    size for _, size, _ in self._disk_entries()
                )
            self.stats.disk_bytes = self._disk_bytes_counter
            return self._disk_bytes_counter

    def gc(self, max_bytes: int) -> int:
        """Evict least-recently-used disk entries until ≤ ``max_bytes`` remain.

        LRU is approximated by file mtime, which :meth:`get` refreshes on
        every disk-tier hit (best-effort) — so a hot, constantly-reused
        artefact outlives a cold one-off store even in long-lived shared
        cache directories.  Returns the number of evicted entries; the
        memory tier is left untouched (it dies with the process anyway)
        and the shared remote tier is never evicted from here (each
        machine gc's only its own local tier).
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if self.cache_dir is None:
            return 0
        with self._lock:
            return self._gc_locked(max_bytes)

    def _gc_locked(self, max_bytes: int) -> int:
        entries = self._disk_entries()
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                self.stats.errors += 1
                continue
            total -= size
            evicted += 1
            self.stats.evicted_entries += 1
            self.stats.evicted_bytes += size
        # Authoritative resync of the incremental counter: the full scan
        # above also saw entries written by other processes.
        self._disk_bytes_counter = total
        self.stats.disk_bytes = total
        return evicted

    def clear_memory(self) -> None:
        """Drop the in-memory tier (the disk tier, if any, stays)."""
        with self._lock:
            self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)
