"""Incremental cluster state: accumulate, merge, checkpoint, restore.

:class:`ClusterStore` is the engine's unit of mutable state.  Each
shard owns one; batches of requests are folded in with
:meth:`apply_batch`, partial stores from worker processes merge with
:meth:`merge`, and :meth:`snapshot` materialises a plain
:class:`~repro.core.clustering.ClusterSet` so the entire downstream
toolchain (thresholding, validation, placement, caching) runs on
engine output unchanged.

The store itself holds no reference to any table — every
:meth:`apply_batch` call names the table it resolves against — so when
routing changes mid-run (``apply_delta``) later batches resolve against
the patched table while already-accumulated assignments persist, the
semantics of ``core.realtime``'s ``update_table``;
:meth:`ClusterStore.reassign_clients` is the explicit way to move them.

Checkpoints are a versioned on-disk format (:func:`write_checkpoint` /
:func:`read_checkpoint`) so long runs survive interruption: restore in
a fresh process and continue feeding batches; the final snapshot is
identical to an uninterrupted run.

Writes are atomic and checksummed: the document is serialised in
memory, written to a temp file in the target directory, fsynced, and
``os.replace``d over the destination — so a crash at any instant leaves
either the previous checkpoint or the new one, never a torn file.  The
on-disk envelope carries a CRC32 of the pickled payload; the payload is
only unpickled after the checksum verifies, and damage raises
:class:`~repro.errors.CheckpointCorruptError` (version skew raises
:class:`~repro.errors.CheckpointVersionError` — a distinct, intact-file
condition).

.. warning::
   The checkpoint payload is a pickle.  The CRC and magic/version
   checks catch *accidents* (torn writes, bad disks, stale files) —
   they authenticate nothing, and a crafted envelope with a valid CRC
   still executes whatever its payload pickles into.  Only restore
   checkpoints you wrote yourself on a filesystem you trust; never
   load one received over the network.
"""

from __future__ import annotations

import io
import mmap
import os
import pickle
import tempfile
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis import sanitize as _sanitize
from repro.core.clustering import Cluster, ClusterSet
from repro.engine.packed import PackedLpm
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointTableMismatchError,
    CheckpointVersionError,
)
from repro.net.prefix import Prefix

if TYPE_CHECKING:
    from repro.engine.fastpath import PackedBatch
    from repro.engine.metrics import EngineMetrics
    from repro.faults import FaultInjector

__all__ = [
    "ClusterStore",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "CheckpointTableMismatchError",
    "write_checkpoint",
    "read_checkpoint",
    "read_checkpoint_table",
    "write_verified_checkpoint",
    "serialize_checkpoint",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
]

#: File-format identity and version; bump the version whenever the
#: pickled payload layout changes so stale checkpoints fail loudly.
#: Version 2 wraps the payload in a CRC32-checked envelope; version 3
#: adds the routing generation (``routing_epoch`` / ``deltas_applied``)
#: so ``repro-engine serve --resume`` can restart mid-stream; version 4
#: adds an optional raw table section after the envelope — the packed
#: interval buffers written via ``memoryview`` and read back with
#: ``mmap`` (:func:`read_checkpoint_table`) instead of unpickling a
#: fresh copy; version 5 drops the pickled table from serve's WAL-mode
#: ``meta`` in favour of ``base_digest`` + ``route_diff`` plain tuples.
CHECKPOINT_MAGIC = "repro.engine.checkpoint"
CHECKPOINT_VERSION = 5

#: How many times a checkpoint that fails its read-back is written
#: before the corruption surfaces (:func:`write_verified_checkpoint`).
CHECKPOINT_ATTEMPTS = 3

#: Raw table sections start at the first 8-byte boundary after the
#: envelope pickle, so an mmap'd ``array('Q')`` view is aligned.
_TABLE_SECTION_ALIGN = 8

#: Everything ``pickle.loads`` (and the payload-shape accessors that
#: follow it) can raise on corrupt, truncated, or foreign bytes.  Kept
#: concrete — rather than ``except Exception`` — so an unrelated bug
#: surfacing mid-decode (say, a repro.errors type from nested state)
#: cannot be mislabelled as file corruption.
_UNPICKLE_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    TypeError,
    ValueError,
    UnicodeDecodeError,
    OverflowError,
    MemoryError,
)


@dataclass
class _ClusterState:
    """Mutable accumulator for one cluster (one matched prefix)."""

    requests: int = 0
    total_bytes: int = 0
    client_counts: Dict[int, int] = field(default_factory=dict)
    urls: Set[str] = field(default_factory=set)
    source_kind: str = ""
    source_name: str = ""

    def merge(self, other: "_ClusterState") -> None:
        self.requests += other.requests
        self.total_bytes += other.total_bytes
        counts = self.client_counts
        for client, count in other.client_counts.items():
            counts[client] = counts.get(client, 0) + count
        self.urls |= other.urls
        if not self.source_kind:
            self.source_kind = other.source_kind
            self.source_name = other.source_name


def _in_windows(
    address: int, lows: Sequence[int], highs: Sequence[int]
) -> bool:
    """Is ``address`` inside the sorted disjoint inclusive windows?"""
    slot = bisect_right(lows, address) - 1
    return slot >= 0 and address <= highs[slot]


class ClusterStore:
    """Mergeable cluster statistics keyed by matched prefix.

    The store accepts *request triples* ``(client, url, size)`` — the
    projection of a :class:`~repro.weblog.entry.LogEntry` the cluster
    metrics need — so worker batches stay small on the wire.
    """

    def __init__(self) -> None:
        self._clusters: Dict[Prefix, _ClusterState] = {}
        self._unclustered: Dict[int, int] = {}
        self.entries_applied = 0
        self.lookups_performed = 0

    def __len__(self) -> int:
        return len(self._clusters)

    @property
    def num_unclustered(self) -> int:
        return len(self._unclustered)

    # -- accumulation ----------------------------------------------------

    def apply_batch(
        self, triples: Sequence[Tuple[int, str, int]], table: PackedLpm
    ) -> int:
        """Fold one batch of ``(client, url, size)`` into the store.

        One batched LPM pass resolves every client, then a single
        Python loop updates the per-cluster accumulators.  A per-call
        index→state cache keeps the loop to one dict probe per entry
        (prefix materialisation happens once per distinct cluster per
        batch, not once per request).  Returns the number of entries
        applied.
        """
        indices = table.lookup_many([triple[0] for triple in triples])
        self.lookups_performed += len(triples)
        unclustered = self._unclustered
        states: Dict[int, _ClusterState] = {}
        states_get = states.get
        for (client, url, size), index in zip(triples, indices):
            state = states_get(index)
            if state is None:
                if index < 0:
                    unclustered[client] = unclustered.get(client, 0) + 1
                    continue
                state = states[index] = self._state_for(table, index)
            state.requests += 1
            state.total_bytes += size
            state.client_counts[client] = state.client_counts.get(client, 0) + 1
            state.urls.add(url)
        self.entries_applied += len(triples)
        return len(triples)

    def apply_packed(self, batch: "PackedBatch", table: PackedLpm) -> int:
        """Fold one :class:`~repro.engine.fastpath.PackedBatch` in.

        The flat-buffer twin of :meth:`apply_batch`: clients, sizes and
        interned URL ids stream straight out of their arrays, so no
        per-entry tuple ever exists on the worker.  Accumulation order
        and results are identical to :meth:`apply_batch` over
        ``batch.iter_triples()``.
        """
        if _sanitize.is_enabled():
            _sanitize.guard_batch(batch)
        indices = table.lookup_many(batch.addresses)
        count = len(indices)
        self.lookups_performed += count
        unclustered = self._unclustered
        urls = batch.urls
        states: Dict[int, _ClusterState] = {}
        states_get = states.get
        for client, url_id, size, index in zip(
            batch.addresses, batch.url_ids, batch.sizes, indices
        ):
            state = states_get(index)
            if state is None:
                if index < 0:
                    unclustered[client] = unclustered.get(client, 0) + 1
                    continue
                state = states[index] = self._state_for(table, index)
            state.requests += 1
            state.total_bytes += size
            state.client_counts[client] = state.client_counts.get(client, 0) + 1
            state.urls.add(urls[url_id])
        self.entries_applied += count
        return count

    def _state_for(self, table: PackedLpm, index: int) -> _ClusterState:
        """The accumulator for entry ``index``, created on first sight."""
        prefix = table.prefix(index)
        state = self._clusters.get(prefix)
        if state is None:
            value = table.value(index)
            state = self._clusters[prefix] = _ClusterState(
                source_kind=getattr(value, "source_kind", ""),
                source_name=getattr(value, "source_name", ""),
            )
        return state

    def apply_entries(self, entries: Iterable[Any], table: PackedLpm) -> int:
        """Convenience wrapper taking :class:`LogEntry`-shaped objects."""
        return self.apply_batch(
            [(entry.client, entry.url, entry.size) for entry in entries], table
        )

    def copy(self) -> "ClusterStore":
        """Independent copy (merge adopts accumulators by reference, so
        copy before merging long-lived stores together)."""
        clone = ClusterStore()
        clone._clusters = {
            prefix: _ClusterState(
                requests=state.requests,
                total_bytes=state.total_bytes,
                client_counts=dict(state.client_counts),
                urls=set(state.urls),
                source_kind=state.source_kind,
                source_name=state.source_name,
            )
            for prefix, state in self._clusters.items()
        }
        clone._unclustered = dict(self._unclustered)
        clone.entries_applied = self.entries_applied
        clone.lookups_performed = self.lookups_performed
        return clone

    def merge(self, other: "ClusterStore") -> "ClusterStore":
        """Fold ``other`` into this store (commutative up to snapshot).

        Accumulators absent from ``self`` are adopted by reference —
        cheap for transient worker partials; :meth:`copy` first when the
        source store lives on."""
        clusters = self._clusters
        for prefix, state in other._clusters.items():
            mine = clusters.get(prefix)
            if mine is None:
                clusters[prefix] = state
            else:
                mine.merge(state)
        unclustered = self._unclustered
        for client, count in other._unclustered.items():
            unclustered[client] = unclustered.get(client, 0) + count
        self.entries_applied += other.entries_applied
        self.lookups_performed += other.lookups_performed
        return self

    # -- incremental reclustering ----------------------------------------

    def reassign_clients(
        self, windows: Sequence[Tuple[int, int]], table: PackedLpm
    ) -> int:
        """Re-resolve only the clients a routing patch could have moved.

        ``windows`` is the sorted, disjoint list of inclusive address
        ranges a :meth:`PackedLpm.apply_delta` patch touched (see
        :attr:`~repro.engine.packed.PatchResult.windows`).  Every
        accumulated client whose address falls inside a window — and
        every unclustered client that might now match — is looked up
        once against the patched ``table``; assignments that changed
        migrate to their new cluster, carrying the client's request
        count and a proportional share of the old cluster's bytes.
        Clients outside the windows are untouched: their longest match
        cannot have changed, so this is the paper's self-correction run
        as a selective online pass instead of a wholesale rebuild.

        Returns the number of assignments that moved.
        """
        if not windows:
            return 0
        lows = [low for low, _ in windows]
        highs = [high for _, high in windows]
        # Filter before sorting: a patch touches a handful of clusters,
        # the store holds thousands.
        last = highs[-1]
        touched: List[Prefix] = []
        for prefix in self._clusters:
            if prefix.network > last:
                continue
            # Windows are sorted and disjoint, so the last window that
            # starts at or below the cluster's top address is the only
            # one that can overlap it.
            slot = bisect_right(lows, prefix.last_address) - 1
            if slot >= 0 and highs[slot] >= prefix.network:
                touched.append(prefix)
        candidates: List[Tuple[Optional[Prefix], int, int]] = []
        for prefix in sorted(touched, key=Prefix.sort_key):
            state = self._clusters[prefix]
            for client in sorted(state.client_counts):
                if _in_windows(client, lows, highs):
                    candidates.append(
                        (prefix, client, state.client_counts[client])
                    )
        for client in sorted(
            client for client in self._unclustered
            if _in_windows(client, lows, highs)
        ):
            candidates.append((None, client, self._unclustered[client]))
        if not candidates:
            return 0
        indices = table.lookup_many([client for _, client, _ in candidates])
        self.lookups_performed += len(candidates)
        moved = 0
        drained: Set[Prefix] = set()
        for (old_prefix, client, count), index in zip(candidates, indices):
            new_prefix = table.prefix(index) if index >= 0 else None
            if new_prefix == old_prefix:
                continue
            moved += 1
            share = 0
            if old_prefix is not None:
                state = self._clusters[old_prefix]
                if state.requests > 0:
                    share = state.total_bytes * count // state.requests
                state.requests -= count
                state.total_bytes -= share
                del state.client_counts[client]
                drained.add(old_prefix)
            else:
                del self._unclustered[client]
            if index >= 0:
                target = self._state_for(table, index)
                target.requests += count
                target.total_bytes += share
                target.client_counts[client] = (
                    target.client_counts.get(client, 0) + count
                )
            else:
                self._unclustered[client] = (
                    self._unclustered.get(client, 0) + count
                )
        for prefix in drained:
            state = self._clusters.get(prefix)
            if state is not None and not state.client_counts:
                del self._clusters[prefix]
        return moved

    # -- observation -----------------------------------------------------

    def snapshot(
        self, name: str = "engine", method: str = "network-aware"
    ) -> ClusterSet:
        """Materialise a :class:`ClusterSet` (same layout as
        :func:`repro.core.clustering.cluster_log` output: clusters in
        prefix order, client lists ascending)."""
        clusters: List[Cluster] = []
        for prefix, state in sorted(
            self._clusters.items(), key=lambda kv: kv[0].sort_key()
        ):
            clusters.append(
                Cluster(
                    identifier=prefix,
                    clients=sorted(state.client_counts),
                    requests=state.requests,
                    unique_urls=len(state.urls),
                    total_bytes=state.total_bytes,
                    source_kind=state.source_kind,
                    source_name=state.source_name,
                )
            )
        return ClusterSet(
            log_name=name,
            method=method,
            clusters=clusters,
            unclustered_clients=sorted(self._unclustered),
        )

    # -- persistence -----------------------------------------------------

    def _payload(self) -> Dict[str, Any]:
        return {
            "clusters": self._clusters,
            "unclustered": self._unclustered,
            "entries_applied": self.entries_applied,
            "lookups_performed": self.lookups_performed,
        }

    @classmethod
    def _from_payload(cls, payload: Dict[str, Any]) -> "ClusterStore":
        store = cls()
        store._clusters = payload["clusters"]
        store._unclustered = payload["unclustered"]
        store.entries_applied = payload["entries_applied"]
        store.lookups_performed = payload["lookups_performed"]
        return store

    def checkpoint(self, path: str, table_digest: str = "") -> None:
        """Persist this store alone (single-shard convenience)."""
        write_checkpoint(path, [self], table_digest=table_digest)

    @classmethod
    def restore(cls, path: str, table_digest: str = "") -> "ClusterStore":
        """Load a single-store checkpoint written by :meth:`checkpoint`."""
        stores, _ = read_checkpoint(path, table_digest=table_digest)
        if len(stores) != 1:
            raise CheckpointError(
                f"expected a single-store checkpoint, found {len(stores)} shards"
            )
        return stores[0]


def _table_sections(table: Any) -> Tuple[Optional[Dict[str, Any]], List[Any]]:
    """Describe ``table``'s raw buffers for the v4 trailing section.

    Returns ``(info, sections)``: a plain-types description dict (kind,
    digest, generation, per-section byte counts, and a CRC32 over the
    concatenated sections) plus the raw buffers themselves, in on-disk
    order — interval starts, owners, stride slots (empty for packed
    tables), then a once-pickled blob of the Python-object entry
    columns.  ``(None, [])`` when ``table`` is None or not a packed
    table — the checkpoint then carries no table section at all.
    """
    base = getattr(table, "table", table) if table is not None else None
    if not isinstance(base, PackedLpm):
        return None, []
    state = base.__getstate__()
    if isinstance(state[0], tuple):
        # StrideLpm state nests the packed layout under the overlay.
        (packed_state, slots, runs) = state
        kind = "stride"
    else:
        packed_state, slots, runs = state, None, None
        kind = "packed"
    starts, owners, prefixes, values, epoch, deltas_applied = packed_state
    starts_raw = memoryview(starts).cast("B")
    owners_raw = memoryview(owners).cast("B")
    slots_raw = memoryview(slots).cast("B") if slots is not None else memoryview(b"")
    entries_raw = pickle.dumps(
        (tuple(prefixes), tuple(values), runs),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    crc = zlib.crc32(starts_raw)
    crc = zlib.crc32(owners_raw, crc)
    crc = zlib.crc32(slots_raw, crc)
    crc = zlib.crc32(entries_raw, crc)
    info = {
        "kind": kind,
        "digest": base.digest(),
        "epoch": int(epoch),
        "deltas_applied": int(deltas_applied),
        "crc32": crc,
        "starts_bytes": starts_raw.nbytes,
        "owners_bytes": owners_raw.nbytes,
        "slots_bytes": slots_raw.nbytes,
        "entries_bytes": len(entries_raw),
    }
    return info, [starts_raw, owners_raw, slots_raw, entries_raw]


def _checkpoint_blobs(
    stores: Sequence[ClusterStore],
    table_digest: str,
    meta: Optional[Dict[str, Any]],
    routing_epoch: int,
    deltas_applied: int,
    table: Any,
) -> List[Any]:
    """All buffers of one checkpoint file, in write order.

    The first element is always the pickled envelope; with a table, an
    alignment pad and the raw table sections follow.  This is the one
    place the envelope dict is built.
    """
    payload = pickle.dumps(
        {
            "table_digest": table_digest,
            "meta": dict(meta or {}),
            "routing_epoch": routing_epoch,
            "deltas_applied": deltas_applied,
            "shards": [store._payload() for store in stores],
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    table_info, sections = _table_sections(table)
    envelope = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "crc32": zlib.crc32(payload),
        "payload": payload,
        "table": table_info,
    }
    head = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    if table_info is None:
        return [head]
    pad = b"\x00" * ((-len(head)) % _TABLE_SECTION_ALIGN)
    return [head, pad] + sections


def serialize_checkpoint(
    stores: Sequence[ClusterStore],
    table_digest: str = "",
    meta: Optional[Dict[str, Any]] = None,
    routing_epoch: int = 0,
    deltas_applied: int = 0,
) -> bytes:
    """Serialise shard ``stores`` into the on-disk envelope bytes.

    The envelope is a pickled dict of plain types — magic, version, a
    CRC32, and the payload as an opaque ``bytes`` field — so a reader
    can validate identity, version, and integrity *before* unpickling
    any engine state.  (The optional v4 raw table section is only
    produced by :func:`write_checkpoint` with a ``table``; this
    envelope-only form records ``table: None``.)

    ``routing_epoch`` and ``deltas_applied`` record the live table's
    patch generation (see :attr:`PackedLpm.epoch`) so a resumed serve
    run can verify it replayed the same delta stream.
    """
    return _checkpoint_blobs(
        stores, table_digest, meta, routing_epoch, deltas_applied, None
    )[0]


def _write_atomic(path: str, blobs: Sequence[Any]) -> None:
    """Write ``blobs`` to ``path`` so readers see old-or-new, never torn.

    temp file in the same directory → flush → fsync → ``os.replace``.
    A crash before the replace leaves the previous file untouched (the
    orphaned ``.tmp`` is removed on the next successful write's error
    path or by the operator); a crash after is a completed write.
    Each blob is handed to ``write`` as-is, so raw ``memoryview``
    sections go straight from the table's buffers to the page cache —
    no intermediate ``bytes`` copy.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            for blob in blobs:
                handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    try:
        # Durability for the rename itself; not available everywhere.
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass


def write_checkpoint(
    path: str,
    stores: Sequence[ClusterStore],
    table_digest: str = "",
    meta: Optional[Dict[str, Any]] = None,
    routing_epoch: int = 0,
    deltas_applied: int = 0,
    table: Any = None,
) -> None:
    """Atomically write shard ``stores`` to ``path``.

    ``table_digest`` (see :meth:`PackedLpm.digest`) records which prefix
    set the accumulated lookups were resolved against; a restore that
    supplies a digest refuses to resume against a different table.

    With ``table`` (a packed table, optionally memo-wrapped) the file
    additionally carries the v4 raw table section: the interval buffers
    written straight from their ``memoryview``s, so
    :func:`read_checkpoint_table` can rebuild a zero-copy view over an
    ``mmap`` of the file instead of unpickling a fresh table.

    Under ``REPRO_SANITIZE=1`` every write is immediately re-read and
    re-verified through :func:`read_checkpoint` — the same CRC, version
    and digest gauntlet the resume path runs — so a checkpoint that
    could not be restored fails *now*, not hours later.
    """
    _write_atomic(
        path,
        _checkpoint_blobs(
            stores, table_digest, meta, routing_epoch, deltas_applied, table
        ),
    )
    if _sanitize.is_enabled():
        read_checkpoint(path, table_digest=table_digest)
        _sanitize.record_checkpoint_readback()


def read_checkpoint(
    path: str, table_digest: str = ""
) -> Tuple[List[ClusterStore], Dict[str, Any]]:
    """Load a checkpoint; returns ``(stores, meta)``.

    The error taxonomy distinguishes what went wrong so callers can
    react: :class:`CheckpointCorruptError` (truncated, bit-flipped, or
    foreign bytes — rereading can never succeed),
    :class:`CheckpointVersionError` (intact file, incompatible format
    version), :class:`CheckpointTableMismatchError` (resumed against a
    different routing table), and base :class:`CheckpointError` for a
    file that cannot be opened at all.

    .. warning::
       The CRC is an *integrity* check, not authentication — a crafted
       file passes it and its payload is then unpickled, executing
       whatever it contains.  Only load files you trust (see the
       module docstring).
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    try:
        # A stream, not ``loads``: v4 files append raw table sections
        # after the envelope pickle, and ``tell`` finds where they start.
        stream = io.BytesIO(raw)
        envelope = pickle.load(stream)
        head_len = stream.tell()
    except _UNPICKLE_ERRORS as exc:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is corrupt or truncated "
            f"(envelope does not decode: {exc})"
        ) from exc
    if not isinstance(envelope, dict) or envelope.get("magic") != CHECKPOINT_MAGIC:
        raise CheckpointCorruptError(
            f"{path!r} is not a repro.engine checkpoint"
        )
    version = envelope.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint version {version!r} unsupported "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    payload = envelope.get("payload")
    if not isinstance(payload, bytes):
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is corrupt: envelope carries no payload"
        )
    if zlib.crc32(payload) != envelope.get("crc32"):
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is corrupt: payload CRC32 mismatch "
            "(truncated write or bit rot) — restore from an older "
            "checkpoint or rerun without --resume"
        )
    table_info = envelope.get("table")
    if table_info is not None:
        _verify_table_section(path, raw, head_len, table_info)
    try:
        document = pickle.loads(payload)
        stores = [
            ClusterStore._from_payload(part) for part in document["shards"]
        ]
        meta = dict(document.get("meta", {}))
        meta["routing_epoch"] = int(document.get("routing_epoch", 0))
        meta["deltas_applied"] = int(document.get("deltas_applied", 0))
        stored_digest = document.get("table_digest", "")
        # Surfaced for callers that rebuild the table themselves (serve
        # replays a stream or a ``route_diff`` onto the base table) and
        # must prove it digests to what the checkpoint recorded.
        meta["table_digest"] = str(stored_digest)
    except _UNPICKLE_ERRORS as exc:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} payload does not decode despite a valid "
            f"CRC ({exc}) — the file was not written by this code"
        ) from exc
    if table_digest and stored_digest and stored_digest != table_digest:
        raise CheckpointTableMismatchError(
            "checkpoint was taken against a different routing table "
            f"(stored digest {stored_digest[:12]}…, current {table_digest[:12]}…)"
        )
    return stores, meta


def write_verified_checkpoint(
    path: str,
    write: Callable[[], None],
    table_digest: str,
    injector: Optional["FaultInjector"],
    metrics: "EngineMetrics",
) -> None:
    """Run ``write`` (which writes a checkpoint to ``path``) and prove
    the file reads back.

    Any armed checkpoint fault (``checkpoint.corrupt`` /
    ``checkpoint.truncate``) is applied *between* the write and the
    verification, exactly where real bit rot would land.  A checkpoint
    that fails verification is rewritten — a bad disk is discovered
    now, not as a resume failure hours later — and the corruption
    surfaces only after ``CHECKPOINT_ATTEMPTS`` writes all failed.
    """
    for attempt in range(1, CHECKPOINT_ATTEMPTS + 1):
        write()
        if injector is not None:
            injector.damage_file(path)
        try:
            read_checkpoint(path, table_digest=table_digest)
            return
        except CheckpointCorruptError:
            if attempt == CHECKPOINT_ATTEMPTS:
                raise
            metrics.record_checkpoint_rewrite()


def _table_section_extent(
    head_len: int, info: Dict[str, Any]
) -> Tuple[int, int]:
    """(section start offset, expected file length) for a v4 table."""
    start = head_len + ((-head_len) % _TABLE_SECTION_ALIGN)
    total = (
        int(info.get("starts_bytes", 0))
        + int(info.get("owners_bytes", 0))
        + int(info.get("slots_bytes", 0))
        + int(info.get("entries_bytes", 0))
    )
    return start, start + total


def _verify_table_section(
    path: str, raw: bytes, head_len: int, info: Dict[str, Any]
) -> None:
    """Integrity-check a v4 raw table section (length and CRC32)."""
    start, expected_len = _table_section_extent(head_len, info)
    if len(raw) != expected_len:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is corrupt: table section is "
            f"{len(raw) - start} bytes where {expected_len - start} were "
            "recorded (truncated write) — restore from an older checkpoint"
        )
    if zlib.crc32(memoryview(raw)[start:]) != info.get("crc32"):
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is corrupt: table section CRC32 "
            "mismatch (truncated write or bit rot) — restore from an "
            "older checkpoint or rerun without --resume"
        )


def read_checkpoint_table(path: str) -> Optional[PackedLpm]:
    """Rebuild the checkpoint's table as a zero-copy view over ``mmap``.

    Returns ``None`` for checkpoints written without a table section.
    The returned table's interval buffers are ``memoryview`` casts over
    a read-only mapping of the file — nothing is copied and nothing is
    unpickled except the (small) Python-object entry columns — so
    opening a multi-hundred-MB checkpoint costs page faults, not a
    deserialisation pass.  The mapping lives exactly as long as the
    returned table: its views hold the only references.

    The view is lookup-complete but refuses in-place patching
    (:attr:`PackedLpm.is_view`); compile a fresh table to continue a
    delta stream.  Integrity (section length + CRC32) is verified
    before any buffer is trusted.
    """
    from repro.engine.fastpath import build_table_view

    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    with handle:
        try:
            envelope = pickle.load(handle)
            head_len = handle.tell()
        except _UNPICKLE_ERRORS as exc:
            raise CheckpointCorruptError(
                f"checkpoint {path!r} is corrupt or truncated "
                f"(envelope does not decode: {exc})"
            ) from exc
        if (
            not isinstance(envelope, dict)
            or envelope.get("magic") != CHECKPOINT_MAGIC
        ):
            raise CheckpointCorruptError(
                f"{path!r} is not a repro.engine checkpoint"
            )
        version = envelope.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"checkpoint version {version!r} unsupported "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        info = envelope.get("table")
        if info is None:
            return None
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"cannot map checkpoint {path!r}: {exc}"
            ) from exc
    view = memoryview(mapped)
    start, expected_len = _table_section_extent(head_len, info)
    if len(view) != expected_len:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is corrupt: table section is "
            f"{len(view) - start} bytes where {expected_len - start} were "
            "recorded (truncated write) — restore from an older checkpoint"
        )
    if zlib.crc32(view[start:]) != info.get("crc32"):
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is corrupt: table section CRC32 "
            "mismatch (truncated write or bit rot) — restore from an "
            "older checkpoint or rerun without --resume"
        )
    starts_end = start + int(info.get("starts_bytes", 0))
    owners_end = starts_end + int(info.get("owners_bytes", 0))
    slots_end = owners_end + int(info.get("slots_bytes", 0))
    entries_end = slots_end + int(info.get("entries_bytes", 0))
    kind = str(info.get("kind", "packed"))
    try:
        entries = pickle.loads(view[slots_end:entries_end])
    except _UNPICKLE_ERRORS as exc:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} table entries do not decode despite a "
            f"valid CRC ({exc}) — the file was not written by this code"
        ) from exc
    starts = view[start:starts_end].cast("Q")
    owners = view[starts_end:owners_end].cast("q")
    slots = view[owners_end:slots_end].cast("q") if kind == "stride" else None
    return build_table_view(
        kind,
        starts,
        owners,
        slots,
        entries,
        int(info.get("epoch", 0)),
        int(info.get("deltas_applied", 0)),
    )
