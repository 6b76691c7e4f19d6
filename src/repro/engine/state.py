"""Incremental cluster state: accumulate, merge, checkpoint, restore.

:class:`ClusterStore` is the engine's unit of mutable state: the batch
engine and the serve daemon each own one.  Batches of requests are
folded in with :meth:`apply_batch`, the several stores of a checkpoint
written by an older multi-store build merge with :meth:`merge`, and
:meth:`snapshot` materialises a plain
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

Writes are atomic and checksummed: the file is serialised in memory,
written to a temp file in the target directory, fsynced, and
``os.replace``d over the destination — so a crash at any instant leaves
either the previous checkpoint or the new one, never a torn file.
Reads are parse-only: a fixed ``struct`` header is checked (magic,
version, body length, CRC32) before one byte of the body is decoded,
and the body is JSON walked against the field tables below, so loading
a file constructs ``int``/``str``/``list``/``dict`` and nothing else —
whatever its bytes are, it cannot run code.  Damage raises
:class:`~repro.errors.CheckpointCorruptError` (version skew raises
:class:`~repro.errors.CheckpointVersionError` — a distinct, intact-file
condition).  The CRC catches accidents (torn writes, bad disks); it
authenticates nothing, which is why nothing past it is trusted either.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
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
    "request_triples",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "CheckpointTableMismatchError",
    "write_checkpoint",
    "read_checkpoint",
    "write_verified_checkpoint",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
]

#: File-format identity and version; bump the version whenever the
#: layout below changes so stale checkpoints fail loudly.  Versions up
#: to 5 were pickles (5 moved serve's routing state to ``base_digest``
#: + ``route_diff``); version 6 is the parse-only layout and reads no
#: older file.
CHECKPOINT_MAGIC = b"REPROCKP"
CHECKPOINT_VERSION = 6

#: How many times a checkpoint that fails its read-back is written
#: before the corruption surfaces (:func:`write_verified_checkpoint`).
CHECKPOINT_ATTEMPTS = 3


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


def request_triples(entries: Iterable[Any]) -> List[Tuple[int, str, int]]:
    """The ``(client, url, size)`` of each :class:`LogEntry`-shaped
    object: the one request record the engine ingests."""
    return [(entry.client, entry.url, entry.size) for entry in entries]


class ClusterStore:
    """Mergeable cluster statistics keyed by matched prefix.

    The store accepts *request triples* ``(client, url, size)`` — the
    projection of a :class:`~repro.weblog.entry.LogEntry` the cluster
    metrics need — so a batch holds nothing clustering does not read.
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
        per-entry tuple is ever built.  Accumulation order
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
        return self.apply_batch(request_triples(entries), table)

    def merge(self, other: "ClusterStore") -> "ClusterStore":
        """Fold ``other`` into this store (commutative up to snapshot).

        Accumulators absent from ``self`` are adopted by reference, so
        ``other`` must not be used afterwards: merge only transient
        stores, such as those :func:`read_checkpoint` returns."""
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


# -- the checkpoint file ---------------------------------------------------
#
# One layout, written by :func:`write_checkpoint` and read by
# :func:`read_checkpoint`; all integers big-endian:
#
#     offset  size  field
#          0     8  magic         CHECKPOINT_MAGIC
#          8     4  version       CHECKPOINT_VERSION
#         12     8  body length   the bytes after the header, exactly
#         20     4  CRC32         zlib.crc32 over the whole body
#         24     n  body          one ASCII JSON array: a _DOCUMENT record
#
# The body nests the three positional records whose field tables
# follow — a document holds stores, a store holds clusters — with every
# ``{client: requests}`` map flattened to ``[client, requests, ...]``.
# ``meta`` is the caller's position data (see :func:`_plain_meta`);
# serve keeps its routing state there as ``base_digest`` +
# ``route_diff``.  Nothing else is ever in the file: no table, no
# object graph, no type names.

_HEADER = struct.Struct(">8sIQI")

#: The magic *string* inside every version <= 5 file (a pickled dict).
#: Sniffed as bytes — never unpickled — so an old checkpoint fails as
#: version skew, with advice, instead of as a foreign file.
_PICKLE_ERA_MAGIC = b"repro.engine.checkpoint"


class _Record:
    """One positional JSON record of the checkpoint body.

    The field table — name and JSON type, in order — is the record's
    only description and both directions walk it: :meth:`pack` refuses
    values that are not exactly these fields with exactly these types,
    :meth:`unpack` refuses rows that are not.  A field therefore cannot
    be written without being read back, nor a type drift between the
    two, which is the agreement a lint rule used to police.
    """

    def __init__(self, what: str, **fields: type) -> None:
        self.what = what
        self.names = tuple(fields)
        self.types = tuple(fields.values())

    def pack(self, **values: Any) -> List[Any]:
        row = list(values.values())
        if tuple(values) != self.names or tuple(map(type, row)) != self.types:
            found = ", ".join(
                f"{name}: {type(value).__name__}"
                for name, value in values.items()
            )
            raise TypeError(
                f"checkpoint {self.what} record is ({found}); its field "
                f"table says {self.names}"
            )
        return row

    def unpack(self, row: Any) -> Dict[str, Any]:
        if type(row) is not list or tuple(map(type, row)) != self.types:
            raise ValueError(f"malformed {self.what} record")
        return dict(zip(self.names, row))


_DOCUMENT = _Record(
    "document",
    table_digest=str,
    routing_epoch=int,
    deltas_applied=int,
    meta=dict,
    shards=list,
)
_STORE = _Record(
    "store",
    entries_applied=int,
    lookups_performed=int,
    unclustered=list,
    clusters=list,
)
_CLUSTER = _Record(
    "cluster",
    network=int,
    length=int,
    requests=int,
    total_bytes=int,
    source_kind=str,
    source_name=str,
    clients=list,
    urls=list,
)

def _only(values: Iterable[Any], *kinds: type) -> bool:
    """Is every value exactly one of ``kinds`` (no subclasses: ``True``
    is not an ``int`` here)?"""
    return set(kinds).issuperset(map(type, values))


def _plain_meta(meta: Dict[str, Any]) -> Dict[str, Any]:
    """``meta`` as the layout holds it, checked the same way in both
    directions: ``str`` keys; ``int`` or ``str`` values, or lists of
    ``int``/``str`` rows — which come back as tuples (serve's
    ``route_diff``)."""
    plain: Dict[str, Any] = {}
    for key, value in meta.items():
        if type(key) is not str:
            raise ValueError(f"meta key {key!r} is not a str")
        if type(value) is list and all(
            _only([row], list, tuple) and _only(row, int, str) for row in value
        ):
            value = [tuple(row) for row in value]
        elif not _only([value], int, str):
            raise ValueError(
                f"meta[{key!r}] is not an int, a str or a list of int/str rows"
            )
        plain[key] = value
    return plain


def _counts(flat: List[Any], what: str) -> Dict[int, int]:
    """``[client, requests, client, requests, ...]`` back into a map."""
    if len(flat) % 2 or not _only(flat, int):
        raise ValueError(f"malformed {what}")
    return dict(zip(flat[0::2], flat[1::2]))


def _encode_store(store: ClusterStore) -> List[Any]:
    return _STORE.pack(
        entries_applied=store.entries_applied,
        lookups_performed=store.lookups_performed,
        unclustered=list(chain.from_iterable(store._unclustered.items())),
        clusters=[
            _CLUSTER.pack(
                network=prefix.network,
                length=prefix.length,
                requests=state.requests,
                total_bytes=state.total_bytes,
                source_kind=state.source_kind,
                source_name=state.source_name,
                clients=list(chain.from_iterable(state.client_counts.items())),
                urls=sorted(state.urls),
            )
            for prefix, state in store._clusters.items()
        ],
    )


def _decode_store(row: Any) -> ClusterStore:
    """Raises ``ValueError`` (only) on anything :func:`_encode_store`
    could not have produced."""
    fields = _STORE.unpack(row)
    store = ClusterStore()
    store.entries_applied = fields["entries_applied"]
    store.lookups_performed = fields["lookups_performed"]
    store._unclustered = _counts(fields["unclustered"], "unclustered clients")
    for item in fields["clusters"]:
        cluster = _CLUSTER.unpack(item)
        urls = cluster["urls"]
        if not _only(urls, str):
            raise ValueError("malformed cluster urls")
        # Prefix range-checks network and length (AddressError is a
        # ValueError).
        prefix = Prefix(cluster["network"], cluster["length"])
        store._clusters[prefix] = _ClusterState(
            requests=cluster["requests"],
            total_bytes=cluster["total_bytes"],
            client_counts=_counts(cluster["clients"], "cluster clients"),
            urls=set(urls),
            source_kind=cluster["source_kind"],
            source_name=cluster["source_name"],
        )
    return store


def _write_atomic(path: str, blobs: Sequence[bytes]) -> None:
    """Write ``blobs`` to ``path`` so readers see old-or-new, never torn.

    temp file in the same directory → flush → fsync → ``os.replace``.
    A crash before the replace leaves the previous file untouched (the
    orphaned ``.tmp`` is removed on the next successful write's error
    path or by the operator); a crash after is a completed write.
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
) -> None:
    """Atomically write ``stores`` to ``path`` (today's writers pass
    one; older builds wrote one per shard).

    ``table_digest`` (see :meth:`PackedLpm.digest`) records which prefix
    set the accumulated lookups were resolved against; a restore that
    supplies a digest refuses to resume against a different table.
    ``routing_epoch`` and ``deltas_applied`` record the live table's
    patch generation (see :attr:`PackedLpm.epoch`) so a restored serve
    run carries on from the same generation.

    Under ``REPRO_SANITIZE=1`` every write is immediately re-read and
    re-verified through :func:`read_checkpoint` — the same CRC, version
    and digest gauntlet the resume path runs — so a checkpoint that
    could not be restored fails *now*, not hours later.
    """
    body = json.dumps(
        _DOCUMENT.pack(
            table_digest=table_digest,
            routing_epoch=routing_epoch,
            deltas_applied=deltas_applied,
            meta=_plain_meta(meta or {}),
            shards=[_encode_store(store) for store in stores],
        ),
        separators=(",", ":"),
    ).encode("ascii")
    header = _HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(body), zlib.crc32(body)
    )
    _write_atomic(path, (header, body))
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
    file that cannot be opened at all.  Nothing else escapes, whatever
    the bytes: the header checks run on the raw bytes, and the body is
    only parsed — never executed — after they pass.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is corrupt or truncated: {len(raw)} bytes "
            f"cannot hold the {_HEADER.size}-byte header"
        )
    magic, version, length, crc = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        if _PICKLE_ERA_MAGIC in raw[:64]:
            raise CheckpointVersionError(
                f"checkpoint {path!r} is a pickle from format version 5 or "
                f"older; this build reads version {CHECKPOINT_VERSION} and "
                "unpickles nothing — rerun without --resume"
            )
        raise CheckpointCorruptError(
            f"{path!r} is not a repro.engine checkpoint"
        )
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint version {version} unsupported "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    body = raw[_HEADER.size:]
    if len(body) != length:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is corrupt: body is {len(body)} bytes "
            f"where {length} were recorded (truncated write) — restore "
            "from an older checkpoint or rerun without --resume"
        )
    if zlib.crc32(body) != crc:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is corrupt: payload CRC32 mismatch "
            "(truncated write or bit rot) — restore from an older "
            "checkpoint or rerun without --resume"
        )
    try:
        document = _DOCUMENT.unpack(json.loads(body))
        stores = [_decode_store(row) for row in document["shards"]]
        meta = _plain_meta(document["meta"])
    except (ValueError, RecursionError) as exc:
        # Every shape check above raises ValueError, as do json and
        # Prefix; RecursionError is json's on absurd nesting.
        raise CheckpointCorruptError(
            f"checkpoint {path!r} payload does not decode despite a valid "
            f"CRC ({exc}) — the file was not written by this code"
        ) from exc
    meta["routing_epoch"] = document["routing_epoch"]
    meta["deltas_applied"] = document["deltas_applied"]
    stored_digest = document["table_digest"]
    # Surfaced for callers that rebuild the table themselves (serve
    # replays a ``route_diff`` onto the base table) and must prove it
    # digests to what the checkpoint recorded.
    meta["table_digest"] = stored_digest
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
