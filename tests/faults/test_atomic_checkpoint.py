"""Atomic, checksummed, parse-only checkpoints under deliberate damage.

The acceptance bar: a kill-9-style interruption at *any* point of a
checkpoint write never leaves a file ``read_checkpoint`` accepts — the
reader sees the previous checkpoint or the new one, nothing in between
— every flavour of on-disk damage maps to a specific error class, and
no bytes whatsoever, damaged or crafted, make the reader run code or
raise anything outside the ``CheckpointError`` family.
"""

import contextlib
import io
import json
import os
import pickle
import struct
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import print_cluster_report
from repro.engine.state import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointTableMismatchError,
    CheckpointVersionError,
    ClusterStore,
    read_checkpoint,
    write_checkpoint,
)
from repro.engine.packed import PackedLpm
from repro.net.prefix import Prefix

HEADER = struct.Struct(">8sIQI")
VERSION_OFFSET, CRC_OFFSET = 8, 20


def framed(body, magic=CHECKPOINT_MAGIC, version=CHECKPOINT_VERSION):
    """``body`` behind a header that passes every header check."""
    return HEADER.pack(magic, version, len(body), zlib.crc32(body)) + body


def rewrite(path, blob):
    with open(path, "wb") as handle:
        handle.write(bytes(blob))


@pytest.fixture()
def store():
    table = PackedLpm.from_items(
        [(Prefix.from_cidr("10.0.0.0/8"), None)]
    )
    built = ClusterStore()
    built.apply_batch(
        [(0x0A000001, "/a", 100), (0x0A000002, "/b", 200)], table
    )
    return built


@pytest.fixture()
def ckpt(tmp_path, store):
    path = str(tmp_path / "state.ckpt")
    write_checkpoint(path, [store], table_digest="digest-a")
    return path


class TestDamageTaxonomy:
    def test_intact_file_round_trips(self, ckpt, store):
        stores, _ = read_checkpoint(ckpt, table_digest="digest-a")
        assert len(stores) == 1
        assert stores[0].entries_applied == store.entries_applied

    def test_truncated_file_is_corrupt(self, ckpt):
        blob = open(ckpt, "rb").read()
        rewrite(ckpt, blob[: len(blob) // 2])
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint(ckpt)

    def test_bit_flip_in_payload_is_corrupt(self, ckpt):
        blob = bytearray(open(ckpt, "rb").read())
        blob[-10] ^= 0xFF
        rewrite(ckpt, blob)
        with pytest.raises(CheckpointCorruptError, match="CRC32|corrupt"):
            read_checkpoint(ckpt)

    def test_corrupt_message_is_actionable(self, ckpt):
        blob = bytearray(open(ckpt, "rb").read())
        blob[CRC_OFFSET + 3] ^= 1
        rewrite(ckpt, blob)
        with pytest.raises(
            CheckpointCorruptError, match="restore from an older checkpoint"
        ):
            read_checkpoint(ckpt)

    def test_foreign_pickle_is_not_a_checkpoint(self, ckpt):
        with open(ckpt, "wb") as handle:
            pickle.dump({"magic": "some.other.format"}, handle)
        with pytest.raises(
            CheckpointCorruptError, match="not a repro.engine checkpoint"
        ):
            read_checkpoint(ckpt)

    def test_non_pickle_bytes_are_corrupt(self, ckpt):
        rewrite(ckpt, b"\x00garbage that is no checkpoint of any version")
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint(ckpt)

    def test_future_version_is_version_error_not_corrupt(self, ckpt):
        blob = bytearray(open(ckpt, "rb").read())
        struct.pack_into(">I", blob, VERSION_OFFSET, CHECKPOINT_VERSION + 7)
        rewrite(ckpt, blob)
        with pytest.raises(
            CheckpointVersionError, match=f"version {CHECKPOINT_VERSION + 7}"
        ):
            read_checkpoint(ckpt)

    def test_missing_payload_is_corrupt(self, ckpt):
        blob = open(ckpt, "rb").read()
        rewrite(ckpt, blob[: HEADER.size])
        with pytest.raises(CheckpointCorruptError, match="body is 0 bytes"):
            read_checkpoint(ckpt)

    def test_valid_frame_around_a_non_document_is_corrupt(self, ckpt):
        for body in (b"", b"not json", b"[1, 2", b"{}", b"[" * 100_000):
            rewrite(ckpt, framed(body))
            with pytest.raises(CheckpointCorruptError, match="valid CRC"):
                read_checkpoint(ckpt)

    def test_table_mismatch_is_distinct(self, ckpt):
        with pytest.raises(
            CheckpointTableMismatchError, match="different routing table"
        ):
            read_checkpoint(ckpt, table_digest="digest-b")

    def test_missing_file_is_base_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_taxonomy_is_a_hierarchy(self):
        # Callers catching the base class see every flavour.
        for cls in (
            CheckpointCorruptError,
            CheckpointVersionError,
            CheckpointTableMismatchError,
        ):
            assert issubclass(cls, CheckpointError)


class TestInterruptedWrite:
    """Simulated kill-9 at every stage of the write path."""

    def test_crash_before_replace_leaves_previous_checkpoint(
        self, ckpt, store, monkeypatch
    ):
        before = open(ckpt, "rb").read()

        def exploding_replace(src, dst):
            raise OSError("simulated power loss before rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="power loss"):
            write_checkpoint(ckpt, [store], table_digest="digest-a")
        monkeypatch.undo()
        # The destination still holds the previous, fully-valid bytes.
        assert open(ckpt, "rb").read() == before
        read_checkpoint(ckpt, table_digest="digest-a")

    def test_failed_write_cleans_its_temp_file(self, tmp_path, store,
                                               monkeypatch):
        target = tmp_path / "state.ckpt"

        def exploding_replace(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            write_checkpoint(str(target), [store])
        monkeypatch.undo()
        leftovers = list(tmp_path.iterdir())
        assert leftovers == []  # no orphaned .tmp, no torn target

    def test_no_partial_file_is_ever_acceptable(self, tmp_path, store):
        """Every strict prefix of the on-disk bytes must be rejected.

        This is the strong form of the atomicity claim: even if the
        filesystem exposed a half-written temp file, no truncation
        point yields something ``read_checkpoint`` accepts.
        """
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, [store], table_digest="digest-a")
        blob = open(path, "rb").read()
        partial = str(tmp_path / "partial.ckpt")
        # Sample prefixes densely at the tail (where the CRC field and
        # payload live) and sparsely elsewhere to keep the test quick.
        cuts = set(range(0, len(blob), max(1, len(blob) // 64)))
        cuts.update(range(max(0, len(blob) - 32), len(blob)))
        for cut in sorted(cuts):
            with open(partial, "wb") as handle:
                handle.write(blob[:cut])
            with pytest.raises(CheckpointError):
                read_checkpoint(partial)

    def test_write_is_write_then_rename(self, tmp_path, store, monkeypatch):
        """The destination is only ever touched by os.replace."""
        target = tmp_path / "state.ckpt"
        replaced = []
        real_replace = os.replace

        def spying_replace(src, dst):
            # At replace time the temp file is complete and valid.
            assert os.path.getsize(src) > 0
            read_checkpoint(src)
            replaced.append((src, dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spying_replace)
        write_checkpoint(str(target), [store])
        assert len(replaced) == 1
        assert replaced[0][1] == str(target)
        assert os.path.dirname(replaced[0][0]) == str(tmp_path)


class _Detonator:
    """Unpickling this creates ``path`` — the canary for "the reader
    ran the file's code"."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


class TestParseOnly:
    """No file makes the reader execute anything."""

    @pytest.mark.parametrize("disguise", ["bare", "version-5 envelope"])
    def test_pickle_bomb_is_refused_unexecuted(self, tmp_path, disguise):
        sentinel = str(tmp_path / "executed")
        bomb = _Detonator(sentinel)
        if disguise != "bare":
            bomb = {
                "magic": "repro.engine.checkpoint", "version": 5,
                "crc32": 0, "payload": pickle.dumps(bomb), "table": bomb,
            }
        path = str(tmp_path / "bomb.ckpt")
        rewrite(path, pickle.dumps(bomb))
        with pytest.raises((CheckpointVersionError, CheckpointCorruptError)):
            read_checkpoint(path)
        assert not os.path.exists(sentinel)
        pickle.loads(open(path, "rb").read())  # the canary is live
        assert os.path.exists(sentinel)

    def test_genuine_version_5_file_is_version_skew(self):
        """``data/version5.ckpt`` was written by ``write_checkpoint`` at
        the last commit whose checkpoints were pickles."""
        path = os.path.join(os.path.dirname(__file__), "data", "version5.ckpt")
        with pytest.raises(CheckpointVersionError, match="version 5 or older"):
            read_checkpoint(path)

    @given(
        steps=st.lists(st.integers(min_value=0), max_size=6),
        intruder=st.sampled_from(
            [None, True, 1.5, -1, 2 ** 70, "x", [], [[]], {}, {"k": 1},
             [1, "x"], float("nan")]
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_crafted_document_parses_or_is_corrupt(self, steps, intruder):
        """A valid frame (so every header check passes) around a
        document with one node swapped for an arbitrary JSON value:
        the reader returns plain data or raises the corrupt class."""
        table = PackedLpm.from_items(
            [(Prefix.from_cidr("10.0.0.0/8"), None)]
        )
        store = ClusterStore()
        store.apply_batch(
            [(0x0A000001, "/a", 100), (0x0B000001, "/b", 200)], table
        )
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "crafted.ckpt")
            write_checkpoint(
                path, [store], table_digest="d",
                meta={"stream": "s", "route_diff": [("announce", 1, 8, 2, "A")]},
            )
            document = json.loads(open(path, "rb").read()[HEADER.size:])
            node, parent, key = document, None, None
            for step in steps:
                if isinstance(node, list) and node:
                    parent, key = node, step % len(node)
                elif isinstance(node, dict) and node:
                    parent, key = node, sorted(node)[step % len(node)]
                else:
                    break
                node = parent[key]
            if parent is None:
                document = intruder
            else:
                parent[key] = intruder
            rewrite(path, framed(json.dumps(document).encode("ascii")))
            try:
                stores, meta = read_checkpoint(path)
            except CheckpointCorruptError:
                return
            assert all(type(loaded) is ClusterStore for loaded in stores)
            assert type(meta) is dict


def rendered(store):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        print_cluster_report(store.snapshot(name="ckpt"), 0, None)
    return buffer.getvalue()


addresses = st.integers(min_value=0, max_value=2 ** 32 - 1)
counts = st.integers(min_value=1, max_value=2 ** 40)
prefixes = st.builds(
    Prefix, addresses, st.integers(min_value=0, max_value=32)
)


@st.composite
def stores_strategy(draw):
    """Stores built field by field — wider than ``apply_batch`` can
    reach (non-ASCII and lone-surrogate URLs, huge counters)."""
    from repro.engine.state import _ClusterState

    store = ClusterStore()
    for prefix in draw(st.lists(prefixes, max_size=4, unique=True)):
        store._clusters[prefix] = _ClusterState(
            requests=draw(counts),
            total_bytes=draw(st.integers(min_value=0, max_value=2 ** 70)),
            client_counts=draw(st.dictionaries(addresses, counts, max_size=4)),
            urls=draw(st.sets(st.text(max_size=6), max_size=3)),
            source_kind=draw(st.sampled_from(["", "bgp", "registry"])),
            source_name=draw(st.text(max_size=5)),
        )
    store._unclustered = draw(st.dictionaries(addresses, counts, max_size=3))
    store.entries_applied = draw(counts)
    store.lookups_performed = draw(counts)
    return store


route_rows = st.tuples(
    st.sampled_from(["announce", "withdraw"]), addresses,
    st.integers(min_value=0, max_value=32), st.integers(0, 2 ** 32),
    st.text(max_size=4),
)
metas = st.fixed_dictionaries(
    {},
    optional={
        "stream": st.text(max_size=8),
        "stream_events": st.integers(min_value=0),
        "base_digest": st.text(alphabet="0123456789abcdef", max_size=64),
        "route_diff": st.lists(route_rows, max_size=4),
    },
)


@given(
    stores=st.lists(stores_strategy(), min_size=1, max_size=3),
    meta=metas,
    generation=st.tuples(st.integers(0, 2 ** 40), st.integers(0, 2 ** 40)),
    mask=st.integers(min_value=1, max_value=255),
)
@settings(max_examples=25, deadline=None)
def test_codec_round_trips_and_every_damage_is_a_checkpoint_error(
    stores, meta, generation, mask
):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "state.ckpt")
        write_checkpoint(
            path, stores, table_digest="digest", meta=meta,
            routing_epoch=generation[0], deltas_applied=generation[1],
        )
        loaded, loaded_meta = read_checkpoint(path, table_digest="digest")
        assert [vars(store) for store in loaded] == [
            vars(store) for store in stores
        ]
        assert [rendered(store) for store in loaded] == [
            rendered(store) for store in stores
        ]
        assert loaded_meta == dict(
            meta, routing_epoch=generation[0], deltas_applied=generation[1],
            table_digest="digest",
        )

        blob = open(path, "rb").read()
        damaged = os.path.join(directory, "damaged.ckpt")
        for offset in range(len(blob)):
            flipped = bytearray(blob)
            flipped[offset] ^= mask
            rewrite(damaged, flipped)
            with pytest.raises(CheckpointError):
                read_checkpoint(damaged)
            rewrite(damaged, blob[:offset])
            with pytest.raises(CheckpointError):
                read_checkpoint(damaged)
