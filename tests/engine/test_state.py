"""ClusterStore: accumulation, merging, checkpoint format guards."""

import struct

import pytest

from repro.engine.packed import PackedLpm
from repro.engine.state import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    ClusterStore,
    read_checkpoint,
    write_checkpoint,
)
from repro.net.prefix import Prefix

TABLE = PackedLpm.from_items([
    (Prefix.from_cidr("10.0.0.0/8"), None),
    (Prefix.from_cidr("10.1.0.0/16"), None),
    (Prefix.from_cidr("192.168.0.0/16"), None),
])

A_10 = Prefix.from_cidr("10.9.0.1/32").network          # -> 10.0.0.0/8
A_10_1 = Prefix.from_cidr("10.1.2.3/32").network        # -> 10.1.0.0/16
A_192 = Prefix.from_cidr("192.168.5.5/32").network      # -> 192.168.0.0/16
A_MISS = Prefix.from_cidr("172.16.0.1/32").network      # unclustered


def _store(triples):
    store = ClusterStore()
    store.apply_batch(triples, TABLE)
    return store


class TestAccumulation:
    def test_apply_batch_groups_by_matched_prefix(self):
        store = _store([
            (A_10, "/a", 100),
            (A_10, "/b", 50),
            (A_10_1, "/a", 10),
            (A_MISS, "/x", 1),
        ])
        snap = store.snapshot()
        assert [c.identifier.cidr for c in snap.clusters] == [
            "10.0.0.0/8", "10.1.0.0/16",
        ]
        top = snap.clusters[0]
        assert top.requests == 2
        assert top.total_bytes == 150
        assert top.unique_urls == 2
        assert snap.unclustered_clients == [A_MISS]
        assert store.entries_applied == 4
        assert store.lookups_performed == 4

    def test_merge_equals_single_pass(self):
        triples = [
            (A_10, "/a", 5), (A_10_1, "/b", 7), (A_192, "/c", 9),
            (A_10, "/a", 5), (A_MISS, "/d", 1), (A_10_1, "/a", 2),
        ]
        single = _store(triples)
        left = _store(triples[:3])
        right = _store(triples[3:])
        merged = ClusterStore().merge(left).merge(right)
        assert _rendered(merged) == _rendered(single)
        assert merged.entries_applied == single.entries_applied

    def test_copy_isolates_accumulators(self):
        store = _store([(A_10, "/a", 1)])
        clone = store.copy()
        store.apply_batch([(A_10, "/z", 9)], TABLE)
        assert clone.snapshot().clusters[0].requests == 1
        assert store.snapshot().clusters[0].requests == 2


class TestCheckpointFormat:
    def test_roundtrip(self, tmp_path):
        stores = [_store([(A_10, "/a", 1)]), _store([(A_192, "/b", 2)])]
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, stores, table_digest=TABLE.digest(),
                         meta={"num_shards": 2})
        loaded, meta = read_checkpoint(path, table_digest=TABLE.digest())
        assert meta["num_shards"] == 2
        assert len(loaded) == 2
        combined = ClusterStore().merge(loaded[0]).merge(loaded[1])
        expected = ClusterStore().merge(stores[0].copy()).merge(stores[1].copy())
        assert _rendered(combined) == _rendered(expected)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(struct.pack(">8sIQI", b"SOMEELSE", 1, 0, 0))
        with pytest.raises(CheckpointError, match="not a repro.engine"):
            read_checkpoint(str(path))

    def test_rejects_unreadable_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(str(tmp_path / "missing.ckpt"))

    def test_rejects_version_skew(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_bytes(
            struct.pack(">8sIQI", CHECKPOINT_MAGIC, CHECKPOINT_VERSION + 1, 0, 0)
        )
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(str(path))

    def test_rejects_table_mismatch(self, tmp_path):
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, [_store([])], table_digest=TABLE.digest())
        other = PackedLpm.from_items([(Prefix.from_cidr("1.0.0.0/8"), None)])
        with pytest.raises(CheckpointError, match="different routing table"):
            read_checkpoint(path, table_digest=other.digest())
        # No digest supplied -> the check is waived.
        stores, _ = read_checkpoint(path)
        assert len(stores) == 1


def _rendered(store):
    snap = store.snapshot()
    return [
        (c.identifier, tuple(c.clients), c.requests, c.unique_urls,
         c.total_bytes)
        for c in snap.clusters
    ] + [tuple(snap.unclustered_clients)]
