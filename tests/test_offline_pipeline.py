"""End-to-end offline pipeline: everything through files.

The paper's workflow was file-based: collected dump files plus server
log files in, cluster reports out.  This test drives the same flow:
the synthetic world is serialised to disk (one dump per source, written
with ``RoutingTable.to_lines`` + a CLF log), then the analysis runs
purely from those files — through the shipped loader
(``repro.cli.load_tables``) and through the ``repro-cluster`` CLI.
"""

import os

import pytest

from repro.cli import load_tables, main as cli_main
from repro.core.clustering import cluster_log
from repro.weblog.parser import load_clf
from repro.weblog.writer import save_log


@pytest.fixture(scope="module")
def on_disk(factory, nagano_log, tmp_path_factory):
    root = tmp_path_factory.mktemp("offline")
    dumps = []
    for snapshot in factory.snapshots_all_sources():
        path = root / f"{snapshot.name}.dump"
        path.write_text("".join(line + "\n" for line in snapshot.to_lines()))
        dumps.append(str(path))
    log_path = root / "access.log"
    save_log(nagano_log.log, log_path)
    return dumps, log_path


class TestLibraryOfflineFlow:
    def test_disk_pipeline_matches_memory_pipeline(
        self, on_disk, factory, nagano_log
    ):
        dumps, log_path = on_disk
        table = load_tables(dumps)
        with open(log_path) as handle:
            log = load_clf("access", handle)
        from_disk = cluster_log(log, table)
        in_memory = cluster_log(nagano_log.log, factory.merged())
        assert len(from_disk) == len(in_memory)
        assert from_disk.clustered_fraction == pytest.approx(
            in_memory.clustered_fraction
        )
        assert {c.identifier for c in from_disk.clusters} == {
            c.identifier for c in in_memory.clusters
        }


class TestCliOfflineFlow:
    def test_cli_clusters_from_files(self, on_disk, capsys):
        dumps, log_path = on_disk
        dump_args = []
        for path in dumps:
            dump_args.extend(["--table", path])
        assert cli_main([str(log_path), *dump_args, "--busy", "0.7"]) == 0
        out = capsys.readouterr().out
        assert "clusters over" in out
        assert "busy" in out

    def test_cli_with_subset_of_dumps_covers_less(self, on_disk, capsys):
        dumps, log_path = on_disk
        smallest = min(dumps, key=os.path.getsize)
        assert cli_main([str(log_path), "--table", smallest]) == 0
        out = capsys.readouterr().out
        assert "unclustered clients:" in out  # one tiny view can't cover all
