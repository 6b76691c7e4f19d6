"""The harness's loops print the same cluster report as the CLIs on
the same generated files, so the benchmark cannot drift from what
users run."""

import sys

from repro.engine.cli import main as engine_main
from repro.serve.cli import serve_main

from bench import workloads


def _table_flags(manifest):
    config = manifest["config"]
    flags = ["--lpm", config["lpm"], "--memo-size", str(config["memo_size"])]
    for path in manifest["tables"]:
        flags += ["--table", path]
    return flags


def _harness_report(manifest):
    state = workloads.SetUp(manifest, None)
    return workloads.RUNNERS[manifest["workload"]](manifest, state, None)["report"]


def test_batch_loop_prints_the_engine_clis_report(manifests, capsys):
    manifest = manifests["batch_file"]
    assert engine_main([manifest["files"]["log"]] + _table_flags(manifest)) == 0
    cli_output = capsys.readouterr().out
    report = _harness_report(manifest)
    assert report.count("\n") > 10
    assert cli_output.endswith(report)


def test_sharded_loop_prints_the_same_report_as_the_file_loop(manifests):
    # Same log, eight times over: same clusters and clients, 8x the requests.
    file_report = _harness_report(manifests["batch_file"]).splitlines()
    sharded_report = _harness_report(manifests["batch_sharded"]).splitlines()
    assert len(file_report) == len(sharded_report)
    cycles = manifests["batch_sharded"]["sizes"]["sharded_cycles"]
    rows = [
        (ours.split(), theirs.split())
        for ours, theirs in zip(file_report, sharded_report)
        if "/" in ours.split(" ")[0]
    ]
    assert len(rows) == manifests["batch_file"]["config"]["top"]
    for ours, theirs in rows:
        assert theirs[:2] == ours[:2]
        assert int(theirs[2].replace(",", "")) == cycles * int(ours[2].replace(",", ""))


def _serve_cli_output(manifest, extra, monkeypatch, capsys):
    with open(manifest["files"]["stream"]) as stream:
        monkeypatch.setattr(sys, "stdin", stream)
        assert serve_main(["--stdin"] + _table_flags(manifest) + extra) == 0
    return capsys.readouterr().out


def test_serve_loop_prints_the_serve_clis_report(manifests, monkeypatch, capsys):
    manifest = manifests["serve_churn"]
    cli_output = _serve_cli_output(manifest, [], monkeypatch, capsys)
    assert "route deltas" in cli_output
    assert cli_output.endswith(_harness_report(manifest))


def test_crashed_and_recovered_loop_prints_an_uninterrupted_clis_report(
    manifests, monkeypatch, capsys, tmp_path
):
    manifest = manifests["serve_durable"]
    config, sizes = manifest["config"], manifest["sizes"]
    flags = [
        "--wal", str(tmp_path / "wal"),
        "--wal-sync-every", str(config["wal_sync_every"]),
        "--wal-segment-bytes", str(config["wal_segment_bytes"]),
        "--checkpoint", str(tmp_path / "serve.ckpt"),
        "--checkpoint-every", str(sizes["durable_checkpoint_every"]),
    ]
    cli_output = _serve_cli_output(manifest, flags, monkeypatch, capsys)
    assert cli_output.endswith(_harness_report(manifest))
