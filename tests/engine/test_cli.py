"""Unit tests for the repro-engine command-line front end."""

import os
import re
import subprocess
import sys

import pytest

from repro.cli import main as cluster_main
from repro.engine.cli import _entries_to_skip, build_parser, main

ACCESS_LOG = """\
12.65.147.94 - - [13/Feb/1998:09:12:01 +0000] "GET /a HTTP/1.0" 200 100
12.65.147.149 - - [13/Feb/1998:09:12:07 +0000] "GET /b HTTP/1.0" 200 200
24.48.3.87 - - [13/Feb/1998:09:16:33 +0000] "GET /a HTTP/1.0" 200 100
24.48.2.166 - - [13/Feb/1998:09:17:20 +0000] "GET /c HTTP/1.0" 200 300
garbage line
"""

DUMP = """\
12.65.128.0/19\thop1\t7018
24.48.2.0/255.255.254.0\thop2\t64500
"""


#: ``--inject`` plans each CLI must refuse as a usage error (exit 2,
#: one line, before any table loads): id -> (file text or None for a
#: missing file, the message after ``--inject: ``).
BAD_PLANS = {
    "missing-file": (None, "[Errno 2] No such file or directory"),
    "not-json": ("nope\n", "Expecting value: line 1 column 1 (char 0)"),
    "not-an-object": ("[]\n", "a fault plan must be a JSON object: []"),
    "unknown-site": (
        '{"specs": [{"site": "worker.meltdown"}]}',
        "unknown injection site: 'worker.meltdown'",
    ),
    "unknown-key": (
        '{"specs": [{"site": "checkpoint.corrupt", "bogus": 1}]}',
        "unknown fault spec key 'bogus' (known: arg, at, count, site)",
    ),
    "removed-site": (
        '{"specs": [{"site": "worker.slow", "arg": 0.5}]}',
        "unknown injection site: 'worker.slow'",
    ),
    "removed-crash-site": (
        '{"specs": [{"site": "worker.crash"}]}',
        "unknown injection site: 'worker.crash'",
    ),
    "removed-shard-field": (
        '{"specs": [{"site": "checkpoint.corrupt", "shard": 0}]}',
        "unknown fault spec key 'shard' (known: arg, at, count, site)",
    ),
    "wrong-type": (
        '{"seed": "7", "specs": []}',
        "fault plan key 'seed' has a bad value: '7'",
    ),
}


def write_bad_plan(tmp_path, case):
    """The path ``--inject`` gets for ``BAD_PLANS[case]``, and the
    message it must fail with."""
    text, message = BAD_PLANS[case]
    path = tmp_path / "plan.json"
    if text is not None:
        path.write_text(text)
    return str(path), message


@pytest.fixture()
def files(tmp_path):
    log = tmp_path / "access.log"
    log.write_text(ACCESS_LOG)
    dump = tmp_path / "routes.txt"
    dump.write_text(DUMP)
    return str(log), str(dump)


class TestBasicRun:
    def test_clusters_and_prints(self, files, capsys):
        log, dump = files
        assert main([log, "--table", dump, "--chunk-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "stride LPM table" in out
        assert "12.65.128.0/19" in out
        assert "24.48.2.0/23" in out
        assert "parsed 4" in out

    def test_metrics_flag(self, files, capsys):
        log, dump = files
        assert main([log, "--table", dump, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "engine metrics" in out
        assert "shard_skew" in out

    def test_requires_a_table(self, files):
        log, _ = files
        with pytest.raises(SystemExit):
            main([log])

    @pytest.mark.parametrize("missing", ["log", "table"])
    def test_missing_input_is_a_usage_error(self, files, tmp_path, missing):
        log, dump = files
        absent = str(tmp_path / f"absent.{missing}")
        argv = [absent, "--table", dump] if missing == "log" else [
            log, "--table", absent
        ]
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.engine.cli", *argv],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1] == (
            f"repro-engine: error: no such file: {absent}"
        )

    def test_max_errors_aborts(self, tmp_path, files, capsys):
        _, dump = files
        bad = tmp_path / "bad.log"
        bad.write_text("nonsense\nmore nonsense\n")
        assert main([str(bad), "--table", dump, "--max-errors", "0"]) == 1
        assert "aborting" in capsys.readouterr().err


    def test_empty_log_fails_cleanly(self, tmp_path, files, capsys):
        _, dump = files
        log = tmp_path / "empty.log"
        log.write_text("")
        assert main([str(log), "--table", dump]) == 1
        assert "nothing to cluster" in capsys.readouterr().err

    def test_sharded_rows_match_single_pass_cli(self, files, capsys):
        """repro-engine (the sharded engine, chunked) prints
        repro-cluster's rows."""
        log, dump = files
        assert cluster_main([log, "--table", dump]) == 0
        single = _cluster_table(capsys.readouterr().out)
        assert main([log, "--table", dump, "--chunk-size", "2"]) == 0
        assert _cluster_table(capsys.readouterr().out) == single


def _cluster_table(out):
    """The rendered cluster table (title row onward) from CLI output."""
    lines = out.splitlines()
    start = next(
        i for i, line in enumerate(lines) if "clusters by requests" in line
    )
    return "\n".join(lines[start:])


class TestFastpathFlags:
    """--lpm / --memo-size: the stride table, with and without the memo,
    prints cluster_log's table."""

    @pytest.fixture()
    def baseline_table(self, files, capsys):
        log, dump = files
        assert cluster_main([log, "--table", dump]) == 0
        return _cluster_table(capsys.readouterr().out)

    def test_stride_output_is_byte_identical(self, files, baseline_table,
                                             capsys):
        log, dump = files
        assert main([log, "--table", dump, "--lpm", "stride"]) == 0
        out = capsys.readouterr().out
        assert "stride LPM table" in out
        assert "direct slots" in out
        assert _cluster_table(out) == baseline_table

    def test_memoized_output_is_byte_identical(self, files, baseline_table,
                                               capsys):
        log, dump = files
        assert main([log, "--table", dump, "--memo-size", "4",
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "memo" in out
        assert "memo_hits" in out
        table = _cluster_table(out[: out.index("engine metrics")])
        assert table.strip() == baseline_table.strip()

    def test_stride_resume_from_packed_checkpoint(self, tmp_path, files,
                                                  baseline_table, capsys):
        """A checkpoint written on the packed layout (what --lpm packed
        compiled), with the meta this CLI records, resumes on the stride
        table + memo with an identical final table."""
        from repro.cli import load_tables
        from repro.engine.packed import PackedLpm
        from repro.engine.shard import ShardedClusterEngine
        from repro.weblog.parser import iter_clf_entries

        log, dump = files
        ckpt = str(tmp_path / "run.ckpt")
        with open(log) as handle:
            triples = list(iter_clf_entries(handle))
        packed = PackedLpm.from_merged(load_tables([dump]))
        with ShardedClusterEngine(packed) as engine:
            engine.ingest(triples)
            engine.checkpoint(
                ckpt, extra_meta={"log": log, "log_entries": len(triples)}
            )
        assert main([log, "--table", dump, "--lpm", "stride",
                     "--memo-size", "64", "--checkpoint", ckpt,
                     "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        assert "skipping the first" in out
        assert _cluster_table(out) == baseline_table

    def test_rejects_bad_flags(self, files):
        log, dump = files
        for bad in (
            ["--lpm", "radix"],
            ["--lpm", "packed"],  # stride is the only layout
            ["--memo-size", "-1"],
            ["--chunk-size", "0"],
            ["--shm"],
            ["--resume"],  # no --checkpoint to resume from
            # One process, no workers: the transport's flags are gone.
            ["--shards", "2"],
            ["--dispatch-timeout", "1"],
            ["--no-degrade"],
        ):
            with pytest.raises(SystemExit) as caught:
                main([log, "--table", dump] + bad)
            assert caught.value.code == 2
        # ...and it is a usage error before any table is opened.
        with pytest.raises(SystemExit) as caught:
            main([log, "--table", dump + ".absent", "--resume"])
        assert caught.value.code == 2
        # No transport switch under any spelling (negated form included).
        assert "shm" not in build_parser().format_help()

    @pytest.mark.parametrize("bad, message", [
        (["--top", "-1"], "argument --top: must be an integer >= 0: '-1'"),
        (["--busy", "0"], "argument --busy: must be in (0, 1]: '0'"),
        (["--busy", "1.5"], "argument --busy: must be in (0, 1]: '1.5'"),
        (["--checkpoint-every", "-3"], "--checkpoint-every must be >= 0"),
        (["--max-errors", "-1"], "--max-errors must be >= 0"),
        # Nothing is retried: the supervision options are gone.
        (["--retries", "1"], "unrecognized arguments: --retries 1"),
        (["--backoff", "0"], "unrecognized arguments: --backoff 0"),
        (["--quarantine", "P"], "unrecognized arguments: --quarantine P"),
    ], ids=[
        "top-negative", "busy-zero", "busy-above-one",
        "checkpoint-every-negative", "max-errors-negative",
        "removed-retries", "removed-backoff", "removed-quarantine",
    ])
    def test_out_of_range_values_are_usage_errors(
        self, files, tmp_path, capsys, bad, message
    ):
        log, dump = files
        ckpt = str(tmp_path / "run.ckpt")
        with pytest.raises(SystemExit) as caught:
            main([log, "--table", dump, "--checkpoint", ckpt, *bad])
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any table loads
        assert captured.err.splitlines()[-1] == f"repro-engine: error: {message}"
        assert not os.path.exists(ckpt)

    @pytest.mark.parametrize("case", sorted(BAD_PLANS))
    def test_bad_inject_plans_are_usage_errors(
        self, files, tmp_path, capsys, case
    ):
        log, dump = files
        plan, message = write_bad_plan(tmp_path, case)
        with pytest.raises(SystemExit) as caught:
            main([log, "--table", dump, "--inject", plan])
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any table loads
        last = captured.err.splitlines()[-1]
        assert last.startswith("repro-engine: error: --inject: ")
        assert message in last


class TestCheckpointFlow:
    def test_resume_same_log_skips_already_ingested(self, tmp_path, files,
                                                    capsys):
        log, dump = files
        ckpt = str(tmp_path / "run.ckpt")
        assert main([log, "--table", dump, "--checkpoint", ckpt]) == 0
        first = capsys.readouterr().out
        assert "checkpoint written" in first
        # Resuming against the same log skips its already-counted prefix,
        # so nothing is double-counted and the table is unchanged.
        assert main([log, "--table", dump, "--checkpoint", ckpt,
                     "--resume"]) == 0
        second = capsys.readouterr().out
        assert "resumed from" in second
        assert "4 entries already ingested" in second
        assert "skipping the first 4 entries" in second
        assert _cluster_table(second) == _cluster_table(first)

    def test_interrupted_run_resumes_to_identical_table(self, tmp_path,
                                                        capsys):
        dump = tmp_path / "routes.txt"
        dump.write_text(DUMP)
        log = tmp_path / "access.log"
        # The uninterrupted baseline over the full log.
        log.write_text(ACCESS_LOG)
        assert main([str(log), "--table", str(dump)]) == 0
        expected = _cluster_table(capsys.readouterr().out)
        # "Interrupted" run: only the first half of the log existed when
        # the checkpoint was written...
        ckpt = str(tmp_path / "run.ckpt")
        half = "".join(ACCESS_LOG.splitlines(keepends=True)[:2])
        log.write_text(half)
        assert main([str(log), "--table", str(dump),
                     "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        # ...then the full log is replayed with --resume: the first two
        # entries are skipped, the rest ingested, and the final table
        # matches the uninterrupted run exactly.
        log.write_text(ACCESS_LOG)
        assert main([str(log), "--table", str(dump), "--checkpoint", ckpt,
                     "--resume"]) == 0
        out = capsys.readouterr().out
        assert "skipping the first 2 entries" in out
        assert _cluster_table(out) == expected

    def test_resume_mid_log_counts_entries_not_lines(self, tmp_path, capsys):
        # Positions in a checkpoint are *entries*: junk, blank and
        # 0.0.0.0 lines take none, and a line the fast pattern declines
        # but the grammar parses takes exactly one, like any other.
        stamp = "[13/Feb/1998:09:12:01 +0000]"
        lines = [
            f'12.65.147.94 - - {stamp} "GET /a HTTP/1.0" 200 100',
            "garbage line",
            f'12.65.147.149 - - {stamp} "/only" 200 200',
            "",
            f'0.0.0.0 - - {stamp} "GET /null HTTP/1.0" 200 1',
            f'24.48.3.87 - - {stamp} "get /lower HTTP/1.0" 200 100',
            f'24.48.2.166 - - {stamp} "GET /four tokens HTTP/1.0" 200 300',
            "more garbage",
            f'12.65.147.94 - - {stamp} "GET /b HTTP/1.0" 200 - "-" "agent"',
            f'24.48.3.87 - - {stamp} "GET /c HTTP/1.0" 200 7',
        ]
        dump = tmp_path / "routes.txt"
        dump.write_text(DUMP)
        log = tmp_path / "access.log"
        run = [str(log), "--table", str(dump), "--chunk-size", "2"]
        log.write_text("\n".join(lines) + "\n")
        assert main(run) == 0
        expected = _cluster_table(capsys.readouterr().out)

        ckpt = str(tmp_path / "run.ckpt")
        log.write_text("\n".join(lines[:6]) + "\n")
        assert main(run + ["--checkpoint", ckpt]) == 0
        assert "parsed 3 requests (1 malformed, 1 null-client" in (
            capsys.readouterr().out
        )
        log.write_text("\n".join(lines) + "\n")
        assert main(run + ["--checkpoint", ckpt, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "skipping the first 3 entries" in out
        assert "parsed 6 requests (2 malformed, 1 null-client" in out
        assert _cluster_table(out) == expected

    def test_resume_different_log_appends(self, tmp_path, files, capsys):
        log, dump = files
        ckpt = str(tmp_path / "run.ckpt")
        assert main([log, "--table", dump, "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        other = tmp_path / "other.log"
        other.write_text(
            '12.65.147.94 - - [13/Feb/1998:10:00:00 +0000] '
            '"GET /d HTTP/1.0" 200 50\n'
        )
        assert main([str(other), "--table", dump, "--checkpoint", ckpt,
                     "--resume"]) == 0
        out = capsys.readouterr().out
        assert "appending all of" in out
        # 4 restored + 1 appended; the /19 cluster now holds 3 requests.
        assert "5 entries already ingested" not in out  # restored 4, not 5
        assert "parsed 1" in out

    def test_entries_to_skip_branches(self, capsys):
        assert _entries_to_skip({}, "a.log") == 0
        assert _entries_to_skip(
            {"log": "a.log", "log_entries": 7}, "a.log"
        ) == 7
        assert _entries_to_skip(
            {"log": "b.log", "log_entries": 7}, "a.log"
        ) == 0
        # Engine-API checkpoints record no source log: never skip.
        assert _entries_to_skip({"num_shards": 2}, "a.log") == 0

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path, files,
                                                    capsys):
        log, dump = files
        ckpt = str(tmp_path / "never-written.ckpt")
        assert main([log, "--table", dump, "--checkpoint", ckpt,
                     "--resume"]) == 0
        assert "starting fresh" in capsys.readouterr().out

    def test_checkpoint_every_requires_path(self, files):
        log, dump = files
        with pytest.raises(SystemExit):
            main([log, "--table", dump, "--checkpoint-every", "100"])

    def test_periodic_checkpointing(self, tmp_path, files, capsys):
        log, dump = files
        ckpt = str(tmp_path / "period.ckpt")
        assert main([log, "--table", dump, "--chunk-size", "2",
                     "--checkpoint", ckpt, "--checkpoint-every", "2",
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        # Two mid-run checkpoints (after each 2-entry chunk) + the final.
        assert "checkpoints_written" in out
        assert "checkpoint written" in out


class TestFaultFlags:
    """The robustness surface: --inject, corrupt --resume."""

    def test_corrupt_checkpoint_fails_resume_with_actionable_error(
        self, tmp_path, files, capsys
    ):
        log, dump = files
        ckpt = str(tmp_path / "run.ckpt")
        assert main([log, "--table", dump, "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        # Flip one payload byte: the CRC must catch it on resume.
        blob = bytearray(open(ckpt, "rb").read())
        blob[-5] ^= 0xFF
        with open(ckpt, "wb") as handle:
            handle.write(bytes(blob))
        assert main([log, "--table", dump, "--checkpoint", ckpt,
                     "--resume"]) == 1
        err = capsys.readouterr().err
        assert "cannot resume" in err
        assert "corrupt" in err
        assert "restore from an older checkpoint" in err

    def test_truncated_checkpoint_fails_resume(self, tmp_path, files,
                                               capsys):
        log, dump = files
        ckpt = str(tmp_path / "run.ckpt")
        assert main([log, "--table", dump, "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        blob = open(ckpt, "rb").read()
        with open(ckpt, "wb") as handle:
            handle.write(blob[: len(blob) // 3])
        assert main([log, "--table", dump, "--checkpoint", ckpt,
                     "--resume"]) == 1
        assert "cannot resume" in capsys.readouterr().err

    def test_inject_plan_is_loaded_and_survived(self, tmp_path, files,
                                                capsys):
        from repro.faults import (
            SITE_CHECKPOINT_CORRUPT,
            FaultPlan,
            FaultSpec,
        )

        log, dump = files
        plan_path = str(tmp_path / "plan.json")
        FaultPlan.build(
            FaultSpec(site=SITE_CHECKPOINT_CORRUPT, at=0, count=1), seed=3
        ).save(plan_path)
        ckpt = str(tmp_path / "run.ckpt")
        # The damaged checkpoint is rewritten and the run completes with
        # the same table an undisturbed run prints.
        assert main([log, "--table", dump]) == 0
        undisturbed = _cluster_table(capsys.readouterr().out)
        assert main([log, "--table", dump, "--inject", plan_path,
                     "--checkpoint", ckpt, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "fault injection armed" in out
        assert "checkpoint.corrupt" in out
        assert re.search(r"^checkpoint_rewrites +1$", out, re.MULTILINE)
        # Compare only the cluster table; the metrics block rightly
        # differs (it records the rewrite).
        table_only = out[: out.index("engine metrics")]
        assert _cluster_table(table_only).strip() == undisturbed.strip()
        # ...and the rewritten checkpoint resumes to the same table.
        assert main([log, "--table", dump, "--checkpoint", ckpt,
                     "--resume"]) == 0
        assert _cluster_table(capsys.readouterr().out) == undisturbed

    def test_log_truncation_fault_shrinks_the_run(self, tmp_path, files,
                                                  capsys):
        from repro.faults import (
            SITE_LOG_TRUNCATE,
            FaultPlan,
            FaultSpec,
        )

        log, dump = files
        plan_path = str(tmp_path / "plan.json")
        FaultPlan.build(
            FaultSpec(site=SITE_LOG_TRUNCATE, arg=2), seed=3
        ).save(plan_path)
        assert main([log, "--table", dump, "--inject", plan_path]) == 0
        assert "parsed 2" in capsys.readouterr().out

    def test_stride_identical_under_fault_plan(self, tmp_path, files,
                                               capsys):
        """--lpm stride + --memo-size under a damaged checkpoint still
        prints the exact table an undisturbed run prints."""
        from repro.faults import SITE_CHECKPOINT_CORRUPT, FaultPlan, FaultSpec

        log, dump = files
        plan_path = str(tmp_path / "plan.json")
        FaultPlan.build(
            FaultSpec(site=SITE_CHECKPOINT_CORRUPT, at=0, count=1), seed=3
        ).save(plan_path)
        assert main([log, "--table", dump]) == 0
        undisturbed = _cluster_table(capsys.readouterr().out)
        assert main([log, "--table", dump, "--lpm", "stride",
                     "--memo-size", "64", "--inject", plan_path,
                     "--checkpoint", str(tmp_path / "run.ckpt")]) == 0
        disturbed = capsys.readouterr().out
        assert "stride LPM table" in disturbed
        assert _cluster_table(disturbed).strip() == undisturbed.strip()
