"""Process-level tests for ``repro-engine serve``: signals, exit
codes, socket robustness, and kill-9 recovery through the real CLI.

Each test drives a subprocess the way an operator (or init system)
would: real SIGTERM/SIGINT/SIGKILL, real unix sockets, real WAL
directories.  Durability is observed from outside by reading the WAL
with ``repair=False`` — never mutating files the daemon holds open.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.bgp.table import RoutingTable
from repro.faults import SITE_SERVE_DISCONNECT, FaultPlan, FaultSpec
from repro.net.prefix import Prefix
from repro.serve.wal import recover_wal
from tests.engine.test_cli import BAD_PLANS, write_bad_plan

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

EVENT_LINES = [
    json.dumps({"type": "log", "client": f"10.1.0.{host}", "url": "/a"})
    for host in range(1, 7)
]


def make_dump(tmp_path):
    table = RoutingTable("AADS")
    for cidr in ("10.0.0.0/8", "10.1.0.0/16", "12.0.0.0/8"):
        table.add_prefix(Prefix.from_cidr(cidr))
    path = tmp_path / "aads.dump"
    path.write_text("".join(line + "\n" for line in table.to_lines()))
    return str(path)


def serve_command(dump, *extra):
    return [
        sys.executable,
        "-m",
        "repro.serve.cli",
        "--table",
        dump,
        *extra,
    ]


def spawn(dump, *extra, stdin=subprocess.PIPE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.Popen(
        serve_command(dump, *extra),
        stdin=stdin,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=REPO_ROOT,
    )


def wait_for(predicate, timeout=15.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {message}")


def durable_events(wal_dir):
    try:
        return recover_wal(wal_dir, repair=False).next_index
    except Exception:
        return 0


def feed_lines(proc, lines):
    proc.stdin.write(("\n".join(lines) + "\n").encode("ascii"))
    proc.stdin.flush()


class TestSignals:
    @pytest.mark.parametrize(
        "signum,expected",
        [(signal.SIGTERM, 3), (signal.SIGINT, 4)],
        ids=["sigterm_exit_3", "sigint_exit_4"],
    )
    def test_graceful_drain_exit_code_and_sealed_wal(
        self, tmp_path, signum, expected
    ):
        dump = make_dump(tmp_path)
        wal_dir = str(tmp_path / "wal")
        proc = spawn(
            dump,
            "--stdin",
            "--checkpoint",
            str(tmp_path / "serve.ckpt"),
            "--wal",
            wal_dir,
            "--wal-sync-every",
            "1",
        )
        try:
            feed_lines(proc, EVENT_LINES)
            wait_for(
                lambda: durable_events(wal_dir) >= len(EVENT_LINES),
                message="events to reach the WAL",
            )
            proc.send_signal(signum)
            stdout, stderr = proc.communicate(timeout=20)
        finally:
            proc.kill()
        assert proc.returncode == expected, stderr.decode()
        name = signal.Signals(signum).name
        assert f"graceful drain after {name}".encode() in stderr
        assert b"WAL sealed" in stderr
        recovery = recover_wal(wal_dir, repair=False)
        assert recovery.sealed
        assert recovery.next_index == len(EVENT_LINES)
        assert b"checkpoint written" in stdout

    def test_resume_after_drain_needs_no_stream(self, tmp_path):
        dump = make_dump(tmp_path)
        wal_dir = str(tmp_path / "wal")
        checkpoint = str(tmp_path / "serve.ckpt")
        proc = spawn(
            dump,
            "--stdin",
            "--checkpoint",
            checkpoint,
            "--wal",
            wal_dir,
            "--wal-sync-every",
            "1",
        )
        try:
            feed_lines(proc, EVENT_LINES)
            wait_for(
                lambda: durable_events(wal_dir) >= len(EVENT_LINES),
                message="events to reach the WAL",
            )
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=20)
        finally:
            proc.kill()
        assert proc.returncode == 3

        resumed = spawn(
            dump,
            "--stdin",
            "--resume",
            "--checkpoint",
            checkpoint,
            "--wal",
            wal_dir,
            stdin=subprocess.DEVNULL,
        )
        stdout, stderr = resumed.communicate(timeout=20)
        assert resumed.returncode == 0, stderr.decode()
        assert b"recovered from checkpoint + WAL" in stdout
        assert f"stream complete: {len(EVENT_LINES)} events".encode() in stdout


class TestKillNine:
    def test_sigkill_then_recover_matches_clean_run(self, tmp_path):
        dump = make_dump(tmp_path)
        wal_dir = str(tmp_path / "wal")
        checkpoint = str(tmp_path / "serve.ckpt")
        proc = spawn(
            dump,
            "--stdin",
            "--checkpoint",
            checkpoint,
            "--wal",
            wal_dir,
            "--wal-sync-every",
            "1",
        )
        try:
            feed_lines(proc, EVENT_LINES)
            wait_for(
                lambda: durable_events(wal_dir) >= len(EVENT_LINES),
                message="events to reach the WAL",
            )
        finally:
            proc.kill()
        proc.communicate(timeout=20)
        assert proc.returncode == -signal.SIGKILL

        recovered = spawn(
            dump,
            "--stdin",
            "--resume",
            "--checkpoint",
            checkpoint,
            "--wal",
            wal_dir,
            stdin=subprocess.DEVNULL,
        )
        rec_out, rec_err = recovered.communicate(timeout=20)
        assert recovered.returncode == 0, rec_err.decode()
        assert b"recovered from checkpoint + WAL" in rec_out

        clean = spawn(dump, "--stdin")
        clean_out, _ = clean.communicate(
            input=("\n".join(EVENT_LINES) + "\n").encode("ascii"), timeout=20
        )
        assert clean.returncode == 0

        def report_after_complete(blob):
            text = blob.decode()
            lines = text[text.index("stream complete:"):].splitlines()
            # The recovered run checkpoints; the clean reference run
            # does not — the clusters themselves must still be equal.
            return [
                line
                for line in lines
                if not line.startswith("checkpoint written:")
            ]

        # Byte-identical clusters through the whole CLI surface: the
        # recovered run's report equals a clean uninterrupted run's.
        assert report_after_complete(rec_out) == report_after_complete(
            clean_out
        )


class TestSocket:
    def test_disconnect_mid_frame_is_counted_and_loop_survives(
        self, tmp_path
    ):
        dump = make_dump(tmp_path)
        sock_path = str(tmp_path / "serve.sock")
        plan_path = str(tmp_path / "plan.json")
        FaultPlan.build(
            FaultSpec(site=SITE_SERVE_DISCONNECT, at=0, count=1)
        ).save(plan_path)
        wal_dir = str(tmp_path / "wal")
        proc = spawn(
            dump,
            "--socket",
            sock_path,
            "--max-errors",
            "10",
            "--inject",
            plan_path,
            "--wal",
            wal_dir,
            "--wal-sync-every",
            "1",
        )
        try:
            wait_for(
                lambda: os.path.exists(sock_path),
                message="the socket to be bound",
            )
            # Connection 1: the injected fault tears the first chunk in
            # half — a short line followed by a long one guarantees the
            # midpoint lands inside the second line, so exactly one
            # event survives and one torn fragment is abandoned.
            short = EVENT_LINES[0]
            long = json.dumps(
                {"type": "log", "client": "10.1.0.9", "url": "/" + "b" * 200}
            )
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as first:
                first.connect(sock_path)
                first.sendall((short + "\n" + long + "\n").encode("ascii"))
            # Connection 2 proves the accept loop survived.
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as second:
                second.connect(sock_path)
                second.sendall(
                    ("\n".join(EVENT_LINES[2:4]) + "\n").encode("ascii")
                )
            wait_for(
                lambda: durable_events(wal_dir) >= 3,
                message="post-disconnect events to reach the WAL",
            )
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=20)
        finally:
            proc.kill()
        assert proc.returncode == 3, stderr.decode()
        # First chunk was torn in half: one complete line got through,
        # the fragment was abandoned; connection 2 delivered both lines.
        assert b"stream complete: 3 events" in stdout
        assert b"skipped 1 undecodable event line(s)" in stderr


class TestUsage:
    @pytest.mark.parametrize("bad, message", [
        (["--top", "-1"], "argument --top: must be an integer >= 0: '-1'"),
        (["--busy", "0"], "argument --busy: must be in (0, 1]: '0'"),
        (["--busy", "1.5"], "argument --busy: must be in (0, 1]: '1.5'"),
        (["--checkpoint-every", "-3"], "--checkpoint-every must be >= 0"),
        (["--max-errors", "-1"], "--max-errors must be >= 0"),
        # Overload shedding is gone; its flag is not an option any more.
        (["--shed-watermark", "0"],
         "unrecognized arguments: --shed-watermark 0"),
    ], ids=[
        "top-negative", "busy-zero", "busy-above-one",
        "checkpoint-every-negative", "max-errors-negative",
        "shed-watermark-removed",
    ])
    def test_out_of_range_values_are_usage_errors(self, tmp_path, bad, message):
        ckpt = str(tmp_path / "c.ckpt")
        proc = spawn(
            make_dump(tmp_path), "--stdin", "--checkpoint", ckpt, *bad,
            stdin=subprocess.DEVNULL,
        )
        stdout, stderr = proc.communicate(timeout=20)
        assert proc.returncode == 2
        assert stdout == b""  # rejected before any table loads
        assert stderr.decode().splitlines()[-1] == (
            f"repro-engine serve: error: {message}"
        )
        assert not os.path.exists(ckpt)

    def test_packed_layout_is_not_a_choice(self, tmp_path):
        proc = spawn(
            make_dump(tmp_path), "--stdin", "--lpm", "packed",
            stdin=subprocess.DEVNULL,
        )
        stdout, stderr = proc.communicate(timeout=20)
        assert proc.returncode == 2
        assert stdout == b""
        assert b"argument --lpm: invalid choice: 'packed'" in stderr

    @pytest.mark.parametrize("case", sorted(BAD_PLANS))
    def test_bad_inject_plans_are_usage_errors(self, tmp_path, case):
        plan, message = write_bad_plan(tmp_path, case)
        proc = spawn(
            make_dump(tmp_path), "--stdin", "--inject", plan,
            stdin=subprocess.DEVNULL,
        )
        stdout, stderr = proc.communicate(timeout=20)
        assert proc.returncode == 2
        assert stdout == b""  # rejected before any table loads
        last = stderr.decode().splitlines()[-1]
        assert last.startswith("repro-engine serve: error: --inject: ")
        assert message in last

    def test_missing_table_is_a_usage_error(self, tmp_path):
        missing = str(tmp_path / "absent.dump")
        proc = spawn(missing, "--stdin", stdin=subprocess.DEVNULL)
        stdout, stderr = proc.communicate(timeout=20)
        assert proc.returncode == 2
        assert stdout == b""
        assert b"Traceback" not in stderr
        assert stderr.decode().splitlines()[-1] == (
            f"repro-engine serve: error: no such file: {missing}"
        )
