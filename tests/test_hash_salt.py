"""Output files must not depend on the interpreter's hash salt.

``hash()`` of a ``str`` is salted per process (``PYTHONHASHSEED``), so
anything derived from it — a seed, a set's iteration order — changes
from run to run.  Table 3 once seeded its cluster sample that way, and
engine checkpoints once wrote each cluster's URL set in iteration
order; these run each in two processes under different salts and
require identical files.  (CI runs every experiment the same way at
full scale.)
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_table3(out_dir: str, salt: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONHASHSEED"] = salt
    subprocess.run(
        [sys.executable, "-m", "repro.experiments", "table3",
         "--scale", "0.1", "--output", out_dir],
        check=True, env=env, cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
        timeout=300,
    )
    with open(os.path.join(out_dir, "table3.txt")) as handle:
        return handle.read()


def test_table3_is_identical_under_two_hash_salts(tmp_path):
    first = _run_table3(str(tmp_path / "salt-1"), "1")
    second = _run_table3(str(tmp_path / "salt-2"), "2")
    assert first == second


def test_engine_checkpoint_is_identical_under_two_hash_salts(tmp_path):
    # One cluster with many URLs: a URL set written in iteration order
    # would come out in a different order under each salt.
    stamp = "[13/Feb/1998:09:12:01 +0000]"
    log = tmp_path / "access.log"
    log.write_text("".join(
        f'12.65.147.{index % 8} - - {stamp} "GET /page{index} HTTP/1.0" 200 {index}\n'
        for index in range(64)
    ))
    dump = tmp_path / "routes.txt"
    dump.write_text("12.65.128.0/19\thop1\t7018\n")
    files = []
    for salt in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        env["PYTHONHASHSEED"] = salt
        path = str(tmp_path / f"salt-{salt}.ckpt")
        subprocess.run(
            [sys.executable, "-m", "repro.engine.cli", str(log),
             "--table", str(dump), "--checkpoint", path],
            check=True, env=env, cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
            timeout=300,
        )
        with open(path, "rb") as handle:
            files.append(handle.read())
    assert files[0] == files[1]
