"""Experiment output must not depend on the interpreter's hash salt.

``hash()`` of a ``str`` is salted per process (``PYTHONHASHSEED``), so
anything derived from it — a seed, a set's iteration order — changes
from run to run.  Table 3 once seeded its cluster sample that way; this
runs it in two processes under different salts and requires identical
files.  (CI runs every experiment the same way at full scale.)
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
