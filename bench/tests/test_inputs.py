"""Input determinism and the environment record."""

from bench import inputs, run
from bench.tests.conftest import TINY_SCALE


def test_same_seed_same_bytes_other_seed_other_bytes(manifests, tmp_path):
    for workload, first in manifests.items():
        again = inputs.generate(workload, 7, TINY_SCALE, str(tmp_path / "again"))
        other = inputs.generate(workload, 8, TINY_SCALE, str(tmp_path / "other"))
        assert again["sha256"] == first["sha256"], workload
        assert again["events"] == first["events"]
        assert set(other["sha256"]) == set(first["sha256"])
        assert all(
            other["sha256"][name] != digest
            for name, digest in first["sha256"].items()
        ), workload


def test_streams_interleave_deltas_as_specified(manifests):
    sizes = manifests["serve_churn"]["sizes"]
    with open(manifests["serve_churn"]["files"]["stream"]) as handle:
        kinds = ['"type": "log"' in line for line in handle]
    every = sizes["churn_delta_every"]
    assert kinds.count(True) == sizes["churn_requests"]
    assert kinds.count(False) == sizes["churn_requests"] // every
    assert kinds[:every + 2] == [True] * every + [False, True]

    sizes = manifests["serve_durable"]["sizes"]
    with open(manifests["serve_durable"]["files"]["stream"]) as handle:
        kinds = ['"type": "log"' in line for line in handle]
    every, burst = sizes["durable_burst_every"], sizes["durable_burst"]
    assert kinds[every - 1:every + burst + 1] == [True] + [False] * burst + [True]


def test_environment_record_says_what_it_ran_on(tmp_path):
    import os

    env = run.environment(str(tmp_path))
    assert env["cpu_count"] == os.cpu_count()
    assert set(env) == {
        "cpu_count", "python", "platform", "workdir_fs", "git_commit",
    }
    assert all(env.values())
