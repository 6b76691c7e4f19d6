"""LintCache: key derivation, round-trips, pruning, and CLI wiring."""

from __future__ import annotations

import json

import pytest

import repro.analysis.flow as flow_mod
from repro.analysis.cache import DEFAULT_CACHE_PATH, LintCache, source_hash
from repro.analysis.cli import main
from repro.analysis.core import Finding

LEAKY = (
    "def build(path, flag):\n"
    "    handle = open(path, 'w')\n"
    "    if flag:\n"
    "        return None\n"
    "    handle.close()\n"
    "    return None\n"
)


def a_finding(path="pkg/mod.py", line=3):
    return Finding(
        path=path, line=line, col=0, rule_id="resource-leak", message="leaked"
    )


# -- key derivation ---------------------------------------------------------


def test_flow_key_tracks_source_and_fingerprint():
    base = LintCache.flow_key(source_hash("x = 1\n"), "fp-a")
    assert LintCache.flow_key(source_hash("x = 2\n"), "fp-a") != base
    assert LintCache.flow_key(source_hash("x = 1\n"), "fp-b") != base
    assert LintCache.flow_key(source_hash("x = 1\n"), "fp-a") == base


def test_project_key_tracks_sources_docs_and_rules():
    base = LintCache.project_key(["s1", "s2"], ["d1"], ["rule-a"])
    assert LintCache.project_key(["s1", "s3"], ["d1"], ["rule-a"]) != base
    assert LintCache.project_key(["s1", "s2"], ["d2"], ["rule-a"]) != base
    assert LintCache.project_key(["s1", "s2"], ["d1"], ["rule-b"]) != base
    # order-insensitive: hashing sorts the inputs
    assert LintCache.project_key(["s2", "s1"], ["d1"], ["rule-a"]) == base


# -- persistence ------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    cache_file = tmp_path / "cache.json"
    cache = LintCache(cache_file)
    assert cache.get("k1") is None
    cache.put("k1", [a_finding()])
    cache.save()

    reloaded = LintCache(cache_file)
    findings = reloaded.get("k1")
    assert findings == [a_finding()]
    assert reloaded.hits == 1


def test_corrupt_cache_file_means_cold_run(tmp_path):
    cache_file = tmp_path / "cache.json"
    cache_file.write_text("{not json", encoding="utf-8")
    cache = LintCache(cache_file)
    assert cache.get("k1") is None
    # and saving over the corrupt file works
    cache.put("k1", [])
    cache.save()
    assert LintCache(cache_file).get("k1") == []


def test_unknown_schema_version_is_ignored(tmp_path):
    cache_file = tmp_path / "cache.json"
    cache_file.write_text(
        json.dumps({"schema": 999, "entries": {"k1": []}}), encoding="utf-8"
    )
    assert LintCache(cache_file).get("k1") is None


def test_untouched_keys_are_pruned_on_save(tmp_path):
    cache_file = tmp_path / "cache.json"
    first = LintCache(cache_file)
    first.put("stale", [a_finding()])
    first.put("kept", [])
    first.save()

    second = LintCache(cache_file)
    assert second.get("kept") == []  # touched
    second.save()  # "stale" was never touched this run

    third = LintCache(cache_file)
    assert third.get("kept") == []
    assert third.get("stale") is None


def test_default_cache_path_is_the_documented_name():
    assert DEFAULT_CACHE_PATH == ".repro-lint-cache.json"
    assert LintCache().path.name == ".repro-lint-cache.json"


# -- CLI wiring -------------------------------------------------------------


@pytest.fixture()
def leaky_tree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "mod.py").write_text(LEAKY, encoding="utf-8")
    return pkg


def flow_argv(leaky_tree, cache_file):
    return [
        "--flow",
        "--select",
        "resource-leak",
        "--cache",
        str(cache_file),
        "--format=json",
        str(leaky_tree),
    ]


def test_cli_flow_cache_skips_reanalysis_of_unchanged_modules(
    leaky_tree, tmp_path, capsys, monkeypatch
):
    cache_file = tmp_path / "cache.json"
    calls = []
    real = flow_mod.flow_findings_for_module

    def counting(module, specs, rules):
        calls.append(module.module)
        return real(module, specs, rules)

    monkeypatch.setattr(flow_mod, "flow_findings_for_module", counting)

    argv = flow_argv(leaky_tree, cache_file)
    assert main(argv) == 1
    first = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in first] == ["resource-leak"]
    assert calls  # cold run analyzed the modules

    calls.clear()
    assert main(argv) == 1
    second = json.loads(capsys.readouterr().out)
    assert calls == []  # warm run served every module from the cache
    assert second == first


FIXED = (
    "def build(path, flag):\n"
    "    handle = open(path, 'w')\n"
    "    try:\n"
    "        if flag:\n"
    "            return None\n"
    "        return None\n"
    "    finally:\n"
    "        handle.close()\n"
)


def test_cli_flow_cache_invalidates_on_edit(leaky_tree, tmp_path, capsys):
    cache_file = tmp_path / "cache.json"
    argv = flow_argv(leaky_tree, cache_file)
    assert main(argv) == 1
    capsys.readouterr()

    (leaky_tree / "mod.py").write_text(FIXED, encoding="utf-8")
    # a warm cache must not mask the edit: the fixed module lints clean
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_inter_key_tracks_all_three_components():
    base = LintCache.inter_key(source_hash("x = 1\n"), "fp-a", "dep-a")
    assert LintCache.inter_key(source_hash("x = 2\n"), "fp-a", "dep-a") != base
    assert LintCache.inter_key(source_hash("x = 1\n"), "fp-b", "dep-a") != base
    assert LintCache.inter_key(source_hash("x = 1\n"), "fp-a", "dep-b") != base
    assert LintCache.inter_key(source_hash("x = 1\n"), "fp-a", "dep-a") == base


HELPER_RELEASES = (
    "def teardown(handle):\n"
    "    handle.close()\n"
)

HELPER_FORGETS = (
    "def teardown(handle):\n"
    "    handle.flush()\n"
)

CALLER = (
    "from helper import teardown\n"
    "\n"
    "\n"
    "def publish(path, queue):\n"
    "    handle = open(path, 'w')\n"
    "    try:\n"
    "        queue.put(path)\n"
    "    finally:\n"
    "        teardown(handle)\n"
)


@pytest.fixture()
def helper_tree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "helper.py").write_text(HELPER_RELEASES, encoding="utf-8")
    (pkg / "caller.py").write_text(CALLER, encoding="utf-8")
    return pkg


def inter_argv(tree, cache_file):
    return [
        "--flow",
        "--inter",
        "--cache",
        str(cache_file),
        "--format=json",
        str(tree),
    ]


def test_cli_inter_cache_busts_caller_on_callee_behaviour_edit(
    helper_tree, tmp_path, capsys
):
    # The caller's own source never changes; only the helper it calls
    # does.  A content-hash-only cache would wrongly reuse the caller's
    # clean verdict — the dependency-aware key must not.
    cache_file = tmp_path / "cache.json"
    argv = inter_argv(helper_tree, cache_file)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == []

    (helper_tree / "helper.py").write_text(HELPER_FORGETS, encoding="utf-8")
    assert main(argv) == 1
    findings = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in findings] == ["inter-resource-leak"]
    assert findings[0]["path"].endswith("caller.py")


def test_cli_inter_cache_keeps_caller_on_docstring_only_callee_edit(
    helper_tree, tmp_path, capsys, monkeypatch
):
    import repro.analysis.inter as inter_mod

    cache_file = tmp_path / "cache.json"
    calls = []
    real = inter_mod.inter_findings_for_module

    def counting(module, context, rules):
        calls.append(module.module)
        return real(module, context, rules)

    monkeypatch.setattr(inter_mod, "inter_findings_for_module", counting)

    argv = inter_argv(helper_tree, cache_file)
    assert main(argv) == 0
    capsys.readouterr()
    assert sorted(calls) == ["caller", "helper"]  # cold run

    calls.clear()
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == []  # warm run: every module served from cache

    # A docstring-only edit changes the helper's hash but not its
    # effect summary: the helper re-analyzes, the caller stays cached.
    (helper_tree / "helper.py").write_text(
        HELPER_RELEASES.replace(
            "def teardown(handle):\n",
            'def teardown(handle):\n    """Release the handle."""\n',
        ),
        encoding="utf-8",
    )
    calls.clear()
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == ["helper"]


def test_cli_project_cache_round_trip(leaky_tree, tmp_path, capsys):
    cache_file = tmp_path / "cache.json"
    argv = ["--project", "--cache", str(cache_file), "--format=json", str(leaky_tree)]
    first_code = main(argv)
    first = json.loads(capsys.readouterr().out)
    second_code = main(argv)
    second = json.loads(capsys.readouterr().out)
    assert second_code == first_code
    assert second == first
    assert cache_file.is_file()
