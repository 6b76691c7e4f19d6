"""repro-lint CLI behaviour: exit codes, formats, selection."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis.cli import main

BAD_SNIPPET = textwrap.dedent(
    """
    def collect(into=[]):
        return into
    """
)

CLEAN_SNIPPET = textwrap.dedent(
    """
    def collect(into=None):
        return into if into is not None else []
    """
)


def test_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "ok.py").write_text(CLEAN_SNIPPET)
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""


def test_findings_exit_one_with_human_lines(tmp_path, capsys):
    target = tmp_path / "bad.py"
    target.write_text(BAD_SNIPPET)
    assert main([str(target)]) == 1
    captured = capsys.readouterr()
    assert "[mutable-default]" in captured.out
    assert str(target) in captured.out
    assert "1 finding(s)" in captured.err


def test_json_format_is_machine_readable(tmp_path, capsys):
    target = tmp_path / "bad.py"
    target.write_text(BAD_SNIPPET)
    assert main(["--format=json", str(target)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rule"] == "mutable-default"
    assert payload[0]["path"] == str(target)
    assert payload[0]["line"] == 2


def test_select_and_ignore_scope_the_run(tmp_path):
    target = tmp_path / "bad.py"
    target.write_text(BAD_SNIPPET)
    assert main(["--select=broad-except", str(target)]) == 0
    assert main(["--ignore=mutable-default", str(target)]) == 0
    assert main(["--select=mutable-default", str(target)]) == 1


def test_unknown_rule_id_is_usage_error(tmp_path):
    (tmp_path / "ok.py").write_text(CLEAN_SNIPPET)
    with pytest.raises(SystemExit) as excinfo:
        main(["--select=no-such-rule", str(tmp_path)])
    assert excinfo.value.code == 2


def test_missing_path_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["definitely/not/a/path"])
    assert excinfo.value.code == 2


def test_unparsable_file_reports_syntax_error_finding(tmp_path, capsys):
    target = tmp_path / "broken.py"
    target.write_text("def broken(:\n")
    assert main(["--format=json", str(target)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rule"] == "syntax-error"


def test_list_rules_prints_catalogue(capsys):
    assert main(["--list-rules"]) == 0
    output = capsys.readouterr().out
    assert "unseeded-random" in output
    assert "broad-except (suppression requires a reason)" in output
    assert "cross-module rules (--project):" in output
    assert "checkpoint-schema-drift" in output


DRIFTED_STATE_SNIPPET = textwrap.dedent(
    """
    class Box:
        def __getstate__(self):
            return (self.a, self.b, self.c)

        def __setstate__(self, state):
            self.a, self.b = state
    """
)


class TestProjectMode:
    def test_project_finding_exits_one(self, tmp_path, capsys):
        (tmp_path / "store.py").write_text(DRIFTED_STATE_SNIPPET)
        assert main(["--project", str(tmp_path)]) == 1
        assert "[checkpoint-schema-drift]" in capsys.readouterr().out

    def test_project_clean_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN_SNIPPET)
        assert main(["--project", str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_select_accepts_project_rule_ids(self, tmp_path):
        (tmp_path / "store.py").write_text(DRIFTED_STATE_SNIPPET)
        assert main(["--project", "--select=checkpoint-schema-drift",
                     str(tmp_path)]) == 1
        assert main(["--project", "--select=metrics-drift",
                     str(tmp_path)]) == 0
        assert main(["--project", "--ignore=checkpoint-schema-drift",
                     str(tmp_path)]) == 0

    def test_project_unknown_rule_is_usage_error(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN_SNIPPET)
        with pytest.raises(SystemExit) as excinfo:
            main(["--project", "--select=no-such-rule", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_doc_flag_feeds_cli_doc_drift(self, tmp_path, capsys):
        (tmp_path / "cli.py").write_text(textwrap.dedent(
            """
            import argparse

            def build():
                parser = argparse.ArgumentParser()
                parser.add_argument("--mystery-flag")
                return parser
            """
        ))
        doc = tmp_path / "MANUAL.md"
        doc.write_text("No flags documented here.\n")
        assert main(["--project", "--select=cli-doc-drift",
                     "--doc", str(doc), str(tmp_path)]) == 1
        assert "--mystery-flag" in capsys.readouterr().out

    def test_missing_doc_file_is_usage_error(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN_SNIPPET)
        with pytest.raises(SystemExit) as excinfo:
            main(["--project", "--doc", str(tmp_path / "nope.md"),
                  str(tmp_path)])
        assert excinfo.value.code == 2


class TestBaseline:
    def test_baseline_round_trip_suppresses(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(BAD_SNIPPET)
        assert main(["--format=json", str(target)]) == 1
        baseline = tmp_path / "baseline.json"
        baseline.write_text(capsys.readouterr().out)
        assert main(["--baseline", str(baseline), str(target)]) == 0
        assert capsys.readouterr().out == ""

    def test_baseline_survives_line_shifts(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(BAD_SNIPPET)
        assert main(["--format=json", str(target)]) == 1
        baseline = tmp_path / "baseline.json"
        baseline.write_text(capsys.readouterr().out)
        target.write_text("# a new comment shifts everything down\n"
                          + BAD_SNIPPET)
        assert main(["--baseline", str(baseline), str(target)]) == 0

    def test_new_findings_still_reported(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(BAD_SNIPPET)
        baseline = tmp_path / "baseline.json"
        baseline.write_text("[]")
        assert main(["--baseline", str(baseline), str(target)]) == 1
        assert "[mutable-default]" in capsys.readouterr().out

    def test_baseline_applies_to_project_findings(self, tmp_path, capsys):
        (tmp_path / "store.py").write_text(DRIFTED_STATE_SNIPPET)
        assert main(["--project", "--format=json", str(tmp_path)]) == 1
        baseline = tmp_path / "baseline.json"
        baseline.write_text(capsys.readouterr().out)
        assert main(["--project", "--baseline", str(baseline),
                     str(tmp_path)]) == 0

    def test_unreadable_baseline_is_usage_error(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN_SNIPPET)
        with pytest.raises(SystemExit) as excinfo:
            main(["--baseline", str(tmp_path / "missing.json"),
                  str(tmp_path)])
        assert excinfo.value.code == 2

    def test_non_array_baseline_is_usage_error(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN_SNIPPET)
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"not": "an array"}')
        with pytest.raises(SystemExit) as excinfo:
            main(["--baseline", str(baseline), str(tmp_path)])
        assert excinfo.value.code == 2


LEAKY_FLOW_SNIPPET = textwrap.dedent(
    """
    def build(path, queue):
        handle = open(path, "w")
        queue.put(path)
        handle.close()
    """
)

HELPER_LEAK_TREE = {
    "logs.py": textwrap.dedent(
        """
        def open_log(path):
            return open(path, "a")
        """
    ),
    "driver.py": textwrap.dedent(
        """
        from logs import open_log


        def publish(path, queue):
            handle = open_log(path)
            queue.put(path)
            handle.close()
        """
    ),
}


def write_tree(tmp_path, files):
    for name, source in files.items():
        (tmp_path / name).write_text(source, encoding="utf-8")


class TestInterMode:
    def test_inter_requires_flow(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN_SNIPPET)
        with pytest.raises(SystemExit) as excinfo:
            main(["--inter", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_inter_reports_cross_function_leak(self, tmp_path, capsys):
        write_tree(tmp_path, HELPER_LEAK_TREE)
        assert main(["--flow", "--inter", "--format=json", str(tmp_path)]) == 1
        findings = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in findings] == ["inter-resource-leak"]

    def test_flow_alone_misses_the_cross_function_leak(self, tmp_path, capsys):
        write_tree(tmp_path, HELPER_LEAK_TREE)
        assert main(["--flow", "--format=json", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_inter_rule_ids_are_selectable(self, tmp_path, capsys):
        write_tree(tmp_path, HELPER_LEAK_TREE)
        code = main([
            "--flow", "--inter", "--select", "inter-wal-order",
            "--format=json", str(tmp_path),
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_timings_table_goes_to_stderr(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN_SNIPPET)
        assert main(["--flow", "--inter", "--timings", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "repro-lint timings:" in err
        assert "inter:summaries" in err
        assert "inter:total" in err

    def test_generous_budget_passes(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN_SNIPPET)
        assert main(["--flow", "--inter", "--budget", "600",
                     str(tmp_path)]) == 0

    def test_blown_budget_fails_even_when_clean(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN_SNIPPET)
        assert main(["--flow", "--inter", "--budget", "0",
                     str(tmp_path)]) == 1
        assert "budget" in capsys.readouterr().err


class TestSarif:
    def test_sarif_output_shape(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BAD_SNIPPET)
        assert main(["--format=sarif", str(tmp_path)]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert "mutable-default" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "mutable-default"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1

    def test_clean_tree_emits_empty_sarif_run(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN_SNIPPET)
        assert main(["--format=sarif", str(tmp_path)]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"] == []

    def test_sarif_covers_flow_and_inter_findings(self, tmp_path, capsys):
        write_tree(tmp_path, HELPER_LEAK_TREE)
        assert main(["--flow", "--inter", "--format=sarif",
                     str(tmp_path)]) == 1
        log = json.loads(capsys.readouterr().out)
        assert [r["ruleId"] for r in log["runs"][0]["results"]] == [
            "inter-resource-leak"
        ]


class TestFlowBaseline:
    def test_baseline_covers_flow_findings(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(LEAKY_FLOW_SNIPPET)
        assert main(["--flow", "--format=json", str(target)]) == 1
        baseline = tmp_path / "baseline.json"
        baseline.write_text(capsys.readouterr().out)
        assert main(["--flow", "--baseline", str(baseline),
                     str(target)]) == 0

    def test_flow_baseline_survives_witness_line_drift(
        self, tmp_path, capsys
    ):
        # Unrelated edits shift the path witness's line numbers inside
        # the message; normalization must keep the finding suppressed.
        target = tmp_path / "bad.py"
        target.write_text(LEAKY_FLOW_SNIPPET)
        assert main(["--flow", "--format=json", str(target)]) == 1
        baseline = tmp_path / "baseline.json"
        baseline.write_text(capsys.readouterr().out)
        target.write_text(
            "# a banner comment\n# shifts every line\n" + LEAKY_FLOW_SNIPPET
        )
        assert main(["--flow", "--baseline", str(baseline),
                     str(target)]) == 0

    def test_baseline_covers_inter_findings(self, tmp_path, capsys):
        write_tree(tmp_path, HELPER_LEAK_TREE)
        assert main(["--flow", "--inter", "--format=json",
                     str(tmp_path)]) == 1
        baseline = tmp_path / "baseline.json"
        baseline.write_text(capsys.readouterr().out)
        assert main(["--flow", "--inter", "--baseline", str(baseline),
                     str(tmp_path)]) == 0
