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
    assert "error-taxonomy-reachability (cross-module)" in output
    assert "silent-skip" in output


#: An errors module with a class nothing raises: a cross-module
#: finding, reported by the same pass as the per-module rules.
UNREACHABLE_ERROR_TREE = {
    "errors.py": textwrap.dedent(
        """
        __all__ = ["Boom"]


        class Boom(Exception):
            pass
        """
    ),
}


def write_tree(tmp_path, files):
    for name, source in files.items():
        (tmp_path / name).write_text(source, encoding="utf-8")


class TestProjectMode:
    """The cross-module rules run in every pass, over the same parse."""

    def test_project_finding_exits_one(self, tmp_path, capsys):
        write_tree(tmp_path, UNREACHABLE_ERROR_TREE)
        assert main([str(tmp_path)]) == 1
        assert "[error-taxonomy-reachability]" in capsys.readouterr().out

    def test_project_clean_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN_SNIPPET)
        assert main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_select_accepts_project_rule_ids(self, tmp_path):
        write_tree(tmp_path, UNREACHABLE_ERROR_TREE)
        assert main(["--select=error-taxonomy-reachability",
                     str(tmp_path)]) == 1
        assert main(["--select=cli-doc-drift", str(tmp_path)]) == 0
        assert main(["--ignore=error-taxonomy-reachability",
                     str(tmp_path)]) == 0

    def test_project_unknown_rule_is_usage_error(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN_SNIPPET)
        with pytest.raises(SystemExit) as excinfo:
            main(["--select=no-such-rule", str(tmp_path)])
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
        assert main(["--select=cli-doc-drift",
                     "--doc", str(doc), str(tmp_path)]) == 1
        assert "--mystery-flag" in capsys.readouterr().out

    def test_missing_doc_file_is_usage_error(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN_SNIPPET)
        with pytest.raises(SystemExit) as excinfo:
            main(["--doc", str(tmp_path / "nope.md"), str(tmp_path)])
        assert excinfo.value.code == 2


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
