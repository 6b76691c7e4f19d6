"""Unit tests for the repro-cluster command-line front end."""

import pytest

from repro.cli import main

ACCESS_LOG = """\
12.65.147.94 - - [13/Feb/1998:09:12:01 +0000] "GET /a HTTP/1.0" 200 100
12.65.147.149 - - [13/Feb/1998:09:12:07 +0000] "GET /b HTTP/1.0" 200 200
24.48.3.87 - - [13/Feb/1998:09:16:33 +0000] "GET /a HTTP/1.0" 200 100
24.48.2.166 - - [13/Feb/1998:09:17:20 +0000] "GET /c HTTP/1.0" 200 300
0.0.0.0 - - [13/Feb/1998:09:18:30 +0000] "GET /noise HTTP/1.0" 400 -
garbage line
"""

DUMP = """\
12.65.128.0/19\thop1\t7018
24.48.2.0/255.255.254.0\thop2\t64500
"""


@pytest.fixture()
def files(tmp_path):
    log = tmp_path / "access.log"
    log.write_text(ACCESS_LOG)
    dump = tmp_path / "routes.txt"
    dump.write_text(DUMP)
    return str(log), str(dump)


class TestNetworkAware:
    def test_clusters_and_prints(self, files, capsys):
        log, dump = files
        assert main([log, "--table", dump]) == 0
        out = capsys.readouterr().out
        assert "12.65.128.0/19" in out
        assert "24.48.2.0/23" in out
        assert "parsed 4" in out
        assert "1 malformed" in out

    def test_busy_threshold_option(self, files, capsys):
        log, dump = files
        assert main([log, "--table", dump, "--busy", "0.7"]) == 0
        out = capsys.readouterr().out
        assert "busy" in out

    def test_top_limits_rows(self, files, capsys):
        log, dump = files
        assert main([log, "--table", dump, "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "top 1 clusters" in out


class TestSimpleMode:
    def test_simple_needs_no_table(self, files, capsys):
        log, _ = files
        assert main([log, "--simple"]) == 0
        out = capsys.readouterr().out
        assert "/24" in out

    def test_network_aware_without_table_errors(self, files):
        log, _ = files
        with pytest.raises(SystemExit):
            main([log])


class TestEdgeCases:
    def test_empty_log_fails_cleanly(self, tmp_path, capsys):
        log = tmp_path / "empty.log"
        log.write_text("")
        assert main([str(log), "--simple"]) == 1
        assert "nothing to cluster" in capsys.readouterr().err
