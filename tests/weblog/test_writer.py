"""Unit tests for log file I/O."""

from repro.weblog.parser import ParseReport, parse_clf_lines
from repro.weblog.writer import save_log


def read_log(path, report=None):
    with open(path) as handle:
        return parse_clf_lines(path.stem, handle, report)


class TestRoundTrip:
    def test_synthetic_log_round_trips(self, nagano_log, tmp_path):
        path = tmp_path / "nagano.log"
        written = save_log(nagano_log.log, path)
        assert written == len(nagano_log.log)
        loaded = read_log(path)
        assert len(loaded) == len(nagano_log.log)
        assert loaded.clients() == nagano_log.log.clients()
        for original, parsed in zip(nagano_log.log.entries[:50],
                                    loaded.entries[:50]):
            assert parsed.client == original.client
            assert parsed.url == original.url
            assert parsed.size == original.size
            assert parsed.user_agent == original.user_agent
            # CLF carries whole seconds.
            assert abs(parsed.timestamp - original.timestamp) < 1.0

    def test_common_format_drops_agents(self, nagano_log, tmp_path):
        path = tmp_path / "common.log"
        save_log(nagano_log.log, path, combined=False)
        loaded = read_log(path)
        assert all(e.user_agent == "" for e in loaded.entries[:20])

    def test_report_collects_hygiene(self, tmp_path):
        path = tmp_path / "dirty.log"
        path.write_text(
            '1.2.3.4 - - [13/Feb/1998:00:00:00 +0000] "GET /a HTTP/1.0" 200 1\n'
            "junk\n"
            '0.0.0.0 - - [13/Feb/1998:00:00:01 +0000] "GET /b HTTP/1.0" 200 1\n'
        )
        report = ParseReport()
        log = read_log(path, report=report)
        assert len(log) == 1
        assert report.malformed == 1
        assert report.null_client == 1

    def test_creates_parent_directories(self, nagano_log, tmp_path):
        path = tmp_path / "deep" / "nested" / "dir" / "x.log"
        save_log(nagano_log.log, path)
        assert path.exists()
