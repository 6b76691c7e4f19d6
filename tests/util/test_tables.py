"""Unit tests for ASCII table rendering."""

import pytest

from repro.util.tables import format_count, render_table


class TestRenderTable:
    def test_alignment_and_header(self):
        text = render_table(
            ["name", "count"],
            [["alpha", 5], ["b", 12345]],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "count" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "12345" in lines[4]

    def test_numeric_columns_right_aligned(self):
        text = render_table(["n"], [[1], [100]])
        lines = text.splitlines()
        assert lines[-1].endswith("100")
        assert lines[-2].endswith("  1")

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        text = render_table(["x"], [[0.123456789]])
        assert "0.1235" in text

    def test_empty_rows(self):
        text = render_table(["a"], [])
        assert "a" in text


def test_format_count():
    assert format_count(1234567) == "1,234,567"
