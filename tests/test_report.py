"""Tests for the report rendering helpers."""

from __future__ import annotations

from repro.harness.report import rows_to_csv, rows_to_markdown


ROWS = [
    {"n": 4, "latency": 2.4444, "ok": True},
    {"n": 7, "latency": 2.5, "ok": True},
]


class TestMarkdown:
    def test_header_and_rows(self):
        text = rows_to_markdown(ROWS, title="demo")
        assert "### demo" in text
        assert "| n | latency | ok |" in text
        assert "| 4 | 2.444 | True |" in text
        assert text.count("\n") >= 5

    def test_empty(self):
        assert "no rows" in rows_to_markdown([], title="x")

    def test_missing_column_blank(self):
        text = rows_to_markdown([{"a": 1}, {"b": 2}])
        assert "|  |" in text  # second row has no "a"


class TestCsv:
    def test_round_trippable_shape(self):
        text = rows_to_csv(ROWS)
        lines = text.strip().split("\n")
        assert lines[0] == "n,latency,ok"
        assert lines[1] == "4,2.444,True"
        assert len(lines) == 3

    def test_empty(self):
        assert rows_to_csv([]) == ""
