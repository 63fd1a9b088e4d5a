"""The terminal summary echoes the acceptance report only when this pytest
run's acceptance module wrote it."""

import sys
import types

import conftest


class Reporter:
    def __init__(self):
        self.lines = []

    def section(self, title):
        self.lines.append(f"== {title}")

    def write_line(self, line):
        self.lines.append(line)


def _echo(monkeypatch, tmp_path, started):
    report = tmp_path / "acceptance_report.txt"
    report.write_text("criterion 1: PASS (old)\n", encoding="utf-8")
    monkeypatch.setattr(conftest, "REPORT_PATH", str(report))
    if started is None:
        monkeypatch.delitem(sys.modules, "test_acceptance", raising=False)
    else:
        module = types.ModuleType("test_acceptance")
        module._report_started = started
        monkeypatch.setitem(sys.modules, "test_acceptance", module)
    reporter = Reporter()
    conftest.pytest_terminal_summary(reporter)
    return reporter.lines


def test_report_of_an_earlier_run_is_not_echoed(monkeypatch, tmp_path):
    assert _echo(monkeypatch, tmp_path, None) == []
    assert _echo(monkeypatch, tmp_path, False) == []


def test_report_written_in_this_run_is_echoed(monkeypatch, tmp_path):
    assert _echo(monkeypatch, tmp_path, True) == [
        "== acceptance criteria", "criterion 1: PASS (old)"]
