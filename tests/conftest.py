"""Shared pytest plumbing: surfaces the acceptance summary at the end of
the terminal report when the acceptance module has written one in this
run."""

import os
import sys

REPORT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "acceptance_report.txt")


def pytest_terminal_summary(terminalreporter):
    # a report left by an earlier run is not this run's verdict
    acceptance = sys.modules.get("test_acceptance")
    if not getattr(acceptance, "_report_started", False):
        return
    path = os.path.abspath(REPORT_PATH)
    if not os.path.exists(path):
        return
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
