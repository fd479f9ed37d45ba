"""Shared pytest hooks.

The acceptance module records one entry per criterion in its RESULTS list;
the summary hook prints them as a compact pass/fail table after the test run.
"""

import os
import sys


def pytest_configure(config):
    # the CLI tests start `python -m halflap` in a subprocess; let it import the
    # source tree that the pythonpath setting puts on the suite's own sys.path
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for num, label, ok in sorted(results):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num:2d} {status}  {label}")
