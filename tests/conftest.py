"""Shared fixtures for the test suite, and the netlist helpers of
``netlists.py`` under their old import path."""

from __future__ import annotations

import re

import pytest

from netlists import bench_text, random_netlist  # noqa: F401  (re-exported)
from vtcamo.device import DeviceParams
from vtcamo.netlist import Netlist, parse_bench


@pytest.fixture
def params() -> DeviceParams:
    return DeviceParams()


@pytest.fixture
def c17() -> Netlist:
    return parse_bench(bench_text("c17.bench"))


@pytest.fixture
def synth_mix() -> Netlist:
    return parse_bench(bench_text("synth_mix.bench"))


@pytest.fixture
def synth_wide() -> Netlist:
    return parse_bench(bench_text("synth_wide.bench"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion."""
    results = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", nodeid)
            if m:
                num = int(m.group(1))
                results[num] = results.get(num, True) and outcome == "passed"
    if not results:
        return
    try:
        from test_acceptance import CRITERIA
    except ImportError:
        CRITERIA = {}
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(results):
        verdict = "PASS" if results[num] else "FAIL"
        label = CRITERIA.get(num, "")
        terminalreporter.write_line(f"criterion {num:02d}: {verdict}  {label}")
