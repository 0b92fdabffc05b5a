"""Shared pytest hooks and fixtures for the suite."""

import sys

import numpy as np
import pytest


@pytest.fixture
def nan_relu_backward(monkeypatch):
    """Plant a relu backward rule that emits NaN; the forward is unchanged."""
    from braidseg import tensor as T
    straight = T.relu

    def poisoned(x):
        out = straight(x)
        rule = out._backward
        if rule is not None:
            out._backward = lambda g, seeds: rule(np.full_like(g, np.nan), seeds)
        return out

    monkeypatch.setattr(T, "relu", poisoned)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay acceptance verdict lines after the run.

    The acceptance tests print one pass/fail line per guarantee, but pytest
    captures stdout on passing tests. Echoing the recorded lines here keeps
    the measured numbers visible in plain ``pytest -v`` logs.
    """
    lines = []
    for name, mod in sys.modules.items():
        if name.rsplit(".", 1)[-1] == "test_acceptance":
            lines = getattr(mod, "RECORDED", [])
            break
    if lines:
        terminalreporter.section("acceptance verdicts")
        for line in lines:
            terminalreporter.write_line(line)
