"""Shared fixtures, and the ``needs_fork`` mark."""

import multiprocessing
import os

import pytest

import dunkl_lab.sde as sde_mod

STEP_LIMIT = 1000


@pytest.fixture
def bounded_stepper(monkeypatch):
    """Make the step core raise after STEP_LIMIT proposals, so a run that
    would never reach its horizon fails instead of hanging.  Returns the
    one-element list that counts the proposals."""
    real = sde_mod._step_core
    calls = [0]

    def stepper(*args, **kwargs):
        calls[0] += 1
        if calls[0] > STEP_LIMIT:
            raise AssertionError(f"the stepper ran more than {STEP_LIMIT} proposals")
        return real(*args, **kwargs)

    monkeypatch.setattr(sde_mod, "_step_core", stepper)
    return calls


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "needs_fork: skip where multiprocessing has no fork start method"
    )


def pytest_runtest_setup(item):
    if item.get_closest_marker("needs_fork") and (
        "fork" not in multiprocessing.get_all_start_methods()
    ):
        pytest.skip("no fork start method")


@pytest.fixture
def set_cpus(monkeypatch):
    """Return a function that sets how many CPUs the package's worker pool
    sees: it reads the CPUs this process may use."""

    def set_count(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_count
