"""Shared fixtures."""

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
