"""Fixtures shared by the test modules."""

import pytest

from uppersets import ddm, upperset


@pytest.fixture
def ddm_runs(monkeypatch):
    """The calls made to the module attribute ``ddm.cone_vrep`` from now on."""
    calls = []
    original = ddm.cone_vrep

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ddm, "cone_vrep", counted)
    return calls


@pytest.fixture
def fan_merges(monkeypatch):
    """The operand pairs of the 3-D fan merges from now on."""
    calls = []
    original = upperset._fan_sum

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(upperset, "_fan_sum", counted)
    return calls
