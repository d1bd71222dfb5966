"""Fixtures shared by the test modules."""

import pytest

from uppersets import ddm


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
