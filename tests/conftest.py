"""Fixtures shared by the test modules."""

import inspect

import pytest

from sltwist import ode_engine


@pytest.fixture
def leg_calls(monkeypatch):
    """Each call of an ``ode_engine._leg(dim)`` leg from now on, recorded as it
    starts: a dict of its arguments by name, bound by the leg's own signature
    with defaults applied.  Its key "return", which no argument can be named,
    holds the leg's result once it returns; a leg that raises has none."""
    calls, original = [], ode_engine._leg

    def leg_of(dim):
        leg = original(dim)
        signature = inspect.signature(leg)

        def recording(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            call = dict(bound.arguments)
            calls.append(call)
            call["return"] = leg(*args, **kwargs)
            return call["return"]

        return recording

    monkeypatch.setattr(ode_engine, "_leg", leg_of)
    return calls
