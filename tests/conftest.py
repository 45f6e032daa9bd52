"""Shared fixtures.

A run keeps only its last iterate.  A test that checks every iterate
records them with ``spy`` on the binding that makes each one:
``hjbpi.pi.evaluate_policy`` for policy iteration, whose every call is an
iterate, and ``hjbpi.legendre._forward_sweep`` for the Legendre
iteration, whose first call is the direct run and every later call an
iterate.
"""

import functools
from contextlib import contextmanager

import pytest


@contextmanager
def _recording(module, name):
    returned = []
    original = getattr(module, name)

    @functools.wraps(original)
    def recorded(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, recorded)
        yield returned


@pytest.fixture(scope="session")
def spy():
    """``with spy(module, name) as returned:`` appends what each call of
    ``module.name`` returns to ``returned`` while the block runs.  Session
    scoped, so module fixtures and hypothesis tests can use it too."""
    return _recording
