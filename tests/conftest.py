"""Checks that run around every test."""

import numpy as np
import pytest

from lorentz2d import jets

DEFAULT_ERRSTATE = {"divide": "warn", "over": "warn", "under": "ignore", "invalid": "warn"}


@pytest.fixture(autouse=True)
def no_leaked_floating_point_state():
    """A test leaves numpy's error state at its default and the trap flag
    of ``jets.on_cells`` clear: a trap that leaked out of an evaluation
    would otherwise change what later tests compute."""
    yield
    assert np.geterr() == DEFAULT_ERRSTATE
    assert jets._TRAPPING.get() is False
