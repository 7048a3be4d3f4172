import numpy as np
import pytest

from weakdecay import BathSpec, decay


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_bath():
    """Dim-21 bath: big enough to be structured, cheap enough for dense work."""
    return BathSpec.from_gamma(10, 1.0, 0.05)


@pytest.fixture
def no_spectrum(monkeypatch):
    """Make every bath spectrum solve fail, so a check must come before it."""

    def solve(bath):
        raise AssertionError("a bath spectrum was solved before the input was checked")

    monkeypatch.setattr(decay, "_spectrum", solve)
