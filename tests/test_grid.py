"""A time grid passed in one call gives the values of per-time calls."""

import numpy as np
import pytest

from weakdecay import (
    DecayQuery,
    PostChoice,
    PostSpec,
    SpinParams,
    SumParams,
    interaction_column,
    phased_lorentzian_sum,
    propagator_column,
    propagator_element,
    spin_weak_closed,
    spin_weak_kernel,
    weak_survival_closed,
    weak_survival_numeric,
)
from weakdecay import decay
from weakdecay.spin import Y_PLUS

TIMES = np.linspace(0.0, 1.5, 7)
SPIN = SpinParams(1.3, -0.2, 1.9)


def _weak(post, law=weak_survival_numeric):
    return lambda bath, t: law(DecayQuery(bath, 0.0, t, 1.5, post))


CASES = {
    "propagator_column": propagator_column,
    "interaction_column": interaction_column,
    "weak_photon": _weak(PostSpec.single_photon(-2)),
    "weak_asymptotic": _weak(PostSpec.asymptotic_emission()),
    "weak_undecayed": _weak(PostSpec.undecayed()),
    "closed_photon": _weak(PostSpec.single_photon(-2), weak_survival_closed),
    "closed_asymptotic": _weak(PostSpec.asymptotic_emission(), weak_survival_closed),
    "closed_undecayed": _weak(PostSpec.undecayed(), weak_survival_closed),
    "spin_kernel": lambda bath, t: spin_weak_kernel(Y_PLUS, SPIN, t),
    "spin_closed_xplus": lambda bath, t: spin_weak_closed(PostChoice.X_PLUS, SPIN, t),
    "spin_closed_xminus": lambda bath, t: spin_weak_closed(PostChoice.X_MINUS, SPIN, t),
    "spin_closed_yplus": lambda bath, t: spin_weak_closed(PostChoice.Y_PLUS, SPIN, t),
    "lattice_sum": lambda bath, t: phased_lorentzian_sum(SumParams(1.0, 0.05, k_max=3000), t),
}


@pytest.mark.parametrize("name", CASES)
def test_grid_call_matches_per_time_calls(name, small_bath):
    fn = CASES[name]
    grid = fn(small_bath, TIMES)
    per_time = np.array([fn(small_bath, t) for t in TIMES])
    assert grid.shape == per_time.shape
    assert np.max(np.abs(grid - per_time)) <= 1e-14


BLOCKED = {
    "propagator_element": lambda bath, t: propagator_element(bath, 3, t),
    "propagator_column": propagator_column,
    "interaction_column": interaction_column,
    "weak_asymptotic": CASES["weak_asymptotic"],
}


def test_time_blocks_do_not_change_values(small_bath, monkeypatch):
    whole = {name: fn(small_bath, TIMES) for name, fn in BLOCKED.items()}
    # four times or four atoms per block (the emission sum one time per
    # block), so both the grid and the bath split.  Narrower blocks reach
    # OpenBLAS's remainder kernels, which sum in another order and can move
    # the last bit; the per-time test above bounds those at 1e-14.
    monkeypatch.setattr(decay, "_BLOCK_ENTRIES", 4 * small_bath.n_half)
    for name, fn in BLOCKED.items():
        assert np.array_equal(fn(small_bath, TIMES), whole[name]), name
