"""A time grid passed in one call gives the values of per-time calls."""

import numpy as np
import pytest

from weakdecay import (
    PostChoice,
    PostSpec,
    SumParams,
    interaction_column,
    interaction_element,
    phased_closed_form,
    phased_lorentzian_sum,
    propagator_column,
    propagator_element,
    spin_weak_closed,
    spin_weak_kernel,
    survival_probability,
    u00_limit,
    un0_limit,
    weak_survival_closed,
    weak_survival_numeric,
)
from weakdecay import decay

TIMES = np.linspace(0.0, 1.5, 7)


def _weak(post, law=weak_survival_numeric):
    return lambda bath, t: law(bath, 0.0, t, 1.5, post)


def _spin(post, route=spin_weak_closed):
    return lambda bath, t: route(1.3, -0.2, t, 1.9, post)


CASES = {
    "propagator_column": propagator_column,
    "interaction_column": interaction_column,
    "propagator_element": lambda bath, t: propagator_element(bath, 3, t),
    "interaction_element": lambda bath, t: interaction_element(bath, -2, t),
    "survival_probability": survival_probability,
    "weak_photon": _weak(PostSpec.single_photon(-2)),
    "weak_asymptotic": _weak(PostSpec.asymptotic_emission()),
    "weak_undecayed": _weak(PostSpec.undecayed()),
    "closed_photon": _weak(PostSpec.single_photon(-2), weak_survival_closed),
    "closed_asymptotic": _weak(PostSpec.asymptotic_emission(), weak_survival_closed),
    "closed_undecayed": _weak(PostSpec.undecayed(), weak_survival_closed),
    "spin_kernel": _spin(PostChoice.Y_PLUS, spin_weak_kernel),
    "spin_closed_xplus": _spin(PostChoice.X_PLUS),
    "spin_closed_xminus": _spin(PostChoice.X_MINUS),
    "spin_closed_yplus": _spin(PostChoice.Y_PLUS),
    "lattice_sum": lambda bath, t: phased_lorentzian_sum(SumParams(1.0, 0.05, k_max=3000), t),
    "u00_limit": lambda bath, t: u00_limit(1.0, t),
    "un0_limit": lambda bath, t: un0_limit(1.0, 0.05, 3, t),
    "phased_closed_form": lambda bath, t: phased_closed_form(1.0, 0.05, t),
}


@pytest.mark.parametrize("name", CASES)
def test_grid_call_matches_per_time_calls(name, small_bath):
    fn = CASES[name]
    grid = fn(small_bath, TIMES)
    per_time = np.array([fn(small_bath, t) for t in TIMES])
    assert grid.shape == per_time.shape
    assert np.max(np.abs(grid - per_time)) <= 1e-14


BLOCKED = {
    "propagator_element": CASES["propagator_element"],
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
