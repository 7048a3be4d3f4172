"""A time grid passed in one call gives the values of per-time calls; a time below 0 or NaN is refused."""

import numpy as np
import pytest

from weakdecay import (
    PostChoice,
    PostSpec,
    SpinAxis,
    SumParams,
    interaction_column,
    interaction_element,
    phased_lorentzian_sum,
    propagator_column,
    propagator_element,
    spin_strong_closed,
    spin_weak_closed,
    spin_weak_kernel,
    survival_probability,
    weak_survival_closed,
    weak_survival_numeric,
)
from weakdecay import decay, harness
from weakdecay.laws import lattice_limit, phased_closed_form, survival_limit, u00_limit, un0_limit

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
    "weak_photon": _weak(PostSpec("photon:-2")),
    "weak_asymptotic": _weak(PostSpec("asymptotic")),
    "weak_undecayed": _weak(PostSpec("undecayed")),
    "closed_photon": _weak(PostSpec("photon:-2"), weak_survival_closed),
    "closed_asymptotic": _weak(PostSpec("asymptotic"), weak_survival_closed),
    "closed_undecayed": _weak(PostSpec("undecayed"), weak_survival_closed),
    "spin_kernel": _spin(PostChoice.Y_PLUS, spin_weak_kernel),
    "spin_closed_xplus": _spin(PostChoice.X_PLUS),
    "spin_closed_xminus": _spin(PostChoice.X_MINUS),
    "spin_closed_yplus": _spin(PostChoice.Y_PLUS),
    "lattice_sum": lambda bath, t: phased_lorentzian_sum(SumParams(1.0, 0.05, k_max=3000), t),
    "u00_limit": lambda bath, t: u00_limit(1.0, t),
    "un0_limit": lambda bath, t: un0_limit(1.0, 0.05, 3, t),
    "phased_closed_form": lambda bath, t: phased_closed_form(1.0, 0.05, t),
    "survival_limit": lambda bath, t: survival_limit(1.0, t),
    "lattice_limit": lambda bath, t: lattice_limit(1.0, t),
    "spin_strong_closed": lambda bath, t: spin_strong_closed(SpinAxis.X_PLUS, 1.3, 0.0, t),
}


@pytest.mark.parametrize("name", CASES)
def test_grid_call_matches_per_time_calls(name, small_bath):
    fn = CASES[name]
    grid = fn(small_bath, TIMES)
    per_time = np.array([fn(small_bath, t) for t in TIMES])
    assert grid.shape == per_time.shape
    assert np.max(np.abs(grid - per_time)) <= 1e-14
    # a list of times is the same grid, bit for bit
    assert np.array_equal(fn(small_bath, TIMES.tolist()), grid)


# every route that takes survival times t >= 0, the spin's strong expectation t >= t_i
TIME_ROUTES = {
    name: CASES[name]
    for name in ("u00_limit", "un0_limit", "survival_limit", "lattice_limit", "survival_probability",
                 "lattice_sum", "phased_closed_form", "spin_strong_closed")
}


@pytest.mark.parametrize("bad", [-0.1, np.nan])
@pytest.mark.parametrize("name", TIME_ROUTES)
def test_a_time_below_zero_or_nan_is_refused(name, bad, small_bath):
    for t in (bad, np.array([0.5, bad])):
        with pytest.raises(ValueError):
            TIME_ROUTES[name](small_bath, t)


@pytest.mark.parametrize("name", CASES)
def test_an_empty_grid_gives_an_empty_result(name, small_bath):
    fn = CASES[name]
    assert np.shape(fn(small_bath, np.array([]))) == (0,) + np.shape(fn(small_bath, TIMES[1]))


# np.linspace sets its last point to its end, which here is a bit off the
# progression of the others; the grid keeps angle addition all the same
OFF_END = np.linspace(0.0, 0.9, 7)


@pytest.mark.parametrize("name", CASES)
def test_grid_with_its_end_off_the_progression_matches_per_time_calls(name, small_bath):
    step = decay._progression_step(OFF_END)
    assert step is not None and OFF_END[-1] != OFF_END[0] + step * (len(OFF_END) - 1)
    fn = CASES[name]
    grid = fn(small_bath, OFF_END)
    per_time = np.array([fn(small_bath, t) for t in OFF_END])
    assert grid.shape == per_time.shape
    assert np.max(np.abs(grid - per_time)) <= 1e-14


def test_an_end_off_the_progression_keeps_its_time(small_bath):
    # the last survival point takes its own library calls, not the progression's time
    grid = propagator_element(small_bath, 0, OFF_END)
    assert grid[-1] == propagator_element(small_bath, 0, OFF_END[-1])


def test_only_survival_takes_angle_addition(small_bath, monkeypatch):
    calls = []
    phase_sums = decay._phase_sums
    monkeypatch.setattr(decay, "_phase_sums", lambda *args: calls.append(1) or phase_sums(*args))
    grid = np.linspace(0.0, 1.5, 40)
    propagator_element(small_bath, 3, grid)
    interaction_element(small_bath, -2, grid)
    assert calls == []  # an atom pair takes per-entry tables on any grid
    survival_probability(small_bath, grid)
    assert calls == [1]


@pytest.mark.parametrize("model", ["spin", "decay", "sums", "sweep"])
def test_harness_grids_are_progressions(model):
    config = harness.build_config({"model": model})
    grid = np.linspace(config.t_start, config.t_end, config.n_points)
    assert decay._progression_step(grid) is not None
    # a weak value's overlaps put the window ahead of their grid
    window = config.t_f - config.t_i
    assert decay._progression_step(np.append(window, config.t_f - grid)) is None


def test_other_grids_are_not_progressions(rng):
    for times in (np.sort(rng.uniform(0.0, 2.0, 50)), np.array([0.0, 0.5, 1.5]), np.array([0.7])):
        assert decay._progression_step(times) is None


BLOCKED = {
    "propagator_element": CASES["propagator_element"],
    "linspace_element": lambda bath, t: interaction_element(bath, -2, np.linspace(0.0, 1.5, 40)),
    "propagator_column": propagator_column,
    "interaction_column": interaction_column,
    "weak_asymptotic": CASES["weak_asymptotic"],
}


def test_time_blocks_do_not_change_values(small_bath, monkeypatch):
    whole = {name: fn(small_bath, TIMES) for name, fn in BLOCKED.items()}
    # four times or four atoms per block (the emission fold too), so both
    # the grid and the bath split.  Narrower blocks reach
    # OpenBLAS's remainder kernels, which sum in another order and can move
    # the last bit; the per-time test above bounds those at 1e-14.  Survival
    # on a progression grid takes its own products per base, at any width.
    # The emission series' Bessel blocks shrink with them, to at most three of
    # the nine inner roots: a root split sums the series in another order, so
    # the asymptotic weak value moves by last bits (measured: 2.2e-16 of its
    # largest value here), bounded as test_blocked_band_series_meets_a_single_block
    # bounds the series.
    monkeypatch.setattr(decay, "_BLOCK_ENTRIES", 4 * small_bath.n_half)
    assert decay._bessel_roots(decay._degree(0.0)) <= 3
    for name, fn in BLOCKED.items():
        blocked = fn(small_bath, TIMES)
        if name == "weak_asymptotic":
            assert np.max(np.abs(blocked - whole[name])) <= 1e-15 * np.max(np.abs(whole[name]))
        else:
            assert np.array_equal(blocked, whole[name]), name
