import math

import numpy as np
import pytest

from weakdecay import (
    ClosedFormSingular,
    Operator,
    PostChoice,
    PostSelectionNull,
    SpinAxis,
    SpinParams,
    StateVector,
    projector_from_state,
    spin_propagator,
    spin_strong_closed,
    spin_weak_closed,
    spin_weak_kernel,
    strong_expectation,
    weak_value,
)
from weakdecay.spin import X_MINUS, X_PLUS, Y_PLUS


def test_propagator_special_angles():
    assert np.max(np.abs(spin_propagator(1.0, 0.0).matrix - np.eye(2))) <= 1e-14
    assert np.max(np.abs(spin_propagator(1.0, 2 * math.pi).matrix + np.eye(2))) <= 1e-12
    u = spin_propagator(1.0, math.pi)
    assert np.max(np.abs(u.matrix - np.diag([1j, -1j]))) <= 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        SpinParams(float("inf"), 0.0, 1.0)
    with pytest.raises(ValueError):
        SpinParams(1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="t_i/t_f: window t_f - t_i overflows"):
        SpinParams(1.0, -1e308, 1e308)


def test_post_choice_states():
    assert [choice.name for choice in PostChoice] == ["Y_PLUS", "X_MINUS", "X_PLUS"]
    assert np.allclose(PostChoice.X_PLUS.value.amplitudes, X_PLUS.amplitudes)
    assert np.allclose(PostChoice.X_MINUS.value.amplitudes, X_MINUS.amplitudes)
    assert np.allclose(PostChoice.Y_PLUS.value.amplitudes, Y_PLUS.amplitudes)


def test_weak_closed_trivial_post_selection_value():
    # whole cycle, probed at a quarter of it
    params = SpinParams(1.0, 0.0, 2.0 * math.pi)
    w = spin_weak_closed(PostChoice.X_PLUS, params, 0.5 * math.pi)
    assert w == pytest.approx(0.5 + 0.0j, abs=1e-12)


def test_weak_closed_quarter_cycle_exceeds_one():
    params = SpinParams(1.0, 0.0, 0.5 * math.pi)
    w = spin_weak_closed(PostChoice.X_PLUS, params, 0.25 * math.pi)
    assert w == pytest.approx(0.5 * (1.0 + math.sqrt(2.0)), abs=1e-12)


def test_weak_closed_x_minus_matches_kernel_at_quarter_cycle():
    # the kernel is ground truth for this value (it evaluates to 1/2 here)
    params = SpinParams(1.0, 0.0, 0.5 * math.pi)
    t = 0.25 * math.pi
    closed = spin_weak_closed(PostChoice.X_MINUS, params, t)
    kernel = spin_weak_kernel(X_MINUS, params, t)
    assert abs(closed - kernel) <= 1e-12
    assert closed == pytest.approx(0.5 + 0.0j, abs=1e-12)


def test_strong_closed_values():
    assert spin_strong_closed(SpinAxis.X_PLUS, 1.0, 0.0, 0.0) == pytest.approx(1.0)
    assert spin_strong_closed(SpinAxis.Y_PLUS, 1.0, 0.0, 0.5 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert spin_strong_closed(SpinAxis.X_PLUS, 1.0, 0.0, math.pi) == pytest.approx(0.0, abs=1e-12)
    assert spin_strong_closed(SpinAxis.X_MINUS, 1.0, 0.0, math.pi) == pytest.approx(1.0, abs=1e-12)


def test_strong_closed_y_minus_matches_numeric_expectation():
    # -y is orthogonal to Y_PLUS = (i, -1)/sqrt(2)
    y_minus = StateVector(np.array([1.0j, 1.0]) / math.sqrt(2.0))
    omega, t_i = 1.3, 0.4
    times = np.linspace(t_i, t_i + 5.0, 41)
    closed = spin_strong_closed(SpinAxis.Y_MINUS, omega, t_i, times)
    for axis, state in ((SpinAxis.Y_PLUS, Y_PLUS), (SpinAxis.Y_MINUS, y_minus)):
        numeric = [
            strong_expectation(X_PLUS, projector_from_state(state), spin_propagator(omega, t - t_i))
            for t in times
        ]
        assert np.max(np.abs(spin_strong_closed(axis, omega, t_i, times) - numeric)) <= 1e-12
    assert np.max(np.abs(closed + spin_strong_closed(SpinAxis.Y_PLUS, omega, t_i, times) - 1.0)) <= 1e-15
    assert spin_strong_closed(SpinAxis.Y_MINUS, 1.0, 0.0, 0.5 * math.pi) == pytest.approx(1.0)


def _nonsingular_draw(rng):
    while True:
        omega = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        t_i = rng.uniform(-2.0, 2.0)
        t_f = t_i + rng.uniform(0.2, 6.0)
        h = 0.5 * omega * (t_f - t_i)
        if min(abs(math.cos(h)), abs(math.sin(h)), abs(math.cos(h) - math.sin(h))) >= 1e-2:
            return omega, t_i, rng.uniform(t_i, t_f), t_f


def test_closed_forms_match_kernel(rng):
    worst = 0.0
    for _ in range(200):
        omega, t_i, t, t_f = _nonsingular_draw(rng)
        params = SpinParams(omega, t_i, t_f)
        for choice in PostChoice:
            closed = spin_weak_closed(choice, params, t)
            kernel = spin_weak_kernel(choice.value, params, t)
            worst = max(worst, abs(closed - kernel))
    assert worst <= 1e-10


def test_trivial_post_selection_reduction_multiple_cycles():
    for n in (1, 2, 3):
        params = SpinParams(1.0, 0.0, 2.0 * math.pi * n)
        for t in np.linspace(0.0, params.t_f, 41):
            w = spin_weak_closed(PostChoice.X_PLUS, params, t)
            s = spin_strong_closed(SpinAxis.X_PLUS, 1.0, 0.0, t)
            assert abs(w - s) <= 1e-10


def test_half_cycle_reduction_to_strong_values():
    # post-selection along -x equals the freely evolved state after half a
    # cycle, so weak values collapse to strong expectations there
    params = SpinParams(1.0, 0.0, math.pi)
    for t in np.linspace(0.0, math.pi, 41):
        w_xplus = spin_weak_closed(PostChoice.X_MINUS, params, t)
        assert abs(w_xplus - spin_strong_closed(SpinAxis.X_PLUS, 1.0, 0.0, t)) <= 1e-10
        assert abs((1.0 - w_xplus) - spin_strong_closed(SpinAxis.X_MINUS, 1.0, 0.0, t)) <= 1e-10


def test_quarter_cycle_form_boundaries_and_excess():
    params = SpinParams(1.0, 0.0, 0.5 * math.pi)
    w_start = spin_weak_closed(PostChoice.X_PLUS, params, params.t_i)
    w_end = spin_weak_closed(PostChoice.X_PLUS, params, params.t_f)
    assert w_start == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert w_end == pytest.approx(1.0 + 0.0j, abs=1e-12)
    interior = [
        spin_weak_closed(PostChoice.X_PLUS, params, t).real
        for t in np.linspace(0.1, params.t_f - 0.1, 21)
    ]
    assert max(interior) > 1.0 + 1e-6


def test_complement_rule_every_post_choice(rng):
    p_xp = projector_from_state(X_PLUS)
    comp = Operator(np.eye(2) - p_xp.entries)
    for _ in range(50):
        omega, t_i, t, t_f = _nonsingular_draw(rng)
        u_mid = spin_propagator(omega, t - t_i)
        u_late = spin_propagator(omega, t_f - t)
        for choice in PostChoice:
            w1 = weak_value(X_PLUS, choice.value, p_xp, u_mid, u_late)
            w2 = weak_value(X_PLUS, choice.value, comp, u_mid, u_late)
            assert abs(w1 + w2 - 1.0) <= 1e-10


def test_static_field_reduces_to_overlap_ratios():
    params = SpinParams(0.0, 0.0, 2.0)
    for t in (0.0, 0.7, 2.0):
        assert spin_weak_closed(PostChoice.X_PLUS, params, t) == pytest.approx(1.0, abs=1e-12)
        assert spin_weak_closed(PostChoice.Y_PLUS, params, t) == pytest.approx(1.0, abs=1e-12)
    # -x post-selection is orthogonal to a frozen +x state
    with pytest.raises(ClosedFormSingular):
        spin_weak_closed(PostChoice.X_MINUS, params, 1.0)
    with pytest.raises(PostSelectionNull):
        spin_weak_kernel(X_MINUS, params, 1.0)


def test_singular_window_raises():
    params = SpinParams(1.0, 0.0, math.pi)  # cos(h) = 0 for the +x form
    with pytest.raises(ClosedFormSingular):
        spin_weak_closed(PostChoice.X_PLUS, params, 0.5)


def test_out_of_window_time_rejected():
    params = SpinParams(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        spin_weak_closed(PostChoice.X_PLUS, params, 1.5)
    with pytest.raises(ValueError):
        spin_weak_kernel(X_PLUS, params, 1.5)
