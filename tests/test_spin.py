import math
import re

import numpy as np
import pytest

from weakdecay import (
    Operator,
    PostChoice,
    PostSelectionNull,
    SpinAxis,
    StateVector,
    projector_from_state,
    spin_propagator,
    spin_strong_closed,
    spin_weak_closed,
    spin_weak_kernel,
    strong_expectation,
    weak_value,
)
from weakdecay import spin
from weakdecay.spin import X_MINUS, X_PLUS, Y_PLUS, params_problem


def test_propagator_special_angles():
    assert np.max(np.abs(spin_propagator(1.0, 0.0).matrix - np.eye(2))) <= 1e-14
    assert np.max(np.abs(spin_propagator(1.0, 2 * math.pi).matrix + np.eye(2))) <= 1e-12
    u = spin_propagator(1.0, math.pi)
    assert np.max(np.abs(u.matrix - np.diag([1j, -1j]))) <= 1e-12


def test_params_validation():
    for omega, t_i, t_f, message in (
        (float("inf"), 0.0, 1.0, "omega: need a finite value, got inf"),
        (1.0, 1.0, 1.0, "t_i/t_f: need finite t_i < t_f"),
        (1.0, -1e308, 1e308, "t_i/t_f: window t_f - t_i overflows"),
        (1e300, 0.0, 1e10, "omega: half-window phase"),
        (float("inf"), 0.0, 0.0,
         "omega: need a finite value, got inf; t_i/t_f: need finite t_i < t_f, got (0.0, 0.0)"),
    ):
        assert message in params_problem(omega, t_i, t_f)
        # both routes raise it before building a propagator
        for route in (spin_weak_closed, spin_weak_kernel):
            with pytest.raises(ValueError, match=re.escape(message)):
                route(omega, t_i, t_i, t_f, PostChoice.X_PLUS)


def test_post_choice_states():
    assert [choice.name for choice in PostChoice] == ["Y_PLUS", "X_MINUS", "X_PLUS"]
    assert np.allclose(PostChoice.X_PLUS.value.amplitudes, X_PLUS.amplitudes)
    assert np.allclose(PostChoice.X_MINUS.value.amplitudes, X_MINUS.amplitudes)
    assert np.allclose(PostChoice.Y_PLUS.value.amplitudes, Y_PLUS.amplitudes)


def test_weak_closed_trivial_post_selection_value():
    # whole cycle, probed at a quarter of it
    w = spin_weak_closed(1.0, 0.0, 0.5 * math.pi, 2.0 * math.pi, PostChoice.X_PLUS)
    assert w == pytest.approx(0.5 + 0.0j, abs=1e-12)


def test_weak_closed_quarter_cycle_exceeds_one():
    w = spin_weak_closed(1.0, 0.0, 0.25 * math.pi, 0.5 * math.pi, PostChoice.X_PLUS)
    assert w == pytest.approx(0.5 * (1.0 + math.sqrt(2.0)), abs=1e-12)


def test_weak_closed_x_minus_matches_kernel_at_quarter_cycle():
    # the kernel is ground truth for this value (it evaluates to 1/2 here)
    operands = (1.0, 0.0, 0.25 * math.pi, 0.5 * math.pi, PostChoice.X_MINUS)
    closed = spin_weak_closed(*operands)
    kernel = spin_weak_kernel(*operands)
    assert abs(closed - kernel) <= 1e-12
    assert closed == pytest.approx(0.5 + 0.0j, abs=1e-12)


def test_strong_closed_values():
    assert spin_strong_closed(SpinAxis.X_PLUS, 1.0, 0.0, 0.0) == pytest.approx(1.0)
    assert spin_strong_closed(SpinAxis.Y_PLUS, 1.0, 0.0, 0.5 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert spin_strong_closed(SpinAxis.X_PLUS, 1.0, 0.0, math.pi) == pytest.approx(0.0, abs=1e-12)
    assert spin_strong_closed(SpinAxis.X_MINUS, 1.0, 0.0, math.pi) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="need t >= t_i"):
        spin_strong_closed(SpinAxis.X_PLUS, 1.0, 0.5, np.array([0.5, 0.4]))


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
        for post in PostChoice:
            closed = spin_weak_closed(omega, t_i, t, t_f, post)
            kernel = spin_weak_kernel(omega, t_i, t, t_f, post)
            worst = max(worst, abs(closed - kernel))
    assert worst <= 1e-10


def test_trivial_post_selection_reduction_multiple_cycles():
    for n in (1, 2, 3):
        t_f = 2.0 * math.pi * n
        for t in np.linspace(0.0, t_f, 41):
            w = spin_weak_closed(1.0, 0.0, t, t_f, PostChoice.X_PLUS)
            s = spin_strong_closed(SpinAxis.X_PLUS, 1.0, 0.0, t)
            assert abs(w - s) <= 1e-10


def test_half_cycle_reduction_to_strong_values():
    # post-selection along -x equals the freely evolved state after half a
    # cycle, so weak values collapse to strong expectations there
    for t in np.linspace(0.0, math.pi, 41):
        w_xplus = spin_weak_closed(1.0, 0.0, t, math.pi, PostChoice.X_MINUS)
        assert abs(w_xplus - spin_strong_closed(SpinAxis.X_PLUS, 1.0, 0.0, t)) <= 1e-10
        assert abs((1.0 - w_xplus) - spin_strong_closed(SpinAxis.X_MINUS, 1.0, 0.0, t)) <= 1e-10


def test_quarter_cycle_form_boundaries_and_excess():
    t_f = 0.5 * math.pi
    w_start = spin_weak_closed(1.0, 0.0, 0.0, t_f, PostChoice.X_PLUS)
    w_end = spin_weak_closed(1.0, 0.0, t_f, t_f, PostChoice.X_PLUS)
    assert w_start == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert w_end == pytest.approx(1.0 + 0.0j, abs=1e-12)
    interior = [
        spin_weak_closed(1.0, 0.0, t, t_f, PostChoice.X_PLUS).real
        for t in np.linspace(0.1, t_f - 0.1, 21)
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
    for t in (0.0, 0.7, 2.0):
        assert spin_weak_closed(0.0, 0.0, t, 2.0, PostChoice.X_PLUS) == pytest.approx(1.0, abs=1e-12)
        assert spin_weak_closed(0.0, 0.0, t, 2.0, PostChoice.Y_PLUS) == pytest.approx(1.0, abs=1e-12)
    # -x post-selection is orthogonal to a frozen +x state: both routes say so alike
    for route in (spin_weak_closed, spin_weak_kernel):
        with pytest.raises(PostSelectionNull):
            route(0.0, 0.0, 1.0, 2.0, PostChoice.X_MINUS)


def test_singular_window_raises():
    # cos(h) = 0 for the +x form over the window [0, pi]
    with pytest.raises(PostSelectionNull):
        spin_weak_closed(1.0, 0.0, 0.5, math.pi, PostChoice.X_PLUS)


def test_out_of_window_time_rejected():
    for route in (spin_weak_closed, spin_weak_kernel):
        with pytest.raises(ValueError, match="need t_i <= t <= t_f"):
            route(1.0, 0.0, 1.5, 1.0, PostChoice.X_PLUS)


@pytest.mark.parametrize("post", list(PostChoice))
@pytest.mark.parametrize("route", [spin_weak_kernel, spin_weak_closed])
def test_time_blocks_keep_every_bit(route, post, monkeypatch):
    # 10001 times take three equal blocks at the default size, eleven at 1000
    # and two at 5000; blocks of 1000 and a last one of a single time moved
    # the kernel's last bit there
    grid = np.linspace(0.0, 1.1, 10001)
    assert len(grid) > 2 * spin._BLOCK_TIMES
    values = {}
    for size in (spin._BLOCK_TIMES, 1000, 5000, len(grid)):
        monkeypatch.setattr(spin, "_BLOCK_TIMES", size)
        values[size] = route(1.3, 0.0, grid, 1.1, post)
    whole = values.pop(len(grid))
    assert all(np.array_equal(blocked, whole) for blocked in values.values())
    assert whole.dtype == complex and whole.shape == grid.shape
