import math
import tracemalloc

import numpy as np
import pytest

from weakdecay import (
    SumParams,
    lorentzian_closed_form,
    lorentzian_sum,
    phased_closed_form,
    phased_lorentzian_sum,
    tail_bound,
)
from weakdecay import sums


def test_params_validation():
    with pytest.raises(ValueError):
        SumParams(0.0, 0.1)
    with pytest.raises(ValueError):
        SumParams(1.0, -0.1)
    with pytest.raises(ValueError, match=r"^delta_e: delta_e\*\*2 is not finite"):
        SumParams(1.0, 1e200)
    with pytest.raises(ValueError, match="^k_max: need >= 0, got -1"):
        SumParams(1.0, 0.1, k_max=-1)
    for times in (2.0 * math.pi / 0.1 + 1e-9, np.array([0.5, 70.0]), -1.0):
        with pytest.raises(ValueError, match="closed form valid for 0 <= delta_e"):
            phased_closed_form(1.0, 0.1, times)
    for times in (-1.0, np.array([0.5, -1.0]), np.array([0.5, math.nan])):
        with pytest.raises(ValueError, match="^t: need finite times >= 0"):
            phased_lorentzian_sum(SumParams(1.0, 0.1), times)


@pytest.mark.parametrize("gamma", [1e-300, 1e-160, 1e200])
def test_params_reject_a_gamma_whose_center_term_is_not_finite(gamma):
    # gamma**2 underflows to 0 (or delta_e / gamma**2 overflows), or gamma**2 overflows
    with pytest.raises(ValueError, match="^gamma: center term"):
        SumParams(gamma, 0.05, k_max=10)


def test_params_accept_a_tiny_gamma_with_a_finite_center_term():
    p = SumParams(1e-150, 0.05, k_max=10)
    assert math.isfinite(lorentzian_sum(p))


def test_single_term_sum():
    p = SumParams(2.0, 0.3, k_max=0)
    assert lorentzian_sum(p) == pytest.approx(0.3 / 4.0, abs=1e-15)


def test_plain_sum_reaches_limit():
    p = SumParams(1.0, 0.01, k_max=10**6)
    assert abs(lorentzian_sum(p) - math.pi) <= 0.001
    p2 = SumParams(2.0, 0.01, k_max=10**6)
    assert abs(lorentzian_sum(p2) - math.pi / 2.0) <= 0.001


def test_plain_sum_matches_term_by_term_fsum():
    g, de, k_max = 0.7, 0.03, 5000
    terms = [de / (g * g + k * k * de * de) for k in range(-k_max, k_max + 1)]
    p = SumParams(g, de, k_max)
    assert lorentzian_sum(p) == pytest.approx(math.fsum(terms), rel=1e-14)
    assert lorentzian_sum(p, include_center=False) == pytest.approx(
        math.fsum(terms) - de / g**2, rel=1e-14
    )


def test_phased_reduces_to_plain_at_zero_time():
    p = SumParams(1.3, 0.05, k_max=10**4)
    assert phased_lorentzian_sum(p, 0.0) == pytest.approx(lorentzian_sum(p), abs=1e-14)


def test_phased_sum_reaches_damped_limit():
    for t in (1.0, 3.0):
        p = SumParams(1.0, 0.01, k_max=10**6)
        val = phased_lorentzian_sum(p, t)
        assert abs(val - math.pi * math.exp(-t)) <= 0.005
        assert abs(val.imag) <= 1e-6


def test_symmetric_truncation_kills_imaginary_part():
    p = SumParams(0.7, 0.2, k_max=10**4)
    val = phased_lorentzian_sum(p, 2.3)
    assert val.imag == 0.0  # paired accumulation cancels exactly


def test_truncated_sum_matches_closed_form_within_tail():
    for (g, de, t) in ((1.0, 0.5, 0.3), (2.0, 0.2, 1.0), (1.0, 0.1, 2.0)):
        p = SumParams(g, de, k_max=int(3000 / de))
        numeric = phased_lorentzian_sum(p, t)
        closed = phased_closed_form(g, de, t)
        assert abs(numeric - closed) <= tail_bound(p.k_max, de)
    p0 = SumParams(1.0, 0.5, k_max=6000)
    assert abs(lorentzian_sum(p0) - lorentzian_closed_form(1.0, 0.5)) <= tail_bound(6000, 0.5)


def test_closed_form_is_overflow_safe_at_tiny_spacing():
    val = phased_closed_form(1.0, 1e-4, 1.0)
    assert val == pytest.approx(math.pi * math.exp(-1.0), rel=1e-12)


def test_convergence_is_first_order_without_center_term():
    errs = []
    for j in range(4):
        de = 0.01 / 2**j
        p = SumParams(1.0, de, k_max=int(round(200.0 / de)))
        val = phased_lorentzian_sum(p, 1.0, include_center=False)
        errs.append(abs(val - math.pi * math.exp(-1.0)))
    for a, b in zip(errs, errs[1:]):
        assert 1.5 <= a / b <= 2.5


def test_center_term_is_the_first_order_deficit():
    de = 0.02
    p = SumParams(1.0, de, k_max=int(round(200.0 / de)))
    with_center = phased_lorentzian_sum(p, 1.0)
    without = phased_lorentzian_sum(p, 1.0, include_center=False)
    assert (with_center - without).real == pytest.approx(de, abs=1e-12)


def test_tail_bound():
    assert tail_bound(1000, 0.01) == pytest.approx(0.2)
    with pytest.raises(ValueError, match="k_max >= 1"):
        tail_bound(0, 0.01)


def _term_by_term(g, de, k_max, t):
    """The centre plus ``2 delta_e cos(k delta_e t) / (gamma^2 + k^2 delta_e^2)``, by fsum."""
    pairs = [2 * de * math.cos(k * de * t) / (g * g + k * k * de * de) for k in range(1, k_max + 1)]
    return math.fsum([de / g**2, *pairs])


@pytest.mark.parametrize(
    "k_max, chunk",
    # the last case splits into two chunks, the second padded, whose totals meet
    [(k, sums._CHUNK) for k in (0, 1, 1023, 1024, 1025, 5000)] + [(5000, 1 << 12)],
)
def test_phased_sum_matches_term_by_term_fsum_on_an_uneven_grid(k_max, chunk, monkeypatch):
    monkeypatch.setattr(sums, "_CHUNK", chunk)
    g, de = 0.7, 0.2
    times = np.array([0.0, 0.3, 1.7, 2.9, 7.0, math.pi / de * (1 - 1e-9)])
    values = phased_lorentzian_sum(SumParams(g, de, k_max), times)
    reference = np.array([_term_by_term(g, de, k_max, t) for t in times])
    # relative to the sum of the terms' magnitudes (the t = 0 value): near
    # t = pi / delta_e the terms cancel to 3e-5 of it
    assert np.all(values.imag == 0.0)
    assert np.max(np.abs(values.real - reference)) <= 1e-14 * reference[0]


@pytest.mark.parametrize("g, de", [(1.0, 0.05), (2.0, 0.001)])
def test_chunk_totals_meet_in_a_compensated_sum(g, de, monkeypatch):
    # 1024 chunk totals: added one by one they drift by up to 2.5e-15 here,
    # the compensated (TwoSum) cascade stays within about one rounding
    monkeypatch.setattr(sums, "_CHUNK", 1024)
    k = np.arange(1, (1 << 20) + 1, dtype=float)
    exact = math.fsum([de / g**2, *(2 * de / (g * g + k * k * de * de))])
    assert abs(lorentzian_sum(SumParams(g, de, 1 << 20)) - exact) <= 4e-16 * exact


def test_phased_sum_repeats_bit_for_bit():
    p = SumParams(0.9, 0.05, k_max=10**5)
    times = np.linspace(0.0, 3.0, 11)
    assert np.array_equal(phased_lorentzian_sum(p, times), phased_lorentzian_sum(p, times))


def test_phased_sum_memory_does_not_grow_with_the_grid():
    # the output alone takes 16 MB; one table over the whole grid, 256 MB
    times = np.linspace(0.0, 3.0, 10**6)
    tracemalloc.start()
    try:
        phased_lorentzian_sum(SumParams(1.0, 0.05, k_max=1000), times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**20
