import math
import re
import tracemalloc

import numpy as np
import pytest

from weakdecay import (
    SumParams,
    lorentzian_sum,
    phased_lorentzian_sum,
    tail_bound,
)
from weakdecay import sums
from weakdecay.laws import lattice_limit, phased_closed_form

from oracles import lorentzian_lattice_sum


def test_params_validation():
    with pytest.raises(ValueError):
        SumParams(0.0, 0.1)
    with pytest.raises(ValueError):
        SumParams(1.0, -0.1)
    with pytest.raises(ValueError, match=r"^delta_e: delta_e\*\*2 is not finite"):
        SumParams(1.0, 1e200)
    with pytest.raises(ValueError, match="^k_max: need >= 0, got -1"):
        SumParams(1.0, 0.1, k_max=-1)
    for k_max in (1e4, math.nan, 2.5):
        with pytest.raises(ValueError, match=f"^k_max: need an integer, got {k_max}$"):
            SumParams(1.0, 0.1, k_max=k_max)
    assert lorentzian_sum(SumParams(1.0, 0.1, k_max=np.int64(10))) == lorentzian_sum(
        SumParams(1.0, 0.1, k_max=10)
    )
    for times in (2.0 * math.pi / 0.1 + 1e-9, np.array([0.5, 70.0]), -1.0):
        with pytest.raises(ValueError, match="closed form valid for 0 <= delta_e"):
            phased_closed_form(1.0, 0.1, times)
    for times in (-1.0, np.array([0.5, -1.0]), np.array([0.5, math.nan]), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="^t: need finite times >= 0"):
            phased_lorentzian_sum(SumParams(1.0, 0.1), times)


@pytest.mark.parametrize(
    "call",
    [
        lambda: phased_closed_form(1.0, 0.0, 1.0),
        lambda: phased_closed_form(0.0, 0.1, 1.0),
        lambda: phased_closed_form(1.0, 0.0, 0.0),
        lambda: phased_closed_form(0.0, 0.1, 0.0),
        lambda: phased_closed_form(math.nan, 0.1, 0.0),
        lambda: phased_closed_form(1.0, math.inf, 0.0),
    ],
)
def test_closed_forms_reject_what_sum_params_rejects(call):
    with pytest.raises(ValueError, match="^(gamma|delta_e): need a finite value > 0"):
        call()


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
def test_lattice_limit_refuses_a_rate_it_cannot_take(gamma):
    # 0 raised ZeroDivisionError; a negative gamma gave negative values, NaN and inf gave NaN
    with pytest.raises(ValueError, match=f"^gamma: need a finite value > 0, got {gamma}$"):
        lattice_limit(gamma, np.array([0.0, 1.0]))


def test_closed_forms_reach_the_center_term_at_tiny_gamma():
    # 1 - e^{-2 pi gamma / delta_e} rounds to 0 here; its expm1 form does not
    assert phased_closed_form(1e-100, 0.05, 0.0) == pytest.approx(0.05 / 1e-200, rel=1e-12)
    assert phased_closed_form(1e-100, 0.05, 1.0) == pytest.approx(0.05 / 1e-200, rel=1e-12)


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
    assert abs(lorentzian_sum(p0) - phased_closed_form(1.0, 0.5, 0.0)) <= tail_bound(6000, 0.5)


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
    # a spacing that is not finite and > 0 bounds nothing
    for delta_e in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^delta_e: need a finite value > 0, got {delta_e}$"):
            tail_bound(10, delta_e)


def _term_by_term(g, de, k_max, t):
    """The centre plus ``2 delta_e cos(k delta_e t) / (gamma^2 + k^2 delta_e^2)``, by fsum."""
    pairs = [2 * de * math.cos(k * de * t) / (g * g + k * k * de * de) for k in range(1, k_max + 1)]
    return math.fsum([de / g**2, *pairs])


# a chunk that holds each sum of the two fsum tests whole, as the default
# 2^18 does (at most 257 rows here), so those cases run the default's one
# chunk; it is written out so that the cases keep their names
_WHOLE = 1 << 20


@pytest.mark.parametrize(
    "k_max, chunk",
    # the last case splits into two chunks, the second padded, whose totals meet
    [(k, _WHOLE) for k in (0, 1, 1023, 1024, 1025, 5000)] + [(5000, 1 << 12)],
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


@pytest.mark.parametrize(
    "count, chunk",
    # the last case splits into two chunks, the second padded
    # the counts from 2 on reach every row width, 2, 4, ..., 1024, in turn
    [(count, _WHOLE) for count in (0, 1, 2, 5, 7, 17, 65, 257, 1024, 1025)]
    + [(count, _WHOLE) for count in (4097, 16385, 65537, 262145)]
    + [(5000, 1 << 12)],
)
def test_lattice_sum_with_caller_weights_matches_fsum(count, chunk, monkeypatch):
    monkeypatch.setattr(sums, "_CHUNK", chunk)
    rng = np.random.default_rng(count)
    cos_weights, sin_weights = rng.standard_normal((2, count))
    angles = np.array([0.0, 0.3, 1.7, 2.9, math.pi])
    if count > 4096:
        # past 4096 terms, rounding each phase k a (the reference's, or the
        # sums' B a and m a) alone moves the sum by up to ~1e-14 of the
        # weights' scale, and ~1e-13 at 2^18 terms and a = pi; so these
        # counts take the angles on a 2^-16 grid, where every phase is exact
        angles = np.round(angles * 2**16) / 2**16
    k = np.arange(1.0, count + 1.0)
    reference = [
        math.fsum(np.concatenate([cos_weights * np.cos(k * a), sin_weights * np.sin(k * a)]))
        for a in angles
    ]
    cosines = [math.fsum(cos_weights * np.cos(k * a)) for a in angles]
    scale = np.sum(np.abs(cos_weights) + np.abs(sin_weights))
    values = sums.lattice_sums(angles, cos_weights[None], sin_weights[None])[0]
    assert np.max(np.abs(values - reference), initial=0.0) <= 1e-14 * scale
    values = sums.lattice_sums(angles, cos_weights[None])[0]  # no sines
    assert np.max(np.abs(values - cosines), initial=0.0) <= 1e-14 * scale


@pytest.mark.parametrize(
    "count, chunk",
    [
        (1, _WHOLE),  # rows of width 2: row 0 holds k = -1, 0 and row 1 k = 1, 2
        (3, _WHOLE),  # the last row runs past K
        (1055, _WHOLE),  # rows of width 64: the last row ends at k = K
        (70000, _WHOLE),  # rows of width 512, in two blocks of forming
        (3, 2),  # one row per chunk, so row 0's chunk forms no weight
        (5000, 1 << 12),  # two chunks, the second partial
    ],
)
def test_lattice_sum_forms_each_weight_once_and_only_in_range(count, chunk, monkeypatch):
    monkeypatch.setattr(sums, "_CHUNK", chunk)
    asked = []  # the (lo, hi) ranges the one form was asked for, and the shapes it gave
    lattice = sums._lattice

    def recorded(angles, k_max, form, center=0.0):
        def record(lo, hi):
            block = form(lo, hi)
            asked.append((lo, hi, block.shape))
            return block

        return lattice(angles, k_max, record, center)

    monkeypatch.setattr(sums, "_lattice", recorded)
    rng = np.random.default_rng(count)
    cos_weights, sin_weights = rng.standard_normal((2, count))
    angles = np.array([0.0, 0.3, 1.7])  # one block of times
    sums.lattice_sums(angles, cos_weights[None], sin_weights[None])
    assert all(1 <= lo <= hi <= count + 1 and shape == (2, 1, hi - lo) for lo, hi, shape in asked)
    formed = np.zeros(count + 1, dtype=int)
    for lo, hi, _ in asked:
        formed[lo:hi] += 1
    assert np.all(formed[1:] == 1)


@pytest.mark.parametrize("angle", [0.3, np.zeros((2, 3)), np.array([0.1, np.nan, np.inf])])
def test_lattice_sum_needs_a_1d_array_of_finite_angles(angle):
    with pytest.raises(ValueError, match="^angle: need a 1-D array of finite angles, got "):
        sums.lattice_sums(angle, np.ones((1, 3)))


@pytest.mark.parametrize(
    "call, messages",
    [
        (
            lambda a: phased_lorentzian_sum(SumParams(1.0, 0.05, 10**6), a / 0.05),
            {
                1e305: "t: the phase 50073.6 t overflows at |t| = 1.9999999999999997e+306",
                5e306: "t: the phase 50073.6 t overflows at |t| = 1e+308",
            },
        ),
        (
            lambda a: sums.lattice_sums(np.array([a]), np.ones((1, 5000))),
            {
                1e305: "angle: the phase 5120 angle overflows at |angle| = 1e+305",
                5e306: "angle: the phase 5120 angle overflows at |angle| = 5e+306",
            },
        ),
    ],
    ids=["phased_lorentzian_sum", "lattice_sums"],
)
@pytest.mark.parametrize("angle", [1e305, 5e306])
def test_lattice_sums_refuse_a_phase_that_overflows(call, messages, angle):
    # the tables' largest multiple of the angle overflowed in _trig with a
    # warning, and the sum read nan; the refusal names the caller's own time
    # t (it named delta_e t) or angle, at the largest multiple the rows reach
    # (0.05 * 978 rows * 1024 = 50073.6 and 40 rows * 128 = 5120)
    with pytest.raises(ValueError, match=f"^{re.escape(messages[angle])}$"):
        call(angle)
    assert np.all(np.isfinite(call(1e300)))  # every multiple in the tables stays finite


@pytest.mark.parametrize("sines", [False, True], ids=["cosines", "sines"])
@pytest.mark.parametrize(
    "count, chunk",
    [(count, _WHOLE) for count in (3, 65, 1055, 5000, 20000, 70000)] + [(5000, 1 << 12), (20000, 1 << 12)],
)
def test_each_row_of_a_stacked_sum_meets_its_own_lattice_sum(count, chunk, sines, monkeypatch):
    # the rows share every table and chunk, and each set's products have the
    # shape of its own sum's, so each row is its own one-row stack bit for bit
    monkeypatch.setattr(sums, "_CHUNK", chunk)
    rng = np.random.default_rng(count)
    cos_rows, sin_rows = rng.standard_normal((2, 3, count)) * [[[1.0]], [[float(sines)]]]
    angles = rng.uniform(-4.0, 4.0, 37)
    stacked = sums.lattice_sums(angles, cos_rows, sin_rows if sines else None)
    assert stacked.shape == (3, len(angles))
    for j, row in enumerate(stacked):
        own = sums.lattice_sums(angles, cos_rows[j : j + 1], sin_rows[j : j + 1] if sines else None)
        assert np.array_equal(row, own[0])
    assert sums.lattice_sums(angles, np.ones((0, count))).shape == (0, len(angles))


@pytest.mark.parametrize("name", ["cos_rows", "sin_rows"])
@pytest.mark.parametrize(
    "rows",
    [np.ones(3), np.ones((2, 3, 1)), np.ones((2, 3), dtype=complex), np.array([[1.0, np.nan, 2.0]] * 2),
     np.array([[np.inf, 0.0, 1.0]] * 2)],
    ids=["1-D", "3-D", "complex", "nan", "inf"],
)
def test_lattice_sums_need_a_2d_array_of_finite_real_weights(name, rows):
    given = {"cos_rows": np.ones((2, 3)), "sin_rows": np.ones((2, 3)), name: rows}
    with pytest.raises(ValueError, match=f"^{name}: need a 2-D array of finite real weights, got "):
        sums.lattice_sums(np.array([0.1, 0.2]), **given)


@pytest.mark.parametrize("sin_rows, got", [(np.ones((2, 4)), "2 x 4"), (np.ones((3, 3)), "3 x 3")])
def test_lattice_sums_need_as_many_sines_as_cosines(sin_rows, got):
    with pytest.raises(ValueError, match=f"^sin_rows: need 2 x 3 weights, as many as cos_rows, got {got}$"):
        sums.lattice_sums(np.array([0.1]), np.ones((2, 3)), sin_rows)


def test_phased_sum_keeps_its_largest_terms_clear_of_cancellation():
    # row 0 is centred at k = 0, so the largest weights meet cos(0) = 1 and
    # sin(0) = 0; rows centred off zero read 1.2e-15 to 3.4e-15 here, the
    # centred rows 4.4e-16 (two ulps of the t = 0.75 value)
    g, de, k_max = 1.05, 0.05, 10**5
    times = np.array([0.75, 1.5, 3.0])
    reference = np.array([_term_by_term(g, de, k_max, t) for t in times])
    values = phased_lorentzian_sum(SumParams(g, de, k_max), times).real
    assert np.max(np.abs(values - reference)) <= 6e-16


def _without_series(monkeypatch):
    """Make every phased sum form and fold all its rows, as lattice_sums does: no row is expanded."""
    lattice = sums._lattice
    monkeypatch.setattr(sums, "_lattice", lambda *args, expand=None: lattice(*args))


def _expansion_cases():
    """A fixed draw of (gamma, delta_e, k_max, angles), then tiny gamma and c >= 16 W."""
    rng = np.random.default_rng(43)
    for _ in range(12):
        # k_max from about 2000 up, so that rows from r = 16 on exist
        yield 10 ** rng.uniform(-3, 2), 10 ** rng.uniform(-3, 0), int(10 ** rng.uniform(3.3, 5.5)), rng
    yield 1e-100, 0.05, 3000, rng  # a pole on the real axis: c = 2e-99
    yield 100.0, 0.01, 5000, rng  # c = 1e4 >= 16 W = 2048, yet rows 1 to 15 are formed and from 16 on far


def test_expanded_rows_meet_the_formed_rows(monkeypatch):
    monkeypatch.setattr(sums, "_SERIES_WIDTH", 2)  # rows narrower than 512 expand too
    # the largest gap, relative to the sum of the weights, read 1.2e-15 over
    # this draw (gamma = 0.035, delta_e = 0.717, k_max = 139331); on the four
    # widest gaps of a 60-case draw the expanded sums were within 1.4e-16 to
    # 4.3e-16 of a term-by-term fsum at exact phases, the formed 1.9e-16 to 1.2e-15
    worst = 0.0
    for gamma, delta_e, k_max, rng in _expansion_cases():
        p = SumParams(gamma, delta_e, k_max)
        angles = np.concatenate([[0.0, math.pi * (1 - 1e-9), math.pi * (1 - 1e-3)], rng.uniform(0.0, math.pi, 5)])
        expanded = phased_lorentzian_sum(p, angles / delta_e, include_center=False).real
        with monkeypatch.context() as patch:
            _without_series(patch)
            formed = phased_lorentzian_sum(p, angles / delta_e, include_center=False).real
        worst = max(worst, np.max(np.abs(expanded - formed)) / formed[0])  # t = 0: the sum of the weights
    assert worst <= 2e-15


@pytest.mark.parametrize(
    "chunk",
    # the default holds every row in one chunk or block; 8 rows split the far
    # rows into four blocks and the head rows 0 to 15 into two chunks, 3 rows
    # into eleven blocks and six chunks, each a part of the TwoSum
    [sums._CHUNK, 8 * 64, 3 * 64],
    ids=["whole", "8_rows", "3_rows"],
)
def test_phased_sum_meets_a_40_digit_oracle(chunk, monkeypatch):
    # rows of width 64 and c = gamma / delta_e = 820: rows 16 to 46 are far
    # and hold most of the weight, row 47 runs past k_max
    monkeypatch.setattr(sums, "_CHUNK", chunk)
    g, de, k_max = 164.0, 0.2, 3000
    times = np.array([0.0, 1.7, math.pi / de * (1 - 1e-9)])
    reference = np.array([lorentzian_lattice_sum(g, de, k_max, t) for t in times])
    monkeypatch.setattr(sums, "_SERIES_WIDTH", 2)  # rows narrower than 512 expand too
    expanded = phased_lorentzian_sum(SumParams(g, de, k_max), times).real
    _without_series(monkeypatch)
    formed = phased_lorentzian_sum(SumParams(g, de, k_max), times).real
    # relative to the sum of the terms' magnitudes (the t = 0 value), each
    # route's worst time read 2.9e-17 to 2.2e-16 (one rounding of the t = 0
    # value) over the three chunks, and at most 7.8e-18 near t = pi / delta_e
    for values in (expanded, formed):
        assert np.max(np.abs(values - reference)) <= 4e-16 * reference[0]


def test_narrow_rows_are_all_formed(monkeypatch):
    # rows of width 256, below _SERIES_WIDTH: the sum is the formed route's, bit for bit
    p, times = SumParams(1.0, 0.05, 65536), np.linspace(0.0, 3.0, 101)
    expanded = phased_lorentzian_sum(p, times)
    _without_series(monkeypatch)
    assert np.array_equal(expanded, phased_lorentzian_sum(p, times))


@pytest.mark.parametrize("points", [101, 1001])
def test_default_sum_forms_only_its_near_rows(points, monkeypatch):
    # the 1e6 weights were all formed and folded again for every block of 256
    # times; now rows 0 to 15 and the last, partial row 977 are formed, per block
    formed = np.zeros(10**6 + 1, dtype=int)
    lattice = sums._lattice

    def recorded(angles, k_max, form, center, expand):
        def record(lo, hi):
            formed[lo:hi] += 1
            return form(lo, hi)

        return lattice(angles, k_max, record, center, expand=expand)

    monkeypatch.setattr(sums, "_lattice", recorded)
    phased_lorentzian_sum(SumParams(1.0, 0.05), np.linspace(0.0, 3.0, points))
    blocks = -(-points // (sums._TABLE_ENTRIES // 1024))
    near = np.zeros_like(formed)
    near[1 : 16 * 1024 - 512] = near[977 * 1024 - 512 :] = blocks
    assert np.array_equal(formed, near)
    assert np.sum(formed) <= 17 * 1024 * blocks


@pytest.mark.parametrize(
    "first, step, count",
    # the default sum's offset and base tables, a later chunk's bases, one entry
    [(0, 1, 513), (0, 1024, 978), (4096, 128, 10), (7, 3, 1)],
)
def test_trig_tables_by_angle_addition_match_library_calls(first, step, count):
    angle = 0.05 * np.linspace(0.0, 3.0, 101)
    cos, sin = sums._trig(angle, first, step, count)
    phase = np.multiply.outer(angle, first + step * np.arange(count, dtype=float))
    # one angle addition from library values, plus the rounding of the two
    # phases it adds, up to an ulp of the phase each
    bound = 4 * np.finfo(float).eps * (1.0 + np.abs(phase))
    assert cos.shape == sin.shape == phase.shape
    assert np.all(np.abs(cos - np.cos(phase)) <= bound)
    assert np.all(np.abs(sin - np.sin(phase)) <= bound)


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


def _default_sum_peak():
    """Traced peak of the default phased sum: 101 times on [0, 3], k_max = 1e6."""
    times = np.linspace(0.0, 3.0, 101)
    tracemalloc.start()
    try:
        phased_lorentzian_sum(SumParams(1.0, 0.05), times)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_default_phased_sum_memory_holds_no_second_k_array():
    # the 1M weights are formed a few rows at a time and folded about their
    # rows' centres, chunk by chunk, into one reused workspace (4 MiB at
    # chunks of 2^19, peak 6.5 MiB); one 8 MiB fold array per chunk of 2^20
    # took the peak to 11.6 MiB, and a k array beside the whole chunk to 20.7 MiB
    assert _default_sum_peak() <= 8 * 2**20


def test_default_phased_sum_memory_stays_within_a_2_mib_workspace():
    # chunks of 2^18 weights folded into a 2 MiB workspace, and the default
    # sum peaked at 3.6 MiB traced (6.5 MiB with chunks of 2^19); now its far
    # rows form no weights and the workspace holds its 16 head rows (64 KiB):
    # it peaked at 2.59 MiB while each chunk spliced its far rows' products
    # between the near rows' (copies of both), and at 2.19 MiB since the far
    # rows run in blocks of their own
    assert _default_sum_peak() <= 2.4 * 2**20
