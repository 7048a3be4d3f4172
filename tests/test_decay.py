import cmath
import functools
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakdecay import (
    BathSpec,
    BeyondRecurrence,
    DimensionMismatch,
    PostSelectionNull,
    PostSpec,
    StateVector,
    asymptotic_truncation_bound,
    bath_propagator,
    bath_weak_projector_scan,
    default_bath,
    interaction_column,
    interaction_element,
    projector_from_state,
    propagator_column,
    propagator_element,
    slot_of_atom,
    survival_probability,
    weak_survival_closed,
    weak_survival_numeric,
    weak_value,
)
from weakdecay import decay, sums
from weakdecay.core import DENOM_FLOOR
from weakdecay.laws import decay_law, u00_limit, un0_limit

from oracles import build_hamiltonian, dense_eigensystem, ode_interaction_column, sampled_band_series


# ---------------------------------------------------------------- BathSpec & layout

def test_gamma_is_kept_and_the_coupling_derived_exactly():
    # gamma went through H = sqrt(gamma delta_e / pi) and back, and 5463 of
    # 10000 draws in [0.8, 1.2] at delta_e = 0.1 did not come back
    rng = np.random.default_rng(42)
    draws = [(2000, 1.0, 0.05), (3, 0.0, 0.05), (50, 1e6, 0.05), (1, 0.0, 1e-300), (decay.MAX_N_HALF, 1e6, 1.0)]
    draws += [
        (int(rng.integers(1, decay.MAX_N_HALF + 1)), rng.uniform(0.8, 1.2), 10.0 ** rng.uniform(-3.0, 0.0))
        for _ in range(200)
    ]
    for n_half, gamma, delta_e in draws:
        bath = BathSpec(n_half, gamma, delta_e)
        assert (bath.n_half, bath.gamma, bath.delta_e) == (n_half, gamma, delta_e)
        assert bath.coupling == math.sqrt(gamma * delta_e / math.pi)
    bath = BathSpec(2000, 1.0, 0.05)
    assert bath == default_bath() and default_bath().gamma == 1.0
    assert bath.dim == 4001
    assert bath.recurrence_time == 2.0 * math.pi / 0.05


def test_spec_validation():
    with pytest.raises(ValueError, match="^n_half: need 1 <= n_half"):
        BathSpec(0, 0.1, 0.1)
    with pytest.raises(ValueError, match=r"^gamma: need a finite value >= 0, got -0.1$"):
        BathSpec(5, -0.1, 0.1)
    with pytest.raises(ValueError, match=r"^delta_e: need a finite value > 0, got -0.1$"):
        BathSpec(5, 0.1, -0.1)
    with pytest.raises(ValueError, match=r"^gamma: need a finite value >= 0, got nan; delta_e: need"):
        BathSpec(5, math.nan, math.inf)  # both inputs, in one list
    with pytest.raises(ValueError, match=re.escape("gamma: H^2 = gamma delta_e / pi overflows")):
        BathSpec(2, 1e300, 1e10)  # (H / delta_e)^2 is finite, H^2 is not
    with pytest.raises(ValueError, match=re.escape("gamma: (H / delta_e)^2 = gamma / (pi delta_e) overflows")):
        BathSpec(5, 10.0, 1e-308)  # the secular equation's (H / delta_e)^2
    # a bath of 2.5 atoms read a survival probability of 1.0877 at t = 0
    for n_half in (2.5, 20.0, np.float64(3.0)):
        with pytest.raises(ValueError, match=f"^n_half: need an integer, got {n_half}$"):
            BathSpec(n_half, 1.0, 0.05)
    assert BathSpec(np.int64(3), 1.0, 0.05) == BathSpec(3, 1.0, 0.05)


def test_spec_caps_the_dense_dimension():
    from weakdecay.decay import MAX_N_HALF

    assert BathSpec(MAX_N_HALF, 0.1, 0.1).dim == 2 * MAX_N_HALF + 1
    with pytest.raises(ValueError, match=f"n_half: need 1 <= n_half <= {MAX_N_HALF}"):
        BathSpec(MAX_N_HALF + 1, 0.1, 0.1)


def test_slot_bijection_round_trip():
    n = 7
    atoms = BathSpec(n, 0.1, 0.1).bath_atoms()
    assert slot_of_atom(n, 0) == 0
    assert [slot_of_atom(n, a) for a in atoms] == list(range(1, 2 * n + 1))
    for atom in (n + 1, 2.5, 1.0, np.float64(-1.0)):
        with pytest.raises(DimensionMismatch, match=f"^atom index {atom} outside"):
            slot_of_atom(n, atom)
    assert slot_of_atom(n, np.int64(-1)) == slot_of_atom(n, -1)


def test_hamiltonian_smallest_bath():
    bath = BathSpec(1, math.pi * 0.1**2, 1.0)  # H = 0.1
    h = build_hamiltonian(bath).entries
    assert h.shape == (3, 3)
    # reference at slot 0 with zero energy; bath detunings -1 and +1
    assert sorted(np.real(np.diag(h))) == [-1.0, 0.0, 1.0]
    assert h[0, 0] == 0.0
    for atom in (-1, 1):
        s = slot_of_atom(1, atom)
        assert h[s, s] == atom * 1.0
        assert h[0, s] == pytest.approx(0.1)
        assert h[s, 0] == pytest.approx(0.1)
    off = h.copy()
    off[0, :] = 0.0
    off[:, 0] = 0.0
    np.fill_diagonal(off, 0.0)
    assert np.max(np.abs(off)) == 0.0  # arrowhead: nothing outside row/col 0
    assert build_hamiltonian(bath).is_hermitian()


def test_decoupled_bath_never_decays():
    bath = BathSpec(4, 0.0, 0.5)
    assert bath.coupling == 0.0
    for t in (0.0, 0.3, 2.0):
        assert survival_probability(bath, t) == pytest.approx(1.0, abs=1e-14)
    u = bath_propagator(bath, 1.3)
    expected = np.exp(-1j * np.concatenate([[0.0], bath.bath_atoms() * 0.5]) * 1.3)
    assert np.max(np.abs(u.matrix - np.diag(expected))) <= 1e-12


def test_decoupled_bath_amplitudes_stay_in_the_reference():
    bath = BathSpec(4, 0.0, 0.5)
    # per-entry times, a progression, and one whose end np.linspace set a bit
    # off it: every route meets a kernel that may hold poles
    for times in (np.array([0.0, 0.3, 2.0]), np.linspace(0.0, 2.0, 9), np.linspace(0.0, 0.9, 7)):
        reference = np.tile(np.eye(bath.dim)[0], (len(times), 1))
        assert np.array_equal(propagator_column(bath, times), reference)
        assert np.all(propagator_element(bath, 0, times) == 1.0)
        for atom in (-3, -1, 1, 3):
            assert np.all(interaction_element(bath, atom, times) == 0.0)
        with pytest.raises(PostSelectionNull):
            weak_survival_numeric(bath, 0.0, times, 2.0, PostSpec("asymptotic"))


# ---------------------------------------------------------------- propagator

def test_propagator_at_zero_is_identity(small_bath):
    u = bath_propagator(small_bath, 0.0)
    assert np.max(np.abs(u.matrix - np.eye(small_bath.dim))) <= 1e-12


def test_propagator_unitarity_and_reversal(small_bath):
    for t in (0.3, 1.7):
        u = bath_propagator(small_bath, t)  # construction enforces unitarity
        back = bath_propagator(small_bath, -t)
        assert np.max(np.abs(u.matrix.conj().T - back.matrix)) <= 1e-10


def test_propagator_composition(small_bath):
    u1 = bath_propagator(small_bath, 0.4)
    u2 = bath_propagator(small_bath, 1.1)
    u12 = bath_propagator(small_bath, 1.5)
    assert np.max(np.abs(u1.matrix @ u2.matrix - u12.matrix)) <= 1e-10


def test_column_and_element_match_dense(small_bath):
    t = 0.9
    dense = bath_propagator(small_bath, t).matrix
    col = propagator_column(small_bath, t)
    assert np.max(np.abs(col - dense[:, 0])) <= 1e-12
    for atom in (0, -3, 5):
        s = slot_of_atom(small_bath.n_half, atom)
        assert propagator_element(small_bath, atom, t) == pytest.approx(dense[s, 0], abs=1e-12)


def test_weak_value_and_scan_form_the_kernel_once(small_bath, monkeypatch):
    # every call solves its bath once, a second call on the same bath object too
    calls, solves = [], []
    kernel, outer_start = decay._pair_kernel, decay._outer_start

    def counted(spec, atoms):
        calls.append(len(atoms))
        return kernel(spec, atoms)

    def counted_start(n_half, g):
        solves.append(n_half)
        return outer_start(n_half, g)

    monkeypatch.setattr(decay, "_pair_kernel", counted)
    monkeypatch.setattr(decay, "_outer_start", counted_start)
    times = np.linspace(0.0, 1.5, 7)
    n_half = small_bath.n_half
    emission, photon = PostSpec("asymptotic"), PostSpec("photon:-2")
    routes = [
        # the emission overlap is a time integral of U00 and needs no kernel
        (lambda: weak_survival_numeric(small_bath, 0.0, times, 1.5, emission), []),
        (lambda: weak_survival_numeric(small_bath, 0.0, times, 1.5, photon), [1]),
        (lambda: bath_weak_projector_scan(small_bath, 0.0, 0.6, 1.5), [n_half]),
        (lambda: survival_probability(small_bath, times), []),  # survival needs no kernel
        (lambda: propagator_column(small_bath, times), [n_half]),
    ]
    for route, kernels in routes:
        for _ in range(2):
            calls.clear()
            solves.clear()
            route()
            assert solves == [n_half]
            assert calls == kernels


# N = 10 is small_bath, N = 2000 the default bath
@pytest.mark.parametrize("n_half", [1, 5, 10, 2000, decay.MAX_N_HALF])
def test_emission_fold_matches_the_complex_column_sum(n_half):
    bath = BathSpec(n_half, 1.0, 0.05)
    grid = np.linspace(0.0, 2.0, 9)
    times = np.append(2.0, 2.0 - grid)  # a weak value's overlaps, window first
    # the independent route: every bath slot of the interaction column times its weight
    weights = 1.0 / (bath.gamma + 1j * bath.bath_atoms() * bath.delta_e)
    reference = np.sum(weights * interaction_column(bath, times)[:, 1:], axis=-1)
    fold = decay._emission_overlap(decay._spectrum(bath), times, 2.0 - times)[0]
    assert np.all(fold.real == 0.0)
    assert np.max(np.abs(fold - reference)) <= 1e-14 * np.max(np.abs(reference))
    weak = weak_survival_numeric(bath, 0.0, grid, 2.0, PostSpec("asymptotic"))
    assert np.all(weak.imag == 0.0)


@pytest.mark.parametrize("n_half", [5, 10])
def test_emission_fold_matches_the_dense_propagator(n_half):
    bath = BathSpec(n_half, 1.0, 0.05)
    times = np.append(2.0, 2.0 - np.linspace(0.0, 2.0, 9))  # window first: no progression
    assert decay._progression_step(times) is None
    # every bath slot of the dense column, turned to the interaction picture and weighted
    energy = bath.bath_atoms() * bath.delta_e
    weights = np.exp(1j * np.multiply.outer(times, energy)) / (bath.gamma + 1j * energy)
    dense = np.array([bath_propagator(bath, tau).matrix[1:, 0] for tau in times])
    reference = np.sum(weights * dense, axis=-1)
    fold = decay._emission_overlap(decay._spectrum(bath), times, 2.0 - times)[0]
    assert np.max(np.abs(fold - reference)) <= 1e-12


def _emission_reference(bath, times):
    """The complex column sum: every bath slot of the interaction column times its weight."""
    weights = 1.0 / (bath.gamma + 1j * bath.bath_atoms() * bath.delta_e)
    return np.sum(weights * interaction_column(bath, times)[:, 1:], axis=-1)


@pytest.mark.parametrize("n_half, gamma, delta_e", [(10, 1.0, 0.05), (50, 3.0, 0.2)])
def test_emission_overlap_grows_at_the_rate_of_its_equation_of_motion(n_half, gamma, delta_e):
    # d overlap / d tau = -i H U00(tau) L(tau), L(tau) = sum_n e^{i E_n tau} / (gamma + i E_n),
    # by a fourth-order central difference at interior times; its error is
    # (h omega)^4 / 30 for the fastest wave, omega ~ 2 N delta_e
    bath = BathSpec(n_half, gamma, delta_e)
    taus, h = np.array([0.4, 1.1, 1.7]), 2e-4
    times = np.add.outer(taus, h * np.array([-2, -1, 1, 2]))
    values = decay._emission_overlap(decay._spectrum(bath), times, np.max(times) - times)[0]
    rate = (values[:, 0] - 8.0 * values[:, 1] + 8.0 * values[:, 2] - values[:, 3]) / (12.0 * h)
    energy = bath.bath_atoms() * bath.delta_e
    lattice = np.sum(np.exp(1j * np.multiply.outer(taus, energy)) / (bath.gamma + 1j * energy), axis=-1)
    expected = -1j * bath.coupling * propagator_element(bath, 0, taus) * lattice
    assert np.max(np.abs(rate - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_emission_series_tail_at_the_largest_case():
    # N = MAX_N_HALF on the long window of the memory test below (degree
    # 4201): the series is resolved to rounding
    bath = BathSpec(decay.MAX_N_HALF, 1.0, 0.05)
    coeffs, _ = decay._band_series(decay._spectrum(bath), 20.0)
    assert np.max(np.abs(coeffs[-10:])) <= 1e-15 * np.max(np.abs(coeffs))


def _bessel_blocks(monkeypatch, n_half, top):
    """``(roots, order)`` of each Bessel block of the band series, from the top root down."""
    blocks = []
    bessel = decay._bessel

    def recorded(alpha, degree):
        blocks.append((len(alpha), degree))
        return bessel(alpha, degree)

    monkeypatch.setattr(decay, "_bessel", recorded)
    decay._band_series(decay._spectrum(BathSpec(n_half, 1.0, 0.05)), top)
    return blocks


@pytest.mark.parametrize(
    "n_half, top, steps",
    [(decay.MAX_N_HALF, 20.0, 9963), (2000, 60.0, 9730), (2000, 2.0, 322), (2000, 3.0, 503)],
)
def test_band_series_sizes_each_root_block_by_its_own_order(n_half, top, steps, monkeypatch):
    # blocks all sized by the whole series' order took 11,908 and 14,445 recurrence
    # steps on the two long windows; blocks as large as _BLOCK_ENTRIES allows took
    # 8121 and 9237, and the default bath was one block of 166 steps at top = 2
    # and 224 at top = 3 (2.7 and 3.6 MB, a table that grew with the window)
    blocks = _bessel_blocks(monkeypatch, n_half, top)
    assert sum(degree for _, degree in blocks) == steps
    assert sum(count for count, _ in blocks) == n_half - 1
    # from the top root down, every block but the lowest holds 2^17 entries' worth
    # of roots, but at least 512 roots, and never more than _BLOCK_ENTRIES entries
    for count, degree in blocks[:-1]:
        assert count == min(max(512, 2**17 // (degree + 1)), decay._BLOCK_ENTRIES // (degree + 1))
    assert all(count * (degree + 1) <= decay._BLOCK_ENTRIES for count, degree in blocks)


@pytest.mark.parametrize("n_half, top", [(2000, 2.0), (2000, 10.0), (2000, 30.0), (decay.MAX_N_HALF, 20.0)])
def test_blocked_band_series_meets_a_single_block(n_half, top, monkeypatch):
    # measured: at most 3.4e-16 of the largest coefficient of U_in L's series and
    # 5.9e-16 of U_in's; each block starts its recurrence at its own top order,
    # which moves last bits only
    spec = decay._spectrum(BathSpec(n_half, 1.0, 0.05))
    blocked = decay._band_series(spec, top)
    monkeypatch.setattr(decay, "_bessel_roots", lambda order: n_half)
    single = decay._band_series(spec, top)
    for blocked_series, single_series in zip(blocked, single):  # U_in L's, then U_in's
        assert np.max(np.abs(blocked_series - single_series)) <= 1e-15 * np.max(np.abs(single_series))


def test_bessel_recurrence_matches_scipy():
    from scipy.special import jv

    # zero and subnormal (a window of 5e-324 times an eigenvalue), tiny, moderate,
    # and N pi / 2 at the cap, the largest a = lam top / 2 below the recurrence guard
    alpha = np.array([0.0, 5e-324, 1e-310, 1e-300, 1e-8, 0.5, 30.0, decay.MAX_N_HALF * math.pi / 2])
    degree = decay._degree(alpha[-1])
    table, norm = decay._bessel(alpha, degree)
    error = np.abs(table / norm - jv(np.arange(degree + 1.0)[:, None], alpha))
    # measured: 1.7e-16 up to a = 30; at a = 6283 scipy's jv is itself off by
    # 6.9e-14 (J_184; the recurrence's value is within 2e-17 of a 40-digit one)
    assert np.max(error[:, :-1]) <= 1e-15
    assert np.max(error[:, -1]) <= 1e-13
    for a in alpha[:-1]:  # each started at its own order, as a block of low roots is
        order = decay._degree(a)
        table, norm = decay._bessel(np.array([a]), order)
        own = table[:, 0] / norm[0]
        assert np.max(np.abs(own - jv(np.arange(order + 1.0), a))) <= 1e-15


@pytest.mark.parametrize(
    "n_half, gamma, top",
    [
        (2000, 1.0, 1.5),
        (2000, 1.0, 2.3),
        (2000, 1.0, 3.0),
        (1, 1.0, 2.0),
        (2000, 1e6, 2.0),
        (2000, 1e-6, 2.0),
        (decay.MAX_N_HALF, 1.0, 20.0),
        (2000, 1.0, 1e-300),
        (2000, 1.0, 1e-8),
        (2000, 1.0, 5e-324),
    ],
)
def test_band_series_matches_the_sampled_series(n_half, gamma, top, monkeypatch):
    # measured: at most 3.1e-16 of the largest coefficient (default bath, top = 3)
    spec = decay._spectrum(BathSpec(n_half, gamma, 0.05))
    reference = sampled_band_series(spec, top)

    def element(*args, **kwargs):
        raise AssertionError("the band series sampled U_in through _element")

    monkeypatch.setattr(decay, "_element", element)
    coeffs, _ = decay._band_series(spec, top)
    assert len(coeffs) == len(reference)
    assert np.max(np.abs(coeffs - reference)) <= 1e-15 * np.max(np.abs(reference))


def test_emission_overlap_at_strong_coupling_keeps_the_band_node_count():
    # at gamma = 1e6 the outer root sits ~505 band widths out; it is
    # integrated in closed form, so the series needs no more nodes than at gamma = 1
    strong, weak = (BathSpec(50, gamma, 0.05) for gamma in (1e6, 1.0))
    spec = decay._spectrum(strong)
    assert spec.lam[-1] > 500.0 * strong.n_half * strong.delta_e
    times = np.append(2.0, 2.0 - np.linspace(0.0, 2.0, 9))
    reference = _emission_reference(strong, times)
    fold = decay._emission_overlap(spec, times, 2.0 - times)[0]
    assert np.max(np.abs(fold - reference)) <= 1e-13 * np.max(np.abs(reference))
    assert len(decay._band_series(spec, 2.0)[0]) == len(decay._band_series(decay._spectrum(weak), 2.0)[0])


def _survival_error(bath, t_i, t_f, rng):
    """Largest gap between a weak value's mirrored survival factor and ``_element`` at ``t - t_i``.

    The grid is not a progression, so the reference takes one library cosine per root and time.
    """
    spec = decay._spectrum(bath)
    t = np.concatenate([[t_i, t_f], rng.uniform(t_i, t_f, 40)])
    _, survival = decay._emission_overlap(spec, np.append(t_f - t_i, t_f - t), np.append(0.0, t - t_i))
    return np.max(np.abs(survival[1:] - decay._element(spec, 0, t - t_i, interaction=False)))


# measured: at most 3.9e-15 (N = 2000, gamma = 1, t_f = 30) over these cases
# and 300 random baths; the mirrored angle rounds top - tau, not t - t_i
SURVIVAL_BOUND = 8e-15


@pytest.mark.parametrize(
    "n_half, gamma, top",
    [
        (2000, 1.0, 1.5),
        (2000, 1.0, 3.0),
        (1, 1.0, 2.0),
        (2000, 1e6, 2.0),
        (2000, 1e-6, 2.0),
        (decay.MAX_N_HALF, 1.0, 20.0),
        (2000, 1.0, 30.0),
        (2000, 1.0, 1e-300),
        (2000, 1.0, 1e-8),
        (2000, 1.0, 5e-324),
    ],
)
def test_the_asymptotic_survival_factor_meets_the_element(n_half, gamma, top):
    bath = BathSpec(n_half, gamma, 0.05)
    assert _survival_error(bath, 0.0, top, np.random.default_rng(n_half)) <= SURVIVAL_BOUND


def test_the_asymptotic_survival_factor_meets_the_element_on_random_baths():
    rng = np.random.default_rng(40)
    for _ in range(12):
        delta_e = rng.uniform(0.01, 0.5)
        bath = BathSpec(int(rng.integers(1, 600)), 10.0 ** rng.uniform(-4.0, 4.0), delta_e)
        t_i = rng.uniform(-3.0, 3.0)
        t_f = t_i + rng.uniform(1e-3, 0.99) * math.pi / delta_e
        assert _survival_error(bath, t_i, t_f, rng) <= SURVIVAL_BOUND, bath


def test_an_asymptotic_weak_value_reads_survival_from_its_series(monkeypatch):
    # U00(t - t_i) came from per-time waves (_phase_sums on a progression, and
    # _amplitudes off its end), and X and Y of the outer integral each formed
    # offset tables at the same angles; now every angle set forms them once:
    # the Chebyshev nodes, the band angles theta and the bath angles delta_e tau
    calls = []
    for name in ("_phase_sums", "_amplitudes"):

        def counted(*args, name=name, route=getattr(decay, name)):
            calls.append(name)
            return route(*args)

        monkeypatch.setattr(decay, name, counted)
    offsets, trig = [], sums._trig

    def recorded(angle, first, step, count):
        if step == 1:  # the offset tables; base tables step by a row's width
            offsets.append(angle.copy())
        return trig(angle, first, step, count)

    monkeypatch.setattr(sums, "_trig", recorded)
    weak_survival_numeric(default_bath(), 0.0, np.linspace(0.0, 2.0, 101), 2.0, PostSpec("asymptotic"))
    assert calls == []
    assert len(offsets) == 3
    assert not any(np.array_equal(a, b) for a, b in itertools.combinations(offsets, 2))


def test_a_zero_window_raises_before_its_survival_factor_is_used(small_bath):
    # every overlap time is 0, so top is 1.0 and not the window: the mirrored
    # factor is U_in(1) plus the outer pair at 0, not U00(0); the null
    # overlap must stop the weak value first
    spec = decay._spectrum(small_bath)
    overlap, survival = decay._emission_overlap(spec, np.zeros(2), np.zeros(2))
    assert np.max(np.abs(overlap)) <= DENOM_FLOOR
    assert abs(survival[1] - decay._element(spec, 0, 0.0, interaction=False)) > 0.01
    with pytest.raises(PostSelectionNull):
        weak_survival_numeric(small_bath, 0.5, 0.5, 0.5, PostSpec("asymptotic"))


def test_emission_overlap_memory_at_the_cap_on_a_long_window():
    # 4202 Chebyshev nodes, U_in's series to order 2162 and 2001 times: an
    # unblocked Bessel table over the roots would take 66 MiB, an (n+1)^2
    # table 135 MiB and a times x nodes table 64 MiB; in blocks of roots the
    # overlap peaked at 14.4 MiB
    bath = BathSpec(decay.MAX_N_HALF, 1.0, 0.05)
    spec = decay._spectrum(bath)
    times = np.linspace(0.0, 20.0, 2001)
    tracemalloc.start()
    try:
        decay._emission_overlap(spec, times, 20.0 - times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


@st.composite
def _emission_cases(draw):
    """A bath (n_half 1..40, gamma and delta_e log-uniform) and a grid inside its recurrence guard."""
    bath = BathSpec(
        draw(st.integers(1, 40)),
        10.0 ** draw(st.floats(-6.0, 3.0)),
        10.0 ** draw(st.floats(-3.0, 0.0)),
    )
    end = draw(st.floats(0.01, 0.99)) * bath.recurrence_time / 2
    count = draw(st.integers(3, 20))
    kind = draw(st.sampled_from(["linspace", "end_off", "random", "scalar", "window_first"]))
    if kind == "linspace":
        return bath, np.linspace(0.0, end, count)
    if kind == "end_off":
        # np.linspace(0, 0.9, n) at these n ends a bit off its progression,
        # and scaling by a power of two at most end keeps its bits
        grid = np.linspace(0.0, 0.9, draw(st.sampled_from([4, 6, 7, 8, 11, 13, 15])))
        times = np.ldexp(grid, math.frexp(end)[1] - 1)
        step = decay._progression_step(times)
        assert step is not None and times[-1] != step * (len(times) - 1)
        return bath, times
    if kind == "random":
        return bath, np.sort(draw(st.lists(st.floats(0.0, end), min_size=1, max_size=count)) + [end])
    if kind == "scalar":
        return bath, end
    return bath, np.append(end, end - np.linspace(0.0, end, count))


@settings(max_examples=100, deadline=None)
@given(_emission_cases())
def test_emission_overlap_matches_the_dense_propagator_on_random_baths(case):
    # |overlap| <= H tau_max sum_n |1 / (gamma + i E_n)|, the scale of the error;
    # the worst of 5000 random draws was 1.7e-14 of it
    bath, t = case
    times = np.atleast_1d(t)
    energy = bath.bath_atoms() * bath.delta_e
    weights = np.exp(1j * np.multiply.outer(times, energy)) / (bath.gamma + 1j * energy)
    dense = bath_propagator(bath, times).matrix[:, 1:, 0]
    reference = np.sum(weights * dense, axis=-1)
    fold = decay._emission_overlap(decay._spectrum(bath), t, np.max(t) - t)[0]
    assert np.shape(fold) == np.shape(t)
    scale = bath.coupling * np.max(times) * np.sum(np.abs(1.0 / (bath.gamma + 1j * energy)))
    assert np.max(np.abs(np.atleast_1d(fold) - reference)) <= 1e-13 * scale


@st.composite
def _amplitude_cases(draw):
    """An emission case and a bath atom, the reference included."""
    bath, t = draw(_emission_cases())
    return bath, t, draw(st.integers(-bath.n_half, bath.n_half))


@settings(max_examples=100, deadline=None)
@given(_amplitude_cases())
def test_amplitudes_match_the_dense_eigensystem_on_random_baths(case):
    # both routes err by rounding in phases up to t |H|; the worst of 5000
    # random draws was 2.3e-15 of 1 + t_max |H| (survival probability)
    bath, t, atom = case
    times = np.atleast_1d(t)
    lam, vec = dense_eigensystem(bath)
    dense = (np.exp(-1j * np.multiply.outer(times, lam)) * vec[0]) @ vec.T
    element = dense[:, slot_of_atom(bath.n_half, atom)]
    tolerance = 1e-14 * (1.0 + np.max(times) * np.max(np.abs(lam)))
    for value, reference in (
        (survival_probability(bath, t), np.abs(dense[:, 0]) ** 2),
        (propagator_element(bath, atom, t), element),
        (interaction_element(bath, atom, t), np.exp(1j * atom * bath.delta_e * times) * element),
        (propagator_column(bath, t), dense),
    ):
        assert np.shape(value) == np.shape(t) + np.shape(reference)[1:]
        assert np.max(np.abs(value - reference.reshape(np.shape(value)))) <= tolerance
    # np.linspace(0, 0.9, 7) ends a bit off its progression, and a power of two keeps
    # its bits: at the bath's times the last survival point takes its own value
    off_end = np.ldexp(np.linspace(0.0, 0.9, 7), math.frexp(np.max(times))[1])
    assert propagator_element(bath, 0, off_end)[-1] == propagator_element(bath, 0, off_end[-1])


@st.composite
def _post_cases(draw):
    """An amplitude case and an interior fraction of its window, for the scan."""
    return (*draw(_amplitude_cases()), draw(st.floats(0.05, 0.95)))


@settings(max_examples=100, deadline=None)
@given(_post_cases())
def test_posts_and_scan_match_the_dense_eigensystem_on_random_baths(case):
    # over the window [0, max t] each route is a ratio w = p / D of amplitudes
    # that err by rounding in phases up to t_f |H|, so |w - ref| |D| is that
    # error times about 1 + |w|; in units of 1e-14 (1 + t_f max|lam|) it was
    # at worst 0.032 over these draws and 0.099 over 15000 random ones
    bath, t, atom, fraction = case
    t_f = float(np.max(t))
    lam, vec = dense_eigensystem(bath)
    tolerance = 1e-14 * (1.0 + t_f * np.max(np.abs(lam)))

    def column(taus):  # U[:, 0] per time, slot order
        return (np.exp(-1j * np.multiply.outer(taus, lam)) * vec[0]) @ vec.T

    # the post's overlaps in the interaction picture, window first
    taus = np.append(t_f, t_f - np.atleast_1d(t))
    overlap = column(taus)[:, slot_of_atom(bath.n_half, atom)] * np.exp(1j * atom * bath.delta_e * taus)
    post = PostSpec(f"photon:{atom}") if atom else PostSpec("undecayed")
    mid = fraction * t_f
    paths = column(t_f - mid) * column(mid)
    for route, reference, denom in (
        (
            lambda: weak_survival_numeric(bath, 0.0, t, t_f, post),
            (overlap[1:] * column(np.atleast_1d(t))[:, 0] / overlap[0]).reshape(np.shape(t)),
            overlap[0],
        ),
        (lambda: bath_weak_projector_scan(bath, 0.0, mid, t_f), paths / np.sum(paths), np.sum(paths)),
    ):
        try:
            value = route()
        except PostSelectionNull:
            assert abs(denom) <= DENOM_FLOOR + tolerance
            continue
        assert np.shape(value) == np.shape(reference)
        assert np.max(np.abs(value - reference) / (1.0 + np.abs(reference))) * abs(denom) <= tolerance


def test_propagator_column_memory_stays_near_its_output():
    # the column is 6.2 MiB here; whole-grid halves kept beside the product's
    # operands and the output peaked at 25.1 MiB, blocks written through the
    # column's views at 21.2 MiB
    bath = default_bath()
    tracemalloc.start()
    try:
        propagator_column(bath, np.linspace(0.0, 2.0, 101))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 23 * 2**20


def test_asymptotic_weak_value_memory_forms_no_complex_column():
    # the complex route (interaction column, weights, their product) peaked
    # at 28.9 MiB here; the time integral over the band peaks at 4.5 MiB
    bath = default_bath()
    tracemalloc.start()
    try:
        grid = np.linspace(0.0, 2.0, 101)
        weak_survival_numeric(bath, 0.0, grid, 2.0, PostSpec("asymptotic"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


def test_default_asymptotic_weak_value_memory_at_t_f_3():
    # one Bessel table of all 1999 inner roots to order 224, sized by the window
    # peaked at 3.62 MiB; blocks of about 2^17 entries, at 1.19 MiB
    bath = default_bath()
    grid = np.linspace(0.0, 3.0, 101)
    tracemalloc.start()
    try:
        weak_survival_numeric(bath, 0.0, grid, 3.0, PostSpec("asymptotic"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_a_long_grid_frees_each_block_before_the_next():
    # the emission overlap is a time integral that forms no time blocks: it
    # peaks at 4.5 MiB here (the time-blocked product it replaced, at 49.2
    # MiB); the photon post below takes the block loop
    bath = default_bath()
    grid = np.linspace(0.0, 2.0, 1001)
    tracemalloc.start()
    try:
        weak_survival_numeric(bath, 0.0, grid, 2.0, PostSpec("asymptotic"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 55 * 2**20


def test_a_photon_weak_value_frees_each_time_block_before_the_next():
    # 1001 times take two time blocks of the amplitude loop: with the first
    # block's tables still alive while the second forms, the weak value
    # peaked at 30.8 MiB; one block at a time, at 16.3 MiB
    bath = default_bath()
    grid = np.linspace(0.0, 2.0, 1001)
    assert len(decay._blocks(len(grid), bath.n_half)) == 2
    tracemalloc.start()
    try:
        weak_survival_numeric(bath, 0.0, grid, 2.0, PostSpec("photon:1"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


def test_survival_offset_tables_obey_the_block_rule(monkeypatch):
    # at 4096 entries a block holds 4 offsets of the 1000 roots, and survival
    # peaks at 0.56 MiB; offset tables of sqrt(T) = 142 rows, not held to the
    # block rule, peaked at 3.57 MiB
    monkeypatch.setattr(decay, "_BLOCK_ENTRIES", 2**12)
    bath = BathSpec(1000, 1.0, 0.05)
    grid = np.linspace(0.0, 4.0, 20001)
    tracemalloc.start()
    try:
        survival_probability(bath, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_interaction_phase_convention(small_bath):
    t = 1.2
    col = propagator_column(small_bath, t)
    icol = interaction_column(small_bath, t)
    for atom in (0, 2, -7):
        s = slot_of_atom(small_bath.n_half, atom)
        phase = np.exp(1j * atom * small_bath.delta_e * t)
        assert icol[s] == pytest.approx(phase * col[s], abs=1e-12)
        assert interaction_element(small_bath, atom, t) == pytest.approx(icol[s], abs=1e-12)


@pytest.mark.parametrize("gamma", [1e-6, 1.0, 1e3])
@pytest.mark.parametrize("n_half", [1, 5, 10, 200])
def test_secular_spectrum_matches_dense_eigh(n_half, gamma):
    bath = BathSpec(n_half, gamma, 0.05)
    spec = decay._spectrum(bath)
    lam = np.concatenate([[0.0], spec.lam, -spec.lam])
    weight = np.concatenate([[spec.weight0], spec.weight, spec.weight])
    order = np.argsort(lam)
    dense_lam, vec = dense_eigensystem(bath)
    assert np.max(np.abs(lam[order] - dense_lam)) <= 1e-12
    assert np.max(np.abs(weight[order] - vec[0] ** 2)) <= 1e-12
    for t in (0.3, 1.7):
        dense_column = (vec * np.exp(-1j * dense_lam * t)) @ vec[0]
        assert np.max(np.abs(propagator_column(bath, t) - dense_column)) <= 1e-12


def test_digamma_and_trigamma_match_scipy_and_keep_the_weight_sum_rule():
    from scipy.special import psi, zeta

    # the secular equation's arguments N+1-x and N+1+x span [1, 2 N + 1]
    top = 2.0 * decay.MAX_N_HALF + 1.0
    shift = float(decay._SHIFT)
    rng = np.random.default_rng(7)
    a = np.concatenate(
        [
            rng.uniform(1.0, top, 4000),
            rng.uniform(1.0, 2.0 * shift, 4000),
            1.0 + np.logspace(-16, 0, 60),
            shift - np.logspace(-15, 0, 30),
            shift + np.logspace(-15, 0, 30),
            np.arange(1.0, top + 1.0),
        ]
    )
    assert np.max(np.abs(decay._digamma(a) - psi(a))) <= 4e-15
    assert np.max(np.abs(decay._trigamma(a) / zeta(2, a) - 1.0)) <= 2e-15
    # a route free of scipy: the reference weights of the arrowhead sum to 1
    for n_half in (250, 2000, decay.MAX_N_HALF):
        for gamma in (1e-6, 1.0, 1e3):
            spec = decay._spectrum(BathSpec(n_half, gamma, 0.05))
            assert abs(spec.weight0 + 2.0 * np.sum(spec.weight) - 1.0) <= 1e-15


def _secular_g(bath: BathSpec) -> float:
    scale = bath.coupling / bath.delta_e
    return scale * scale  # as the solve forms it: scale**2 can differ in the last bit


def _secular_functions(bath: BathSpec):
    g = _secular_g(bath)
    return (
        functools.partial(decay._inner_secular, bath.n_half, g),
        functools.partial(decay._outer_secular, bath.n_half, g),
    )


def _whole_cell_offsets(bath: BathSpec) -> np.ndarray:
    """Every offset bisected over its whole cell, with no start."""
    inner, outer = _secular_functions(bath)
    tiny = np.finfo(float).tiny
    top = decay._outer_start(bath.n_half, _secular_g(bath))[2]
    with np.errstate(over="ignore"):
        s_in = decay._bisect(inner, np.full(bath.n_half - 1, tiny), np.ones(bath.n_half - 1))
        s_out = decay._bisect(outer, np.array([tiny]), top)
    return np.append(s_in, s_out)


# the README default bath and the default sweep's four levels
_DEFAULT_BATHS = [(2000, 1.0, 0.05)] + [(n_half, 1.0, 0.1) for n_half in (250, 500, 1000, 2000)]


@pytest.mark.parametrize("delta_e", [0.005, 0.05, 1.0])
@pytest.mark.parametrize("gamma", [1e-12, 1e-6, 1.0, 30.0, 1e3, 1e160])
@pytest.mark.parametrize("n_half", [1, 2, 3, 10, 250, 2000, decay.MAX_N_HALF])
def test_every_offset_is_a_sign_change_to_the_last_bit(n_half, gamma, delta_e):
    bath = BathSpec(n_half, gamma, delta_e)
    offset = decay._spectrum(bath).offset
    inner, outer = _secular_functions(bath)
    for secular, s in ((inner, offset[:-1]), (outer, offset[-1:])):
        assert np.all(secular(np.nextafter(s, 0.0)) < 0.0)
        assert np.all(secular(s) >= 0.0)


@pytest.mark.parametrize("n_half, gamma, delta_e", _DEFAULT_BATHS)
def test_started_offsets_equal_whole_cell_bisection(n_half, gamma, delta_e):
    bath = BathSpec(n_half, gamma, delta_e)
    offset = decay._spectrum(bath).offset
    assert np.array_equal(offset, _whole_cell_offsets(bath))


def test_a_start_outside_its_bracket_falls_back_to_the_whole_cell(monkeypatch):
    bath = BathSpec(250, 1.0, 0.1)
    inner_start, outer_start = decay._inner_start, decay._outer_start

    def off_every_other(n_half, g):
        s, unit, top = inner_start(n_half, g)
        return np.where(np.arange(len(s)) % 2 == 0, s * (1.0 + 1e-9), s), unit, top

    def off_outer(n_half, g):
        s, unit, top = outer_start(n_half, g)
        return 0.5 * s, unit, top

    brackets = []

    def recording_bisect(secular, lo, hi, run=decay._bisect):
        brackets.append(lo)
        return run(secular, lo, hi)

    monkeypatch.setattr(decay, "_inner_start", off_every_other)
    monkeypatch.setattr(decay, "_outer_start", off_outer)
    monkeypatch.setattr(decay, "_bisect", recording_bisect)
    offset = decay._spectrum(bath).offset
    tiny = np.finfo(float).tiny
    # the shifted starts fell back to their whole cells, the others did not
    assert np.all(brackets[0][::2] == tiny) and np.all(brackets[0][1::2] > tiny)
    assert np.all(brackets[1] == tiny)
    assert np.array_equal(offset, _whole_cell_offsets(bath))


# the last two have g beyond 1e154, where (g pi)^2 overflows
@pytest.mark.parametrize("n_half, gamma, delta_e", _DEFAULT_BATHS + [(4000, 1e160, 0.05), (7, 1e300, 0.05)])
def test_a_cold_solve_bisects_only_the_last_bits(n_half, gamma, delta_e, monkeypatch):
    # counts, unlike timings, do not depend on the host: a whole-cell
    # bisection takes ~63 digamma calls and ~63 direct sums; the starts
    # measured 9 and 10-11 on these baths (the inner fixed point's passes
    # took 15-16 digamma calls before the inner start took Newton steps)
    calls = {"digamma": 0, "outer": 0}

    def counted(name, run):
        def wrapper(*args):
            calls[name] += 1
            return run(*args)

        return wrapper

    monkeypatch.setattr(decay, "_digamma", counted("digamma", decay._digamma))
    monkeypatch.setattr(decay, "_outer_terms", counted("outer", decay._outer_terms))
    decay._spectrum(BathSpec(n_half, gamma, delta_e))
    assert 0 < calls["digamma"] <= 10
    assert 0 < calls["outer"] <= 15


def test_a_cold_solve_passes_few_digamma_arguments(monkeypatch):
    # Newton steps take every root on each of their ~5 passes, 39,980
    # arguments in all on the README bath; a fixed point that iterated all
    # roots on every pass took 67,966, one over the moving roots only 41,076
    entries = []
    run = decay._digamma
    monkeypatch.setattr(decay, "_digamma", lambda a: entries.append(a.size) or run(a))
    decay._spectrum(default_bath())
    assert 0 < sum(entries) <= 45_000


@pytest.mark.skipif(np.finfo(np.longdouble).precision <= 15, reason="long double is double here")
@pytest.mark.parametrize("grid", [np.linspace(0.0, 4.0, 101), np.linspace(0.0, 60.0, 1001)])
def test_survival_on_a_progression_matches_a_long_double_cosine_sum(grid):
    bath = BathSpec(decay.MAX_N_HALF, 1.0, 0.05)
    assert decay._progression_step(grid) is not None  # the angle-addition route
    spec = decay._spectrum(bath)
    lam = spec.lam.astype(np.longdouble)
    weight = 2.0 * spec.weight.astype(np.longdouble)
    expected = [spec.weight0 + np.sum(weight * np.cos(lam * np.longdouble(t))) for t in grid]
    u00 = propagator_element(bath, 0, grid)
    assert np.all(u00.imag == 0.0)
    assert float(np.max(np.abs(u00.real - np.array(expected)))) <= 1e-14


def test_ode_oracle_small_bath():
    bath = BathSpec(40, 1.0, 0.2)
    t = 0.8
    ours = interaction_column(bath, t)
    theirs = ode_interaction_column(bath.n_half, bath.delta_e, bath.coupling, t)
    assert np.max(np.abs(ours - theirs)) <= 1e-7


def test_ode_oracle_survival_amplitude_at_scale():
    # independent adaptive integration of the coupled amplitude equations,
    # at the narrow-band working point the survival example quotes
    bath = BathSpec(2000, 1.0, 0.005)
    ours = propagator_element(bath, 0, 1.0)
    theirs = ode_interaction_column(bath.n_half, bath.delta_e, bath.coupling, 1.0)[0]
    assert abs(ours - theirs) <= 1e-6
    assert abs(abs(ours) - math.exp(-1.0)) <= 0.01


# ---------------------------------------------------------------- limit elements

def test_u00_limit_values():
    assert u00_limit(1.0, 0.0) == 1.0
    assert u00_limit(1.0, math.log(2.0)) == pytest.approx(0.5, abs=1e-14)
    assert u00_limit(0.0, 7.0) == 1.0
    with pytest.raises(ValueError):
        u00_limit(1.0, -0.1)
    with pytest.raises(ValueError):
        u00_limit(1.0, np.array([0.5, -0.1]))


def test_un0_limit_values():
    assert un0_limit(1.0, 0.05, 3, 0.0) == 0.0
    h = math.sqrt(1.0 * 0.05 / math.pi)
    late = un0_limit(1.0, 0.05, 0, 60.0)
    assert late == pytest.approx(-1j * h, abs=1e-12)  # late-time resonant amplitude
    assert un0_limit(1.0, 0.05, 3, math.inf) == pytest.approx(-1j * h / (1.0 - 0.15j), abs=1e-15)
    for args, message in (
        ((1.0, 0.05, 3, -0.1), "t must be nonnegative"),
        ((1.0, 0.05, 3, np.array([0.5, -0.1])), "t must be nonnegative"),
        ((1.0, 0.0, 3, 1.0), "delta_e must be positive"),
        ((1.0, -0.05, 3, 1.0), "delta_e must be positive"),
        ((0.0, 0.05, 0, 1.0), "gamma and the detuning cannot both vanish"),
    ):
        with pytest.raises(ValueError, match=message):
            un0_limit(*args)
    assert abs(late) == pytest.approx(h, abs=1e-12)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.0, math.inf, 3, 1.0), "^delta_e must be positive and finite, got inf$"),
        ((math.nan, 0.05, 3, 1.0), "^gamma must be finite and >= 0, got nan$"),
        ((math.inf, 0.05, 3, 1.0), "^gamma must be finite and >= 0, got inf$"),
        ((-1.0, 0.05, 3, 1.0), r"^gamma must be finite and >= 0, got -1\.0$"),
        ((1e300, 1e300, 3, 1.0), r"^gamma: H\^2 = gamma delta_e / pi overflows at \(1e\+300, 1e\+300\)$"),
        ((1.0, 1e300, 10**10, 1.0), r"^n: the detuning n delta_e overflows at \(10000000000, 1e\+300\)$"),
        ((1e-320, 1e300, 0, 1.0), r"^gamma: the scale H / \|gamma - i n delta_e\| overflows at \(1e-320, 1e\+300, 0\)$"),
    ],
)
def test_un0_limit_refuses_a_rate_it_cannot_take(args, message):
    # an infinite delta_e or a NaN gamma warned and gave NaN, a negative gamma
    # failed in sqrt with "math domain error", and an H = sqrt(gamma delta_e /
    # pi), a detuning n delta_e or a scale H / |gamma - i n delta_e| that
    # overflowed warned (an error under the suite's warning filter)
    with pytest.raises(ValueError, match=message):
        un0_limit(*args)


@pytest.mark.parametrize(
    "args, expected",
    [
        ((1.0, 0.05, 0, math.inf), -0.126156626101008j),  # on resonance the phase is 0
        ((1.0, 0.05, 3, math.inf), 0.018507084513595312 - 0.1233805634239687j),
        ((0.0, 0.05, 100, 1e308), None),
        ((0.0, 0.05, 3, math.inf), None),
        ((1e-300, 0.05, 10**10, 1e300), None),  # read nan+nanj
        # e^{-gamma t} underflows to 0 at a finite gamma t: un0_limit(1.0, 0.05, 10**10, inf),
        # where the phase was refused
        ((1.0, 0.05, 10**10, 1e300), 2.52313252202016e-10 - 5.046265044040321e-19j),
    ],
)
def test_un0_limit_takes_a_phase_only_where_it_is_a_number(args, expected):
    # the phase n delta_e t was 0 * inf on resonance at t = inf, and overflowed
    # where no decay clears it, each with a warning (an error under the suite's filter)
    if expected is None:
        with pytest.raises(ValueError, match="^t: the phase n delta_e t is not finite at"):
            un0_limit(*args)
    else:
        assert un0_limit(*args) == expected


@pytest.mark.parametrize("gamma", [1e-300, 1e-12])
def test_un0_limit_keeps_a_small_rate_on_resonance(gamma):
    # e^{-gamma t} - 1 formed as exp then - 1 lost every digit at 1e-300 (0j)
    # and all but five at 1e-12; to second order it is -gamma t (1 - gamma t / 2)
    h = math.sqrt(gamma * 0.05 / math.pi)
    expected = -1j * h * (1.0 - gamma / 2.0)
    assert abs(un0_limit(gamma, 0.05, 0, 1.0) - expected) <= 1e-15 * abs(expected)


def test_un0_limit_agrees_with_finite_bath_at_scale():
    bath = BathSpec(2000, 1.0, 0.005)
    finite = interaction_element(bath, 40, 1.0)
    limit = un0_limit(bath.gamma, bath.delta_e, 40, 1.0)
    assert abs(finite - limit) <= 0.02


# ---------------------------------------------------------------- survival

def test_survival_examples():
    bath = default_bath()
    assert survival_probability(bath, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert abs(survival_probability(bath, 1.0) - math.exp(-2.0)) <= 0.01


def test_survival_recurrence_guard(no_spectrum):
    bath = BathSpec(5, 1.0, 1.0)  # recurrence at 2*pi
    with pytest.raises(BeyondRecurrence):
        survival_probability(bath, 0.6 * bath.recurrence_time)
    with pytest.raises(ValueError):
        survival_probability(bath, -1.0)


# ---------------------------------------------------------------- closed-form laws

# decay_law's x at gamma = 1: one resonant photon (-gamma + i 0) and the emission state (-2 gamma)
PHOTON_X, EMISSION_X = -1.0 + 0j, -2.0


def test_single_photon_boundaries_and_value():
    w_i = decay_law(1.0, PHOTON_X, 0.0, 0.0, 2.0)
    w_f = decay_law(1.0, PHOTON_X, 0.0, 2.0, 2.0)
    assert w_i == pytest.approx(1.0 + 0.0j, abs=1e-14)
    assert w_f == pytest.approx(0.0 + 0.0j, abs=1e-14)
    mid = decay_law(1.0, PHOTON_X, 0.0, 1.0, 2.0)
    assert mid == pytest.approx(1.0 / (math.e + 1.0), abs=1e-12)


def test_single_photon_large_window_reduces_to_bare_decay():
    for t in np.linspace(0.0, 5.0, 11):
        w = decay_law(1.0, PHOTON_X, 0.0, t, 50.0)
        assert abs(w - math.exp(-t)) <= 1e-10


def test_single_photon_degenerate_window():
    # a zero window's denominator 1 - e^0 is exactly 0
    with pytest.raises(PostSelectionNull):
        decay_law(1.0, PHOTON_X, 1.0, 1.0, 1.0)


def test_asymptotic_post_boundaries_and_value():
    assert decay_law(1.0, EMISSION_X, 0.0, 0.0, 2.0) == pytest.approx(1.0, abs=1e-14)
    assert decay_law(1.0, EMISSION_X, 0.0, 2.0, 2.0) == pytest.approx(0.0, abs=1e-14)
    mid = decay_law(1.0, EMISSION_X, 0.0, 1.0, 2.0)
    # independent route: the window factors telescope to 1/(e + 1/e)
    assert mid == pytest.approx(1.0 / (math.e + math.exp(-1.0)), abs=1e-12)
    assert mid.real == pytest.approx(0.3240271368, abs=1e-9)
    # without decay the emission window factor 1 - e^{-2 gamma (t_f - t_i)} vanishes
    with pytest.raises(PostSelectionNull):
        decay_law(0.0, -0.0, 0.0, 0.5, 1.0)


def test_asymptotic_post_large_window_reduces_to_bare_decay():
    for t in np.linspace(0.0, 5.0, 11):
        w = decay_law(1.0, EMISSION_X, 0.0, t, 50.0)
        assert abs(w - math.exp(-t)) <= 1e-10


@pytest.mark.parametrize(
    "post, x",
    [
        (PostSpec("photon:-2"), -1.0 - 0.4j),
        (PostSpec("asymptotic"), -2.0),
        (PostSpec("undecayed"), None),
    ],
    ids=["photon:-2", "asymptotic", "undecayed"],
)
def test_closed_law_follows_the_post_selection(post, x):
    # gamma = 1 and delta_e = 0.2: x = -gamma + i k delta_e for photon k, -2 gamma for emission
    bath = BathSpec(5, 1.0, 0.2)
    t_i, t_f = 0.2, 1.7
    for t in (0.2, 0.9, 1.7):
        law = weak_survival_closed(bath, t_i, t, t_f, post)
        expected = 1.0
        if x is not None:
            window = (1 - cmath.exp(x * (t_f - t))) / (1 - cmath.exp(x * (t_f - t_i)))
            expected = cmath.exp(-(t - t_i)) * window
        assert abs(law - expected) <= 1e-14


# ---------------------------------------------------------------- numeric weak values

def test_post_spec_rejects_reference_slot():
    with pytest.raises(ValueError):
        PostSpec("photon:0")


def test_post_spec_parses_the_config_words():
    assert PostSpec("photon:-3") == PostSpec("photon:-3")
    assert PostSpec("photon:-3").photon_atom == -3
    assert PostSpec("asymptotic") == PostSpec("asymptotic")
    assert PostSpec("undecayed") == PostSpec("undecayed")
    for word in ("asymptotic", "undecayed", "photon:1"):
        assert PostSpec(word).word == word
    with pytest.raises(ValueError, match=r"^post: decay accepts 'photon:K', 'asymptotic' or "
                       r"'undecayed', got 'nope'$"):
        PostSpec("nope")
    for word in ("photon:x", "photon:0"):
        with pytest.raises(ValueError, match=rf"^post: bad photon atom in '{word}': "):
            PostSpec(word)


def test_query_validates_photon_range(small_bath, no_spectrum):
    for route in (weak_survival_numeric, weak_survival_closed):
        with pytest.raises(DimensionMismatch):
            route(small_bath, 0.0, 0.5, 1.0, PostSpec("photon:11"))


@pytest.mark.parametrize(
    "route, error",
    [
        (lambda bath: propagator_element(bath, 11, 0.5), DimensionMismatch),
        (lambda bath: interaction_element(bath, -11, 0.5), DimensionMismatch),
        (lambda bath: bath_weak_projector_scan(bath, 0.0, 2.0, 1.5), ValueError),
        (lambda bath: propagator_element(bath, 2.5, 0.5), DimensionMismatch),
        (lambda bath: interaction_element(bath, 2.5, 0.5), DimensionMismatch),
        # two times would each be divided by both times' window survival
        (lambda bath: bath_weak_projector_scan(bath, 0.0, np.array([1.0, 1.5]), 2.0), ValueError),
    ],
    ids=[
        "propagator_element",
        "interaction_element",
        "scan_inverted_window",
        "propagator_element_half_atom",
        "interaction_element_half_atom",
        "scan_time_array",
    ],
)
def test_elements_and_scan_check_before_the_solve(small_bath, no_spectrum, route, error):
    # survival and the scan's recurrence guard are pinned by their guard tests below
    with pytest.raises(error):
        route(small_bath)


AMPLITUDE_ROUTES = {
    "propagator_element": lambda bath, t: propagator_element(bath, 3, t),
    "interaction_element": lambda bath, t: interaction_element(bath, -2, t),
    "propagator_column": propagator_column,
    "interaction_column": interaction_column,
    "bath_propagator": lambda bath, t: bath_propagator(bath, t).matrix,
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", AMPLITUDE_ROUTES)
def test_amplitude_routes_refuse_a_non_finite_time_before_the_solve(small_bath, no_spectrum, name, bad):
    # a NaN time gave NaN amplitudes, an infinite one a cosine warning and NaN
    for t in (bad, np.array([0.5, bad])):
        with pytest.raises(ValueError, match="^t must be finite$"):
            AMPLITUDE_ROUTES[name](small_bath, t)


@pytest.mark.parametrize("name", AMPLITUDE_ROUTES)
def test_amplitude_routes_take_a_negative_time(small_bath, name):
    # H is real, so U(-t) is the complex conjugate of U(t), and so is every route's value
    forward, backward = (AMPLITUDE_ROUTES[name](small_bath, t) for t in (0.7, -0.7))
    assert np.max(np.abs(backward - np.conj(forward))) <= 1e-14


@pytest.mark.parametrize("name", AMPLITUDE_ROUTES)
def test_amplitude_routes_refuse_a_time_whose_phase_overflows(name, no_spectrum):
    # lam t overflowed to inf in the phase tables: a warning, then NaN amplitudes
    bath = BathSpec(5, 1.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e308, np.array([0.5, -1e308])):
            with pytest.raises(ValueError, match=r"^t: the phase 2\.80028 t overflows at \|t\| = 1e\+308$"):
                AMPLITUDE_ROUTES[name](bath, t)


def test_the_phase_rule_bounds_every_eigenvalue():
    for bath in (BathSpec(1, 1.0, 0.05), default_bath(), BathSpec(2000, 1e6, 0.05)):
        assert np.max(decay._spectrum(bath).lam) <= decay._top_frequency(bath)
        assert bath.n_half * bath.delta_e <= decay._top_frequency(bath)


def test_numeric_single_photon_boundaries(small_bath):
    post = PostSpec("photon:1")
    w_i = weak_survival_numeric(small_bath, 0.0, 0.0, 1.5, post)
    w_f = weak_survival_numeric(small_bath, 0.0, 1.5, 1.5, post)
    assert w_i == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert w_f == pytest.approx(0.0 + 0.0j, abs=1e-12)


def test_numeric_matches_closed_forms_at_default_bath():
    bath = default_bath()
    t_i, t_f = 0.0, 2.0
    for t in (0.5, 1.0, 1.7):
        wp = weak_survival_numeric(bath, t_i, t, t_f, PostSpec("photon:1"))
        assert abs(wp - decay_law(1.0, PHOTON_X, t_i, t, t_f)) <= 0.01
        wa = weak_survival_numeric(bath, t_i, t, t_f, PostSpec("asymptotic"))
        assert abs(wa - decay_law(1.0, EMISSION_X, t_i, t, t_f)) <= 0.01


def test_numeric_undecayed_near_one_at_default_bath():
    bath = default_bath()
    w = weak_survival_numeric(bath, 0.0, 1.0, 2.0, PostSpec("undecayed"))
    assert abs(w - 1.0) <= 0.05  # finite-band deviation; exactly 1 in the limit


@pytest.mark.parametrize("word", ["photon:1", "asymptotic", "undecayed"])
def test_numeric_window_and_recurrence_guards(small_bath, no_spectrum, word):
    # the recurrence guard also bounds the asymptotic post's Chebyshev degree,
    # about N delta_e (t_f - t_i): at t_f = 1e9 that series would take ~4e8
    # orders, so every post must stop at the guard, before the solve
    post = PostSpec(word)
    with pytest.raises(ValueError, match=r"^need t_i <= t <= t_f"):
        weak_survival_closed(small_bath, 0.0, 2.5, 2.0, post)
    with pytest.raises(BeyondRecurrence):
        weak_survival_numeric(small_bath, 0.0, 1.0, 1e9, post)


@pytest.mark.parametrize("gamma", [1e-300, 1.0, 1e100])
def test_zero_window_gives_what_its_algebra_gives(gamma):
    # the bath posts' overlap at 0 is below the floor, and the closed laws'
    # denominator 1 - e^0 is exactly 0; the undecayed value is U00(0) / U00(0)
    # times U00(0), as the projector scan's slot 0 is
    bath = BathSpec(10, gamma, 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for word in ("photon:1", "photon:-1", "asymptotic"):
            for route in (weak_survival_numeric, weak_survival_closed):
                with pytest.raises(PostSelectionNull):
                    route(bath, 0.5, 0.5, 0.5, PostSpec(word))
        scan = bath_weak_projector_scan(bath, 0.5, 0.5, 0.5)
        for route in (weak_survival_numeric, weak_survival_closed):
            w = route(bath, 0.5, 0.5, 0.5, PostSpec("undecayed"))
            assert abs(w - 1.0) <= 1e-15
            assert abs(w - scan[0]) <= 1e-12


@pytest.mark.parametrize(
    "route",
    [
        functools.partial(weak_survival_numeric, post=PostSpec("photon:1")),
        functools.partial(weak_survival_numeric, post=PostSpec("asymptotic")),
        functools.partial(weak_survival_numeric, post=PostSpec("undecayed")),
        functools.partial(weak_survival_closed, post=PostSpec("photon:1")),
        functools.partial(weak_survival_closed, post=PostSpec("asymptotic")),
        functools.partial(weak_survival_closed, post=PostSpec("undecayed")),
        lambda bath, t_i, t, t_f: decay_law(bath.gamma, -bath.gamma + 0j, t_i, t, t_f),
        lambda bath, t_i, t, t_f: decay_law(bath.gamma, -2.0 * bath.gamma, t_i, t, t_f),
        bath_weak_projector_scan,
    ],
    ids=["numeric-photon", "numeric-asymptotic", "numeric-undecayed", "closed-photon",
         "closed-asymptotic", "closed-undecayed", "single_photon", "asymptotic_post", "scan"],
)
def test_backward_window_on_an_empty_grid_is_rejected(small_bath, route):
    # an empty grid has no time to check against the window, so the window's own order must be
    with pytest.raises(ValueError, match=r"^need t_i <= t <= t_f"):
        route(small_bath, 1.0, np.array([]), 0.5)


@pytest.mark.parametrize(
    "atom", [1, -1, 3, -3, 0], ids=lambda a: f"photon:{a}" if a else "undecayed"
)
def test_dense_kernel_matches_numeric_weak_value(atom):
    # the generic kernel on dense propagators shares no code with the overlap
    # ratio; the ratio reads bath states in the interaction picture, so the two
    # differ by the free phase of the post-selected level over the elapsed time
    bath = BathSpec(5, 1.0, 0.2)
    t_i, t, t_f = 0.0, 0.7, 1.8
    reference = StateVector(np.eye(bath.dim)[0])
    post = StateVector(np.eye(bath.dim)[slot_of_atom(bath.n_half, atom)])
    u_mid, u_late = bath_propagator(bath, t - t_i), bath_propagator(bath, t_f - t)
    w_kernel = weak_value(reference, post, projector_from_state(reference), u_mid, u_late)
    spec = PostSpec(f"photon:{atom}") if atom else PostSpec("undecayed")
    w_numeric = weak_survival_numeric(bath, t_i, t, t_f, spec)
    phase = np.exp(1j * atom * bath.delta_e * (t - t_i))
    assert abs(w_kernel - w_numeric * phase) <= 1e-10


# ---------------------------------------------------------------- asymptotic state

def test_asymptotic_state_attracts_evolution():
    # the late-time state's overlap row is proportional to 1 / (gamma + i n delta_e)
    bath = default_bath()
    row = 1.0 / (bath.gamma + 1j * bath.bath_atoms() * bath.delta_e)
    evolved = interaction_column(bath, 10.0)
    overlap = abs(np.sum(row * evolved[1:])) / np.linalg.norm(row)
    assert overlap >= 0.99


def test_truncation_bound_value():
    # the bound reads the configured gamma itself, not one derived from the coupling
    assert asymptotic_truncation_bound(default_bath()) == 2.0 * 1.0 / (math.pi * 2000 * 0.05)


# ---------------------------------------------------------------- projector scan

def test_scan_all_zero_at_start():
    bath = BathSpec(30, 1.0, 0.2)
    w = bath_weak_projector_scan(bath, 0.0, 0.0, 1.5)
    assert w.shape == (bath.dim,) and not w.flags.writeable
    assert np.max(np.abs(w[1:])) <= 1e-10


def test_scan_interior_signs_and_unitarity_closure():
    bath = BathSpec(30, 1.0, 0.2)
    w = bath_weak_projector_scan(bath, 0.0, 0.6, 1.5)
    assert np.min(w[1:].real) < -1e-9
    assert np.max(w[1:].real) > 1e-9
    assert abs(np.sum(w) - 1.0) <= 1e-10
    # the bath-only sum equals one minus the undecayed weak value, exactly
    w_undecayed = weak_survival_numeric(bath, 0.0, 0.6, 1.5, PostSpec("undecayed"))
    assert abs(np.sum(w[1:]) - (1.0 - w_undecayed)) <= 1e-10


def test_scan_window_checks():
    bath = BathSpec(5, 1.0, 1.0)
    w = bath_weak_projector_scan(bath, 0.5, 0.5, 0.5)  # a zero window is no error here
    assert w[0] == pytest.approx(1.0, abs=1e-12) and np.max(np.abs(w[1:])) <= 1e-12
    with pytest.raises(ValueError, match=r"^need t_i <= t <= t_f"):
        bath_weak_projector_scan(bath, 0.0, 2.0, 1.5)


def test_scan_respects_recurrence_guard(no_spectrum):
    bath = BathSpec(5, 1.0, 1.0)
    with pytest.raises(BeyondRecurrence):
        bath_weak_projector_scan(bath, 0.0, 3.0, bath.recurrence_time / 2 + 1.0)


# ---------------------------------------------------------------- helpers

def test_survival_error_shrinks_with_bandwidth():
    errors = []
    for n_half in (100, 200, 400):
        bath = BathSpec(n_half, 1.0, 0.2)
        err = max(
            abs(survival_probability(bath, t) - math.exp(-2.0 * t))
            for t in np.linspace(0.0, 3.0, 31)
        )
        errors.append(err)
    assert errors[2] < errors[0]
    assert all(b <= 2.0 * a for a, b in zip(errors, errors[1:]))
