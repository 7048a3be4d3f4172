import cmath
import functools
import math
import tracemalloc

import numpy as np
import pytest

from weakdecay import (
    BathSpec,
    BeyondRecurrence,
    DegenerateWindow,
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
    u00_limit,
    un0_limit,
    weak_survival_asymptotic_post,
    weak_survival_closed,
    weak_survival_numeric,
    weak_survival_single_photon,
    weak_value,
)
from weakdecay import decay

from oracles import build_hamiltonian, dense_eigensystem, ode_interaction_column


# ---------------------------------------------------------------- BathSpec & layout

def test_gamma_is_derived_exactly():
    coupling = 0.1
    delta_e = math.pi * coupling**2  # makes the derived constant exactly 1.0
    bath = BathSpec(2000, delta_e, coupling)
    assert bath.gamma == 1.0
    assert bath.dim == 4001
    assert bath.recurrence_time == pytest.approx(2.0 * math.pi / delta_e)


def test_spec_validation():
    with pytest.raises(ValueError):
        BathSpec(0, 0.1, 0.1)
    with pytest.raises(ValueError):
        BathSpec(5, -0.1, 0.1)
    with pytest.raises(ValueError):
        BathSpec(5, 0.1, -0.1)
    with pytest.raises(ValueError, match="coupling/delta_e"):
        BathSpec(5, 1e-300, 1e10)  # the secular equation's (H / delta_e)^2 overflows
    with pytest.raises(ValueError, match="gamma: pi H"):
        BathSpec(2, 1e300, 1e200)  # (H / delta_e)^2 is finite, H^2 is not


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
    with pytest.raises(DimensionMismatch):
        slot_of_atom(n, n + 1)


def test_hamiltonian_smallest_bath():
    bath = BathSpec(1, 1.0, 0.1)
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
    bath = BathSpec(4, 0.5, 0.0)
    assert bath.gamma == 0.0
    for t in (0.0, 0.3, 2.0):
        assert survival_probability(bath, t) == pytest.approx(1.0, abs=1e-14)
    u = bath_propagator(bath, 1.3)
    expected = np.exp(-1j * np.concatenate([[0.0], bath.bath_atoms() * 0.5]) * 1.3)
    assert np.max(np.abs(u.matrix - np.diag(expected))) <= 1e-12


def test_decoupled_bath_amplitudes_stay_in_the_reference():
    bath = BathSpec(4, 0.5, 0.0)
    # per-entry times, a progression, and one whose end np.linspace set a bit
    # off it: every route meets a kernel that may hold poles
    for times in (np.array([0.0, 0.3, 2.0]), np.linspace(0.0, 2.0, 9), np.linspace(0.0, 0.9, 7)):
        reference = np.tile(np.eye(bath.dim)[0], (len(times), 1))
        assert np.array_equal(propagator_column(bath, times), reference)
        assert np.all(propagator_element(bath, 0, times) == 1.0)
        for atom in (-3, -1, 1, 3):
            assert np.all(interaction_element(bath, atom, times) == 0.0)
        with pytest.raises(PostSelectionNull):
            weak_survival_numeric(bath, 0.0, times, 2.0, PostSpec.asymptotic_emission())


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
    emission, photon = PostSpec.asymptotic_emission(), PostSpec.single_photon(-2)
    routes = [
        (lambda: weak_survival_numeric(small_bath, 0.0, times, 1.5, emission), [n_half]),
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
    bath = BathSpec.from_gamma(n_half, 1.0, 0.05)
    grid = np.linspace(0.0, 2.0, 9)
    times = np.append(2.0, 2.0 - grid)  # a weak value's overlaps, window first
    # the independent route: every bath slot of the interaction column times its weight
    weights = 1.0 / (bath.gamma + 1j * bath.bath_atoms() * bath.delta_e)
    reference = np.sum(weights * interaction_column(bath, times)[:, 1:], axis=-1)
    fold = decay._emission_overlap(decay._spectrum(bath), times)
    assert np.all(fold.real == 0.0)
    assert np.max(np.abs(fold - reference)) <= 1e-14 * np.max(np.abs(reference))
    weak = weak_survival_numeric(bath, 0.0, grid, 2.0, PostSpec.asymptotic_emission())
    assert np.all(weak.imag == 0.0)


@pytest.mark.parametrize("n_half", [5, 10])
def test_emission_fold_matches_the_dense_propagator(n_half):
    bath = BathSpec.from_gamma(n_half, 1.0, 0.05)
    times = np.append(2.0, 2.0 - np.linspace(0.0, 2.0, 9))  # window first: no progression
    assert decay._progression_step(times) is None
    # every bath slot of the dense column, turned to the interaction picture and weighted
    energy = bath.bath_atoms() * bath.delta_e
    weights = np.exp(1j * np.multiply.outer(times, energy)) / (bath.gamma + 1j * energy)
    dense = np.array([bath_propagator(bath, tau).matrix[1:, 0] for tau in times])
    reference = np.sum(weights * dense, axis=-1)
    fold = decay._emission_overlap(decay._spectrum(bath), times)
    assert np.max(np.abs(fold - reference)) <= 1e-12


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
    # at 28.9 MiB here; the real fold peaks in the product, at 15.1 MiB
    bath = default_bath()
    tracemalloc.start()
    try:
        grid = np.linspace(0.0, 2.0, 101)
        weak_survival_numeric(bath, 0.0, grid, 2.0, PostSpec.asymptotic_emission())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


def test_a_long_grid_frees_each_block_before_the_next():
    # 1001 times take two time blocks: with the first block's halves still
    # alive while the second forms, the weak value peaked at 65.1 MiB; one
    # block at a time, at 49.2 MiB
    bath = default_bath()
    grid = np.linspace(0.0, 2.0, 1001)
    tracemalloc.start()
    try:
        weak_survival_numeric(bath, 0.0, grid, 2.0, PostSpec.asymptotic_emission())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 55 * 2**20


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
    bath = BathSpec.from_gamma(n_half, gamma, 0.05)
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
            spec = decay._spectrum(BathSpec.from_gamma(n_half, gamma, 0.05))
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
@pytest.mark.parametrize("gamma", [1e-12, 1e-6, 1.0, 30.0, 1e3])
@pytest.mark.parametrize("n_half", [1, 2, 3, 10, 250, 2000, decay.MAX_N_HALF])
def test_every_offset_is_a_sign_change_to_the_last_bit(n_half, gamma, delta_e):
    bath = BathSpec.from_gamma(n_half, gamma, delta_e)
    offset = decay._spectrum(bath).offset
    inner, outer = _secular_functions(bath)
    for secular, s in ((inner, offset[:-1]), (outer, offset[-1:])):
        assert np.all(secular(np.nextafter(s, 0.0)) < 0.0)
        assert np.all(secular(s) >= 0.0)


@pytest.mark.parametrize("n_half, gamma, delta_e", _DEFAULT_BATHS)
def test_started_offsets_equal_whole_cell_bisection(n_half, gamma, delta_e):
    bath = BathSpec.from_gamma(n_half, gamma, delta_e)
    offset = decay._spectrum(bath).offset
    assert np.array_equal(offset, _whole_cell_offsets(bath))


def test_a_start_outside_its_bracket_falls_back_to_the_whole_cell(monkeypatch):
    bath = BathSpec.from_gamma(250, 1.0, 0.1)
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


@pytest.mark.parametrize("n_half, gamma, delta_e", _DEFAULT_BATHS)
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
    decay._spectrum(BathSpec.from_gamma(n_half, gamma, delta_e))
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
    bath = BathSpec.from_gamma(decay.MAX_N_HALF, 1.0, 0.05)
    assert decay._progression_step(grid) is not None  # the angle-addition route
    spec = decay._spectrum(bath)
    lam = spec.lam.astype(np.longdouble)
    weight = 2.0 * spec.weight.astype(np.longdouble)
    expected = [spec.weight0 + np.sum(weight * np.cos(lam * np.longdouble(t))) for t in grid]
    u00 = propagator_element(bath, 0, grid)
    assert np.all(u00.imag == 0.0)
    assert float(np.max(np.abs(u00.real - np.array(expected)))) <= 1e-14


def test_ode_oracle_small_bath():
    bath = BathSpec.from_gamma(40, 1.0, 0.2)
    t = 0.8
    ours = interaction_column(bath, t)
    theirs = ode_interaction_column(bath.n_half, bath.delta_e, bath.coupling, t)
    assert np.max(np.abs(ours - theirs)) <= 1e-7


def test_ode_oracle_survival_amplitude_at_scale():
    # independent adaptive integration of the coupled amplitude equations,
    # at the narrow-band working point the survival example quotes
    bath = BathSpec.from_gamma(2000, 1.0, 0.005)
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


def test_un0_limit_agrees_with_finite_bath_at_scale():
    bath = BathSpec.from_gamma(2000, 1.0, 0.005)
    finite = interaction_element(bath, 40, 1.0)
    limit = un0_limit(bath.gamma, bath.delta_e, 40, 1.0)
    assert abs(finite - limit) <= 0.02


# ---------------------------------------------------------------- survival

def test_survival_examples():
    bath = default_bath()
    assert survival_probability(bath, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert abs(survival_probability(bath, 1.0) - math.exp(-2.0)) <= 0.01


def test_survival_recurrence_guard(no_spectrum):
    bath = BathSpec.from_gamma(5, 1.0, 1.0)  # recurrence at 2*pi
    with pytest.raises(BeyondRecurrence):
        survival_probability(bath, 0.6 * bath.recurrence_time)
    with pytest.raises(ValueError):
        survival_probability(bath, -1.0)


# ---------------------------------------------------------------- closed-form laws

def test_single_photon_boundaries_and_value():
    w_i = weak_survival_single_photon(1.0, 0.0, 0.0, 0.0, 2.0)
    w_f = weak_survival_single_photon(1.0, 0.0, 0.0, 2.0, 2.0)
    assert w_i == pytest.approx(1.0 + 0.0j, abs=1e-14)
    assert w_f == pytest.approx(0.0 + 0.0j, abs=1e-14)
    mid = weak_survival_single_photon(1.0, 0.0, 0.0, 1.0, 2.0)
    assert mid == pytest.approx(1.0 / (math.e + 1.0), abs=1e-12)


def test_single_photon_large_window_reduces_to_bare_decay():
    for t in np.linspace(0.0, 5.0, 11):
        w = weak_survival_single_photon(1.0, 0.0, 0.0, t, 50.0)
        assert abs(w - math.exp(-t)) <= 1e-10


def test_single_photon_degenerate_window():
    with pytest.raises(DegenerateWindow):
        weak_survival_single_photon(1.0, 0.0, 1.0, 1.0, 1.0)


def test_asymptotic_post_boundaries_and_value():
    assert weak_survival_asymptotic_post(1.0, 0.0, 0.0, 2.0) == pytest.approx(1.0, abs=1e-14)
    assert weak_survival_asymptotic_post(1.0, 0.0, 2.0, 2.0) == pytest.approx(0.0, abs=1e-14)
    mid = weak_survival_asymptotic_post(1.0, 0.0, 1.0, 2.0)
    # independent route: the window factors telescope to 1/(e + 1/e)
    assert mid == pytest.approx(1.0 / (math.e + math.exp(-1.0)), abs=1e-12)
    assert mid.real == pytest.approx(0.3240271368, abs=1e-9)
    # without decay the emission window factor 1 - e^{-2 gamma (t_f - t_i)} vanishes
    with pytest.raises(PostSelectionNull):
        weak_survival_asymptotic_post(0.0, 0.0, 0.5, 1.0)


def test_asymptotic_post_large_window_reduces_to_bare_decay():
    for t in np.linspace(0.0, 5.0, 11):
        w = weak_survival_asymptotic_post(1.0, 0.0, t, 50.0)
        assert abs(w - math.exp(-t)) <= 1e-10


@pytest.mark.parametrize(
    "post, x",
    [
        (PostSpec.single_photon(-2), -1.0 - 0.4j),
        (PostSpec.asymptotic_emission(), -2.0),
        (PostSpec.undecayed(), None),
    ],
    ids=["photon:-2", "asymptotic", "undecayed"],
)
def test_closed_law_follows_the_post_selection(post, x):
    # gamma = 1 and delta_e = 0.2: x = -gamma + i k delta_e for photon k, -2 gamma for emission
    bath = BathSpec.from_gamma(5, 1.0, 0.2)
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
        PostSpec.single_photon(0)


def test_query_validates_photon_range(small_bath, no_spectrum):
    for route in (weak_survival_numeric, weak_survival_closed):
        with pytest.raises(DimensionMismatch):
            route(small_bath, 0.0, 0.5, 1.0, PostSpec.single_photon(11))


@pytest.mark.parametrize(
    "route, error",
    [
        (lambda bath: propagator_element(bath, 11, 0.5), DimensionMismatch),
        (lambda bath: interaction_element(bath, -11, 0.5), DimensionMismatch),
        (lambda bath: bath_weak_projector_scan(bath, 0.0, 2.0, 1.5), ValueError),
    ],
    ids=["propagator_element", "interaction_element", "scan_inverted_window"],
)
def test_elements_and_scan_check_before_the_solve(small_bath, no_spectrum, route, error):
    # survival and the scan's recurrence guard are pinned by their guard tests below
    with pytest.raises(error):
        route(small_bath)


def test_numeric_single_photon_boundaries(small_bath):
    post = PostSpec.single_photon(1)
    w_i = weak_survival_numeric(small_bath, 0.0, 0.0, 1.5, post)
    w_f = weak_survival_numeric(small_bath, 0.0, 1.5, 1.5, post)
    assert w_i == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert w_f == pytest.approx(0.0 + 0.0j, abs=1e-12)


def test_numeric_matches_closed_forms_at_default_bath():
    bath = default_bath()
    t_i, t_f = 0.0, 2.0
    for t in (0.5, 1.0, 1.7):
        wp = weak_survival_numeric(bath, t_i, t, t_f, PostSpec.single_photon(1))
        assert abs(wp - weak_survival_single_photon(1.0, 0.0, t_i, t, t_f)) <= 0.01
        wa = weak_survival_numeric(bath, t_i, t, t_f, PostSpec.asymptotic_emission())
        assert abs(wa - weak_survival_asymptotic_post(1.0, t_i, t, t_f)) <= 0.01


def test_numeric_undecayed_near_one_at_default_bath():
    bath = default_bath()
    w = weak_survival_numeric(bath, 0.0, 1.0, 2.0, PostSpec.undecayed())
    assert abs(w - 1.0) <= 0.05  # finite-band deviation; exactly 1 in the limit


def test_numeric_recurrence_and_degenerate_guards(small_bath, no_spectrum):
    post = PostSpec.undecayed()
    long_window = small_bath.recurrence_guard + 1.0
    for route in (weak_survival_numeric, weak_survival_closed):
        with pytest.raises(DegenerateWindow):
            route(small_bath, 1.0, 1.0, 1.0, post)
    with pytest.raises(ValueError, match=r"^need t_i <= t <= t_f"):
        weak_survival_closed(small_bath, 0.0, 2.5, 2.0, post)
    with pytest.raises(BeyondRecurrence):
        weak_survival_numeric(small_bath, 0.0, 1.0, long_window, post)


@pytest.mark.parametrize(
    "atom", [1, -1, 3, -3, 0], ids=lambda a: f"photon:{a}" if a else "undecayed"
)
def test_dense_kernel_matches_numeric_weak_value(atom):
    # the generic kernel on dense propagators shares no code with the overlap
    # ratio; the ratio reads bath states in the interaction picture, so the two
    # differ by the free phase of the post-selected level over the elapsed time
    bath = BathSpec.from_gamma(5, 1.0, 0.2)
    t_i, t, t_f = 0.0, 0.7, 1.8
    reference = StateVector(np.eye(bath.dim)[0])
    post = StateVector(np.eye(bath.dim)[slot_of_atom(bath.n_half, atom)])
    u_mid, u_late = bath_propagator(bath, t - t_i), bath_propagator(bath, t_f - t)
    w_kernel = weak_value(reference, post, projector_from_state(reference), u_mid, u_late)
    spec = PostSpec.single_photon(atom) if atom else PostSpec.undecayed()
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
    bath = default_bath()
    assert asymptotic_truncation_bound(bath) == pytest.approx(
        2.0 / (math.pi * 2000 * 0.05), rel=1e-12
    )


# ---------------------------------------------------------------- projector scan

def test_scan_all_zero_at_start():
    bath = BathSpec.from_gamma(30, 1.0, 0.2)
    w = bath_weak_projector_scan(bath, 0.0, 0.0, 1.5)
    assert w.shape == (bath.dim,) and not w.flags.writeable
    assert np.max(np.abs(w[1:])) <= 1e-10


def test_scan_interior_signs_and_unitarity_closure():
    bath = BathSpec.from_gamma(30, 1.0, 0.2)
    w = bath_weak_projector_scan(bath, 0.0, 0.6, 1.5)
    assert np.min(w[1:].real) < -1e-9
    assert np.max(w[1:].real) > 1e-9
    assert abs(np.sum(w) - 1.0) <= 1e-10
    # the bath-only sum equals one minus the undecayed weak value, exactly
    w_undecayed = weak_survival_numeric(bath, 0.0, 0.6, 1.5, PostSpec.undecayed())
    assert abs(np.sum(w[1:]) - (1.0 - w_undecayed)) <= 1e-10


def test_scan_window_checks():
    bath = BathSpec.from_gamma(5, 1.0, 1.0)
    w = bath_weak_projector_scan(bath, 0.5, 0.5, 0.5)  # a zero window is no error here
    assert w[0] == pytest.approx(1.0, abs=1e-12) and np.max(np.abs(w[1:])) <= 1e-12
    with pytest.raises(ValueError, match=r"^need t_i <= t <= t_f"):
        bath_weak_projector_scan(bath, 0.0, 2.0, 1.5)


def test_scan_respects_recurrence_guard(no_spectrum):
    bath = BathSpec.from_gamma(5, 1.0, 1.0)
    with pytest.raises(BeyondRecurrence):
        bath_weak_projector_scan(bath, 0.0, 3.0, bath.recurrence_guard + 1.0)


# ---------------------------------------------------------------- helpers

def test_survival_error_shrinks_with_bandwidth():
    errors = []
    for n_half in (100, 200, 400):
        bath = BathSpec.from_gamma(n_half, 1.0, 0.2)
        err = max(
            abs(survival_probability(bath, t) - math.exp(-2.0 * t))
            for t in np.linspace(0.0, 3.0, 31)
        )
        errors.append(err)
    assert errors[2] < errors[0]
    assert all(b <= 2.0 * a for a, b in zip(errors, errors[1:]))
