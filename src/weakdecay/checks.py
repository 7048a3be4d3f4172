"""Built-in invariant suite backing ``weakdecay check`` and the acceptance tests.

Each check pins its tolerances here; nothing is deferred to callers.  One
check (the finite-bath projector sum against the scaling-limit cancellation)
is expected to fail as stated and is marked ``xfail`` with the measured
floor: the cancellation is exact only in the limit of vanishing level
spacing, and no desk-scale bath reaches the requested 1e-6.  See the README
for the quantitative analysis.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import decay, harness, spin, sums
from .core import (
    Operator,
    StateVector,
    decompose_expectation,
    projector_from_state,
    strong_expectation,
    weak_value,
)

SEED = 20260810
SPIN_DRAWS = 1000
OBSERVABLES = 100
COMPLEMENT_DRAWS = 200
UNDECAYED_DRAWS = 200
DECOMPOSITION_TRIALS = 100


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    xfail: bool = False
    seconds: float = 0.0

    def __post_init__(self):
        # checks compare numpy scalars; keep the verdict a plain bool for JSON
        self.passed = bool(self.passed)

    @property
    def status(self) -> str:
        if self.passed:
            return "PASS"
        return "XFAIL" if self.xfail else "FAIL"


def _rng() -> np.random.Generator:
    return np.random.default_rng(SEED)


def _random_spin_draw(rng, floor: float = 1e-2):
    """Random (omega, t_i, t, t_f) keeping every closed-form denominator off zero."""
    while True:
        omega = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        t_i = rng.uniform(-2.0, 2.0)
        t_f = t_i + rng.uniform(0.2, 6.0)
        h = 0.5 * omega * (t_f - t_i)
        if min(abs(math.cos(h)), abs(math.sin(h)), abs(math.cos(h) - math.sin(h))) < floor:
            continue
        t = rng.uniform(t_i, t_f)
        return omega, t_i, t, t_f


def check_spin_closed_forms_vs_kernel() -> CheckResult:
    """C1: every spin closed form agrees with the numeric kernel to 1e-10."""
    rng = _rng()
    p_xm = projector_from_state(spin.X_MINUS)
    worst = 0.0
    for _ in range(SPIN_DRAWS):
        omega, t_i, t, t_f = _random_spin_draw(rng)
        for post in spin.PostChoice:
            closed = spin.spin_weak_closed(omega, t_i, t, t_f, post)
            kernel = spin.spin_weak_kernel(omega, t_i, t, t_f, post)
            worst = max(worst, abs(closed - kernel))
        frac = (t - t_i) / (t_f - t_i)
        # half-cycle window: post-selection along -x equals the evolved state,
        # so the -x projector's weak value is its strong expectation
        t_f28 = t_i + math.pi / abs(omega)
        t28 = t_i + frac * (t_f28 - t_i)
        u_mid28 = spin.spin_propagator(omega, t28 - t_i)
        u_late28 = spin.spin_propagator(omega, t_f28 - t28)
        w28 = weak_value(spin.X_PLUS, spin.X_MINUS, p_xm, u_mid28, u_late28)
        ref28 = 0.5 * (1.0 - math.cos(omega * (t28 - t_i)))
        worst = max(worst, abs(w28 - ref28))
        # positively-oriented quarter-cycle window: +x post-selection gives
        # the above-unity form (its sine term fixes the orientation)
        om = abs(omega)
        t_f32 = t_i + 0.5 * math.pi / om
        t32 = t_i + frac * (t_f32 - t_i)
        w32 = spin.spin_weak_kernel(om, t_i, t32, t_f32, spin.PostChoice.X_PLUS)
        a = om * (t32 - t_i)
        ref32 = 0.5 * (1.0 + math.sin(a) + math.cos(a))
        worst = max(worst, abs(w32 - ref32))
    return CheckResult(
        "spin_closed_forms_vs_kernel",
        worst <= 1e-10,
        f"max |closed - kernel| = {worst:.3e} over {SPIN_DRAWS} draws (tol 1e-10)",
    )


def check_reduction_identities() -> CheckResult:
    """C2: whole-cycle and half-cycle windows collapse weak values to strong ones."""
    omega, t_i = 1.0, 0.0
    # whole precession cycle: trivial +x post-selection
    t_f = 2.0 * math.pi
    grid = np.linspace(t_i, t_f, 101)
    worst_full = np.max(
        np.abs(
            spin.spin_weak_closed(omega, t_i, grid, t_f, spin.PostChoice.X_PLUS)
            - spin.spin_strong_closed(spin.SpinAxis.X_PLUS, omega, t_i, grid)
        )
    )
    # half cycle: -x post-selection matches the evolved state, so the -x
    # projector's weak value reduces to its strong expectation
    t_f = math.pi
    grid = np.linspace(t_i, t_f, 101)
    w_xplus = spin.spin_weak_closed(omega, t_i, grid, t_f, spin.PostChoice.X_MINUS)
    strong_xm = spin.spin_strong_closed(spin.SpinAxis.X_MINUS, omega, t_i, grid)
    strong_xp = spin.spin_strong_closed(spin.SpinAxis.X_PLUS, omega, t_i, grid)
    worst_half = max(
        np.max(np.abs((1.0 - w_xplus) - strong_xm)), np.max(np.abs(w_xplus - strong_xp))
    )
    ok = worst_full <= 1e-10 and worst_half <= 1e-10
    return CheckResult(
        "reduction_identities",
        ok,
        f"whole-cycle max err {worst_full:.3e}, half-cycle max err {worst_half:.3e} (tol 1e-10)",
    )


def _random_hermitian(rng, dim: int) -> Operator:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator(0.5 * (m + m.conj().T))


def _random_state(rng, dim: int) -> StateVector:
    return StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def check_weak_equals_strong() -> CheckResult:
    """C3: post-selecting the freely evolved state makes weak = strong (dims 2 and 21)."""
    rng = _rng()
    worst = 0.0
    # spin system
    for _ in range(OBSERVABLES):
        omega = rng.uniform(-3.0, 3.0)
        t_i = rng.uniform(-1.0, 1.0)
        t_f = t_i + rng.uniform(0.2, 5.0)
        t = rng.uniform(t_i, t_f)
        pre = _random_state(rng, 2)
        u_mid = spin.spin_propagator(omega, t - t_i)
        u_late = spin.spin_propagator(omega, t_f - t)
        post = StateVector(spin.spin_propagator(omega, t_f - t_i).matrix @ pre.amplitudes)
        obs = _random_hermitian(rng, 2)
        w = weak_value(pre, post, obs, u_mid, u_late)
        s = strong_expectation(pre, obs, u_mid)
        worst = max(worst, abs(w - s))
    # small bath, dim 21
    bath = decay.BathSpec.from_gamma(10, 1.0, 0.05)
    for _ in range(OBSERVABLES):
        t_i = 0.0
        t_f = rng.uniform(0.5, 3.0)
        t = rng.uniform(t_i, t_f)
        pre = _random_state(rng, bath.dim)
        u_mid = decay.bath_propagator(bath, t - t_i)
        u_late = decay.bath_propagator(bath, t_f - t)
        post = StateVector(decay.bath_propagator(bath, t_f - t_i).matrix @ pre.amplitudes)
        obs = _random_hermitian(rng, bath.dim)
        w = weak_value(pre, post, obs, u_mid, u_late)
        s = strong_expectation(pre, obs, u_mid)
        worst = max(worst, abs(w - s))
    return CheckResult(
        "weak_equals_strong",
        worst <= 1e-10,
        f"max |weak - strong| = {worst:.3e} over {OBSERVABLES} observables per system (tol 1e-10)",
    )


def check_exponential_law_recovery() -> CheckResult:
    """C4: survival matches e^{-2 gamma t} at N=2000 and improves with N, within 60 s."""
    start = time.perf_counter()
    config = harness.build_config({"model": "sweep"})
    sweep = harness.convergence_sweep(config)
    elapsed = time.perf_counter() - start
    errs = [r.max_abs_error for r in sweep.rows]
    ok = (
        errs[-1] is not None
        and errs[-1] <= 0.01
        and sweep.trend == "decreasing"
        and elapsed <= 60.0
    )
    err_text = ", ".join(f"N={n}: {e:.4f}" for n, e in zip(config.levels, errs))
    return CheckResult(
        "exponential_law_recovery",
        ok,
        f"{err_text}; trend {sweep.trend}; {elapsed:.1f}s (tol 0.01 at N=2000, budget 60s)",
    )


def check_generalized_decay_laws() -> CheckResult:
    """C5: finite-bath weak decay laws track their closed forms to 0.01 on a 101-grid."""
    bath = decay.default_bath()
    g, t_i, t_f = bath.gamma, 0.0, 2.0
    grid = np.linspace(t_i, t_f, 101)
    post_photon = decay.PostSpec.single_photon(1)
    post_asym = decay.PostSpec.asymptotic_emission()
    wp = decay.weak_survival_numeric(bath, t_i, grid, t_f, post_photon)
    wa = decay.weak_survival_numeric(bath, t_i, grid, t_f, post_asym)
    ref_res = decay.weak_survival_single_photon(g, 0.0, t_i, grid, t_f)
    ref_det = decay.weak_survival_single_photon(g, bath.delta_e, t_i, grid, t_f)
    ref_asym = decay.weak_survival_asymptotic_post(g, t_i, grid, t_f)
    worst_photon = float(np.max(np.abs(wp - ref_res)))
    worst_consistency = float(np.max(np.abs(wp - ref_det)))
    worst_asym = float(np.max(np.abs(wa - ref_asym)))
    # the grid runs from t_i to t_f, so its ends are the boundary values
    b_photon_i = abs(wp[0] - 1.0)
    b_photon_f = abs(wp[-1])
    b_closed_i = abs(ref_res[0] - 1.0)
    b_closed_f = abs(ref_res[-1])
    ok = (
        worst_photon <= 0.01
        and worst_asym <= 0.01
        and worst_consistency <= 0.02
        and b_photon_i <= 0.02
        and b_photon_f <= 0.02
        and b_closed_i <= 1e-12
        and b_closed_f <= 1e-12
    )
    return CheckResult(
        "generalized_decay_laws",
        ok,
        f"photon max err {worst_photon:.4f}, emission max err {worst_asym:.4f} (tol 0.01); "
        f"detuned-form consistency {worst_consistency:.4f} (tol 0.02); "
        f"boundaries numeric ({b_photon_i:.1e}, {b_photon_f:.1e}) closed ({b_closed_i:.1e}, {b_closed_f:.1e})",
    )


def check_large_window_reduction() -> CheckResult:
    """C6: at t_f = 50/gamma both closed-form laws collapse to plain exponential decay."""
    g, t_f = 1.0, 50.0
    grid = np.linspace(0.0, 5.0, 101)
    bare = np.exp(-g * grid)
    worst = max(
        float(np.max(np.abs(decay.weak_survival_single_photon(g, 0.0, 0.0, grid, t_f) - bare))),
        float(np.max(np.abs(decay.weak_survival_asymptotic_post(g, 0.0, grid, t_f) - bare))),
    )
    return CheckResult(
        "large_window_reduction",
        worst <= 1e-10,
        f"max deviation from bare exponential {worst:.3e} (tol 1e-10)",
    )


def check_complement_rule() -> CheckResult:
    """C7: weak values of a projector and its complement sum to one."""
    rng = _rng()
    worst = 0.0
    p_xp = projector_from_state(spin.X_PLUS)
    comp_xp = Operator(np.eye(2) - p_xp.entries)
    for _ in range(COMPLEMENT_DRAWS):
        omega, t_i, t, t_f = _random_spin_draw(rng)
        u_mid = spin.spin_propagator(omega, t - t_i)
        u_late = spin.spin_propagator(omega, t_f - t)
        for choice in spin.PostChoice:
            w = weak_value(spin.X_PLUS, choice.value, p_xp, u_mid, u_late)
            w_comp = weak_value(spin.X_PLUS, choice.value, comp_xp, u_mid, u_late)
            worst = max(worst, abs(w + w_comp - 1.0))
    bath = decay.BathSpec.from_gamma(5, 1.0, 0.2)
    eye = np.eye(bath.dim)
    for _ in range(50):
        t_f = rng.uniform(0.5, 3.0)
        t = rng.uniform(0.0, t_f)
        pre = _random_state(rng, bath.dim)
        post = _random_state(rng, bath.dim)
        u_mid = decay.bath_propagator(bath, t)
        u_late = decay.bath_propagator(bath, t_f - t)
        denom = post.amplitudes.conj() @ (u_late.matrix @ (u_mid.matrix @ pre.amplitudes))
        if abs(denom) < 1e-3:
            continue
        proj = projector_from_state(_random_state(rng, bath.dim))
        comp = Operator(eye - proj.entries)
        w = weak_value(pre, post, proj, u_mid, u_late)
        w_comp = weak_value(pre, post, comp, u_mid, u_late)
        worst = max(worst, abs(w + w_comp - 1.0))
    return CheckResult(
        "complement_rule",
        worst <= 1e-10,
        f"max |w(P) + w(1-P) - 1| = {worst:.3e} (tol 1e-10)",
    )


def check_undecayed_identity() -> CheckResult:
    """C7: the undecayed weak value is identically 1 on the limit amplitudes.

    The finite-bath counterpart deviates at the band-width level; its value
    at the default bath is reported for reference but gated separately.
    """
    rng = _rng()
    worst = 0.0
    for _ in range(UNDECAYED_DRAWS):
        g = rng.uniform(0.2, 3.0)
        t_i = rng.uniform(-1.0, 1.0)
        t_f = t_i + rng.uniform(0.2, 8.0)
        t = rng.uniform(t_i, t_f)
        ratio = (
            decay.u00_limit(g, t_f - t)
            * decay.u00_limit(g, t - t_i)
            / decay.u00_limit(g, t_f - t_i)
        )
        worst = max(worst, abs(ratio - 1.0))
    bath = decay.default_bath()
    finite = decay.weak_survival_numeric(bath, 0.0, 1.0, 2.0, decay.PostSpec.undecayed())
    return CheckResult(
        "undecayed_identity",
        worst <= 1e-8,
        f"max |ratio - 1| = {worst:.3e} on limit amplitudes (tol 1e-8); "
        f"finite-bath value at the default bath deviates by {abs(finite - 1.0):.3e}",
    )


SCAN_BATH = (200, 1.0, 0.05)  # n_half, gamma, delta_e
SCAN_TIMES = (0.0, 1.0, 2.0)


def _scan() -> np.ndarray:
    bath = decay.BathSpec.from_gamma(*SCAN_BATH)
    return decay.bath_weak_projector_scan(bath, *SCAN_TIMES)


def check_bath_projector_signs() -> CheckResult:
    """C7: the bath scan shows both positive and negative weak values, and the
    sum over all atoms (bath plus reference) closes to 1 exactly."""
    w = _scan()
    re_min, re_max = float(np.min(w[1:].real)), float(np.max(w[1:].real))
    closure = abs(complex(np.sum(w[1:])) + w[0] - 1.0)
    ok = re_min < -1e-9 and re_max > 1e-9 and closure <= 1e-10
    return CheckResult(
        "bath_projector_signs",
        ok,
        f"re range [{re_min:.3e}, {re_max:.3e}]; "
        f"|sum incl. reference - 1| = {closure:.3e} (tol 1e-10)",
    )


def check_bath_projector_sum_limit() -> CheckResult:
    """C7 (documented xfail): the bath-only projector sum against the limit law.

    The scaling-limit cancellation sum_n w = 0 requires vanishing level
    spacing; at any desk-scale bath the finite remainder is the undecayed
    deviation 1 - w(P_up), floored near 1e-2 at N=200 for every admissible
    spacing.  Implemented exactly as stated so the gap stays visible.
    """
    bath_sum = abs(complex(np.sum(_scan()[1:])))
    return CheckResult(
        "bath_projector_sum_limit",
        bath_sum <= 1e-6,
        f"|sum over bath atoms| = {bath_sum:.3e} vs requested 1e-6; "
        "finite-bath floor ~3e-2 at N=200 (scaling-limit identity, see README)",
        xfail=True,
    )


def check_lattice_sum_values() -> CheckResult:
    """C8: truncated Lorentzian sums hit their continuum limits at dE = 0.01."""
    worst_rel = 0.0
    details = []
    for g in (1.0, 2.0):
        val = sums.lorentzian_sum(sums.SumParams(g, 0.01, k_max=10**6))
        err = abs(val - math.pi / g)
        worst_rel = max(worst_rel, err / (math.pi / g))
        details.append(f"plain(g={g}): err {err:.2e}")
    val = sums.phased_lorentzian_sum(sums.SumParams(1.0, 0.01, k_max=10**6), 1.0)
    err = abs(val - math.pi * math.exp(-1.0))
    worst_rel = max(worst_rel, err / math.pi)
    details.append(f"phased(t=1): err {err:.2e}, imag {abs(val.imag):.1e}")
    return CheckResult(
        "lattice_sum_values",
        worst_rel <= 0.005 and abs(val.imag) <= 1e-10,
        "; ".join(details) + " (tol 0.005 * pi/gamma)",
    )


def check_lattice_sum_convergence_order() -> CheckResult:
    """C8: first-order convergence of the bath-matched (centerless) phased sum.

    The bath lattice has no level at zero detuning; dropping the center term
    leaves a deficit of exactly dE/gamma^2 plus an exponentially small lattice
    correction, so halving dE should halve the error.
    """
    g, t = 1.0, 1.0
    errs = []
    for j in range(5):
        de = 0.01 / 2**j
        params = sums.SumParams(g, de, k_max=int(round(200.0 / de)))
        val = sums.phased_lorentzian_sum(params, t, include_center=False)
        errs.append(abs(val - math.pi / g * math.exp(-g * t)))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    ok = all(1.5 <= r <= 2.5 for r in ratios)
    return CheckResult(
        "lattice_sum_convergence_order",
        ok,
        f"errors {['%.3e' % e for e in errs]}, ratios {['%.2f' % r for r in ratios]} "
        "(want within [1.5, 2.5])",
    )


def check_decomposition_identity() -> CheckResult:
    """C9: post-selection decomposition reproduces the strong expectation (dim 21)."""
    rng = _rng()
    bath = decay.BathSpec.from_gamma(10, 1.0, 0.05)
    dim = bath.dim
    worst = 0.0
    for _ in range(DECOMPOSITION_TRIALS):
        t = rng.uniform(0.0, 3.0)
        u = decay.bath_propagator(bath, t)
        pre = _random_state(rng, dim)
        obs = _random_hermitian(rng, dim)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        basis = [StateVector(q[:, j]) for j in range(dim)]
        _, residual = decompose_expectation(pre, obs, u, basis)
        worst = max(worst, residual)
    return CheckResult(
        "decomposition_identity",
        worst <= 1e-8,
        f"max residual {worst:.3e} over {DECOMPOSITION_TRIALS} random bases (tol 1e-8)",
    )


def check_harness_determinism() -> CheckResult:
    """C10: identical configs give byte-identical CSV, under the frozen header."""
    spin_cfg = harness.build_config(
        {"model": "spin", "post": "xminus", "omega": "1.0", "t_i": "0.0", "t_f": str(math.pi / 2)}
    )
    decay_cfg = harness.build_config(
        {"model": "decay", "n_half": "50", "delta_e": "0.5", "t_f": "2.0", "post": "photon:1"}
    )
    # the lattice sum's matrix products run in BLAS, like the bath's
    sums_cfg = harness.build_config({"model": "sums", "k_max": "20000", "n_points": "11"})
    ok = True
    details = []
    for cfg in (spin_cfg, decay_cfg, sums_cfg):
        first = harness.rows_to_csv(harness.run_scenario(cfg).rows)
        second = harness.rows_to_csv(harness.run_scenario(cfg).rows)
        identical = first == second
        ok = ok and identical and first.splitlines()[0] == harness.CSV_HEADER
        details.append(f"{cfg.model}: {'identical' if identical else 'DIFFERS'}")
    return CheckResult("harness_determinism", ok, "; ".join(details))


ALL_CHECKS = (
    check_spin_closed_forms_vs_kernel,
    check_reduction_identities,
    check_weak_equals_strong,
    check_exponential_law_recovery,
    check_generalized_decay_laws,
    check_large_window_reduction,
    check_complement_rule,
    check_undecayed_identity,
    check_bath_projector_signs,
    check_bath_projector_sum_limit,
    check_lattice_sum_values,
    check_lattice_sum_convergence_order,
    check_decomposition_identity,
    check_harness_determinism,
)


def run_battery() -> list[CheckResult]:
    """Run every built-in check, timing each."""
    results = []
    for fn in ALL_CHECKS:
        start = time.perf_counter()
        result = fn()
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results
