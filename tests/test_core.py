import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakdecay import (
    BasisNotComplete,
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    Operator,
    PostSelectionNull,
    Propagator,
    StateVector,
    decompose_expectation,
    projector_from_state,
    strong_expectation,
    weak_value,
)
from weakdecay.spin import X_PLUS, Y_PLUS, Z_MINUS, Z_PLUS, spin_propagator

finite_omegas = st.floats(-5.0, 5.0)
finite_times = st.floats(-8.0, 8.0)


# ---------------------------------------------------------------- types

def test_state_vector_requires_normalization():
    with pytest.raises(NotNormalized):
        StateVector(np.array([1.0, 1.0]))


def test_state_vector_normalized_constructor():
    s = StateVector.normalized([3.0, 4.0j])
    assert s.dim == 2
    assert abs(np.vdot(s.amplitudes, s.amplitudes).real - 1.0) < 1e-14
    with pytest.raises(NotNormalized):
        StateVector.normalized([0.0, 0.0])


def test_state_vector_is_immutable():
    s = StateVector(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_operator_must_be_square():
    with pytest.raises(DimensionMismatch):
        Operator(np.zeros((2, 3)))


def test_shapes_and_dimensions_are_checked():
    with pytest.raises(DimensionMismatch, match="at least one amplitude"):
        StateVector([])
    with pytest.raises(DimensionMismatch, match="square matrix"):
        Propagator(np.zeros((2, 3)))
    three = StateVector.normalized([1.0, 0.0, 0.0])
    u2, u3 = spin_propagator(1.0, 0.3), Propagator(np.eye(3))
    obs2, obs3 = Operator.identity(2), Operator.identity(3)
    for pre, obs, u in ((three, obs2, u3), (three, obs3, u2), (X_PLUS, obs3, u3)):
        with pytest.raises(DimensionMismatch):
            strong_expectation(pre, obs, u)
        with pytest.raises(DimensionMismatch):
            decompose_expectation(pre, obs, u, [Z_PLUS, Z_MINUS])


def test_operator_predicates():
    p = projector_from_state(X_PLUS)
    assert p.is_hermitian()
    assert np.max(np.abs(p.entries @ p.entries - p.entries)) <= 1e-10
    assert not Operator(np.array([[0.0, 1.0], [0.0, 0.0]])).is_hermitian()


def test_propagator_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        Propagator(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_propagator_time_stack_checks_every_slice():
    stack = spin_propagator(1.7, np.array([0.0, 0.4, 0.9]))
    assert stack.matrix.shape == (3, 2, 2) and stack.dim == 2
    assert np.array_equal(stack.matrix[2], spin_propagator(1.7, 0.9).matrix)
    bad = stack.matrix.copy()
    bad[1, 1, 1] = 2.0
    with pytest.raises(ValueError, match="not unitary"):
        Propagator(bad)


def test_propagator_adjoint_reverses_time():
    u = spin_propagator(1.7, 0.9).matrix
    reference = spin_propagator(1.7, -0.9).matrix
    assert np.max(np.abs(u.conj().T - reference)) <= 1e-10


@settings(deadline=None, max_examples=60)
@given(finite_omegas, finite_times, finite_times, finite_times)
def test_propagator_composition(omega, t1, t2, t3):
    lhs = spin_propagator(omega, t1 - t2).matrix @ spin_propagator(omega, t2 - t3).matrix
    rhs = spin_propagator(omega, t1 - t3).matrix
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


# ---------------------------------------------------------------- weak_value

def _spin_weak_value(pre, post, obs, omega, t_i, t, t_f):
    u_mid, u_late = spin_propagator(omega, t - t_i), spin_propagator(omega, t_f - t)
    return weak_value(pre, post, obs, u_mid, u_late)


def test_weak_value_identity_observable_is_one():
    w = _spin_weak_value(Y_PLUS, X_PLUS, Operator.identity(2), 2.0, 0.0, 0.3, 1.0)
    assert w == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_weak_value_trivial_post_selection_matches_strong_form():
    # whole precession cycle with +x pre and post; projector probed mid-cycle
    omega, t_i = 1.0, 0.0
    t_f = 2.0 * math.pi
    t = math.pi
    w = _spin_weak_value(X_PLUS, X_PLUS, projector_from_state(X_PLUS), omega, t_i, t, t_f)
    assert w == pytest.approx(0.5 * (1.0 + math.cos(omega * (t - t_i))), abs=1e-12)
    assert w == pytest.approx(0.0, abs=1e-12)


def test_weak_value_raises_on_null_post_selection():
    ident = Propagator(np.eye(2, dtype=complex))
    with pytest.raises(PostSelectionNull):
        weak_value(Z_PLUS, Z_MINUS, Operator.identity(2), ident, ident)


@pytest.mark.parametrize("mismatched", ["propagator", "post"])
def test_weak_value_dimension_check(mismatched):
    post, u_mid = X_PLUS, spin_propagator(1.0, 0.5)
    if mismatched == "propagator":
        u_mid = Propagator(np.eye(3, dtype=complex))
    else:
        post = StateVector(np.array([1.0, 0, 0]))
    with pytest.raises(DimensionMismatch):
        weak_value(X_PLUS, post, Operator.identity(2), u_mid, spin_propagator(1.0, 0.5))


@settings(deadline=None, max_examples=60)
@given(finite_omegas, st.floats(0.1, 5.0), st.floats(0.05, 0.95))
def test_complement_rule(omega, window, frac):
    p = projector_from_state(X_PLUS)
    comp = Operator(np.eye(2) - p.entries)
    t = frac * window
    u_mid = spin_propagator(omega, t)
    u_late = spin_propagator(omega, window - t)
    denom = Y_PLUS.amplitudes.conj() @ (u_late.matrix @ (u_mid.matrix @ X_PLUS.amplitudes))
    if abs(denom) < 1e-3:
        return
    w1 = weak_value(X_PLUS, Y_PLUS, p, u_mid, u_late)
    w2 = weak_value(X_PLUS, Y_PLUS, comp, u_mid, u_late)
    assert abs(w1 + w2 - 1.0) <= 1e-10


def test_weak_value_linear_in_observable(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    alpha, beta = 1.3 - 0.2j, -0.4 + 2.1j
    u_mid, u_late = spin_propagator(0.9, 0.4), spin_propagator(0.9, 0.6)

    def w(matrix):
        return weak_value(X_PLUS, Y_PLUS, Operator(matrix), u_mid, u_late)

    combined = w(alpha * a + beta * b)
    assert abs(combined - (alpha * w(a) + beta * w(b))) <= 1e-10


def test_weak_equals_strong_when_post_is_evolved_state(rng):
    omega, t_i, t_f = 1.4, -0.3, 2.2
    pre = StateVector.normalized(rng.normal(size=2) + 1j * rng.normal(size=2))
    post = StateVector(spin_propagator(omega, t_f - t_i).matrix @ pre.amplitudes)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    obs = Operator(0.5 * (m + m.conj().T))
    for t in np.linspace(t_i, t_f, 7):
        u_mid = spin_propagator(omega, t - t_i)
        w = weak_value(pre, post, obs, u_mid, spin_propagator(omega, t_f - t))
        assert abs(w - strong_expectation(pre, obs, u_mid)) <= 1e-10


# ---------------------------------------------------------------- strong_expectation

def test_strong_expectation_precession_values():
    p_xp = projector_from_state(X_PLUS)
    p_yp = projector_from_state(Y_PLUS)
    u = spin_propagator(1.0, 0.5 * math.pi)
    assert strong_expectation(X_PLUS, p_xp, u) == pytest.approx(0.5, abs=1e-12)
    u0 = spin_propagator(1.0, 0.0)
    assert strong_expectation(X_PLUS, p_yp, u0) == pytest.approx(0.5, abs=1e-12)
    assert strong_expectation(Y_PLUS, Operator.identity(2), u) == pytest.approx(1.0, abs=1e-12)


def test_strong_expectation_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        strong_expectation(X_PLUS, Operator(np.array([[0, 1], [0, 0]])), spin_propagator(1, 1))


# ---------------------------------------------------------------- decompose

def test_decompose_identity_observable():
    u = spin_propagator(0.8, 1.1)
    pairs, residual = decompose_expectation(X_PLUS, Operator.identity(2), u, [Z_PLUS, Z_MINUS])
    assert residual <= 1e-10
    for p, w in pairs:
        if p > 1e-12:
            assert w == pytest.approx(1.0 + 0.0j, abs=1e-10)


def test_decompose_projector_at_start():
    u = spin_propagator(2.0, 0.0)
    pairs, residual = decompose_expectation(
        X_PLUS, projector_from_state(X_PLUS), u, [Z_PLUS, Z_MINUS]
    )
    assert residual <= 1e-10
    total = sum(p * w for p, w in pairs)
    assert total == pytest.approx(1.0 + 0.0j, abs=1e-10)


def test_decompose_requires_complete_orthonormal_basis():
    u = spin_propagator(1.0, 0.2)
    obs = Operator.identity(2)
    with pytest.raises(BasisNotComplete):
        decompose_expectation(X_PLUS, obs, u, [Z_PLUS])
    with pytest.raises(BasisNotComplete):
        decompose_expectation(X_PLUS, obs, u, [Z_PLUS, X_PLUS])


def test_decompose_handles_orthogonal_term_without_blowup():
    u = spin_propagator(1.0, 0.0)  # evolved state is |x+> itself
    pairs, residual = decompose_expectation(
        X_PLUS, projector_from_state(Y_PLUS), u, [X_PLUS, StateVector(np.array([1, -1]) / np.sqrt(2))]
    )
    assert residual <= 1e-10
    probs = sorted(p for p, _ in pairs)
    assert probs[0] <= 1e-24  # orthogonal branch: weak value undefined, sum still fine
    assert math.isnan(pairs[-1][1].real) or probs[-1] > 1e-12


# ---------------------------------------------------------------- projector

def test_projector_examples():
    p = projector_from_state(X_PLUS)
    assert np.max(np.abs(p.entries - 0.5 * np.ones((2, 2)))) <= 1e-12
    pz = projector_from_state(Z_PLUS)
    assert np.max(np.abs(pz.entries - np.diag([1.0, 0.0]))) <= 1e-12
    py = projector_from_state(StateVector(np.array([1.0, 1.0j]) / math.sqrt(2.0)))
    assert np.max(np.abs(py.entries - 0.5 * np.array([[1, -1j], [1j, 1]]))) <= 1e-12


def test_projector_structure(rng):
    s = StateVector.normalized(rng.normal(size=5) + 1j * rng.normal(size=5))
    p = projector_from_state(s)
    assert p.is_hermitian(1e-12)
    assert np.max(np.abs(p.entries @ p.entries - p.entries)) <= 1e-12
    assert np.trace(p.entries) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.matrix_rank(p.entries, tol=1e-10) == 1
