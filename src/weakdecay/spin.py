"""Spin-1/2 precession in a static field along z: exact propagator and closed forms.

The two-level Hamiltonian is diagonal in the z basis and generates the
propagator ``U(t) = diag(e^{i w t/2}, e^{-i w t/2})`` with precession
frequency ``w``.  A spin prepared along +x precesses in the x-y plane:
the +x projector's strong expectation is ``(1 + cos w(t-t_i))/2`` and the
+y projector's is ``(1 - sin w(t-t_i))/2``.

For pre-selection along +x and post-selection along +y, -x or +x, the weak
value of the +x projector has closed forms (implemented below) that the
test suite cross-checks against the numeric kernel in :mod:`weakdecay.core`;
the kernel is the ground truth for these expressions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Propagator,
    StateVector,
    WeakValueQuery,
    check_window,
    projector_from_state,
    weak_value,
    window_problem,
)
from .errors import ClosedFormSingular

_SINGULAR_TOL = 1e-12
# Largest half-window phase: near 2**52 the spacing of floats reaches one
# radian, so the closed forms' cos and sin of it mean nothing.
MAX_PHASE = 4.5e15

X_PLUS = StateVector(np.array([1.0, 1.0]) / math.sqrt(2.0))
X_MINUS = StateVector(np.array([1.0, -1.0]) / math.sqrt(2.0))
Y_PLUS = StateVector(np.array([1.0j, -1.0]) / math.sqrt(2.0))
Z_PLUS = StateVector(np.array([1.0, 0.0]))
Z_MINUS = StateVector(np.array([0.0, 1.0]))


class SpinAxis(enum.Enum):
    """In-plane axes with closed-form strong expectations."""

    X_PLUS = "x+"
    Y_PLUS = "y+"
    X_MINUS = "x-"
    Y_MINUS = "y-"


@dataclass(frozen=True)
class SpinParams:
    """Precession frequency and selection window."""

    omega: float
    t_i: float
    t_f: float

    def __post_init__(self):
        problems = []
        if not math.isfinite(self.omega):
            problems.append(f"omega: need a finite value, got {self.omega}")
        if window := window_problem(self.t_i, self.t_f):
            problems.append(window)
        elif 0.5 * abs(self.omega) > MAX_PHASE / (self.t_f - self.t_i):
            problems.append(
                f"omega: half-window phase 0.5 * |omega| * (t_f - t_i) exceeds {MAX_PHASE:g}"
                f" at omega={self.omega}, window {self.t_f - self.t_i}"
            )
        if problems:
            raise ValueError("; ".join(problems))


class PostChoice(enum.Enum):
    """Post-selections with a closed-form weak value; each value is the state.

    Kept apart from :class:`SpinAxis`: the -y post-selection has no closed form.
    """

    Y_PLUS = Y_PLUS
    X_MINUS = X_MINUS
    X_PLUS = X_PLUS


def spin_propagator(omega: float, t: float | np.ndarray) -> Propagator:
    """Exact propagator ``diag(e^{i w t/2}, e^{-i w t/2})``, one per time for an array ``t``."""
    phase = 0.5 * omega * np.asarray(t, dtype=float)
    m = np.zeros(phase.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = np.exp(1j * phase)
    m[..., 1, 1] = np.exp(-1j * phase)
    return Propagator(m)


def spin_strong_closed(
    axis: SpinAxis, omega: float, t_i: float, t: float | np.ndarray
) -> float | np.ndarray:
    """Closed-form strong expectation of the projector along ``axis``, per time in ``t``."""
    if np.any(t < t_i):
        raise ValueError(f"need t >= t_i, got t={t}, t_i={t_i}")
    a = omega * (t - t_i)
    if axis is SpinAxis.X_PLUS:
        return 0.5 * (1.0 + np.cos(a))
    if axis is SpinAxis.X_MINUS:
        return 0.5 * (1.0 - np.cos(a))
    if axis is SpinAxis.Y_PLUS:
        return 0.5 * (1.0 - np.sin(a))
    return 0.5 * (1.0 + np.sin(a))


def _nonsingular(den: float) -> float:
    if abs(den) <= _SINGULAR_TOL:
        raise ClosedFormSingular("post-selection orthogonal to the evolved state")
    return den


def spin_weak_kernel(
    post: StateVector, p: SpinParams, t: float | np.ndarray
) -> complex | np.ndarray:
    """Weak value of the +x projector via the numeric kernel (ground truth).

    ``t`` is one time or a 1-D array of times; an array gives one value per time.
    """
    query = WeakValueQuery(X_PLUS, post, projector_from_state(X_PLUS), p.t_i, t, p.t_f)
    return weak_value(
        query,
        spin_propagator(p.omega, t - p.t_i),
        spin_propagator(p.omega, p.t_f - t),
    )


def spin_weak_closed(
    choice: PostChoice, p: SpinParams, t: float | np.ndarray
) -> complex | np.ndarray:
    """Closed-form weak value of the +x projector, pre-selected along +x.

    Half-angles below: ``a`` for the elapsed interval, ``b`` for the
    remaining interval, ``h`` for the whole window.  The denominator depends
    on the window only, so it is checked once for every time in ``t`` (one
    time or a 1-D array).
    """
    check_window(p.t_i, t, p.t_f)
    a = 0.5 * p.omega * (t - p.t_i)
    b = 0.5 * p.omega * (p.t_f - t)
    h = 0.5 * p.omega * (p.t_f - p.t_i)
    if choice is PostChoice.X_PLUS:
        value = np.cos(a) * np.cos(b) / _nonsingular(math.cos(h))
    elif choice is PostChoice.X_MINUS:
        value = 0.5 - np.sin(a - b) / (2.0 * _nonsingular(math.sin(h)))
    else:
        value = np.cos(a) * (np.cos(b) - np.sin(b)) / _nonsingular(math.cos(h) - math.sin(h))
    return value + 0j

