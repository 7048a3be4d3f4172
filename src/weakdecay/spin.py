"""Spin-1/2 precession in a static field along z: exact propagator and closed forms.

The two-level Hamiltonian is diagonal in the z basis and generates the
propagator ``U(t) = diag(e^{i w t/2}, e^{-i w t/2})`` with precession
frequency ``w``.  A spin prepared along +x precesses in the x-y plane:
the +x projector's strong expectation is ``(1 + cos w(t-t_i))/2`` and the
+y projector's is ``(1 - sin w(t-t_i))/2``.

For pre-selection along +x and post-selection along +y, -x or +x, the weak
value of the +x projector has closed forms (implemented below) that the
test suite cross-checks against the numeric kernel in :mod:`weakdecay.core`;
the kernel is the ground truth for these expressions.  Both routes take the
operands of the decay routes, ``(omega, t_i, t, t_f, post)`` with ``post`` a
:class:`PostChoice`, check them once per call, and raise PostSelectionNull
when the post-selection overlap falls to the kernel's denominator floor.
"""

from __future__ import annotations

import enum
import math
from typing import Optional

import numpy as np

from .core import (
    DENOM_FLOOR,
    Propagator,
    StateVector,
    check_window,
    projector_from_state,
    weak_value,
    window_problem,
)
from .errors import PostSelectionNull

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


def params_problem(omega: float, t_i: float, t_f: float) -> Optional[str]:
    """What keeps ``omega`` and the window ``(t_i, t_f)`` from a spin run, or None.

    Needs a finite ``omega``, a window as :func:`weakdecay.core.window_problem`
    accepts it, and a half-window phase within :data:`MAX_PHASE`.
    """
    problems = []
    if not math.isfinite(omega):
        problems.append(f"omega: need a finite value, got {omega}")
    if window := window_problem(t_i, t_f):
        problems.append(window)
    elif 0.5 * abs(omega) > MAX_PHASE / (t_f - t_i):
        problems.append(
            f"omega: half-window phase 0.5 * |omega| * (t_f - t_i) exceeds {MAX_PHASE:g}"
            f" at omega={omega}, window {t_f - t_i}"
        )
    return "; ".join(problems) or None


def _check_operands(omega: float, t_i: float, t, t_f: float) -> None:
    if problem := params_problem(omega, t_i, t_f):
        raise ValueError(problem)
    check_window(t_i, t, t_f)


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
    if abs(den) <= DENOM_FLOOR:
        raise PostSelectionNull("post-selection orthogonal to the evolved state")
    return den


def spin_weak_kernel(
    omega: float, t_i: float, t: float | np.ndarray, t_f: float, post: PostChoice
) -> complex | np.ndarray:
    """Weak value of the +x projector via the numeric kernel (ground truth).

    ``t`` is one time or a 1-D array of times; an array gives one value per time.
    The operands are checked before any propagator is built.
    """
    _check_operands(omega, t_i, t, t_f)
    u_mid, u_late = spin_propagator(omega, t - t_i), spin_propagator(omega, t_f - t)
    return weak_value(X_PLUS, post.value, projector_from_state(X_PLUS), u_mid, u_late)


def spin_weak_closed(
    omega: float, t_i: float, t: float | np.ndarray, t_f: float, post: PostChoice
) -> complex | np.ndarray:
    """Closed-form weak value of the +x projector, pre-selected along +x.

    Half-angles below: ``a`` for the elapsed interval, ``b`` for the
    remaining interval, ``h`` for the whole window.  The denominator depends
    on the window only, so it is checked once for every time in ``t`` (one
    time or a 1-D array).
    """
    _check_operands(omega, t_i, t, t_f)
    a = 0.5 * omega * (t - t_i)
    b = 0.5 * omega * (t_f - t)
    h = 0.5 * omega * (t_f - t_i)
    if post is PostChoice.X_PLUS:
        value = np.cos(a) * np.cos(b) / _nonsingular(math.cos(h))
    elif post is PostChoice.X_MINUS:
        value = 0.5 - np.sin(a - b) / (2.0 * _nonsingular(math.sin(h)))
    else:
        value = np.cos(a) * (np.cos(b) - np.sin(b)) / _nonsingular(math.cos(h) - math.sin(h))
    return value + 0j

