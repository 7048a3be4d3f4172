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
    Propagator,
    StateVector,
    check_window,
    nonsingular,
    projector_from_state,
    weak_value,
    window_problem,
)

# Largest half-window phase: near 2**52 the spacing of floats reaches one
# radian, so the closed forms' cos and sin of it mean nothing.
MAX_PHASE = 4.5e15

# Times per evaluation block of a long grid: a block's 2x2 propagator stack
# takes 256 KiB and all the kernel's temporaries about 1.5 MiB, at any grid.
_BLOCK_TIMES = 1 << 12

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


def _check_operands(omega: float, t_i: float, t, t_f: float) -> np.ndarray:
    """``t`` as a float array, once ``omega``, the window and ``t`` are checked."""
    if problem := params_problem(omega, t_i, t_f):
        raise ValueError(problem)
    return check_window(t_i, t, t_f)


def _in_blocks(per_time, t):
    """``per_time(t)``, for a 1-D grid in equal blocks of at most ``_BLOCK_TIMES`` times.

    Every value depends on its own time alone, so the blocks keep every bit.
    Equal blocks hold at least ``_BLOCK_TIMES / 2`` times each: a block of
    one time would take another BLAS path in the kernel's last product,
    which can move its last bit.
    """
    if np.ndim(t) != 1 or len(t) <= _BLOCK_TIMES:
        return per_time(t)
    count = -(-len(t) // _BLOCK_TIMES)
    edges = [len(t) * k // count for k in range(count + 1)]
    values = np.empty(len(t), dtype=complex)
    for lo, hi in zip(edges, edges[1:]):
        values[lo:hi] = per_time(t[lo:hi])
    return values


class PostChoice(enum.Enum):
    """Post-selections with a closed-form weak value; each value is the state.

    Kept apart from :class:`SpinAxis`: the -y post-selection has no closed form.
    """

    Y_PLUS = Y_PLUS
    X_MINUS = X_MINUS
    X_PLUS = X_PLUS


def spin_propagator(omega: float, t: float | np.ndarray) -> Propagator:
    """Exact propagator ``diag(e^{i w t/2}, e^{-i w t/2})``, one per time for an array ``t``.

    A non-finite ``omega`` or time gives non-finite entries, which the
    :class:`~weakdecay.core.Propagator` check reports as such.
    """
    with np.errstate(invalid="ignore"):  # an infinite phase turns NaN here, not a warning
        phase = 0.5 * omega * np.asarray(t, dtype=float)
        m = np.zeros(phase.shape + (2, 2), dtype=complex)
        m[..., 0, 0] = np.exp(1j * phase)
        m[..., 1, 1] = np.exp(-1j * phase)
    return Propagator(m)


def spin_strong_closed(
    axis: SpinAxis, omega: float, t_i: float, t: float | np.ndarray
) -> float | np.ndarray:
    """Closed-form strong expectation of the projector along ``axis``, per time in ``t``."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= t_i):
        raise ValueError(f"need t >= t_i, got t={t}, t_i={t_i}")
    a = omega * (t - t_i)
    if axis is SpinAxis.X_PLUS:
        return 0.5 * (1.0 + np.cos(a))
    if axis is SpinAxis.X_MINUS:
        return 0.5 * (1.0 - np.cos(a))
    if axis is SpinAxis.Y_PLUS:
        return 0.5 * (1.0 - np.sin(a))
    return 0.5 * (1.0 + np.sin(a))


def spin_weak_kernel(
    omega: float, t_i: float, t: float | np.ndarray, t_f: float, post: PostChoice
) -> complex | np.ndarray:
    """Weak value of the +x projector via the numeric kernel (ground truth).

    ``t`` is one time or a 1-D array of times; an array gives one value per
    time, from propagator stacks of a block of times at a time.  The
    operands are checked before any propagator is built.
    """
    t = _check_operands(omega, t_i, t, t_f)
    observable = projector_from_state(X_PLUS)

    def per_time(times):
        u_mid, u_late = spin_propagator(omega, times - t_i), spin_propagator(omega, t_f - times)
        return weak_value(X_PLUS, post.value, observable, u_mid, u_late)

    return _in_blocks(per_time, t)


def spin_weak_closed(
    omega: float, t_i: float, t: float | np.ndarray, t_f: float, post: PostChoice
) -> complex | np.ndarray:
    """Closed-form weak value of the +x projector, pre-selected along +x.

    Half-angles below: ``a`` for the elapsed interval, ``b`` for the
    remaining interval, ``h`` for the whole window.  The denominator depends
    on the window only, so it is checked once for every time in ``t`` (one
    time or a 1-D array), or once per block of times of a long grid.
    """
    t = _check_operands(omega, t_i, t, t_f)
    h = 0.5 * omega * (t_f - t_i)
    what = f"{post.name} post-selection"

    def per_time(times):
        a = 0.5 * omega * (times - t_i)
        b = 0.5 * omega * (t_f - times)
        if post is PostChoice.X_PLUS:
            value = np.cos(a) * np.cos(b) / nonsingular(math.cos(h), what)
        elif post is PostChoice.X_MINUS:
            value = 0.5 - np.sin(a - b) / (2.0 * nonsingular(math.sin(h), what))
        else:
            value = np.cos(a) * (np.cos(b) - np.sin(b)) / nonsingular(math.cos(h) - math.sin(h), what)
        return value + 0j

    return _in_blocks(per_time, t)

