"""Closed-form reference laws, grouped by the limit each one takes.

The continuum takes ``N -> inf`` and then ``delta_e -> 0`` at a fixed
``gamma = pi H^2 / delta_e``: the amplitudes out of the excited reference
atom (:func:`u00_limit`, :func:`un0_limit`), the generalized decay law of a
post-selected weak value (:func:`decay_law`) and the limit of the phased
Lorentzian lattice sum.  A fixed spacing keeps ``delta_e`` as ``N -> inf``:
the phased sum over all integers has an exact value
(:func:`phased_closed_form`).  The finite bath (:mod:`weakdecay.decay`) and
the truncated sums (:mod:`weakdecay.sums`) are the numeric routes checked
against these laws.
"""

from __future__ import annotations

import math

import numpy as np

from .core import check_times, check_window, nonsingular


# ---------------------------------------------------------------- the continuum
def u00_limit(gamma: float, t: float | np.ndarray) -> complex | np.ndarray:
    """Survival amplitude ``e^{-gamma t}`` of the excited reference atom, per time in ``t``."""
    t = np.asarray(t, dtype=float)
    check_times(t)
    return np.exp(-gamma * t) + 0j


def un0_limit(gamma: float, delta_e: float, n: int, t: float | np.ndarray) -> complex | np.ndarray:
    """Amplitude ``i H (e^{(-gamma + i n delta_e) t} - 1) / (gamma - i n delta_e)``, per time in ``t``.

    On the bath atom detuned by ``n * delta_e``, in the interaction picture,
    with the coupling eliminated through ``H = sqrt(gamma * delta_e / pi)``.
    The bracket is formed by ``expm1``, so a small exponent keeps its digits;
    a phase ``n delta_e t`` that is not finite is refused unless the time has
    decayed, ``e^{-gamma t}`` underflowing to 0, where the bracket is -1.
    """
    t = np.asarray(t, dtype=float)
    check_times(t)
    if not (math.isfinite(delta_e) and delta_e > 0):
        raise ValueError(f"delta_e must be positive and finite, got {delta_e}")
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    square = gamma * delta_e / math.pi
    if not math.isfinite(square):
        raise ValueError(f"gamma: H^2 = gamma delta_e / pi overflows at ({gamma}, {delta_e})")
    detuning = n * delta_e
    if not math.isfinite(detuning):
        raise ValueError(f"n: the detuning n delta_e overflows at ({n}, {delta_e})")
    h = math.sqrt(square)
    pole = gamma - 1j * detuning
    if abs(pole) == 0.0:
        raise ValueError("gamma and the detuning cannot both vanish")
    if not math.isfinite(h / abs(pole)):
        raise ValueError(f"gamma: the scale H / |gamma - i n delta_e| overflows at ({gamma}, {delta_e}, {n})")
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf and an overflow are sorted out below
        rate = gamma * t
        phase = detuning * t if detuning else np.zeros(t.shape)  # 0 on resonance, also at t = inf
        decayed = np.exp(-rate) == 0.0  # e^{x t} is 0 there, but expm1 of an infinite phase is NaN
    if not np.all(decayed | np.isfinite(phase)):
        raise ValueError(f"t: the phase n delta_e t is not finite at ({n}, {delta_e}, {float(np.max(t))})")
    exponent = np.asarray(-rate + 1j * np.where(decayed, 0.0, phase))
    bracket = np.expm1(exponent, out=np.full(exponent.shape, -1.0 + 0j), where=~decayed)
    return 1j * (h / pole) * bracket  # H / pole first: H (e^{x t} - 1) may underflow


def survival_limit(gamma: float, t: float | np.ndarray) -> np.ndarray:
    """Survival probability ``|U00|^2 = e^{-2 gamma t}``, per time ``t >= 0``."""
    check_times(t)
    return np.exp(-2.0 * gamma * np.asarray(t, dtype=float))


def decay_law(gamma: float, x: complex, t_i: float, t, t_f: float) -> complex | np.ndarray:
    """The law ``e^{-gamma (t-t_i)} (1 - e^{x (t_f-t)}) / (1 - e^{x (t_f-t_i)})``, per time in ``t``.

    ``x = -gamma + i e_diff`` post-selects one quantum emitted at the energy
    offset ``e_diff`` from the reference atom, ``x = -2 gamma`` the full
    emission state.  Both give 1 at ``t_i`` and 0 at ``t_f``; at ``e_diff = 0``
    both tend to ``e^{-gamma (t - t_i)}`` as ``t_f -> inf``.
    """
    t = check_window(t_i, t, t_f)
    denom = nonsingular(1.0 - np.exp(x * (t_f - t_i)), "decay-law window")
    return np.exp(-gamma * (t - t_i)) * (1.0 - np.exp(x * (t_f - t))) / denom


def lattice_limit(gamma: float, t: float | np.ndarray) -> float | np.ndarray:
    """Limit ``(pi/gamma) e^{-gamma t}`` of the phased lattice sum, one ``math.exp`` per time ``t >= 0``.

    ``gamma`` must be a finite rate > 0, as :func:`lattice_problems` words it.
    """
    if problem := _rate_problem("gamma", gamma):
        raise ValueError(problem)
    check_times(t)
    values = [math.pi / gamma * math.exp(-gamma * s) for s in np.ravel(t).tolist()]
    return np.reshape(values, np.shape(t))[()]


# ---------------------------------------------------------------- a fixed spacing
def _rate_problem(name: str, value: float) -> str | None:
    """What keeps the parameter ``name`` from a finite ``value > 0``; or None."""
    return None if math.isfinite(value) and value > 0 else f"{name}: need a finite value > 0, got {value}"


def lattice_problems(gamma: float, delta_e: float) -> list[str]:
    """What keeps ``(gamma, delta_e)`` from naming a Lorentzian lattice, one line each."""
    problems = []
    square = gamma * gamma  # the center term is delta_e / gamma**2
    if problem := _rate_problem("gamma", gamma):
        problems.append(problem)
    elif math.isfinite(delta_e) and not (0.0 < square < math.inf and math.isfinite(delta_e / square)):
        problems.append(f"gamma: center term delta_e / gamma**2 is not finite at {gamma}")
    if problem := _rate_problem("delta_e", delta_e):
        problems.append(problem)
    elif not math.isfinite(delta_e * delta_e):  # the terms use delta_e**2
        problems.append(f"delta_e: delta_e**2 is not finite at {delta_e}")
    elif not math.isfinite(2.0 * math.pi / delta_e):
        problems.append(f"delta_e: recurrence time 2 pi / delta_e overflows at {delta_e}")
    return problems


def phased_closed_form(gamma: float, delta_e: float, t: float | np.ndarray) -> float | np.ndarray:
    """Exact full-lattice value of the phased sum, per time ``0 <= t <= 2 pi / delta_e``.

    Equals ``(pi/gamma) cosh((pi - delta_e t) gamma / delta_e) / sinh(pi gamma / delta_e)``
    in overflow-safe exponential form: the plain sum's ``(pi/gamma) coth(pi gamma / delta_e)``
    at ``t = 0``, and exponentially close to ``(pi/gamma) e^{-gamma t}`` within half a
    recurrence period.  A ValueError names what :func:`lattice_problems` finds.
    """
    if problems := lattice_problems(gamma, delta_e):
        raise ValueError("; ".join(problems))
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= delta_e * t) & (delta_e * t <= 2.0 * math.pi)):
        raise ValueError("closed form valid for 0 <= delta_e * t <= 2 pi")
    a = math.pi * gamma / delta_e
    b = gamma * t
    return (math.pi / gamma) * (np.exp(-b) + np.exp(b - 2.0 * a)) / -math.expm1(-2.0 * a)
