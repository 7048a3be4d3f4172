"""Truncated Lorentzian lattice sums and their closed forms.

Two spectral sums underpin the decay model's continuum limit:

    delta_e * sum_k 1 / (gamma^2 + k^2 delta_e^2)            ->  pi / gamma
    delta_e * sum_k e^{i k delta_e t} / (gamma^2 + ...)      ->  (pi/gamma) e^{-gamma t}

(sums over all integers k, limits as delta_e -> 0, t >= 0).  At finite
spacing both have exact closed forms in hyperbolic functions, which this
module evaluates in overflow-safe form; the truncated numeric sums are kept
independent so each can check the other.

Accumulation details: terms are combined in (k, -k) pairs so the phased
sum's imaginary part cancels exactly, partial sums are taken over fixed-size
chunks of k, and chunk totals are combined per time with compensated
(TwoSum) summation (Ogita, Rump & Oishi 2005), which for a single chunk
gives the correctly rounded sum with the center term; million-term sums
lose several digits if accumulated naively.
Within a chunk, k = b + m splits into bases b and offsets m < W, and
cos(k a) = cos(b a) cos(m a) - sin(b a) sin(m a) with a = delta_e t: the
chunk's weights, one row per base, meet the exact offset tables cos(m a) and
sin(m a) in two matrix products.  A grid of T times then costs
(k_max / W + W) T sine-cosine pairs, not k_max T cosines, with W near
sqrt(k_max) and at most 1024; each term still comes from exact library calls,
so no error builds up along the grid.  Times are taken in blocks so that the
tables stay small for any grid size.

The optional ``include_center`` flag drops the k = 0 term.  The decay bath
has no level at zero detuning, so the centerless sum is the physically
matching one; its deviation from the continuum limit is the center term
``delta_e / gamma^2`` itself (plus exponentially small lattice corrections),
which is what gives the first-order convergence the tests measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_CHUNK = 1 << 20  # weights formed at once
_WIDTH = 1 << 10  # the widest offset range, so a chunk has at most _WIDTH bases
# Times are taken in blocks so that each sine or cosine table (times x offsets,
# times x bases) holds at most this many entries, whatever the grid's size.
_TABLE_ENTRIES = 1 << 18


@dataclass(frozen=True)
class SumParams:
    """Parameters of a truncated lattice sum.

    ``k_max * delta_e >= 100 * gamma`` is recommended for the default
    tolerances; see :func:`tail_bound`.
    """

    gamma: float
    delta_e: float
    k_max: int = 10**6

    def __post_init__(self):
        problems = []
        square = self.gamma * self.gamma  # the center term is delta_e / gamma**2
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            problems.append(f"gamma: need a finite value > 0, got {self.gamma}")
        elif math.isfinite(self.delta_e) and not (
            0.0 < square < math.inf and math.isfinite(self.delta_e / square)
        ):
            problems.append(f"gamma: center term delta_e / gamma**2 is not finite at {self.gamma}")
        if not (math.isfinite(self.delta_e) and self.delta_e > 0):
            problems.append(f"delta_e: need a finite value > 0, got {self.delta_e}")
        elif not math.isfinite(self.delta_e * self.delta_e):  # the terms use delta_e**2
            problems.append(f"delta_e: delta_e**2 is not finite at {self.delta_e}")
        elif not math.isfinite(self.recurrence_time):
            problems.append(f"delta_e: recurrence time 2 pi / delta_e overflows at {self.delta_e}")
        if self.k_max < 0:
            problems.append(f"k_max: need >= 0, got {self.k_max}")
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def recurrence_time(self) -> float:
        """Period ``2 pi / delta_e`` of the phased sum in ``t``."""
        return 2.0 * math.pi / self.delta_e


def tail_bound(k_max: int, delta_e: float) -> float:
    """Bound on the weight dropped beyond ``|k| > k_max``: ``2 / (k_max delta_e)``."""
    if k_max <= 0:
        raise ValueError("tail bound needs k_max >= 1")
    return 2.0 / (k_max * delta_e)


def lorentzian_sum(p: SumParams, include_center: bool = True) -> float:
    """Truncated ``delta_e * sum_{|k| <= k_max} 1 / (gamma^2 + k^2 delta_e^2)`` (phased, t = 0)."""
    return phased_lorentzian_sum(p, 0.0, include_center).real


def phased_lorentzian_sum(
    p: SumParams, t: float | np.ndarray, include_center: bool = True
) -> complex | np.ndarray:
    """Truncated ``delta_e * sum_{|k| <= k_max} e^{i k delta_e t} / (gamma^2 + k^2 delta_e^2)``.

    ``t`` is one time or a 1-D array of finite times ``>= 0``, giving one
    value per time.  Symmetric (k, -k) pairing makes the imaginary part
    vanish identically.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError(f"t: need finite times >= 0, got {t}")
    # offsets m < width, the smallest power of two >= sqrt(k_max) up to _WIDTH,
    # so that the base and offset tables are about equally costly
    width = min(_WIDTH, 1 << math.isqrt(max(p.k_max - 1, 0)).bit_length())
    center = p.delta_e / p.gamma**2 if include_center else 0.0
    values = np.empty(len(times), dtype=complex)
    step = _TABLE_ENTRIES // width
    for lo in range(0, len(times), step):
        angle = p.delta_e * times[lo : lo + step]
        offset = np.multiply.outer(angle, np.arange(width, dtype=float))
        tables = np.cos(offset), np.sin(offset)
        total = np.full(len(angle), center)
        error = np.zeros(len(angle))
        for start in range(1, p.k_max + 1, _CHUNK):
            part = _chunk_sum(p, start, width, angle, tables)
            # TwoSum: the rounding error of total + part, exactly
            new = total + part
            seen = new - total
            error += (total - (new - seen)) + (part - seen)
            total = new
        values[lo : lo + step] = total + error
    return values if np.ndim(t) else complex(values[0])


def _chunk_sum(p: SumParams, start: int, width: int, angle: np.ndarray, tables) -> np.ndarray:
    """``sum_k c_k cos(k a)`` over the chunk of ``k`` from ``start``, for each angle ``a``.

    The chunk's weights form one row of ``width`` offsets ``m`` per base
    ``b``; ``cos((b + m) a) = cos(b a) cos(m a) - sin(b a) sin(m a)`` turns
    the rows into two matrix products with the offset tables.
    """
    size = min(_CHUNK, -(-(p.k_max + 1 - start) // width) * width)
    weights = np.arange(start, start + size, dtype=float)  # k, then in place
    weights *= weights  # 2 delta_e / (gamma^2 + k^2 delta_e^2)
    weights *= p.delta_e**2
    weights += p.gamma**2
    np.divide(2.0 * p.delta_e, weights, out=weights)
    weights[p.k_max + 1 - start :] = 0.0  # padding up to a whole row
    rows = weights.reshape(-1, width).T
    base = np.multiply.outer(angle, np.arange(start, start + size, width, dtype=float))
    offset_cos, offset_sin = tables
    return np.sum(np.cos(base) * (offset_cos @ rows) - np.sin(base) * (offset_sin @ rows), axis=1)


def lorentzian_closed_form(gamma: float, delta_e: float) -> float:
    """Exact full-lattice value ``(pi/gamma) coth(pi gamma / delta_e)``.

    Raises ValueError for a ``gamma`` or ``delta_e`` that :class:`SumParams` rejects.
    """
    SumParams(gamma, delta_e, k_max=0)
    a = math.pi * gamma / delta_e
    return (math.pi / gamma) * (1.0 + math.exp(-2.0 * a)) / -math.expm1(-2.0 * a)


def phased_closed_form(gamma: float, delta_e: float, t: float | np.ndarray) -> float | np.ndarray:
    """Exact full-lattice value of the phased sum for ``0 <= t <= 2 pi / delta_e``.

    Equals ``(pi/gamma) cosh((pi - delta_e t) gamma / delta_e) / sinh(pi gamma / delta_e)``,
    evaluated in overflow-safe exponential form.  Within half a recurrence
    period it is exponentially close to ``(pi/gamma) e^{-gamma t}``.  An
    array ``t`` gives one value per time.  Raises ValueError for a ``gamma``
    or ``delta_e`` that :class:`SumParams` rejects.
    """
    SumParams(gamma, delta_e, k_max=0)
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= delta_e * t) & (delta_e * t <= 2.0 * math.pi)):
        raise ValueError("closed form valid for 0 <= delta_e * t <= 2 pi")
    a = math.pi * gamma / delta_e
    b = gamma * t
    return (math.pi / gamma) * (np.exp(-b) + np.exp(b - 2.0 * a)) / -math.expm1(-2.0 * a)
