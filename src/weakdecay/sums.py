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
tables stay small for any grid size.  :func:`lattice_sum` runs the same
route on a caller's cosine and sine weights, with
sin(k a) = sin(b a) cos(m a) + cos(b a) sin(m a) for the sines: the decay
model's emission overlap sums its bath lattice through it.

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

    def weights(start: int, size: int) -> tuple[np.ndarray, None]:
        cos_weights = np.arange(start, start + size, dtype=float)  # k, then in place
        cos_weights *= cos_weights  # 2 delta_e / (gamma^2 + k^2 delta_e^2)
        cos_weights *= p.delta_e**2
        cos_weights += p.gamma**2
        np.divide(2.0 * p.delta_e, cos_weights, out=cos_weights)
        cos_weights[p.k_max + 1 - start :] = 0.0  # padding up to a whole row
        return cos_weights, None

    center = p.delta_e / p.gamma**2 if include_center else 0.0
    values = _lattice(p.delta_e * times, p.k_max, weights, center).astype(complex)
    return values if np.ndim(t) else complex(values[0])


def lattice_sum(
    angle: np.ndarray, cos_weights: np.ndarray, sin_weights: np.ndarray | None = None
) -> np.ndarray:
    """``sum_{k=1}^K cos_weights[k-1] cos(k a) + sin_weights[k-1] sin(k a)`` for each angle ``a``.

    ``K`` is the length of the weights (``sin_weights`` may be None, for no
    sines); they go through the same chunks, tables and compensated
    summation as the Lorentzian sums.
    """

    def padded(w: np.ndarray, start: int, size: int) -> np.ndarray:
        part = w[start - 1 : start - 1 + size]
        return np.pad(part, (0, size - len(part)))  # zeros up to a whole row

    def weights(start: int, size: int) -> tuple[np.ndarray, np.ndarray | None]:
        sines = None if sin_weights is None else padded(sin_weights, start, size)
        return padded(cos_weights, start, size), sines

    return _lattice(np.asarray(angle, dtype=float), len(cos_weights), weights)


def _lattice(angles: np.ndarray, k_max: int, weights, center: float = 0.0) -> np.ndarray:
    """``center + sum_{k=1}^{k_max} c_k cos(k a) + s_k sin(k a)`` for each angle ``a``.

    ``weights(start, size)`` forms the chunk's ``c_k`` and ``s_k`` (or None
    for no sines) for ``k`` from ``start``, zero beyond ``k_max``.  Chunk
    totals are combined per angle by TwoSum.
    """
    # offsets m < width, the smallest power of two >= sqrt(k_max) up to _WIDTH,
    # so that the base and offset tables are about equally costly
    width = min(_WIDTH, 1 << math.isqrt(max(k_max - 1, 0)).bit_length())
    values = np.empty(len(angles))
    step = _TABLE_ENTRIES // width
    for lo in range(0, len(angles), step):
        angle = angles[lo : lo + step]
        offset = np.multiply.outer(angle, np.arange(width, dtype=float))
        tables = np.cos(offset), np.sin(offset)
        total = np.full(len(angle), center)
        error = np.zeros(len(angle))
        for start in range(1, k_max + 1, _CHUNK):
            size = min(_CHUNK, -(-(k_max + 1 - start) // width) * width)
            part = _chunk_sum(start, angle, tables, *weights(start, size))
            # TwoSum: the rounding error of total + part, exactly
            new = total + part
            seen = new - total
            error += (total - (new - seen)) + (part - seen)
            total = new
        values[lo : lo + step] = total + error
    return values


def _chunk_sum(start: int, angle: np.ndarray, tables, cos_weights, sin_weights) -> np.ndarray:
    """``sum_k c_k cos(k a) + s_k sin(k a)`` over the chunk of ``k`` from ``start``, per angle ``a``.

    The chunk's weights form one row of ``width`` offsets ``m`` per base
    ``b``; ``cos((b + m) a) = cos(b a) cos(m a) - sin(b a) sin(m a)`` and
    ``sin((b + m) a) = sin(b a) cos(m a) + cos(b a) sin(m a)`` turn the rows
    into matrix products with the offset tables.
    """
    offset_cos, offset_sin = tables
    width = offset_cos.shape[1]
    rows = cos_weights.reshape(-1, width).T
    sines = None if sin_weights is None else sin_weights.reshape(-1, width).T
    base = np.multiply.outer(angle, np.arange(start, start + len(cos_weights), width, dtype=float))
    # one times x bases table at a time beside the bases' angles
    along = offset_cos @ rows
    if sines is not None:
        along += offset_sin @ sines
    along *= np.cos(base)
    across = offset_sin @ rows
    if sines is not None:
        across -= offset_cos @ sines
    along -= np.multiply(np.sin(base, out=base), across, out=across)
    return np.sum(along, axis=1)


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
