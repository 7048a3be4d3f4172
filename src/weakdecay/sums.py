"""Truncated Lorentzian lattice sums.

Two spectral sums underpin the decay model's continuum limit:

    delta_e * sum_k 1 / (gamma^2 + k^2 delta_e^2)            ->  pi / gamma
    delta_e * sum_k e^{i k delta_e t} / (gamma^2 + ...)      ->  (pi/gamma) e^{-gamma t}

(sums over all integers k, limits as delta_e -> 0, t >= 0).  At finite
spacing both have an exact closed form in hyperbolic functions
(:func:`weakdecay.laws.phased_closed_form`), which the truncated sums here
are checked against.

Accumulation details: terms are combined in (k, -k) pairs so the phased
sum's imaginary part cancels exactly, partial sums are taken over fixed-size
chunks (and blocks of far rows) of 2^18 k, and their totals are combined per
time with compensated (TwoSum) summation (Ogita, Rump & Oishi 2005), which
for a single chunk gives the correctly rounded sum with the center term;
million-term sums lose several digits if accumulated naively.
The terms lie in rows of width W, with W near sqrt(k_max) and at most 1024:
row r is centred on B = r W and holds k = B + m for -W/2 <= m < W/2 (row 0's
k <= 0 and the last row's tail are zero, so row 0's large weights near
k = 1 meet cos(0) = 1 and sin(0) = 0).  Each +m pairs with its -m, and with
a = delta_e t

    c_{B+m} cos((B+m) a) + c_{B-m} cos((B-m) a)
        = cos(B a) cos(m a) (c_{B+m} + c_{B-m}) - sin(B a) sin(m a) (c_{B+m} - c_{B-m}),

so a row's even and odd parts meet the offset tables cos(m a) and sin(m a)
over W/2 + 1 offsets.  A near row's weights are formed, only for
1 <= k <= k_max and 2^15 at a time, and :func:`_fold` lays them into a reused
workspace of folded rows (2 MiB per chunk when every row is near), which
meets the offset tables in two matrix products: one multiply-add per
(time, k) pair.  In the phased Lorentzian sum, every row from r = 16 on that
lies wholly inside 1..k_max is far once W >= 512: its centre lies 16 W or
more from the pole k = i gamma / delta_e, so its weights are a power series
in m / W with ratio at most 1/32.  The far rows run in blocks of their own,
whose products are 16 moments of the offset tables, formed once per block of
times, times each row's 16 coefficients, and no far weight is formed.  The
default sum (101 times, k_max = 1e6) forms and folds 17 of its 978 rows, in
one chunk of 16 and one of 1, and sums rows 16 to 976 in four blocks.  The
base tables cos(B a), sin(B a) and the offset tables hold (k_max / W + W / 2)
T entries for a grid of T times, each one angle addition from a coarse and a
fine table of library sines and cosines of about sqrt(width) entries each, so
no error builds up along a table.  Times are taken in blocks so that the
tables stay small for any grid size.  :func:`lattice_sums` runs the near-row route on a
stack of a caller's cosine and sine weight sets at the same angles, whose
sines pair the same way, the even part against cos(m a) and the odd part
against sin(m a): every set meets the same tables, in one matrix product per
table and chunk.  The decay model's emission overlap sums its bath lattice
through it.

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

from . import laws
from .core import check_phase_times

# Weights per chunk of near rows, or block of far rows, and set; every chunk is
# folded into one reused workspace, 2 MiB per set at the default width when
# all rows are near (4 MiB at 2^19), its weights formed in blocks of _FOLD_ENTRIES,
# which pay for the extra chunks: the default sum (101 times, k_max = 1e6,
# four chunks), when it formed all its rows, ran as fast as it did in two
# chunks of 2^19.
# Chunks of 2^17 ran it 7% slower: eight chunks, each with its own base-table
# _trig call, and products over 128 rows, which BLAS runs less well than 256.
_CHUNK = 1 << 18
_WIDTH = 1 << 10  # the widest row, so a chunk has at least _CHUNK / _WIDTH rows
# Weights formed at once, within a chunk, before they are folded: 256 KiB, so a
# block and its folds stay in L2 cache.  The default sum ran 12% faster than
# with blocks of 2^16, and 6% faster than with blocks of 2^14.
_FOLD_ENTRIES = 1 << 15
# Times are taken in blocks so that each sine or cosine table (times x offsets,
# times x bases) holds at most this many entries, whatever the grid's size.
# It is not tied to _CHUNK: a smaller chunk leaves the time blocks as they are.
_TABLE_ENTRIES = 1 << 18
# A Lorentzian row centred on B = r W is far, and summed from the Taylor series
# of its weights in u = m / W, when it lies wholly inside 1..k_max and r >=
# _RADIUS, so that |z| >= r W >= _RADIUS W for z = B - i c, whatever c: then
# |m / z| <= 1 / (2 _RADIUS) = 1/32 over the row, and the p-th term of
# Im[1 / (z + m)] is at most (p + 1) 32^-p of the row's smallest weight
# (|sin(n theta)| <= n |sin(theta)|).  _TERMS terms leave at most
# 1.1 * 17 * 32^-16 = 1.6e-23 of every weight, far below its rounding.
_RADIUS = 16
_TERMS = 16
# Rows narrower than this are all formed: there the _TERMS moments cost about
# as much as the W/2 + 1 offsets they replace, and the series ran 1.0-1.4x
# the formed route's time at W = 32 and 0.7-1.15x at W = 256, against
# 0.34-0.90x from W = 512 (101 to 1e5 times, one BLAS thread).
_SERIES_WIDTH = 1 << 9


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
        problems = laws.lattice_problems(self.gamma, self.delta_e)
        if not isinstance(self.k_max, (int, np.integer)):
            problems.append(f"k_max: need an integer, got {self.k_max}")
        elif self.k_max < 0:
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
    if not (math.isfinite(delta_e) and delta_e > 0):
        raise ValueError(f"delta_e: need a finite value > 0, got {delta_e}")
    return 2.0 / (k_max * delta_e)


def lorentzian_sum(p: SumParams, include_center: bool = True) -> float:
    """Truncated ``delta_e * sum_{|k| <= k_max} 1 / (gamma^2 + k^2 delta_e^2)`` (phased, t = 0)."""
    return phased_lorentzian_sum(p, 0.0, include_center).real


def phased_lorentzian_sum(
    p: SumParams, t: float | np.ndarray, include_center: bool = True
) -> complex | np.ndarray:
    """Truncated ``delta_e * sum_{|k| <= k_max} e^{i k delta_e t} / (gamma^2 + k^2 delta_e^2)``.

    ``t`` is one time or a 1-D array of finite times ``>= 0``, giving one
    value per time; a ValueError names the largest ``|t|`` if a table's
    phase ``k delta_e t`` overflows.  Symmetric (k, -k) pairing makes the
    imaginary part vanish identically.  Beyond ``k_max = 2^16``, far rows
    are summed from the Taylor series of their weights (``expand``), so
    only near rows' weights are formed.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if times.ndim != 1 or not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError(f"t: need finite times >= 0, as one time or a 1-D array, got {t}")
    width, rows = _layout(p.k_max)
    check_phase_times(times, p.delta_e * rows * width)

    def form(lo: int, hi: int) -> np.ndarray:
        w = np.arange(lo, hi, dtype=float)  # k, then in place
        w *= w  # 2 delta_e / (gamma^2 + k^2 delta_e^2)
        w *= p.delta_e**2
        w += p.gamma**2
        return np.divide(2.0 * p.delta_e, w, out=w)[None, None]  # one kind (cosines) of one set

    def expand(lo: int, hi: int) -> np.ndarray:
        """The same weights' series coefficients on the rows ``lo <= r < hi``, one line per power ``p``.

        The weights are ``(2 / (delta_e c)) Im[1 / (k - i c)]``, ``c = gamma /
        delta_e``, so row ``r``'s are ``sum_p a_p (m/W)^p`` with ``a_p = (2 /
        (delta_e c)) Im[(-W/z)^p / z]``, ``z = r W - i c``.  No power of
        ``-W/z`` exceeds ``1 / _RADIUS``, so none overflows where ``c`` is tiny.
        """
        term = 1.0 / (width * np.arange(lo, hi, dtype=float) - 1j * pole)  # 1 / z
        ratio = -width * term
        block = np.empty((_TERMS, hi - lo))
        for line in block:
            line[:] = term.imag
            term *= ratio
        block *= 2.0 / (p.delta_e * pole)
        return block

    center = p.delta_e / p.gamma**2 if include_center else 0.0
    pole = p.gamma / p.delta_e
    values = _lattice(p.delta_e * times, p.k_max, form, center, expand=expand)[0].astype(complex)
    return values if np.ndim(t) else complex(values[0])


def lattice_sums(angle: np.ndarray, cos_rows: np.ndarray, sin_rows: np.ndarray | None = None) -> np.ndarray:
    """``sum_{k=1}^K cos_rows[j, k-1] cos(k a) + sin_rows[j, k-1] sin(k a)`` for each row ``j`` and angle ``a``.

    ``angle`` must be a 1-D array of finite angles whose multiples up to
    about ``K`` stay finite, ``cos_rows`` a 2-D array of finite real weights,
    one set of ``K`` per row, and ``sin_rows`` None, for no sines, or such an
    array of the same shape; a ValueError names the first that fails.  The
    sets go through the same rows, tables and compensated summation as the
    Lorentzian sums' near rows: they meet the offset and base tables, formed
    once for the angles, in one matrix product per table and chunk, so a
    stack costs the trig calls of one set, and each row of the result is
    that row's sum alone (a one-row stack), bit for bit.
    """
    angles = np.asarray(angle, dtype=float)
    if angles.ndim != 1 or not np.all(np.isfinite(angles)):
        raise ValueError(f"angle: need a 1-D array of finite angles, got {angle}")
    kinds = [np.asarray(cos_rows)] + ([] if sin_rows is None else [np.asarray(sin_rows)])
    for name, w in zip(("cos_rows", "sin_rows"), kinds):
        if w.ndim != 2 or w.dtype.kind not in "iuf" or not np.all(np.isfinite(w)):
            raise ValueError(f"{name}: need a 2-D array of finite real weights, got {w}")
    if kinds[1:] and kinds[1].shape != kinds[0].shape:
        need, got = (" x ".join(map(str, w.shape)) for w in kinds)
        raise ValueError(f"sin_rows: need {need} weights, as many as cos_rows, got {got}")
    weights = np.stack(kinds).astype(float, copy=False)  # kinds x sets x K
    width, rows = _layout(weights.shape[-1])
    check_phase_times(angles, rows * width, "angle")
    return _lattice(angles, weights.shape[-1], lambda lo, hi: weights[:, :, lo - 1 : hi - 1])


def _layout(k_max: int) -> tuple[int, int]:
    """Row width ``W`` and row count of a lattice of ``1 <= k <= k_max``.

    ``W`` is the smallest power of two ``>= sqrt(k_max)`` from 2 up to
    _WIDTH, so that the base and offset tables are about equally costly;
    row ``r`` holds ``k = r W + m`` with ``-W/2 <= m < W/2``.
    """
    width = max(2, min(_WIDTH, 1 << math.isqrt(max(k_max - 1, 0)).bit_length()))
    return width, (-(-(k_max + 1 + width // 2) // width) if k_max else 0)


def _lattice(angles: np.ndarray, k_max: int, form, center: float = 0.0, expand=None) -> np.ndarray:
    """``center + sum_{k=1}^{k_max} c_k cos(k a) + s_k sin(k a)`` for each angle ``a``, one row per set.

    ``form(lo, hi)`` returns the weights of ``lo <= k < hi`` for any ``1 <=
    lo <= hi <= k_max + 1`` as a ``(kinds, sets, hi - lo)`` block: kind 0
    holds each set's ``c_k`` and kind 1, if there are sines, its ``s_k``.
    ``expand(lo, hi)``, for one set of cosines alone, returns the series
    coefficients of the rows ``lo <= r < hi``: once rows are
    ``_SERIES_WIDTH`` wide, every row from ``_RADIUS`` on that lies wholly
    inside ``1..k_max`` is far, and ``form`` is asked only for the near rows
    before and after them.  The near rows are folded (:func:`_fold`) in
    chunks of ``_CHUNK / W`` rows; the far rows run in blocks of as many
    rows, each its coefficients times the moments of :func:`_moments`.
    Every chunk and block total is one part of a TwoSum per set and angle.
    The callers check that every table's phase stays finite.
    """
    width, rows = _layout(k_max)
    kinds, sets, _ = form(1, 1).shape
    chunk = max(1, _CHUNK // width)  # rows of each set in a chunk, and far rows in a block
    far_lo = min(_RADIUS, rows) if expand and width >= _SERIES_WIDTH else rows
    far_hi = max(far_lo, min(rows, (k_max + 1 + width // 2) // width))  # past the rows that end by k_max
    near = [  # each chunk's rows lo <= r < hi
        (lo, min(lo + chunk, end)) for begin, end in ((0, far_lo), (far_hi, rows)) for lo in range(begin, end, chunk)
    ]
    longest = min(chunk, max(far_lo, rows - far_hi))
    folds = np.empty((kinds, 2, sets, longest, width // 2 + 1))  # every chunk's
    values = np.empty((sets, len(angles)))
    step = _TABLE_ENTRIES // width
    for start in range(0, len(angles), step):
        angle = angles[start : start + step]
        tables = _trig(angle, 0, 1, width // 2 + 1)  # the offsets 0 <= m <= W/2
        parts = []
        for lo, hi in near:
            chunk_folds = folds[:, :, :, : hi - lo]
            _fold(form, lo * width, k_max, chunk_folds)
            parts.append(_chunk_sum(lo * width, width, angle, tables, chunk_folds))
        if far_lo < far_hi:
            along, across = _moments(tables, width)
            for lo in range(far_lo, far_hi, chunk):
                block = expand(lo, min(lo + chunk, far_hi))
                base_cos, base_sin = _trig(angle, lo * width, width, block.shape[1])
                parts.append(np.sum((along @ block) * base_cos - (across @ block) * base_sin, axis=-1))
        total = np.full((sets, len(angle)), center)
        error = np.zeros((sets, len(angle)))
        for part in parts:
            # TwoSum: the rounding error of total + part, exactly
            new = total + part
            seen = new - total
            error += (total - (new - seen)) + (part - seen)
            total = new
        values[:, start : start + step] = total + error
    return values


def _moments(tables, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The offset tables times the even and odd folds of ``u^p``, ``u = m / W``: ``(angles, _TERMS)`` each.

    A far row's weights are ``sum_p a_p u^p`` (``expand`` in
    :func:`phased_lorentzian_sum`), so its even and odd folds are ``sum_p
    a_p`` times these folds, and its products with the offset tables are
    these moments times its ``a_p``.
    """
    half = width // 2
    powers = (np.arange(half + 1) / width) ** np.arange(_TERMS)[:, None]  # u^p for 0 <= m <= W/2
    mirrored = powers * (-1.0) ** np.arange(_TERMS)[:, None]  # (-u)^p
    even, odd = powers + mirrored, powers - mirrored
    even[:, 0] = powers[:, 0]  # w_B alone
    even[:, half], odd[:, half] = mirrored[:, half], -mirrored[:, half]  # w_{B - W/2} alone
    offset_cos, offset_sin = tables
    return offset_cos @ even.T, offset_sin @ odd.T


def _fold(form, base: int, k_max: int, folds: np.ndarray) -> None:
    """Fill ``folds``, a ``(kinds, 2, S, R, W/2 + 1)`` view, with ``R`` rows of folded weights per set.

    Row ``r`` holds ``k = B + m`` for ``-W/2 <= m < W/2`` about its centre
    ``B = base + r W``.  Entry ``[i, 0, j, r, m]`` holds the even part
    ``w_{B+m} + w_{B-m}`` of the weights ``form`` gives as kind ``i`` of set
    ``j``, and ``[i, 1, j, r, m]`` the odd part ``w_{B+m} - w_{B-m}``; at ``m
    = 0`` the even part is ``w_B`` alone, and at ``m = W/2`` only ``w_{B-m}``
    is in the row.  The weights are formed a few rows at a time, one block
    per call of ``form``, so only the folds are chunk-sized, and only for
    ``1 <= k <= k_max``: a block that runs past either end (row 0's ``k <=
    0``, the last row's tail) is padded with zeros.
    """
    half = folds.shape[-1] - 1
    width = 2 * half
    block = max(1, _FOLD_ENTRIES // width)
    for lo in range(0, folds.shape[3], block):
        size = min(block, folds.shape[3] - lo)
        start = base - half + lo * width  # the block's first k
        stop = start + size * width
        inside = max(start, 1), min(stop, k_max + 1)
        w = form(*inside)
        if inside != (start, stop):  # not np.pad, three times as slow on such a block
            w, inner = np.zeros(w.shape[:2] + (stop - start,)), w
            w[:, :, inside[0] - start : inside[1] - start] = inner
        w = w.reshape(w.shape[:2] + (size, width))  # each row's centre at column W/2
        for kind_w, kind_folds in zip(w, folds):  # the cosines', then the sines'
            for j, rows in enumerate(kind_w):
                even, odd = kind_folds[:, j, lo : lo + size]
                above, below = rows[:, half + 1 :], rows[:, half - 1 : 0 : -1]
                np.add(above, below, out=even[:, 1:half])
                np.subtract(above, below, out=odd[:, 1:half])
                even[:, 0], odd[:, 0] = rows[:, half], 0.0
                # not np.negative(..., out=): numpy 2.4 miscomputes it on such strided columns
                even[:, half], odd[:, half] = rows[:, 0], -rows[:, 0]


def _chunk_sum(base: int, width: int, angle: np.ndarray, tables, folds) -> np.ndarray:
    """``sum_k c_k cos(k a) + s_k sin(k a)`` over a chunk of folded rows, per set and angle ``a``.

    Row ``r``'s centre is ``B = base + r W``.  With ``e`` and ``o`` the even
    and odd parts of its weights (:func:`_fold`), the pairs ``B +- m`` give
    ``cos(B a) (e_c cos(m a) + o_s sin(m a)) - sin(B a) (o_c sin(m a) - e_s cos(m a))``,
    so each set's rows meet the offset tables in matrix products over ``W/2
    + 1`` offsets, one per table for all sets, and all sets share the base
    tables.  Every set's product has the shape of its own sum's.
    """
    offset_cos, offset_sin = tables
    even, odd = folds[0].transpose(0, 1, 3, 2)  # sets x offsets x rows
    base_cos, base_sin = _trig(angle, base, width, even.shape[-1])
    along = offset_cos @ even  # sets x angles x rows
    across = offset_sin @ odd
    if len(folds) > 1:
        sin_even, sin_odd = folds[1].transpose(0, 1, 3, 2)
        along += offset_sin @ sin_odd
        across -= offset_cos @ sin_even
    along *= base_cos
    across *= base_sin
    along -= across
    return np.sum(along, axis=-1)


def _trig(angle: np.ndarray, first: int, step: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``cos`` and ``sin`` of ``(first + j step) a`` for ``j < count``, one row per angle ``a``.

    With ``j = q F + p`` and ``p < F``, about ``sqrt(count)`` each, the
    entries come by angle addition from a fine table of ``(first + p step) a``
    and a coarse one of ``q F step a``: one rounding step from exact library
    calls, with no error building up along ``j``.
    """
    fine = math.isqrt(count - 1) + 1
    coarse = -(-count // fine)
    head = np.multiply.outer(angle, first + step * np.arange(fine, dtype=float))
    tail = np.multiply.outer(angle, step * fine * np.arange(coarse, dtype=float))
    head_cos, head_sin = np.cos(head)[:, None, :], np.sin(head)[:, None, :]
    tail_cos, tail_sin = np.cos(tail)[:, :, None], np.sin(tail)[:, :, None]
    cos = tail_cos * head_cos
    cos -= tail_sin * head_sin
    sin = tail_sin * head_cos
    sin += tail_cos * head_sin
    shape = (len(angle), coarse * fine)
    return cos.reshape(shape)[:, :count], sin.reshape(shape)[:, :count]

