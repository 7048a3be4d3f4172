"""Excited two-level atom decaying into a finite bath of two-level atoms.

The model: a reference atom, initially excited, is coupled with equal real
strength ``H`` to ``2N`` bath atoms whose excitation energies are equispaced
with spacing ``delta_e`` and symmetric about the reference energy (which is
set to zero).  Restricted to the single-excitation sector the Hamiltonian is
a ``(2N+1) x (2N+1)`` real symmetric arrowhead matrix.  Its spectrum comes
from the secular equation in O(N) per bath (eigenvalues plus the weights
``v_0k^2`` of the reference atom), and one generator turns it into blocks
of every amplitude out of the reference, for columns, elements and the
emission overlap alike: ``T`` times onto ``M`` atom pairs cost one real
``2T x N x M`` product with a paired Cauchy kernel, so an element costs
O(N) and a whole bath column O(N^2) per time.

In the scaling limit ``N -> inf``, ``delta_e -> 0`` with
``gamma = pi H^2 / delta_e`` held fixed, the survival amplitude of the
excited reference atom is exactly ``e^{-gamma t}`` and the amplitude
transferred to a bath atom detuned by ``n*delta_e`` is

    i H (e^{(-gamma + i n delta_e) t} - 1) / (gamma - i n delta_e)

(interaction picture).  Those closed forms generalize the exponential decay
law to post-selected weak values; the finite-N propagator provides the
independent numeric route the tests compare them against.

A finite equispaced bath revives after the recurrence time
``2 pi / delta_e``; every comparison against a limit law is guarded to stay
below half of it.

Conventions: the Schroedinger-picture propagator is ``U(t) = exp(-iHt)``;
interaction-picture elements carry an extra phase ``e^{+i E_n t}`` so they
match the closed forms above.  Basis slot 0 is the excited reference atom;
bath atom ``n`` (``-N <= n <= N``, ``n != 0``) lives at the slot given by
:func:`slot_of_atom`.  Natural units, hbar = 1.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .core import DENOM_FLOOR, Propagator, check_window
from .errors import (
    BeyondRecurrence,
    DegenerateWindow,
    DimensionMismatch,
    PostSelectionNull,
)

REFERENCE_SLOT = 0

# Largest N.  The O(N) spectrum and survival would allow far more, but
# columns, emission overlaps and projector scans are O(N^2) per time: one
# 101-point emission grid, a real product and fold, takes ~0.2 s at this cap.
MAX_N_HALF = 4000


@dataclass(frozen=True)
class BathSpec:
    """Finite single-excitation decay model parameters.

    ``n_half`` is N: the bath holds 2N atoms at detunings ``n*delta_e`` for
    ``-N <= n <= N``, ``n != 0``; the resonant slot (n = 0) is the reference
    atom itself.  ``gamma`` is derived as ``pi * coupling**2 / delta_e`` and
    stored exactly.
    """

    n_half: int
    delta_e: float
    coupling: float
    gamma: float = field(init=False)

    def __post_init__(self):
        problems = []
        if not 1 <= self.n_half <= MAX_N_HALF:
            problems.append(f"n_half: need 1 <= n_half <= {MAX_N_HALF}, got {self.n_half}")
        if not (math.isfinite(self.delta_e) and self.delta_e > 0):
            problems.append(f"delta_e: need a finite value > 0, got {self.delta_e}")
        if not (math.isfinite(self.coupling) and self.coupling >= 0):
            problems.append(f"coupling: need a finite value >= 0, got {self.coupling}")
        if problems:
            raise ValueError("; ".join(problems))
        ratio = self.coupling / self.delta_e
        if not math.isfinite(ratio * ratio):  # g of the secular equation
            raise ValueError(
                "coupling/delta_e: (coupling / delta_e)**2 overflows at "
                f"({self.coupling}, {self.delta_e})"
            )
        if not math.isfinite(self.recurrence_time):
            raise ValueError(f"delta_e: recurrence time 2 pi / delta_e overflows at {self.delta_e}")
        try:  # a product overflows to inf, but coupling**2 raises
            gamma = math.pi * self.coupling**2 / self.delta_e
        except OverflowError:
            gamma = math.inf
        if not math.isfinite(gamma):
            raise ValueError(f"gamma: pi H^2 / delta_e overflows at ({self.coupling}, {self.delta_e})")
        object.__setattr__(self, "gamma", gamma)

    @classmethod
    def from_gamma(cls, n_half: int, gamma: float, delta_e: float) -> "BathSpec":
        """Pick the coupling so the derived decay constant equals ``gamma``."""
        if not (math.isfinite(gamma) and gamma >= 0):
            raise ValueError(f"gamma: need a finite value >= 0, got {gamma}")
        # an invalid spacing is reported by the constructor, not by sqrt
        spacing = delta_e if math.isfinite(delta_e) and delta_e > 0 else 0.0
        return cls(n_half, delta_e, math.sqrt(gamma * spacing / math.pi))

    @property
    def dim(self) -> int:
        return 2 * self.n_half + 1

    @property
    def recurrence_time(self) -> float:
        return 2.0 * math.pi / self.delta_e

    @property
    def recurrence_guard(self) -> float:
        """Largest time at which limit-law comparisons remain meaningful."""
        return 0.5 * self.recurrence_time

    def check_recurrence(self, span: float) -> None:
        """Raise BeyondRecurrence unless the time span stays below the recurrence guard."""
        if span >= self.recurrence_guard:
            raise BeyondRecurrence(f"time {span} >= recurrence guard {self.recurrence_guard:.3g}")

    def bath_atoms(self) -> np.ndarray:
        """Bath atom indices in slot order (slots 1..2N)."""
        n = self.n_half
        return np.concatenate([np.arange(-n, 0), np.arange(1, n + 1)])


def default_bath() -> BathSpec:
    """Desk-scale bath: N = 2000 (4001 levels), gamma = 1, delta_e = 0.05.

    Its spectrum takes milliseconds.  The spacing keeps the band width
    ``2 N delta_e`` at 200 gamma so that finite-band transients sit well
    below the percent level, while the recurrence guard (~62 time units)
    leaves ample room for windows up to t_f ~ 10.
    """
    return BathSpec.from_gamma(2000, 1.0, 0.05)


def slot_of_atom(n_half: int, atom: int) -> int:
    """Basis slot of an atom index (0 = reference, otherwise a bath atom)."""
    if atom == 0:
        return REFERENCE_SLOT
    if not -n_half <= atom <= n_half:
        raise DimensionMismatch(f"atom index {atom} outside [-{n_half}, {n_half}]")
    return atom + n_half + 1 if atom < 0 else atom + n_half


class _Spectrum(NamedTuple):
    """Positive half of the arrowhead spectrum; the negative half mirrors it.

    Root ``j`` sits at ``x_j = cell_j + offset_j`` in units of ``delta_e``:
    eigenvalue ``lam_j = x_j * delta_e`` with reference weight
    ``weight_j = v_0j^2``, and ``-lam_j`` carries the same weight.  The
    exact root 0 carries ``weight0``.  ``scale`` is ``H / delta_e``, or 0
    for a decoupled bath; ``bath`` is the bath it was solved for.
    """

    cell: np.ndarray
    offset: np.ndarray
    lam: np.ndarray
    weight: np.ndarray
    weight0: float
    scale: float
    bath: BathSpec


# Cap on bisection steps: about 64 reach the last bit of an offset from its
# whole cell, about 4 from the 16-unit bracket around a start.
_MAX_BISECTIONS = 128


def _bisect(secular, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Offsets in ``(lo, hi]`` where the increasing ``secular`` changes sign, to the last bit.

    ``secular`` must be < 0 at each ``lo`` and >= 0 at each ``hi``; a whole
    cell ``(tiny, hi]`` needs no check at its ends.  Midpoints are geometric
    while a bracket spans more than a factor 4, so an offset far below 1 (a
    root next to its pole at weak coupling) still comes out to full relative
    precision.
    """
    for _ in range(_MAX_BISECTIONS):
        mid = np.where(hi > 4.0 * lo, np.sqrt(lo) * np.sqrt(hi), 0.5 * (lo + hi))
        if np.all((mid == lo) | (mid == hi)):
            break
        below = secular(mid) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return hi


def _refine(secular, start: np.ndarray, unit: np.ndarray, top) -> np.ndarray:
    """Offsets in ``(0, top]`` where ``secular`` changes sign, from starts a few ``unit`` away.

    Each start widens to a bracket 8 units to either side, which
    :func:`_bisect` finishes where ``secular`` is < 0 at its low end and
    >= 0 at its high end; any other offset is bisected over its whole cell
    ``(tiny, top]``.
    """
    tiny = np.finfo(float).tiny
    lo = np.maximum(start - 8.0 * unit, tiny)
    hi = np.minimum(start + 8.0 * unit, top)
    ends = secular(np.stack((lo, hi)))
    held = (ends[0] < 0.0) & (ends[1] >= 0.0)
    return _bisect(secular, np.where(held, lo, tiny), np.where(held, hi, top))


# Digamma and trigamma for arguments >= 1 (the secular equation's range).
# Arguments below _SHIFT are first raised by _SHIFT steps of the recurrence;
# from there the asymptotic series (Abramowitz & Stegun 6.3.18 and 6.4.12),
# cut after the Bernoulli terms below, errs by under 3e-17 relative.  The
# constants are 0-d arrays: numpy converts a Python float operand anew on
# every call, and a solve calls the digamma about 15 times.
_SHIFT = np.array(16.0)
_LATTICE = np.arange(_SHIFT)
_HALF = np.array(0.5)
# B_2k / 2k for k = 1..5 (digamma) and B_2k for k = 1..6 (trigamma)
_DIGAMMA_SERIES = tuple(np.array(c) for c in (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132))
_TRIGAMMA_SERIES = tuple(np.array(c) for c in (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730))


def _recurrence(a: np.ndarray, power: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``a`` with its entries below _SHIFT raised by _SHIFT, the mask of those, and their sums.

    The sums are ``sum_{j<_SHIFT} (a + j)^-power`` over the raised entries
    only; in the secular equation those are the last few cells.
    """
    low = a < _SHIFT
    steps = np.add.reduce(np.add.outer(a[low], _LATTICE) ** -power, axis=1)
    return np.where(low, a + _SHIFT, a), low, steps


def _series(w: np.ndarray, coeffs: tuple[np.ndarray, ...]) -> np.ndarray:
    """``sum_k coeffs[k-1] w^k`` by Horner's rule."""
    total = coeffs[-1] * w
    for c in coeffs[-2::-1]:
        total += c
        total *= w
    return total


def _digamma(a: np.ndarray) -> np.ndarray:
    """Digamma: ``psi(a) = psi(a + n) - sum_{j<n} 1/(a + j)`` with n = _SHIFT, then

        psi(z) ~ ln z - 1/(2z) - sum_k B_2k / (2k z^2k).
    """
    z, low, steps = _recurrence(a, 1)
    r = np.reciprocal(z)
    psi = np.log(z) - _HALF * r - _series(r * r, _DIGAMMA_SERIES)
    psi[low] -= steps
    return psi


def _trigamma(a: np.ndarray) -> np.ndarray:
    """Trigamma: ``psi1(a) = psi1(a + n) + sum_{j<n} 1/(a + j)^2`` with n = _SHIFT, then

        psi1(z) ~ 1/z + 1/(2z^2) + sum_k B_2k / z^(2k+1).
    """
    z, low, steps = _recurrence(a, 2)
    r = np.reciprocal(z)
    w = r * r
    psi1 = r * (1.0 + _series(w, _TRIGAMMA_SERIES)) + _HALF * w
    psi1[low] += steps
    return psi1


# Cap on the start iterations: the inner and the outer Newton settle in ~5
# and ~10 passes.  A start that has not settled fails its bracket.
_MAX_ITERATIONS = 64


def _inner_rows(n_half: int, cell: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``N+1-x`` (row 0) and ``N+1+x`` (row 1) at the inner-cell ``x = cell + s``.

    One digamma or trigamma call takes both rows: at small N a call costs
    mostly its fixed overhead.
    """
    return np.stack(((n_half + 1.0 - cell) - s, (n_half + 1.0 + cell) + s))


def _inner_secular(n_half: int, g: float, s: np.ndarray) -> np.ndarray:
    """``x - g S(x)`` in the inner cells, its pole term ``pi cot(pi s)`` exact."""
    cell = np.arange(1.0, n_half)
    x, psi = cell + s, _digamma(_inner_rows(n_half, cell, s))
    return x - g * (math.pi / np.tan(math.pi * s) - 1.0 / x - (psi[0] - psi[1]))


def _inner_start(n_half: int, g: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Inner offsets a few ulps from their roots, their bracket's unit (an ulp) and cells' end.

    The secular equation solved for its cotangent reads ``s = F(s) =
    atan2(g pi, b) / pi`` with ``b = x + g (1/x + digamma(N+1-x) -
    digamma(N+1+x))``, which maps each cell into itself and contracts.
    Newton steps on ``s - F(s)``, with ``F' = -g b' / ((g pi)^2 + b^2)`` and
    ``b' = 1 - g (1/x^2 + trigamma(N+1-x) + trigamma(N+1+x))``, run from the
    infinite lattice's ``atan2(g pi, n + 1/2) / pi`` until no step exceeds a
    few ulps.
    """
    g_pi = g * math.pi
    cell = np.arange(1.0, n_half)
    s = np.arctan2(g_pi, cell + 0.5) / math.pi
    for _ in range(_MAX_ITERATIONS):
        x, rows = cell + s, _inner_rows(n_half, cell, s)
        psi, psi1 = _digamma(rows), _trigamma(rows)
        b = x + g * (1.0 / x + (psi[0] - psi[1]))
        slope = -g * (1.0 - g * (1.0 / x**2 + psi1[0] + psi1[1])) / (g_pi * g_pi + b * b)
        step = (s - np.arctan2(g_pi, b) / math.pi) / (1.0 - slope)
        s = s - step
        if np.all(np.abs(step) <= 4.0 * np.spacing(s)):
            break
    return s, np.spacing(s), 1.0


def _outer_gaps(n_half: int) -> np.ndarray:
    """``x - n`` and ``x + n`` (``n = 1..N``) at the outer root ``x = N + s``, less ``s``."""
    return np.concatenate([np.arange(float(n_half)), np.arange(n_half + 1.0, 2.0 * n_half + 1.0)])


def _outer_terms(n_half: int, s: np.ndarray) -> np.ndarray:
    """The direct sum's terms ``1 / (x - n)`` at ``x = N + s``, one row per offset."""
    return 1.0 / (_outer_gaps(n_half) + s[..., None])


def _outer_secular(n_half: int, g: float, s: np.ndarray) -> np.ndarray:
    """``x - g S(x)`` at the outer root's ``x = N + s``, by the direct sum."""
    return (n_half + s) - g * np.sum(_outer_terms(n_half, s), axis=-1)


def _outer_start(n_half: int, g: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The outer offset near its root, its bracket's unit and the end of its cell.

    ``S(x) <= 2 N x / (x^2 - N^2)`` bounds the root by ``sqrt(N^2 + 2 N g)``
    (sharp at N = 1); the cell ends at twice that, beyond its rounding.
    Newton on ``s (x - g S(x))``, which has no pole, is negative at ``s = 0``
    and convex, falls from the bound onto the root until a step stops
    falling.  The secular function rounds like ``x``, which blurs its sign
    change over ``spacing(x) / slope`` in ``s``: the bracket's unit, or one
    ulp of ``s`` if larger.
    """
    r = math.sqrt(2.0 * n_half) * math.sqrt(g)
    s = np.array([r * (r / (math.hypot(n_half, r) + n_half))])
    top = 2.0 * s
    # at a subnormal offset 1/s overflows: the start turns nan and fails its bracket
    with np.errstate(invalid="ignore"):
        for _ in range(_MAX_ITERATIONS):
            terms = _outer_terms(n_half, s)
            secular = (n_half + s) - g * np.sum(terms, axis=-1)
            slope = 1.0 + g * np.sum(terms * terms, axis=-1)
            step = s * secular / (secular + s * slope)
            s = s - step
            if not np.any(step > 2.0 * np.spacing(s)):
                break
    return s, np.maximum(np.spacing(s), np.spacing(n_half + s) / slope), top


def _spectrum(bath: BathSpec) -> _Spectrum:
    """Eigenvalues and reference weights of the arrowhead from its secular equation, O(dim).

    With ``x = lambda / delta_e`` and ``g = (H / delta_e)^2`` the eigenvalues
    solve ``x = g S(x)``, ``S(x) = sum_{0<|n|<=N} 1/(x - n)``: the exact
    root 0, one root in each cell ``(n, n+1)`` for ``1 <= n < N``, one
    outer root beyond ``N``, and their mirror images.  Inside a cell
    ``x = n + s`` and

        S = pi cot(pi s) - 1/x - [digamma(N+1-x) - digamma(N+1+x)],

    so the cotangent keeps full precision; the outer root uses the direct
    sum.  Each root is first reached to within a few ulps without meeting a
    pole (:func:`_inner_start`, :func:`_outer_start`), then :func:`_refine`
    bisects a small bracket around it, whose signs it checks, to the last
    bit; a root whose bracket fails the check is bisected over its whole
    cell.  The weights are ``1 / (1 + g sum_n 1/(x - n)^2)``, whose sum has
    the closed form ``pi^2 csc^2(pi s) - 1/x^2 - trigamma(N+1-x) -
    trigamma(N+1+x)`` and is ``2 sum_{n<=N} 1/n^2`` at ``x = 0``.  The
    digamma and trigamma are the numpy :func:`_digamma` and :func:`_trigamma`.
    Nothing keeps a spectrum: each public routine checks its operands, then
    solves its bath once (1-4 ms up to the cap) for every helper it calls.
    """
    n_half = bath.n_half
    scale = bath.coupling / bath.delta_e
    g = scale * scale
    cell = np.arange(1.0, n_half + 1.0)
    if g == 0.0:  # decoupled: U00 = 1 and U_n0 = 0
        none = np.zeros(n_half)
        return _Spectrum(cell, none, cell * bath.delta_e, none, 1.0, 0.0, bath)

    inner = cell[:-1]
    # overflow to inf near a pole keeps the sign the bisection needs
    with np.errstate(over="ignore"):
        s_in = _refine(functools.partial(_inner_secular, n_half, g), *_inner_start(n_half, g))
        s_out = _refine(functools.partial(_outer_secular, n_half, g), *_outer_start(n_half, g))
        # g / d^2 as (scale / d)^2, so a tiny offset does not underflow
        x_in = inner + s_in
        gsq_in = (scale * math.pi / np.sin(math.pi * s_in)) ** 2
        psi1 = _trigamma(_inner_rows(n_half, inner, s_in))
        gsq_in -= g * (1.0 / x_in**2 + psi1[0] + psi1[1])
        gsq_out = np.sum((scale / (_outer_gaps(n_half) + s_out)) ** 2)
    offset = np.append(s_in, s_out)
    weight = 1.0 / (1.0 + np.append(gsq_in, gsq_out))
    weight0 = 1.0 / (1.0 + g * 2.0 * np.sum(1.0 / cell**2))
    return _Spectrum(cell, offset, (cell + offset) * bath.delta_e, weight, weight0, scale, bath)


def _pair_kernel(spec: _Spectrum, atoms: np.ndarray) -> np.ndarray:
    """The chirally paired Cauchy kernel ``1 / (x_j^2 - m^2)``, roots down, atoms across.

    Pairing the roots ``+-x_j`` (``x = lam / delta_e``) and the atoms ``+-m``
    folds ``H v_0k^2 / (lam_k - E_m)`` over the whole spectrum into

        U_m0(t) = H/delta_e [-weight0/m + sum_j 2 weight_j K_jm
                             (m cos(lam_j t) - i x_j sin(lam_j t))],

    so ``Re U_m0`` is odd and ``Im U_m0`` even in ``m``.  The denominator is
    taken from the offsets as ``(cell^2 - m^2) + offset (2 cell + offset)``,
    an exact integer plus a term as precise as the offset, not from
    ``lam_j - E_m`` in floats, which cancels for a root next to its pole.
    """
    kernel = np.subtract.outer(spec.cell**2, atoms**2)
    kernel += (spec.offset * (2.0 * spec.cell + spec.offset))[:, None]
    return np.reciprocal(kernel, out=kernel)


def bath_propagator(bath: BathSpec, t: float | np.ndarray) -> Propagator:
    """Dense Schroedinger propagator ``exp(-iHt)`` from the secular eigenvectors.

    The eigenvectors are ``v_mk = H v_0k / (lam_k - E_m)`` over all ``dim``
    eigenvalues.  Builds (and unitarity-checks) the full ``dim x dim``
    matrix, one per time for an array ``t``, which costs O(dim^3) each; use
    :func:`propagator_column` / :func:`propagator_element` for large baths
    when only amplitudes out of the reference slot are needed.
    """
    spec = _spectrum(bath)
    cell = np.concatenate([[0.0], spec.cell, -spec.cell])
    offset = np.concatenate([[0.0], spec.offset, -spec.offset])
    lam = np.concatenate([[0.0], spec.lam, -spec.lam])
    v0 = np.sqrt(np.concatenate([[spec.weight0], spec.weight, spec.weight]))
    denom = (cell - bath.bath_atoms()[:, None]) + offset
    if spec.scale == 0.0:  # decoupled: each bath level is an eigenvector
        rows = (denom == 0.0).astype(float)
    else:
        rows = spec.scale * v0 / denom
    vec = np.vstack([v0, rows])
    phase = np.multiply.outer(t, lam)[..., None, :]
    cos_part = (vec * np.cos(phase)) @ vec.T
    sin_part = (vec * np.sin(phase)) @ vec.T
    return Propagator(cos_part - 1j * sin_part)


# Largest block of entries formed at once (times x roots phases, roots x atoms
# kernels): memory grows with neither grid nor bath.
_BLOCK_ENTRIES = 1 << 20


def _blocks(count: int, width: int) -> list[slice]:
    """Slices over ``count`` rows of ``width`` entries, each holding at most ``_BLOCK_ENTRIES``."""
    step = max(1, _BLOCK_ENTRIES // width)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


# Most offsets per base in the angle-addition route of _phase_sums, which
# bounds its offset tables at _WIDTH x N entries whatever the grid's size.
_WIDTH = 1 << 8


def _progression_step(times: np.ndarray) -> Optional[float]:
    """The step ``h`` if ``times[k] == times[0] + h * k`` bit for bit for ``k < T - 1``, ``T >= 3``.

    ``h`` is ``(times[-1] - times[0]) / (T - 1)``; otherwise None.  The test
    has no tolerance, and skips the last point: ``np.linspace`` forms its
    points this way but sets its last one to its end, which then may leave
    the progression by a bit.
    """
    if len(times) < 3:
        return None
    step = (times[-1] - times[0]) / (len(times) - 1)
    head = times[:-1]
    return step if np.array_equal(head, times[0] + step * np.arange(len(head))) else None


def _phase_sums(
    times: np.ndarray, step: float, lam: np.ndarray, cos_weights: np.ndarray, sin_weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``cos(lam_j t) @ cos_weights`` and ``sin(lam_j t) @ sin_weights`` on a progression grid.

    One row per time ``times[0] + step * k``; the weights hold one column
    per sum over the ``N`` roots, ``cos_weights`` at least as many as
    ``sin_weights``.  Each time splits as ``t_(bW) + m h`` with ``W ~ sqrt(T)``
    offsets ``m < W``, and
    ``cos(lam (t_(bW) + m h)) = cos(lam t_(bW)) cos(lam m h) - sin(lam t_(bW)) sin(lam m h)``
    (likewise the sine) turns each base's weights against the offset tables
    into matrix products: ``(T/W + W) N`` sine-cosine pairs, not ``T N``
    library calls.  The last bits then differ from per-time calls, by ~2e-15
    measured.  Each base takes its own products, so blocks of bases cannot
    change a value.
    """
    width = min(math.isqrt(len(times) - 1) + 1, _WIDTH)
    offset = np.multiply.outer(step * np.arange(width), lam)
    offset_cos, offset_sin = np.cos(offset), np.sin(offset)
    bases = times[::width]
    cos_sums = np.empty((len(bases), width, cos_weights.shape[1]))
    sin_sums = np.empty((len(bases), width, sin_weights.shape[1]))
    for group in _blocks(len(bases), len(lam) * cos_weights.shape[1]):
        phase = np.multiply.outer(bases[group], lam)[..., None]
        base_cos, base_sin = np.cos(phase), np.sin(phase)
        cos_sums[group] = offset_cos @ (base_cos * cos_weights)
        cos_sums[group] -= offset_sin @ (base_sin * cos_weights)
        sin_sums[group] = offset_cos @ (base_sin * sin_weights)
        sin_sums[group] += offset_sin @ (base_cos * sin_weights)
    rows = len(bases) * width
    return cos_sums.reshape(rows, -1)[: len(times)], sin_sums.reshape(rows, -1)[: len(times)]


def _halves(spec: _Spectrum, atoms: np.ndarray, times: np.ndarray, interaction: bool):
    """Blocks ``(rows, U00, re, im)``, with ``U[+-m, 0] = +-re - i im``, at ``times[rows]``.

    The halves onto the atom pairs of magnitudes ``atoms`` are sums over the
    roots with the paired kernel (see :func:`_pair_kernel`).  At most one
    pair on a progression grid takes one block from :func:`_phase_sums`; a
    last point off it, and any other grid or atoms, take time blocks of
    per-entry tables ``cos(lam_j t)`` and ``sin(lam_j t)``, weighted in place
    and multiplied by the kernel in blocks of atoms.  With ``interaction``
    the halves turn in place into ``e^{+i E_m t} U[m, 0]``: the free phases
    of ``+-m`` are conjugates, so one real pair ``cos``/``sin`` of
    ``m delta_e t`` serves both.  A decoupled bath's halves are 0.
    """
    weight = 2.0 * spec.scale * spec.weight
    root_weight = weight * (spec.cell + spec.offset)
    step = _progression_step(times) if len(atoms) <= 1 else None
    done = 0 if step is None else len(times) - (times[-1] != times[0] + step * (len(times) - 1))
    blocks = [slice(0, done)] if done else []
    blocks += [slice(done + b.start, done + b.stop) for b in _blocks(len(times) - done, len(spec.lam))]
    for rows in blocks:
        if step is not None and rows.start == 0:
            pair = spec.scale and len(atoms)  # a decoupled kernel may hold poles
            kernel = _pair_kernel(spec, atoms) if pair else np.zeros((len(spec.lam), len(atoms)))
            cos_weights = np.column_stack([2.0 * spec.weight, weight[:, None] * kernel])
            cos_sums, im = _phase_sums(times, step, spec.lam, cos_weights, root_weight[:, None] * kernel)
            survival, re, im = spec.weight0 + cos_sums[rows, 0], cos_sums[rows, 1:], im[rows]
        else:
            count = len(times[rows])
            waves = np.empty((2, count, len(spec.lam)))
            np.cos(np.multiply.outer(times[rows], spec.lam, out=waves[1]), out=waves[0])
            survival = spec.weight0 + waves[0] @ (2.0 * spec.weight)
            re, im = halves = np.zeros((2, count, len(atoms)))
            if spec.scale and len(atoms):
                np.sin(waves[1], out=waves[1])
                waves[0] *= weight
                waves[1] *= root_weight
                waves = waves.reshape(2 * count, -1)
                for cols in _blocks(len(atoms), len(spec.lam)):
                    halves[..., cols] = (waves @ _pair_kernel(spec, atoms[cols])).reshape(2, count, -1)
            del waves, halves
        re *= atoms  # the kernel sums times m
        re -= spec.scale * spec.weight0 / atoms
        if interaction:
            free = np.multiply.outer(times[rows], atoms * spec.bath.delta_e)
            cos, sin = np.cos(free), np.sin(free, out=free)
            turn = sin * re
            re *= cos
            re += np.multiply(sin, im, out=sin)
            im *= cos
            im -= turn
            del cos, sin, turn
        yield rows, survival, re, im
        del survival, re, im  # the next block forms without this one


def _amplitudes(spec: _Spectrum, atoms: np.ndarray, t, interaction: bool) -> np.ndarray:
    """Amplitudes out of the reference onto atom 0 and ``+-m`` for the magnitudes ``atoms``.

    One row per time, in slot order (the bath column for ``atoms = 1..N``).
    """
    times = np.asarray(t, dtype=float).reshape(-1)
    m = len(atoms)
    column = np.empty((len(times), 2 * m + 1), dtype=complex)
    for rows, survival, re, im in _halves(spec, atoms, times, interaction):
        column[rows, REFERENCE_SLOT] = survival
        plus, minus = column[rows, m + 1 :], column[rows, m:0:-1]  # +m ascending, -m descending
        plus.real = re
        np.negative(re, out=minus.real)
        np.negative(im, out=plus.imag)
        np.negative(im, out=minus.imag)
        del survival, re, im
    return column.reshape(np.shape(t) + (2 * m + 1,))


def _element(spec: _Spectrum, atom: int, t, interaction: bool) -> complex | np.ndarray:
    pair = _amplitudes(spec, np.array([abs(atom)] if atom else [], dtype=float), t, interaction)
    # the atom's slot among the reference, -|atom| and +|atom|
    return pair[..., slot_of_atom(1, int(np.sign(atom)))][()]


def propagator_column(bath: BathSpec, t: float | np.ndarray) -> np.ndarray:
    """Column ``U[:, 0](t)``: amplitudes evolved out of the excited reference.

    An array ``t`` gives one column per time, shape ``t.shape + (dim,)``.
    The ``T`` times cost one real ``2T x N x N`` product with the paired
    Cauchy kernel (see :func:`_pair_kernel`).
    """
    return _amplitudes(_spectrum(bath), np.arange(1.0, bath.n_half + 1.0), t, interaction=False)


def interaction_column(bath: BathSpec, t: float | np.ndarray) -> np.ndarray:
    """Interaction-picture column ``e^{+i E_n t} U[n, 0](t)``, one per time in ``t``."""
    return _amplitudes(_spectrum(bath), np.arange(1.0, bath.n_half + 1.0), t, interaction=True)


def propagator_element(bath: BathSpec, atom: int, t: float | np.ndarray) -> complex | np.ndarray:
    """Single Schroedinger element ``U[atom, 0](t)``, O(dim) per time."""
    slot_of_atom(bath.n_half, atom)  # raises DimensionMismatch before the solve
    return _element(_spectrum(bath), atom, t, interaction=False)


def interaction_element(bath: BathSpec, atom: int, t: float | np.ndarray) -> complex | np.ndarray:
    """Single interaction-picture element ``e^{+i E_atom t} U[atom, 0](t)``."""
    slot_of_atom(bath.n_half, atom)  # raises DimensionMismatch before the solve
    return _element(_spectrum(bath), atom, t, interaction=True)


def _emission_overlap(spec: _Spectrum, t: float | np.ndarray) -> complex | np.ndarray:
    """``sum_n interaction_column(t)[n] / (gamma + i n delta_e)`` over the bath slots.

    The interaction halves ``+-re - i im`` of :func:`_halves` meet the
    conjugate weights ``1 / (gamma +- i m delta_e)`` and fold, with weights
    fixed in time and no complex column, into the purely imaginary
    ``-2i sum_m (re m delta_e + im gamma) / (gamma^2 + m^2 delta_e^2)``.
    """
    bath = spec.bath
    atoms = np.arange(1.0, bath.n_half + 1.0)
    energy = atoms * bath.delta_e
    norm = bath.gamma**2 + energy**2  # |gamma + i m delta_e|^2
    times = np.asarray(t, dtype=float).reshape(-1)
    total = np.empty(len(times))
    for rows, _, re, im in _halves(spec, atoms, times, interaction=True):
        total[rows] = re @ (energy / norm) + im @ (bath.gamma / norm)
        del re, im
    return (-2j * total).reshape(np.shape(t))[()]


def u00_limit(gamma: float, t: float | np.ndarray) -> complex | np.ndarray:
    """Scaling-limit survival amplitude of the excited reference atom, per time in ``t``."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    return np.exp(-gamma * t) + 0j


def un0_limit(gamma: float, delta_e: float, n: int, t: float | np.ndarray) -> complex | np.ndarray:
    """Scaling-limit amplitude on the bath atom detuned by ``n * delta_e``, per time in ``t``.

    Interaction picture, with the coupling eliminated through
    ``H = sqrt(gamma * delta_e / pi)``.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    if not delta_e > 0:
        raise ValueError("delta_e must be positive")
    h = math.sqrt(gamma * delta_e / math.pi)
    pole = gamma - 1j * n * delta_e
    if abs(pole) == 0.0:
        raise ValueError("gamma and the detuning cannot both vanish")
    return 1j * h * (np.exp((-gamma + 1j * n * delta_e) * t) - 1.0) / pole


def survival_probability(bath: BathSpec, t: float | np.ndarray) -> float | np.ndarray:
    """``|U00(t)|^2`` from the numeric propagator, guarded against recurrence."""
    if np.any(np.asarray(t) < 0):
        raise ValueError("t must be nonnegative")
    bath.check_recurrence(np.max(t, initial=0.0))  # an empty grid has no time to check
    return np.abs(propagator_element(bath, 0, t)) ** 2


def _check_window(t_i: float, t, t_f: float) -> None:
    if t_f == t_i:
        raise DegenerateWindow("t_f must differ from t_i")
    check_window(t_i, t, t_f)


def _decay_law(gamma: float, x: complex, t_i: float, t, t_f: float) -> complex | np.ndarray:
    """The generalized law ``e^{-gamma (t-t_i)} (1 - e^{x (t_f-t)}) / (1 - e^{x (t_f-t_i)})``."""
    _check_window(t_i, t, t_f)
    denom = 1.0 - np.exp(x * (t_f - t_i))
    if abs(denom) <= DENOM_FLOOR:
        raise PostSelectionNull("post-selection denominator vanished")
    return np.exp(-gamma * (t - t_i)) * (1.0 - np.exp(x * (t_f - t))) / denom


def weak_survival_single_photon(
    gamma: float, e_diff: float, t_i: float, t: float | np.ndarray, t_f: float
) -> complex | np.ndarray:
    """Closed-form weak survival value, post-selected on one emitted quantum.

    ``e_diff`` is the energy offset of the post-selected bath excitation
    relative to the reference atom.  At ``e_diff = 0`` this is the resonant
    generalization of the exponential decay law: 1 at ``t_i``, 0 at ``t_f``,
    and plain ``e^{-gamma (t - t_i)}`` as ``t_f -> inf``.  An array ``t``
    gives one value per time.
    """
    return _decay_law(gamma, -gamma + 1j * e_diff, t_i, t, t_f)


def weak_survival_asymptotic_post(
    gamma: float, t_i: float, t: float | np.ndarray, t_f: float
) -> complex | np.ndarray:
    """Closed-form weak survival value, post-selected on the full emission state.

    Same boundary values as the single-photon law but with the decay constant
    doubled inside the window factors.  An array ``t`` gives one value per time.
    """
    return _decay_law(gamma, -2.0 * gamma, t_i, t, t_f) + 0j


class PostKind(enum.Enum):
    SINGLE_PHOTON = "single_photon"
    ASYMPTOTIC_EMISSION = "asymptotic_emission"
    UNDECAYED = "undecayed"


@dataclass(frozen=True)
class PostSpec:
    """Post-selection choice for the decay model."""

    kind: PostKind
    photon_atom: Optional[int] = None

    @classmethod
    def single_photon(cls, atom: int) -> "PostSpec":
        """Post-select on bath atom ``atom`` holding the excitation.

        ``atom = 0`` is rejected: the resonant slot is the reference atom, so
        the nearest-to-resonance photon post-selections are ``atom = +-1``.
        """
        if atom == 0:
            raise ValueError("atom 0 is the reference; choose a bath atom (use +-1 for near-resonance)")
        return cls(PostKind.SINGLE_PHOTON, photon_atom=int(atom))

    @classmethod
    def asymptotic_emission(cls) -> "PostSpec":
        return cls(PostKind.ASYMPTOTIC_EMISSION)

    @classmethod
    def undecayed(cls) -> "PostSpec":
        return cls(PostKind.UNDECAYED)


def _post_overlap(spec: _Spectrum, post: PostSpec, t: float | np.ndarray) -> complex | np.ndarray:
    """Overlap of the post-selected state with the reference evolved for ``t``.

    Bath states are read in the interaction picture, the convention of the
    closed forms; the emission state is left unnormalized, since its norm
    cancels between the numerator and the denominator of a weak value.
    """
    if post.kind is PostKind.SINGLE_PHOTON:
        return _element(spec, post.photon_atom, t, interaction=True)
    if post.kind is PostKind.ASYMPTOTIC_EMISSION:
        return _emission_overlap(spec, t)
    return _element(spec, 0, t, interaction=False)


def weak_survival_numeric(
    bath: BathSpec, t_i: float, t: float | np.ndarray, t_f: float, post: PostSpec
) -> complex | np.ndarray:
    """Finite-bath weak survival value from propagator elements.

    Every post-selection gives the ratio
    ``<f|U(t_f - t)|0> U00(t - t_i) / <f|U(t_f - t_i)|0>`` of overlaps out
    of the reference slot.  The undecayed one is the finite-bath counterpart
    of an identity that is exactly 1 in the scaling limit; at finite N it
    deviates at the band-width level.

    ``t`` may be a 1-D array of times, giving one value per time; the
    window-level denominator is evaluated with the grid and checked once.
    The window and a photon atom outside the bath are rejected before the
    bath spectrum is solved, once for both overlaps and ``U00``.
    """
    _check_window(t_i, t, t_f)
    window = t_f - t_i
    bath.check_recurrence(window)
    if post.kind is PostKind.SINGLE_PHOTON:
        slot_of_atom(bath.n_half, post.photon_atom)  # raises DimensionMismatch before the solve
    spec = _spectrum(bath)
    overlap = _post_overlap(spec, post, np.append(window, t_f - np.asarray(t)))
    denom = overlap[0]
    if abs(denom) <= DENOM_FLOOR:
        raise PostSelectionNull(f"overlap with the {post.kind.value} post-selection below floor")
    return overlap[1:].reshape(np.shape(t)) * _element(spec, 0, t - t_i, interaction=False) / denom


def weak_survival_closed(
    bath: BathSpec, t_i: float, t: float | np.ndarray, t_f: float, post: PostSpec
) -> complex | np.ndarray:
    """Scaling-limit law for the post-selection ``post``; the undecayed one is identically 1.

    It checks the same operands as :func:`weak_survival_numeric`: the window,
    and for a photon post that its atom lies in ``bath``.
    """
    if post.kind is PostKind.SINGLE_PHOTON:
        slot_of_atom(bath.n_half, post.photon_atom)  # raises DimensionMismatch outside the bath
        e_diff = post.photon_atom * bath.delta_e
        return weak_survival_single_photon(bath.gamma, e_diff, t_i, t, t_f)
    if post.kind is PostKind.ASYMPTOTIC_EMISSION:
        return weak_survival_asymptotic_post(bath.gamma, t_i, t, t_f)
    _check_window(t_i, t, t_f)
    return np.ones(np.shape(t), dtype=complex)[()]


def asymptotic_truncation_bound(bath: BathSpec) -> float:
    """Lorentzian tail bound on truncating the emission-state sums at ``|n| <= N``."""
    return 2.0 * bath.gamma / (math.pi * bath.n_half * bath.delta_e)


def bath_weak_projector_scan(bath: BathSpec, t_i: float, t: float, t_f: float) -> np.ndarray:
    """Weak values of every slot's excitation projector, as a read-only ``(dim,)`` array.

    Slot 0 is the reference atom; the bath atoms follow in slot order (see
    :meth:`BathSpec.bath_atoms`).  Pre- and post-selection are both the
    excited reference state.  In the scaling limit the sum over bath atoms
    cancels exactly, which forces both positive and negative real parts at
    interior times; at finite N the cancellation is limited by the band
    width.  The sum over all slots equals 1 to rounding at any finite N
    (completeness of the basis plus propagator composition).

    ``H`` is real, so ``U`` is symmetric and ``<0|U(t_f - t)|n>`` is the
    reference column at ``t_f - t``: each weak value is a product of two
    columns over their sum, the window's survival amplitude.
    """
    check_window(t_i, t, t_f)
    bath.check_recurrence(t_f - t_i)
    paths = np.prod(propagator_column(bath, np.array([t_f - t, t - t_i])), axis=0)
    denom = complex(np.sum(paths))
    if abs(denom) <= DENOM_FLOOR:
        raise PostSelectionNull(f"survival amplitude over the window {abs(denom):.3e} below floor")
    weak = paths / denom
    weak.setflags(write=False)
    return weak
