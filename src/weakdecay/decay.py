"""Excited two-level atom decaying into a finite bath of two-level atoms.

The model: a reference atom, initially excited, is coupled with equal real
strength ``H`` to ``2N`` bath atoms whose excitation energies are equispaced
with spacing ``delta_e`` and symmetric about the reference energy (which is
set to zero).  Restricted to the single-excitation sector the Hamiltonian is
a ``(2N+1) x (2N+1)`` real symmetric arrowhead matrix.  Its spectrum comes
from the secular equation in O(N) per bath (eigenvalues plus the weights
``v_0k^2`` of the reference atom), and one block loop turns it into blocks
of every amplitude out of the reference, for columns and elements alike:
``T`` times onto ``M`` atom pairs cost one real ``2T x N x M`` product with
a paired Cauchy kernel, so an element costs O(N) and a whole bath column
O(N^2) per time; survival alone, on a progression grid, takes angle
addition (:func:`_phase_sums`).  The overlap with the full emission state
needs no column: it is one time integral of the survival amplitude against
a lattice sum (see :func:`_emission_overlap`), a Chebyshev series whose
survival part comes from Bessel functions by Jacobi-Anger: a few flops per
root and order, no trig call per node, and O(N) per time.

In the scaling limit ``N -> inf``, ``delta_e -> 0`` with
``gamma = pi H^2 / delta_e`` held fixed, the bath's amplitudes and weak
values tend to the closed forms of :mod:`weakdecay.laws`; the finite-N
propagator is the independent numeric route compared against them.

A finite equispaced bath revives after the recurrence time
``2 pi / delta_e``; every comparison against a limit law is guarded to stay
below half of it.

Conventions: the Schroedinger-picture propagator is ``U(t) = exp(-iHt)``;
interaction-picture elements carry an extra phase ``e^{+i E_n t}`` so they
match the limit laws.  Basis slot 0 is the excited reference atom;
bath atom ``n`` (``-N <= n <= N``, ``n != 0``) lives at the slot given by
:func:`slot_of_atom`.  Natural units, hbar = 1.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import laws, sums
from .core import Propagator, check_phase_times, check_recurrence, check_times, check_window, nonsingular
from .errors import DimensionMismatch

REFERENCE_SLOT = 0

# Largest N.  The O(N) spectrum and survival, and the emission overlap at
# O(N) flops per Chebyshev order, would allow far more, but columns and
# projector scans are O(N^2) per time: one 101-point column grid takes ~0.25 s here.
MAX_N_HALF = 4000


@dataclass(frozen=True)
class BathSpec:
    """Finite single-excitation decay model parameters.

    ``n_half`` is N: the bath holds 2N atoms at detunings ``n*delta_e`` for
    ``-N <= n <= N``, ``n != 0``; the resonant slot (n = 0) is the reference
    atom itself.  ``gamma`` is kept as given; the coupling is derived from
    it as ``H = sqrt(gamma * delta_e / pi)``.
    """

    n_half: int
    gamma: float
    delta_e: float
    coupling: float = field(init=False)

    def __post_init__(self):
        problems = []
        if not isinstance(self.n_half, (int, np.integer)):
            problems.append(f"n_half: need an integer, got {self.n_half}")
        elif not 1 <= self.n_half <= MAX_N_HALF:
            problems.append(f"n_half: need 1 <= n_half <= {MAX_N_HALF}, got {self.n_half}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            problems.append(f"gamma: need a finite value >= 0, got {self.gamma}")
        if not (math.isfinite(self.delta_e) and self.delta_e > 0):
            problems.append(f"delta_e: need a finite value > 0, got {self.delta_e}")
        if problems:
            raise ValueError("; ".join(problems))
        square = self.gamma * self.delta_e / math.pi
        if not math.isfinite(square):
            raise ValueError(f"gamma: H^2 = gamma delta_e / pi overflows at ({self.gamma}, {self.delta_e})")
        if not math.isfinite(self.gamma / (math.pi * self.delta_e)):  # g of the secular equation
            raise ValueError(
                f"gamma: (H / delta_e)^2 = gamma / (pi delta_e) overflows at ({self.gamma}, {self.delta_e})"
            )
        if not math.isfinite(self.recurrence_time):
            raise ValueError(f"delta_e: recurrence time 2 pi / delta_e overflows at {self.delta_e}")
        object.__setattr__(self, "coupling", math.sqrt(square))

    @property
    def dim(self) -> int:
        return 2 * self.n_half + 1

    @property
    def recurrence_time(self) -> float:
        return 2.0 * math.pi / self.delta_e

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
    return BathSpec(2000, 1.0, 0.05)


def _top_frequency(bath: BathSpec) -> float:
    """``sqrt(N^2 + 2 N g) delta_e``: no eigenvalue or bath energy is larger (see :func:`_outer_start`)."""
    root = math.sqrt(2.0 * bath.n_half) * (bath.coupling / bath.delta_e)  # sqrt(2 N g)
    return math.hypot(bath.n_half, root) * bath.delta_e


def slot_of_atom(n_half: int, atom: int) -> int:
    """Basis slot of an atom index (0 = reference, otherwise a bath atom)."""
    if not (isinstance(atom, (int, np.integer)) and -n_half <= atom <= n_half):
        raise DimensionMismatch(f"atom index {atom} outside [-{n_half}, {n_half}]")
    if atom == 0:
        return REFERENCE_SLOT
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
    Newton steps on ``s - F(s)``, with ``F' = -b' / (g pi^2 + b^2 / g)`` and
    ``b' = 1 - g (1/x^2 + trigamma(N+1-x) + trigamma(N+1+x))``, run from the
    infinite lattice's ``atan2(g pi, n + 1/2) / pi`` until no step exceeds a
    few ulps.
    """
    g_pi = g * math.pi
    cell = np.arange(1.0, n_half)
    s = np.arctan2(g_pi, cell + 0.5) / math.pi
    # the slope is divided through by g; near the float limit a start may still turn nan
    with np.errstate(invalid="ignore"):
        for _ in range(_MAX_ITERATIONS):
            x, rows = cell + s, _inner_rows(n_half, cell, s)
            psi, psi1 = _digamma(rows), _trigamma(rows)
            b = x + g * (1.0 / x + (psi[0] - psi[1]))
            slope = -(1.0 - g * (1.0 / x**2 + psi1[0] + psi1[1])) / (g * math.pi**2 + b * (b / g))
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
    when only amplitudes out of the reference slot are needed.  Every time
    must be finite, and so must its phase at the top eigenvalue.
    """
    check_phase_times(t, _top_frequency(bath))
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
# kernels, offsets x roots tables): memory grows with neither grid nor bath.
_BLOCK_ENTRIES = 1 << 20


def _blocks(count: int, width: int) -> list[slice]:
    """Slices over ``count`` rows of ``width`` entries, each holding at most ``_BLOCK_ENTRIES``."""
    step = max(1, _BLOCK_ENTRIES // max(width, 1))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


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


def _phase_sums(times: np.ndarray, step: float, lam: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``cos(lam_j t) @ weights`` on a progression grid, one entry per time ``times[0] + step * k``.

    Each time splits as ``t_(bW) + m h`` with ``W ~ sqrt(T)`` offsets
    ``m < W``, and ``cos(lam (t_(bW) + m h)) = cos(lam t_(bW)) cos(lam m h) -
    sin(lam t_(bW)) sin(lam m h)`` turns each base's weights against the
    offset tables into matrix products: ``(T/W + W) N`` sine-cosine pairs,
    not ``T N`` library calls.  The last bits then differ from per-time
    calls, by ~2e-15 measured.  Each base takes its own products, so blocks
    of bases cannot change a value; the block rule caps ``W`` at
    ``_BLOCK_ENTRIES / N``, and narrower offsets move last bits by ~2e-15.
    """
    width = min(math.isqrt(len(times) - 1) + 1, max(1, _BLOCK_ENTRIES // max(len(lam), 1)))
    offset = np.multiply.outer(step * np.arange(width), lam)
    offset_cos, offset_sin = np.cos(offset), np.sin(offset)
    bases = times[::width]
    sums = np.empty((len(bases), width, 1))
    for group in _blocks(len(bases), len(lam)):
        phase = np.multiply.outer(bases[group], lam)[..., None]
        sums[group] = offset_cos @ (np.cos(phase) * weights[:, None])
        sums[group] -= offset_sin @ (np.sin(phase) * weights[:, None])
    return sums.reshape(-1)[: len(times)]


def _amplitudes(spec: _Spectrum, atoms: np.ndarray, t, interaction: bool) -> np.ndarray:
    """Amplitudes out of the reference onto atom 0 and ``+-m`` for the magnitudes ``atoms``.

    One row per time, in slot order (the bath column for ``atoms = 1..N``).
    Each time block of per-entry tables ``cos(lam_j t)``, ``sin(lam_j t)``
    gives survival, then is weighted in place and multiplied by the paired
    kernel (see :func:`_pair_kernel`) in blocks of atoms into the halves
    ``U[+-m, 0] = +-re - i im``, written through the column's views.  With
    ``interaction`` the halves turn in place into ``e^{+i E_m t} U[m, 0]``:
    the free phases of ``+-m`` are conjugates, so one real pair
    ``cos``/``sin`` of ``m delta_e t`` serves both.  A decoupled bath's
    halves are 0.
    """
    times = np.asarray(t, dtype=float).reshape(-1)
    m = len(atoms)
    column = np.empty((len(times), 2 * m + 1), dtype=complex)
    weight = 2.0 * spec.scale * spec.weight
    root_weight = weight * (spec.cell + spec.offset)
    for rows in _blocks(len(times), len(spec.lam)):
        count, pair = len(times[rows]), spec.scale and m  # a decoupled kernel may hold poles
        waves = np.empty((2 if pair else 1, count, len(spec.lam)))  # phases last, cosines first
        np.cos(np.multiply.outer(times[rows], spec.lam, out=waves[-1]), out=waves[0])
        column[rows, REFERENCE_SLOT] = spec.weight0 + waves[0] @ (2.0 * spec.weight)
        re, im = halves = np.zeros((2, count, m))
        if pair:
            np.sin(waves[1], out=waves[1])
            waves[0] *= weight
            waves[1] *= root_weight
            waves = waves.reshape(2 * count, -1)
            for cols in _blocks(m, len(spec.lam)):
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
        plus, minus = column[rows, m + 1 :], column[rows, m:0:-1]  # +m ascending, -m descending
        plus.real = re
        np.negative(re, out=minus.real)
        np.negative(im, out=plus.imag)
        np.negative(im, out=minus.imag)
        del re, im  # the next block forms without this one
    return column.reshape(np.shape(t) + (2 * m + 1,))


def _element(spec: _Spectrum, atom: int, t, interaction: bool) -> complex | np.ndarray:
    """``U[atom, 0]`` per time; survival on a progression takes :func:`_phase_sums` but off its end."""
    times = np.asarray(t, dtype=float).reshape(-1)
    step = None if atom else _progression_step(times)
    done = 0 if step is None else len(times) - (times[-1] != times[0] + step * (len(times) - 1))
    pair = _amplitudes(spec, np.array([abs(atom)] if atom else [], dtype=float), times[done:], interaction)
    head = spec.weight0 + _phase_sums(times, step, spec.lam, 2.0 * spec.weight)[:done] if done else []
    # the atom's slot among the reference, -|atom| and +|atom|
    return np.append(head, pair[:, slot_of_atom(1, int(np.sign(atom)))]).reshape(np.shape(t))[()]


def propagator_column(bath: BathSpec, t: float | np.ndarray) -> np.ndarray:
    """Column ``U[:, 0](t)``: amplitudes evolved out of the excited reference.

    An array ``t`` gives one column per time, shape ``t.shape + (dim,)``.
    The ``T`` times cost one real ``2T x N x N`` product with the paired
    Cauchy kernel (see :func:`_pair_kernel`).  Every time must be finite,
    and so must its phase at the top eigenvalue.
    """
    check_phase_times(t, _top_frequency(bath))
    return _amplitudes(_spectrum(bath), np.arange(1.0, bath.n_half + 1.0), t, interaction=False)


def interaction_column(bath: BathSpec, t: float | np.ndarray) -> np.ndarray:
    """Interaction-picture column ``e^{+i E_n t} U[n, 0](t)``, one per finite time in ``t``."""
    check_phase_times(t, _top_frequency(bath))
    return _amplitudes(_spectrum(bath), np.arange(1.0, bath.n_half + 1.0), t, interaction=True)


def propagator_element(bath: BathSpec, atom: int, t: float | np.ndarray) -> complex | np.ndarray:
    """Single Schroedinger element ``U[atom, 0](t)``, O(dim) per finite time."""
    slot_of_atom(bath.n_half, atom)  # raises DimensionMismatch before the solve
    check_phase_times(t, _top_frequency(bath))
    return _element(_spectrum(bath), atom, t, interaction=False)


def interaction_element(bath: BathSpec, atom: int, t: float | np.ndarray) -> complex | np.ndarray:
    """Single interaction-picture element ``e^{+i E_atom t} U[atom, 0](t)``, per finite time."""
    slot_of_atom(bath.n_half, atom)  # raises DimensionMismatch before the solve
    check_phase_times(t, _top_frequency(bath))
    return _element(_spectrum(bath), atom, t, interaction=True)


def _emission_weights(bath: BathSpec) -> tuple[np.ndarray, np.ndarray]:
    """``gamma / (gamma^2 + E_m^2)`` and ``E_m / (gamma^2 + E_m^2)`` for ``m = 1..N``.

    They are the real and imaginary parts of ``1 / (gamma - i E_m)``, formed
    through ``hypot`` so that no finite ``gamma`` overflows.
    """
    energy = np.arange(1.0, bath.n_half + 1.0) * bath.delta_e
    norm = np.hypot(bath.gamma, energy)
    return bath.gamma / norm / norm, energy / norm / norm


def _bessel(alpha: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """``J_k(alpha) / J_0(alpha)`` for ``k = 0..degree`` (orders down, the ``alpha`` across), and ``1 / J_0``.

    Miller's backward recurrence (Abramowitz & Stegun 9.12) in ratio form,
    ``r_k = J_k / J_(k-1) = alpha / (2k - alpha r_(k+1))`` from ``r_(degree+1)
    = 0``.  The ``J_k`` themselves grow by about ``2k / alpha`` a step on the
    way down, past the float range at a tiny ``alpha``; their ratios do not,
    so every ``alpha`` starts at the same order, ``alpha = 0`` and subnormal
    ones too.  The running products of the ratios are ``J_k / J_0``, and
    ``J_0 + 2 sum_k J_2k = 1`` gives ``1 / J_0 = 2 sum_k J_2k / J_0 - 1``
    (``k >= 0``); the caller divides by it, so the table is not passed over
    again.  The error of ``J_k`` is about
    ``J_(degree+1)(alpha)``, so ``degree`` must reach where the ``J_k`` are
    negligible.  Each order costs about four numpy calls over the row, so a
    narrow table is bound by their overhead: :func:`_band_series` keeps its
    blocks at least ``_BESSEL_ROOTS`` wide.
    """
    table = np.empty((degree + 1, len(alpha)))
    table[0] = 1.0
    rows = list(table)  # one view per order, made once: a block makes ~4 numpy calls per order
    ratio, below = np.zeros(len(alpha)), np.empty(len(alpha))
    for k in range(degree, 0, -1):
        np.subtract(2.0 * k, np.multiply(alpha, ratio, below), below)
        ratio = np.divide(alpha, below, rows[k])
    for k in range(1, degree + 1):  # row by row: numpy's cumprod down the rows is slower
        np.multiply(rows[k], rows[k - 1], rows[k])
    return table, 2.0 * np.sum(table[::2], axis=0) - 1.0


# A Bessel block of the band series holds about _BESSEL_ENTRIES entries (1 MiB),
# so a warm process's heap does not grow to the largest table a window asks for
# (3.6 MB at t_f = 3 on the default bath), but at least _BESSEL_ROOTS roots,
# since _bessel's ~4 numpy calls per order cost the same at any width, and never
# more entries than _BLOCK_ENTRIES.
_BESSEL_ENTRIES = 1 << 17
_BESSEL_ROOTS = 512


def _bessel_roots(order: int) -> int:
    """Roots per Bessel block of the band series at ``order``, by the rule above; at least 1."""
    return max(1, min(max(_BESSEL_ROOTS, _BESSEL_ENTRIES // (order + 1)), _BLOCK_ENTRIES // (order + 1)))


def _degree(z: float) -> int:
    """The order from which a wave's Bessel coefficients ``J_k(z)`` stay below 1e-17 of their largest."""
    return math.ceil(z + 12.0 * z ** (1.0 / 3.0)) + 10


def _band_series(spec: _Spectrum, top: float) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev coefficients of ``U_in(s) L(s)``, and of ``U_in``, on ``[0, top]`` in ``x = 1 - 2 s / top``.

    ``U_in`` is the survival amplitude without the outer root pair and
    ``L(s) = 2 sum_m (gamma cos(E_m s) + E_m sin(E_m s)) / (gamma^2 + E_m^2)``.
    Each inner wave ``cos(lam_j s)`` is ``cos(a (1 - x))`` with ``a = lam_j
    top / 2``, and by Jacobi-Anger its coefficient of ``T_k`` is
    ``eps_k (-1)^floor(k/2) J_k(a)`` times ``cos a`` for even ``k`` and
    ``sin a`` for odd ``k`` (``eps_0 = 1``, else 2): ``U_in``'s series comes
    from :func:`_bessel` in blocks of roots, two trig calls per root, each
    root's weight divided by its ``1 / J_0``; a block stops at its top
    root's order and holds as many roots as :func:`_bessel_roots` gives at
    that order, about 1 MiB at any window.
    Its frequencies stay below ``N delta_e`` and the product's below ``2 N
    delta_e``, so a wave's ``J_k(z)`` has ``z <= N delta_e top / 2`` or
    ``N delta_e top``: :func:`_degree` gives each series
    its length from the band and the window alone.  ``U_in`` is then summed
    at the product's Chebyshev points ``s = top sin^2(pi j / 2n)`` by an
    inverse FFT, times ``L`` as a lattice sum of :mod:`weakdecay.sums`, and
    the coefficients come from an FFT of the products' even extension.
    """
    z = spec.bath.n_half * spec.bath.delta_e * top
    degree, inner = _degree(z), _degree(0.5 * z)
    alpha = 0.5 * top * spec.lam[:-1]
    weight = 2.0 * spec.weight[:-1]
    series = np.zeros(degree + 1)
    top_root = len(alpha)
    while top_root:  # roots ascend: from the top down, each block takes its top root's order
        order = min(inner, _degree(alpha[top_root - 1]))
        roots = slice(max(0, top_root - _bessel_roots(order)), top_root)
        bessel, norm = _bessel(alpha[roots], order)
        scaled = weight[roots] / norm
        series[: order + 1 : 2] += bessel[::2] @ (scaled * np.cos(alpha[roots]))
        series[1 : order + 1 : 2] += bessel[1::2] @ (scaled * np.sin(alpha[roots]))
        del bessel  # the next block forms without this one
        top_root = roots.start
    series[2::4] *= -1.0  # (-1)^floor(k/2)
    series[3::4] *= -1.0
    series[0] += spec.weight0
    # series holds c_k / eps_k; the even extension's spectrum is 2n c_0, n c_k and 2n c_n
    u_in = 2.0 * series
    u_in[0] = series[0]
    series[-1] *= 2.0
    samples = np.fft.irfft(series, 2 * degree)[: degree + 1] * (2.0 * degree)
    nodes = top * np.sin(np.arange(degree + 1) * (0.5 * math.pi / degree)) ** 2
    cos_w, sin_w = _emission_weights(spec.bath)
    samples *= 2.0 * sums.lattice_sums(spec.bath.delta_e * nodes, cos_w[None], sin_w[None])[0]
    coeffs = np.fft.rfft(np.concatenate([samples, samples[-2:0:-1]])).real / degree
    coeffs[[0, -1]] *= 0.5
    return coeffs, u_in


def _band_integral(spec: _Spectrum, times: np.ndarray, top: float) -> tuple[np.ndarray, np.ndarray]:
    """``int_0^tau U_in(s) L(s) ds`` and ``U_in(top - tau)`` for each time ``tau`` in ``[0, top]``.

    With ``s = top (1 - cos theta) / 2`` the series of :func:`_band_series`
    has the antiderivative coefficients ``d_k = (c_{k-1} - c_{k+1}) / 2k``
    (``c_0`` counted twice at ``k = 1``), and the integral is
    ``top/2 sum_k d_k (1 - cos k theta)``: a lattice sum at ``theta``.
    ``top - tau`` sits at the mirrored angle ``pi - theta``, where
    ``cos(k (pi - theta)) = (-1)^k cos(k theta)``, so ``U_in``'s own series
    with alternating signs is a second row of the same lattice pass.
    """
    coeffs, u_in = _band_series(spec, top)
    padded = np.append(coeffs, [0.0, 0.0])
    antider = (padded[:-2] - padded[2:]) / (2.0 * np.arange(1.0, len(coeffs) + 1.0))
    antider[0] += 0.5 * coeffs[0]
    mirrored = np.append(u_in[1:], 0.0)  # k = 1.., as many as antider
    mirrored[::2] *= -1.0  # (-1)^k
    theta = 2.0 * np.arcsin(np.sqrt(times / top))
    integral, waves = sums.lattice_sums(theta, np.stack((antider, mirrored)))
    return 0.5 * top * (math.fsum(antider) - integral), u_in[0] + waves


def _outer_integral(spec: _Spectrum, times: np.ndarray) -> np.ndarray:
    """``int_0^tau cos(lam_N s) L(s) ds`` for each time ``tau``, in closed form.

    The waves of ``L`` with weights ``a_m, b_m`` (:func:`_emission_weights`)
    give ``(a_m sin(nu tau) + b_m (1 - cos(nu tau))) / nu`` over
    ``nu = E_m +- lam_N``.  Turned by ``Lambda = lam_N tau``, their sum is
    ``cos(Lambda) X + sin(Lambda) Y + sum_m b_m p_m`` with the lattice sums
    ``X = sum_m p_m (a_m sin(E_m tau) - b_m cos(E_m tau))`` and
    ``Y = sum_m q_m (a_m cos(E_m tau) + b_m sin(E_m tau))``, where
    ``p_m, q_m = 1 / (E_m + lam_N) +- 1 / (E_m - lam_N)``.  The denominators
    are formed from the outer offset ``s`` as ``(N +- m + s) delta_e``, like
    :func:`_pair_kernel`'s; the one that may be small, ``E_N - lam_N =
    -s delta_e``, is left out of ``p`` and ``q`` and taken alone.
    """
    bath = spec.bath
    cos_w, sin_w = _emission_weights(bath)
    atoms, offset = np.arange(1.0, bath.n_half + 1.0), spec.offset[-1]
    above = 1.0 / ((bath.n_half + atoms + offset) * bath.delta_e)
    below = np.append(-1.0 / (((bath.n_half - atoms[:-1]) + offset) * bath.delta_e), 0.0)
    p, q = above + below, above - below
    angle = bath.delta_e * times
    phase = times * spec.lam[-1]
    x, y = sums.lattice_sums(angle, np.stack((-sin_w * p, cos_w * q)), np.stack((cos_w * p, sin_w * q)))
    outer = np.cos(phase) * x
    outer += np.sin(phase) * y
    outer += math.fsum(sin_w * p)
    # m = N: (a_N sin u - b_N (1 - cos u)) / (s delta_e) with u = s delta_e tau, as
    # tau (a_N sinc(u) - b_N sin(u/2) sinc(u/2)); numpy's sinc(x) is sin(pi x) / (pi x)
    half = offset * angle / (2.0 * math.pi)  # u / 2 pi
    small = cos_w[-1] * np.sinc(2.0 * half) - sin_w[-1] * np.sin(math.pi * half) * np.sinc(half)
    return outer + times * small


def _emission_overlap(
    spec: _Spectrum, t: float | np.ndarray, lapse: float | np.ndarray
) -> tuple[complex | np.ndarray, float | np.ndarray]:
    """``sum_n interaction_column(t)[n] / (gamma + i n delta_e)`` over the bath slots, and ``U00(lapse)``.

    The interaction amplitudes obey ``db_n/ds = -i H e^{i E_n s} U00(s)``
    from ``b_n(0) = 0`` (Weisskopf & Wigner), so the overlap at ``tau`` is
    ``-i H int_0^tau U00(s) L(s) ds``, purely imaginary since ``U00`` and
    ``L(s) = sum_n e^{i E_n s} / (gamma + i E_n)`` are real.  ``U00`` splits
    into ``U_in``, whose roots lie inside the band, and the outer pair
    ``2 w_N cos(lam_N s)``: :func:`_band_integral` integrates ``U_in L``
    from one Chebyshev series for the whole grid, and
    :func:`_outer_integral` the outer pair in closed form.  ``U_in``'s
    series costs a few flops per root and Chebyshev order and two trig
    calls per root, ``L`` a lattice sum per node, and each time O(N).

    ``lapse``, of the shape of ``t``, must be ``top - t`` to rounding, with
    ``top`` the largest time (a weak value's ``t - t_i``, with ``t_f - t``
    as ``t``); ``U00(lapse)`` is ``U_in`` from the same series at the
    mirrored angles (:func:`_band_integral`) and the outer pair at
    ``lapse`` itself.  An all-zero grid takes ``top = 1``.
    """
    times = np.asarray(t, dtype=float).reshape(-1)
    top = np.max(times, initial=0.0) or 1.0  # an all-zero grid takes any window
    band, inner = _band_integral(spec, times, top)
    total = band + 2.0 * spec.weight[-1] * _outer_integral(spec, times)
    inner += 2.0 * spec.weight[-1] * np.cos(spec.lam[-1] * np.reshape(lapse, -1))
    return (-1j * spec.bath.coupling * total).reshape(np.shape(t))[()], inner.reshape(np.shape(t))[()]


def survival_probability(bath: BathSpec, t: float | np.ndarray) -> float | np.ndarray:
    """``|U00(t)|^2`` from the numeric propagator, guarded against recurrence."""
    check_times(t)
    check_recurrence(np.max(t, initial=0.0), bath.delta_e)  # an empty grid has no time to check
    return np.abs(propagator_element(bath, 0, t)) ** 2


@dataclass(frozen=True)
class PostSpec:
    """Post-selection for the decay model, built from its config word alone.

    ``word`` is ``photon:K`` (the photon on bath atom ``K != 0``, written as
    ``-?[1-9][0-9]*`` and derived as ``photon_atom``), ``asymptotic`` (the
    full emission state) or ``undecayed`` (the excited reference atom); a
    ValueError words any other.
    """

    word: str
    photon_atom: Optional[int] = field(init=False, default=None)

    def __post_init__(self):
        if self.word in ("asymptotic", "undecayed"):
            return
        if not self.word.startswith("photon:"):
            raise ValueError(f"post: decay accepts 'photon:K', 'asymptotic' or 'undecayed', got {self.word!r}")
        atom = self.word.removeprefix("photon:")
        if atom == "0":
            problem = "atom 0 is the reference; choose a bath atom (use +-1 for near-resonance)"
        elif not re.fullmatch(r"-?[1-9][0-9]*", atom):
            problem = "need a nonzero integer, as -?[1-9][0-9]*"
        else:
            object.__setattr__(self, "photon_atom", int(atom))
            return
        raise ValueError(f"post: bad photon atom in {self.word!r}: {problem}")


def weak_survival_numeric(
    bath: BathSpec, t_i: float, t: float | np.ndarray, t_f: float, post: PostSpec
) -> complex | np.ndarray:
    """Finite-bath weak survival value from propagator elements.

    Every post-selection gives the ratio
    ``<f|U(t_f - t)|0> U00(t - t_i) / <f|U(t_f - t_i)|0>`` of overlaps out
    of the reference slot.  A bath state is read in the interaction picture,
    the convention of the closed forms, and the emission state
    (:func:`_emission_overlap`) is left unnormalized, since its norm cancels
    between the numerator and the denominator.  The reference atom has no
    free phase, so the undecayed overlap is its element; that weak value is
    the finite-bath counterpart of an identity that is exactly 1 in the
    scaling limit, and at finite N it deviates at the band-width level.

    ``t`` may be a 1-D array of times, giving one value per time; the
    window-level denominator is evaluated with the grid and checked once.
    The emission post takes ``U00(t - t_i)`` from its overlap's own band
    series (see :func:`_emission_overlap`), the other posts from the roots.
    The window and a photon atom outside the bath are rejected before the
    bath spectrum is solved, once for both overlaps and ``U00``.  A zero
    window is no error: the undecayed value is ``U00(0) ~ 1``, and the bath
    posts' overlap at 0 falls below the floor.
    """
    check_window(t_i, t, t_f)
    window = t_f - t_i
    check_recurrence(window, bath.delta_e)
    if post.photon_atom is not None:
        slot_of_atom(bath.n_half, post.photon_atom)  # raises DimensionMismatch before the solve
    spec = _spectrum(bath)
    times = np.append(window, t_f - np.asarray(t))
    if post.word == "asymptotic":  # U00 from the emission overlap's own series
        overlap, survival = _emission_overlap(spec, times, np.append(0.0, t - t_i))
        survival = survival[1:]
    else:
        overlap = _element(spec, post.photon_atom or 0, times, interaction=True)
        survival = _element(spec, 0, np.reshape(t - t_i, -1), interaction=False)
    denom = nonsingular(overlap[0], f"{post.word} post-selection")
    return (overlap[1:] * survival / denom).reshape(np.shape(t))[()]


def weak_survival_closed(
    bath: BathSpec, t_i: float, t: float | np.ndarray, t_f: float, post: PostSpec
) -> complex | np.ndarray:
    """Scaling-limit law for the post-selection ``post``; the undecayed one is identically 1.

    It checks the same operands as :func:`weak_survival_numeric`: the window,
    and for a photon post that its atom lies in ``bath``.
    """
    if post.photon_atom is not None:
        slot_of_atom(bath.n_half, post.photon_atom)  # raises DimensionMismatch outside the bath
        return laws.decay_law(bath.gamma, -bath.gamma + 1j * (post.photon_atom * bath.delta_e), t_i, t, t_f)
    if post.word == "asymptotic":
        return laws.decay_law(bath.gamma, -2.0 * bath.gamma, t_i, t, t_f) + 0j
    check_window(t_i, t, t_f)
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
    if np.ndim(t) != 0:
        raise ValueError(f"t: need one time, got {t}")
    check_recurrence(t_f - t_i, bath.delta_e)
    paths = np.prod(propagator_column(bath, np.array([t_f - t, t - t_i])), axis=0)
    weak = paths / nonsingular(complex(np.sum(paths)), "window survival")
    weak.setflags(write=False)
    return weak
