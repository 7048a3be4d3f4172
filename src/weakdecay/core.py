"""Model-agnostic state/operator algebra and the post-selected weak-value kernel.

A weak value generalizes an expectation value to an ensemble that is both
pre-selected in a state ``|i>`` at time ``t_i`` and post-selected in a state
``|f>`` at time ``t_f``.  For an observable ``A`` probed at an intermediate
time ``t`` the kernel ``weak_value(pre, post, observable, u_mid, u_late)``
computes

    w = <f| U(t_f - t) A U(t - t_i) |i>  /  <f| U(t_f - t) U(t - t_i) |i>

with ``U`` the unitary evolution operator; the times enter only through
``u_mid = U(t - t_i)`` and ``u_late = U(t_f - t)``.  ``w`` is complex in
general and may lie outside the observable's eigenvalue range; callers take
the real part explicitly when they want one.

Everything here is a pure function of immutable values: state vectors,
operators and propagators wrap read-only arrays, so any value can be shared
freely.  Time is an argument, not a field: propagators and weak values
broadcast over a leading time axis.
Natural units (hbar = 1) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BasisNotComplete,
    BeyondRecurrence,
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    PostSelectionNull,
)

#: Overlap magnitudes at or below this floor raise PostSelectionNull instead
#: of returning an astronomically amplified ratio.
DENOM_FLOOR = 1e-12

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
BASIS_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``; a time stack of 2x2 products is summed entry by entry along the time axis.

    numpy's batched ``@`` makes one BLAS call per slice, ~7x the cost of these
    1-D products on a 10001-slice stack of 2x2 matrices. Larger slices and
    plain matrices keep ``@``.
    """
    if a.shape[-1] != 2 or max(a.ndim, b.ndim) < 3:
        return a @ b
    stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.empty(stack + (a.shape[-2], b.shape[-1]), np.result_type(a, b))
    for i, j in np.ndindex(a.shape[-2], b.shape[-1]):
        cell = out[..., i, j]
        np.multiply(a[..., i, 0], b[..., 0, j], out=cell)
        cell += a[..., i, 1] * b[..., 1, j]
    return out


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m @ v`` for a matrix (stack) and a vector (stack), broadcast over time."""
    return _product(m, v[..., None])[..., 0]


def _unitarity_defect(m: np.ndarray) -> float:
    """``max|U^H U - 1|`` over every slice of ``m``; NaN if any entry is NaN."""
    gram = _product(np.swapaxes(m, -1, -2).conj(), m)
    return float(np.max(np.abs(gram - np.eye(m.shape[-1])), initial=0.0))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex column of amplitudes in a fixed basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex, copy=True).reshape(-1)
        if amps.size < 1:
            raise DimensionMismatch("state vector needs at least one amplitude")
        norm2 = float(np.vdot(amps, amps).real)
        if not abs(norm2 - 1.0) <= NORM_TOL:
            raise NotNormalized(
                f"|norm^2 - 1| = {abs(norm2 - 1.0):.3e} exceeds {NORM_TOL:.0e}; "
                "use StateVector.normalized() for arbitrary vectors"
            )
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """Build a unit-norm state from an arbitrary nonzero vector."""
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(amps))
        if norm == 0.0:
            raise NotNormalized("cannot normalize the zero vector")
        return cls(amps / norm)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class Operator:
    """Complex square matrix acting on a state space."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionMismatch(f"operator must be a square matrix, got shape {m.shape}")
        bad = np.argwhere(~np.isfinite(m))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"operator entries must be finite, got {m[i, j]} at ({i}, {j})")
        object.__setattr__(self, "entries", _readonly(m))

    @classmethod
    def identity(cls, dim: int) -> "Operator":
        return cls(np.eye(dim, dtype=complex))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_hermitian(self) -> bool:
        return bool(np.max(np.abs(self.entries - self.entries.conj().T)) <= HERMITIAN_TOL)


@dataclass(frozen=True, eq=False)
class Propagator:
    """Unitary evolution operator, or a ``(n, dim, dim)`` stack of them, one per time.

    Every slice of a stack is checked for unitarity.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex, copy=True)
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
            raise DimensionMismatch(f"propagator must be a square matrix, got shape {m.shape}")
        with np.errstate(invalid="ignore", over="ignore"):  # an inf entry fails the check, not a warning
            defect = _unitarity_defect(m)
        if not defect <= UNITARY_TOL:
            if not np.all(np.isfinite(m)):  # looked at only after a failed check, so it costs nothing
                raise ValueError("matrix is not unitary: its entries are not all finite")
            raise ValueError(f"matrix is not unitary: max|U^H U - 1| = {defect:.3e}")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


def check_window(t_i: float, t: float | np.ndarray, t_f: float) -> None:
    """Raise ValueError unless ``t_i <= t_f`` (even for an empty grid) and ``t_i <= t <= t_f``."""
    if not (t_i <= t_f and np.all((t_i <= t) & (t <= t_f))):
        raise ValueError(f"need t_i <= t <= t_f, got ({t_i}, {t}, {t_f})")


def check_times(t: float | np.ndarray) -> None:
    """Raise ValueError unless every time in ``t`` is ``>= 0``; a NaN fails too."""
    if not np.all(np.asarray(t) >= 0):
        raise ValueError("t must be nonnegative")


def check_phase_times(t: float | np.ndarray, frequency: float, name: str = "t") -> None:
    """Raise ValueError unless every time in ``t`` is finite, and so is its phase at ``frequency``.

    ``frequency`` bounds every frequency that turns a time into a phase; the
    phase ``frequency |t|`` must stay finite twice over, to spare the
    rounding of a frequency at the bound.  Negative times pass.  ``name``
    is the caller's name for ``t``, which the overflow's message uses.
    """
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    largest = float(np.max(np.abs(t), initial=0.0))
    if largest and not np.isfinite(2.0 * frequency * largest):
        raise ValueError(f"{name}: the phase {frequency:.6g} {name} overflows at |{name}| = {largest}")


def check_recurrence(span: float, delta_e: float) -> None:
    """Raise BeyondRecurrence unless ``span`` stays below half the recurrence time ``2 pi / delta_e``."""
    guard = np.pi / delta_e
    if span >= guard:
        raise BeyondRecurrence(f"time {span} >= recurrence guard {guard:.3g}")


def nonsingular(overlap, what: str):
    """Return ``overlap`` unchanged; raise PostSelectionNull if any magnitude is at or below DENOM_FLOOR."""
    smallest = float(np.min(np.abs(overlap), initial=np.inf))
    if smallest <= DENOM_FLOOR:
        raise PostSelectionNull(f"{what}: overlap magnitude {smallest:.3e} <= {DENOM_FLOOR:.0e}")
    return overlap


def window_problem(t_i: float, t_f: float) -> Optional[str]:
    """What keeps ``(t_i, t_f)`` from being a window: finite ``t_i < t_f`` and length; or None."""
    if not (np.isfinite(t_i) and np.isfinite(t_f) and t_i < t_f):
        return f"t_i/t_f: need finite t_i < t_f, got ({t_i}, {t_f})"
    if not np.isfinite(t_f - t_i):
        return f"t_i/t_f: window t_f - t_i overflows at ({t_i}, {t_f})"
    return None


def weak_value(
    pre: StateVector, post: StateVector, observable: Operator, u_mid: Propagator, u_late: Propagator
) -> complex | np.ndarray:
    """Weak value of ``observable`` between pre-selection ``pre`` and post-selection ``post``.

    ``u_mid`` propagates over ``t - t_i`` and ``u_late`` over ``t_f - t``.
    The denominator is evaluated through the same propagator product as the
    numerator so both share rounding behavior.  With a time axis on both
    propagators the result is one weak value per time.

    Raises PostSelectionNull when any post-selection overlap magnitude is at
    or below DENOM_FLOOR.
    """
    dims = (pre.dim, post.dim, observable.dim, u_mid.dim, u_late.dim)
    if len(set(dims)) != 1:
        raise DimensionMismatch(f"pre/post/observable/u_mid/u_late dimensions differ: {dims}")
    post_c = post.amplitudes.conj()
    evolved = _apply(u_mid.matrix, pre.amplitudes)
    denom = nonsingular(_apply(u_late.matrix, evolved) @ post_c, "post-selection")
    numer = _apply(u_late.matrix, _apply(observable.entries, evolved)) @ post_c
    return numer / denom


def _check_one_propagator(pre: StateVector, observable: Operator, u: Propagator) -> None:
    """Raise DimensionMismatch unless ``u`` is one matrix, not a time stack, of the state's dim."""
    if observable.dim != pre.dim or u.matrix.shape != (pre.dim, pre.dim):
        raise DimensionMismatch(
            f"need one propagator of the state's dimension: state {pre.dim}, "
            f"observable {observable.dim}, propagator shape {u.matrix.shape}"
        )


def strong_expectation(pre: StateVector, observable: Operator, u: Propagator) -> float:
    """Projective (strong) expectation value of ``observable`` after evolving ``pre``."""
    _check_one_propagator(pre, observable, u)
    if not observable.is_hermitian():
        raise NotHermitian("strong expectation requires a Hermitian observable")
    evolved = u.matrix @ pre.amplitudes
    value = complex(np.vdot(evolved, observable.entries @ evolved))
    if not abs(value.imag) <= 1e-10:
        raise ArithmeticError(f"imaginary residue {value.imag:.3e} exceeds 1e-10")
    return value.real


def decompose_expectation(
    pre: StateVector,
    observable: Operator,
    u: Propagator,
    basis: Sequence[StateVector],
) -> tuple[list[tuple[float, complex]], float]:
    """Split a strong expectation into post-selected sub-ensemble contributions.

    For a complete orthonormal set of final states the expectation value is
    the probability-weighted sum of the per-final-state weak values.  Returns
    the list of ``(probability, weak value)`` pairs and the residual

        | sum_k p_k w_k  -  <A> |.

    Terms whose probability is at or below DENOM_FLOOR**2 contribute through
    the unnormalized product ``conj(<f_k|U|i>) * <f_k|A U|i>`` (algebraically
    equal to ``p_k w_k``) so the sum never forms 0 * inf; their reported weak
    value is NaN, marking an impossible post-selection.
    """
    dim = pre.dim
    _check_one_propagator(pre, observable, u)
    if len(basis) != dim:
        raise BasisNotComplete(f"basis has {len(basis)} states, need {dim}")
    rows = np.array([b.amplitudes for b in basis])
    gram = rows.conj() @ rows.T
    defect = float(np.max(np.abs(gram - np.eye(dim))))
    if not defect <= BASIS_TOL:
        raise BasisNotComplete(f"basis Gram defect {defect:.3e} exceeds {BASIS_TOL:.0e}")

    evolved = u.matrix @ pre.amplitudes
    acted = observable.entries @ evolved
    amps = rows.conj() @ evolved
    nums = rows.conj() @ acted

    pairs: list[tuple[float, complex]] = []
    total = 0.0 + 0.0j
    for amp, num in zip(amps, nums):
        p = float(abs(amp) ** 2)
        total += amp.conjugate() * num
        if p > DENOM_FLOOR**2:
            pairs.append((p, complex(num / amp)))
        else:
            pairs.append((p, complex(float("nan"), float("nan"))))
    reference = complex(np.vdot(evolved, acted))
    residual = float(abs(total - reference))
    return pairs, residual


def projector_from_state(s: StateVector) -> Operator:
    """Rank-1 projector ``|s><s|`` onto a normalized state."""
    return Operator(np.outer(s.amplitudes, s.amplitudes.conj()))
