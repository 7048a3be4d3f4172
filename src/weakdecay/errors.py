"""Exception taxonomy shared by all weakdecay modules; a bad window or time is a ValueError."""


class WeakDecayError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(WeakDecayError):
    """Operands act on state spaces of different dimensions."""


class NotNormalized(WeakDecayError):
    """A selection state does not have unit norm."""


class NotHermitian(WeakDecayError):
    """An observable passed to a strong expectation is not Hermitian."""


class PostSelectionNull(WeakDecayError):
    """Post-selection overlap magnitude is below the denominator floor.

    Signals a (near-)impossible post-selection, where weak values diverge
    and the computed ratio would be numerical noise.  A zero window
    (``t_i = t_f``) raises it for the photon and emission posts of the decay
    model, whose overlap at zero time vanishes.  Raised only by
    :func:`weakdecay.core.nonsingular`, which every route calls.
    """


class BasisNotComplete(WeakDecayError):
    """A post-selection basis is not complete and orthonormal."""


class BeyondRecurrence(WeakDecayError):
    """Requested time is beyond the recurrence guard of a finite bath or a lattice sum.

    A finite equispaced bath re-concentrates amplitude in the reference
    atom after roughly one recurrence period; comparisons with the
    continuum-limit decay laws are only meaningful well before that.
    Raised only by :func:`weakdecay.core.check_recurrence`.
    """


class ConfigInvalid(WeakDecayError):
    """A scenario configuration failed validation.

    Carries per-field diagnostics in ``problems``.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
