"""Time-dependent weak values for pre/post-selected two-level systems.

Library plus CLI harness, in five modules:

- :mod:`weakdecay.core` - state/operator algebra and the weak-value kernel;
- :mod:`weakdecay.spin` - spin precession with closed-form weak values;
- :mod:`weakdecay.decay` - excited-state decay into a finite bath, its
  scaling-limit decay laws and bath sum rules;
- :mod:`weakdecay.sums` - the Lorentzian lattice sums behind the limits;
- :mod:`weakdecay.harness` - reproducible scenario runs and sweeps.
"""

from .core import (
    Operator,
    Propagator,
    StateVector,
    decompose_expectation,
    projector_from_state,
    strong_expectation,
    weak_value,
)
from .decay import (
    BathSpec,
    PostSpec,
    asymptotic_truncation_bound,
    bath_propagator,
    bath_weak_projector_scan,
    default_bath,
    interaction_column,
    interaction_element,
    propagator_column,
    propagator_element,
    slot_of_atom,
    survival_probability,
    u00_limit,
    un0_limit,
    weak_survival_asymptotic_post,
    weak_survival_closed,
    weak_survival_numeric,
    weak_survival_single_photon,
)
from .errors import (
    BasisNotComplete,
    BeyondRecurrence,
    ConfigInvalid,
    DegenerateWindow,
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    PostSelectionNull,
    WeakDecayError,
)
from .spin import (
    PostChoice,
    SpinAxis,
    spin_propagator,
    spin_strong_closed,
    spin_weak_closed,
    spin_weak_kernel,
)
from .sums import (
    SumParams,
    lorentzian_closed_form,
    lorentzian_sum,
    phased_closed_form,
    phased_lorentzian_sum,
    tail_bound,
)

__version__ = "0.1.0"
