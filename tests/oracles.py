"""Independent numeric oracles the tests compare the library against.

Both avoid the library's secular-equation spectrum:

- the dense route builds the ``(2N+1) x (2N+1)`` arrowhead Hamiltonian and
  diagonalizes it with LAPACK's symmetric eigensolver;
- the ODE route obtains the bath amplitudes by adaptive integration of the
  coupled interaction-picture amplitude equations

      da_0/dt = -i H sum_n a_n e^{-i n dE t}
      da_n/dt = -i H a_0 e^{+i n dE t}

  from a_n(0) = delta_{n0}.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from weakdecay import Operator


def bath_atom_order(n_half: int) -> np.ndarray:
    """Atom indices in the library's slot order for slots 1..2N."""
    return np.concatenate([np.arange(-n_half, 0), np.arange(1, n_half + 1)])


def _arrowhead(bath) -> np.ndarray:
    dim = bath.dim
    m = np.zeros((dim, dim))
    m[0, 1:] = bath.coupling
    m[1:, 0] = bath.coupling
    diag = np.arange(1, dim)
    m[diag, diag] = bath.bath_atoms() * bath.delta_e
    return m


def build_hamiltonian(bath) -> Operator:
    """Single-excitation Hamiltonian: arrowhead with the reference at slot 0."""
    return Operator(_arrowhead(bath).astype(complex))


def dense_eigensystem(bath) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and the eigenvectors (columns, slot order) from a dense ``eigh``."""
    return np.linalg.eigh(_arrowhead(bath))


def ode_interaction_column(
    n_half: int,
    delta_e: float,
    coupling: float,
    t_final: float,
    rtol: float = 1e-9,
    atol: float = 1e-11,
) -> np.ndarray:
    """Interaction-picture amplitudes at ``t_final``, slot order [ref, bath...]."""
    atoms = bath_atom_order(n_half)
    dim = 2 * n_half + 1

    def rhs(t, y):
        a = y[:dim] + 1j * y[dim:]
        phases = np.exp(-1j * atoms * delta_e * t)
        da0 = -1j * coupling * np.sum(a[1:] * phases)
        dan = -1j * coupling * a[0] * np.conj(phases)
        da = np.concatenate([[da0], dan])
        return np.concatenate([da.real, da.imag])

    y0 = np.zeros(2 * dim)
    y0[0] = 1.0
    sol = solve_ivp(rhs, (0.0, t_final), y0, rtol=rtol, atol=atol, t_eval=[t_final])
    if not sol.success:
        raise RuntimeError(f"ODE oracle failed: {sol.message}")
    return sol.y[:dim, -1] + 1j * sol.y[dim:, -1]
