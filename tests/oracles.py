"""Independent numeric oracles the tests compare the library against.

The first two avoid the library's secular-equation spectrum:

- the dense route builds the ``(2N+1) x (2N+1)`` arrowhead Hamiltonian and
  diagonalizes it with LAPACK's symmetric eigensolver;
- the ODE route obtains the bath amplitudes by adaptive integration of the
  coupled interaction-picture amplitude equations

      da_0/dt = -i H sum_n a_n e^{-i n dE t}
      da_n/dt = -i H a_0 e^{+i n dE t}

  from a_n(0) = delta_{n0}.

The sampled band series shares the spectrum and checks only the emission
overlap's Chebyshev series, which it forms from samples instead of Bessel
functions.

The truncated Lorentzian lattice sum is summed term by term in 40-digit
arithmetic (mpmath), from the same float ``gamma``, ``delta_e`` and ``t`` as
the library's, with no rows, tables or series.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

from weakdecay import Operator, decay, sums


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


def sampled_band_series(spec, top: float) -> np.ndarray:
    """Chebyshev coefficients of ``U_in(s) L(s)`` on ``[0, top]`` from samples at the Chebyshev points.

    ``U_in``, survival without the outer root pair, is summed root by root
    at each point ``s = top sin^2(pi j / 2n)`` through ``decay._element``, one
    cosine per root and point, and ``L`` is the same lattice sum as the
    library's; the coefficients come from an FFT of the products' even
    extension, at the library's degree ``n = z + 12 z^(1/3) + 10``,
    ``z = N delta_e top``.
    """
    z = spec.bath.n_half * spec.bath.delta_e * top
    degree = math.ceil(z + 12.0 * z ** (1.0 / 3.0)) + 10
    nodes = top * np.sin(np.arange(degree + 1) * (0.5 * math.pi / degree)) ** 2
    inner = decay._Spectrum(*(part[:-1] for part in spec[:4]), spec.weight0, spec.scale, spec.bath)
    samples = decay._element(inner, 0, nodes, interaction=False).real
    cos_w, sin_w = decay._emission_weights(spec.bath)
    samples *= 2.0 * sums.lattice_sums(spec.bath.delta_e * nodes, cos_w[None], sin_w[None])[0]
    coeffs = np.fft.rfft(np.concatenate([samples, samples[-2:0:-1]])).real / degree
    coeffs[[0, -1]] *= 0.5
    return coeffs


def lorentzian_lattice_sum(gamma: float, delta_e: float, k_max: int, t: float) -> float:
    """``delta_e sum_{|k| <= k_max} e^{i k delta_e t} / (gamma^2 + k^2 delta_e^2)``, to 40 digits, rounded once.

    Every float is taken exactly, and each phase ``k delta_e t`` is formed
    and reduced in 40-digit arithmetic, so the oracle sits within half an
    ulp of the exact sum; about 30 microseconds a term.
    """
    with mpmath.workdps(40):
        g, de, t = mpmath.mpf(gamma), mpmath.mpf(delta_e), mpmath.mpf(t)
        total = de / g**2
        for k in range(1, k_max + 1):
            total += 2 * de * mpmath.cos(k * de * t) / (g**2 + (k * de) ** 2)
        return float(total)
