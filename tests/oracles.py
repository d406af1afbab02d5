"""Scalar reference functions that only the tests use.

Each is an independent route to a quantity the package computes another
way: spinor expectation values, Bell-basis amplitudes of the pair state,
the pure-state concurrence from the reduced purity, the hydrogen 1s wave
function in position and momentum space, and the scalar Coulomb wave and
electron-electron correlation factor that make up the 3C integrand, and
a Clenshaw evaluation of a ``Coulomb1F1Table``'s Chebyshev fit.
``hydrogen_1s_momentum`` evaluates the package's own ``_phi_1s_q2``, so
its normalization tests check the formula that ``pwba`` uses.
"""

from __future__ import annotations

import math

import numpy as np

from e2espin.amplitudes import _phi_1s_q2
from e2espin.special import _chebyshev_segments, coulomb_norm, kummer_1f1
from e2espin.spin import AmplitudePair


def pauli_expectation(spinor) -> np.ndarray:
    """Expectation values (<sx>, <sy>, <sz>) of a single spinor."""
    u, d = complex(spinor[0]), complex(spinor[1])
    c = u.conjugate() * d
    return np.array([2.0 * c.real, 2.0 * c.imag, abs(u) ** 2 - abs(d) ** 2])


def bell_coefficients(amps: AmplitudePair, chi, eta) -> np.ndarray:
    """Unnormalized amplitudes of the pair state on (Phi+, Phi-, Psi+, Psi-)."""
    a, b = complex(chi[0]), complex(chi[1])
    g, d = complex(eta[0]), complex(eta[1])
    td, te = complex(amps.t_d), complex(amps.t_e)
    return np.array(
        [
            (td - te) * (a * g + b * d),
            (td - te) * (a * g - b * d),
            (td - te) * (a * d + b * g),
            (td + te) * (a * d - b * g),
        ],
        dtype=complex,
    )


def concurrence_pure_from_state(psi) -> float:
    """Concurrence of a normalized pure pair state via reduced purity.

    C = sqrt(2 (1 - Tr rho_1^2)).
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (4,):
        raise ValueError("pair state must have 4 amplitudes")
    n = float(np.vdot(psi, psi).real)
    if abs(n - 1.0) > 1e-10:
        raise ValueError(f"pair state must be normalized, |psi|^2 = {n:.12g}")
    a = psi.reshape(2, 2)
    rho1 = a @ a.conj().T
    purity = float(np.trace(rho1 @ rho1).real)
    return math.sqrt(max(0.0, 2.0 * (1.0 - purity)))


def hydrogen_1s_position(r):
    """Hydrogen 1s wave function e^{-r} / sqrt(pi) at point(s) r."""
    r = np.asarray(r, dtype=float)
    rmag = np.linalg.norm(r, axis=-1)
    out = math.sqrt(1.0 / math.pi) * np.exp(-rmag)
    return float(out) if np.ndim(out) == 0 else out


def hydrogen_1s_momentum(q):
    """Momentum-space 1s wave function 8 sqrt(pi) / (q^2 + 1)^2.

    Normalized so that int d^3q/(2 pi)^3 |phi|^2 = 1.
    """
    q = np.asarray(q, dtype=float)
    q2 = np.sum(q * q, axis=-1)
    out = _phi_1s_q2(q2)
    return float(out) if np.ndim(out) == 0 else out


def coulomb_wave(k, r, z_charge: float = 1.0) -> complex:
    """Incoming-boundary-condition Coulomb wave at one point.

    exp(-pi xi/2) Gamma(1 - i xi) e^{i k.r} 1F1(i xi; 1; -i(kr + k.r))
    with xi = -Z/k (attractive for Z > 0).  Z = 0 reduces exactly to
    the plane wave.
    """
    k = np.asarray(k, dtype=float)
    r = np.asarray(r, dtype=float)
    kmag = float(np.linalg.norm(k))
    if kmag == 0.0:
        raise ValueError("coulomb_wave requires |k| > 0")
    xi = -float(z_charge) / kmag
    dot = float(k @ r)
    plane = complex(math.cos(dot), math.sin(dot))
    if xi == 0.0:
        return plane
    rmag = float(np.linalg.norm(r))
    return coulomb_norm(xi) * plane * kummer_1f1(1j * xi, 1.0, -1j * (kmag * rmag + dot))


def ee_correlation(k_ab, r12) -> complex:
    """Electron-electron Coulomb correlation factor.

    exp(-pi xi/2) Gamma(1 - i xi) 1F1(i xi; 1; -i(k r + k.r)) with
    k = k_ab the relative momentum, r = r12 the relative coordinate and
    xi = 1/(2 |k_ab|) (repulsive).
    """
    k = np.asarray(k_ab, dtype=float)
    r = np.asarray(r12, dtype=float)
    kmag = float(np.linalg.norm(k))
    if kmag == 0.0:
        raise ValueError("ee_correlation requires |k_ab| > 0")
    xi = 0.5 / kmag
    dot = float(k @ r)
    rmag = float(np.linalg.norm(r))
    return coulomb_norm(xi) * kummer_1f1(1j * xi, 1.0, -1j * (kmag * rmag + dot))


def clenshaw_table(table, x) -> np.ndarray:
    """``table``'s Chebyshev fit at real x, by Clenshaw's recurrence.

    Refits the table's segments and sums sum_k c_k T_k(t) in complex
    arithmetic, on the segment and t that ``table.evaluate`` uses.
    """
    n_seg, cheb = _chebyshev_segments(table.alpha, table.x_max)
    u = np.clip(np.asarray(x, dtype=float), 0.0, table.x_max) * (n_seg / table.x_max)
    seg = np.minimum(u.astype(np.intp), n_seg - 1)
    t = 2.0 * (u - seg) - 1.0
    b1 = b2 = np.zeros(u.shape, dtype=complex)
    for k in range(cheb.shape[1] - 1, 0, -1):
        b1, b2 = cheb[seg, k] + 2.0 * t * b1 - b2, b1
    return cheb[seg, 0] + t * b1 - b2
