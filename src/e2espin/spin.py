"""Two-qubit spin algebra for the outgoing electron pair.

The pair state produced by an ionizing collision with direct and
exchange amplitudes (t_d, t_e), projectile spinor chi and target
spinor eta is

    |X> = t_d |chi>|eta> - t_e |eta>|chi>        (unnormalized),

the first factor being the electron seen by detector A and the second
the one seen by detector B.

Basis conventions
-----------------
A pair state is a plain 4x4 array in the product basis, ordered
(uu, ud, du, dd).  Bell basis order: (Phi+, Phi-, Psi+, Psi-) with
Phi+- = (uu +- dd)/sqrt(2) and Psi+- = (ud +- du)/sqrt(2).
``BELL_TO_PRODUCT`` maps Bell coordinates to product coordinates;
``to_bell_basis`` is the one place that conjugates a pair matrix with it.

Spin directions are described either by Bloch angles (theta, phi) or
by polarization 3-vectors.  A unit polarization vector corresponds to
a pure spinor; shorter vectors describe partially polarized ensembles
and enter only through the statistically averaged density matrix.

On pair density matrices the collision acts as T = t_d 1 - t_e S,
with S the swap of the two qubits, so an initial state
rho_in = rho1 (x) rho2, rho_i = (1 + P_i.sigma)/2, leaves as
rho_out = T rho_in T^dag / Tr(T rho_in T^dag).  ``pair_matrix`` builds
the unnormalized T rho_in T^dag from the two polarization vectors;
``rho_pure`` (the spinor route) and ``rho_bell_closed_form`` are its
independent oracles.

The spin-state input rules live here and nowhere else, with one
tolerance of 1e-12: ``unit_vector`` (a finite 3-vector of norm 1),
``polarization_matrix`` (norm at most 1), ``dot_sigma`` (n.sigma) and
``product_matrix`` (a Hermitian matrix of unit trace whose smallest
eigenvalue is at least -1e-12).  So does the empty pair state rule
``is_empty_pair``: Tr(T rho_in T^dag) <= 1e-14 (|t_d|^2 + |t_e|^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateStateError",
    "AmplitudePair",
    "PAULI",
    "BELL_TO_PRODUCT",
    "unit_vector",
    "is_unit_norm",
    "is_empty_pair",
    "dot_sigma",
    "bloch_spinor",
    "spinor_from_polarization",
    "pair_state",
    "rho_pure",
    "polarization_matrix",
    "pair_matrix",
    "rho_mixed",
    "rho_bell_closed_form",
    "product_matrix",
    "reduced_density",
    "to_bell_basis",
]


class DegenerateStateError(ValueError):
    """The amplitude/polarization combination annihilates the pair state."""


PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

_SQRT2 = math.sqrt(2.0)

# Columns are the Bell states written in the product basis.
BELL_TO_PRODUCT = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, -1.0],
        [1.0, -1.0, 0.0, 0.0],
    ],
    dtype=complex,
) / _SQRT2

# |norm - 1|, Hermiticity, |trace - 1| and the eigenvalue floor of a spin-state input
_TOL = 1e-12
_EMPTY = 1e-14  # pair weight over |t_d|^2 + |t_e|^2 that counts as an empty pair state


@dataclass(frozen=True)
class AmplitudePair:
    """Direct and exchange ionization amplitudes (atomic units)."""

    t_d: complex
    t_e: complex


def product_matrix(rho, dim: int = 4) -> np.ndarray:
    """``rho`` as a checked complex product-basis density matrix.

    The one density-matrix rule: ``dim`` x ``dim`` (4 for the pair, 2
    for one electron), Hermitian, of unit trace and with no eigenvalue
    below -1e-12, all within the one tolerance 1e-12.  A complex array
    that passes is returned as is.
    """
    m = np.asarray(rho, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} density matrix, got shape {m.shape}")
    if not np.abs(m - m.conj().T).max() <= _TOL:  # NaN fails this too
        raise ValueError("density matrix is not Hermitian")
    tr = np.trace(m)
    if not abs(tr - 1.0) <= _TOL:
        raise ValueError(f"density matrix trace is {tr}, expected 1")
    w = np.linalg.eigvalsh(m)[0]
    if not w >= -_TOL:
        raise ValueError(f"density matrix has eigenvalue {w:.3g} < 0")
    return m


def bloch_spinor(theta: float, phi: float) -> np.ndarray:
    """Spinor (cos(theta/2), sin(theta/2) e^{i phi}) on the Bloch sphere.

    theta must lie in [0, pi] and phi in [0, 2 pi).
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must be in [0, pi], got {theta}")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise ValueError(f"phi must be in [0, 2 pi), got {phi}")
    return np.array(
        [math.cos(0.5 * theta), math.sin(0.5 * theta) * complex(math.cos(phi), math.sin(phi))],
        dtype=complex,
    )


def is_unit_norm(m: float) -> bool:
    """Whether a vector norm ``m`` counts as 1: |m - 1| <= 1e-12 (NaN does not)."""
    return abs(m - 1.0) <= _TOL


def is_empty_pair(u, td, te):
    """Whether pair weight u counts as 0: u <= 1e-14 (|t_d|^2 + |t_e|^2); elementwise on arrays."""
    return u <= _EMPTY * (np.abs(td) ** 2 + np.abs(te) ** 2)


def unit_vector(v, name: str) -> np.ndarray:
    """``v`` as a float array, if it is a unit direction; ``name`` labels it in errors."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector")
    n = float(np.linalg.norm(v))
    if not is_unit_norm(n):
        raise ValueError(f"{name} must be a unit vector, |{name}| = {n:.12g}")
    return v


def dot_sigma(n) -> np.ndarray:
    """The 2x2 spin operator n.sigma of a 3-vector ``n``."""
    return n[0] * PAULI[0] + n[1] * PAULI[1] + n[2] * PAULI[2]


def spinor_from_polarization(zeta, name: str = "zeta") -> np.ndarray:
    """Spin-up spinor along the unit polarization vector ``zeta``."""
    zeta = unit_vector(zeta, name)
    theta = math.acos(min(1.0, max(-1.0, zeta[2])))
    phi = math.atan2(zeta[1], zeta[0]) % (2.0 * math.pi)
    if phi == 2.0 * math.pi:  # a tiny negative angle wraps to 2 pi, the direction of 0
        phi = 0.0
    return bloch_spinor(theta, phi)


def pair_state(amps: AmplitudePair, chi, eta) -> np.ndarray:
    """Unnormalized product-basis pair state t_d chi(x)eta - t_e eta(x)chi."""
    chi = np.asarray(chi, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    return amps.t_d * np.kron(chi, eta) - amps.t_e * np.kron(eta, chi)


def polarization_matrix(p, name: str) -> np.ndarray:
    """Single-electron matrix (1 + P.sigma)/2 of the polarization vector ``p``.

    The one bound on a polarization; ``name`` labels ``p`` in errors.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"polarization {name} must be a 3-vector")
    m = float(np.linalg.norm(p))
    if not m - 1.0 <= _TOL:  # the comparison of is_unit_norm; NaN fails it too
        raise ValueError(f"polarization magnitudes must be <= 1, |{name}| = {m:.12g}")
    x, y, z = p
    return 0.5 * np.array([[1.0 + z, complex(x, -y)], [complex(x, y), 1.0 - z]])


def _pair_kernels(p1, p2):
    """(rho_in, S rho_in S, rho_in S) for rho_in = rho1 (x) rho2."""
    r1 = polarization_matrix(p1, "p1")
    r2 = polarization_matrix(p2, "p2")
    rho_in = r1[:, None, :, None] * r2[None, :, None, :]  # [a, b, c, d]
    return (
        rho_in.reshape(4, 4),
        rho_in.transpose(1, 0, 3, 2).reshape(4, 4),  # swap both row and column qubits
        rho_in.transpose(0, 1, 3, 2).reshape(4, 4),  # swap the column qubits
    )


def pair_matrix(td, te, p1, p2) -> np.ndarray:
    """Unnormalized polarization-averaged pair matrix T rho_in T^dag.

    rho_in = rho1 (x) rho2 with rho_i = (1 + P_i.sigma)/2, and
    T = t_d 1 - t_e S, so the matrix is
        |t_d|^2 rho_in + |t_e|^2 S rho_in S - t_d t_e* rho_in S - h.c.
    The three kernels are index permutations of rho_in.  Amplitude
    arrays give matrices of shape ``td.shape + (4, 4)``.  Real
    arithmetic (numpy's complex multiply may fuse) keeps Python's bits.
    """
    k1, k2, k3 = _pair_kernels(p1, p2)
    td = np.asarray(td, dtype=complex)[..., None, None]
    te = np.asarray(te, dtype=complex)[..., None, None]
    dr, di, er, ei = td.real, td.imag, te.real, te.imag
    cross = (dr * er + di * ei) + 1j * (di * er - dr * ei)  # t_d t_e*
    return (
        (dr * dr + di * di) * k1
        + (er * er + ei * ei) * k2
        - cross * k3
        - cross.conj() * k3.conj().T
    )


def rho_pure(amps: AmplitudePair, zeta1, zeta2) -> np.ndarray:
    """Normalized 4x4 product-basis pair matrix for fully polarized initial spins.

    Rank-1 projector onto the (normalized) pair state built from the
    unit polarization vectors zeta1 and zeta2.
    """
    chi = spinor_from_polarization(zeta1, "zeta1")
    eta = spinor_from_polarization(zeta2, "zeta2")
    x = pair_state(amps, chi, eta)
    u = float(np.vdot(x, x).real)
    if is_empty_pair(u, amps.t_d, amps.t_e):
        raise DegenerateStateError("pair state vanishes for these polarizations (u = 0)")
    return np.outer(x, x.conj()) / u


def rho_mixed(amps: AmplitudePair, p1, p2) -> np.ndarray:
    """Normalized 4x4 product-basis pair matrix for partially polarized beams.

    ``pair_matrix`` over its trace, for polarization vectors P1, P2 of
    length at most 1.  Reduces to ``rho_pure`` when both polarizations
    are unit vectors.
    """
    td, te = complex(amps.t_d), complex(amps.t_e)
    rho = pair_matrix(td, te, p1, p2)
    tr = float(np.trace(rho).real)
    if is_empty_pair(tr, td, te):
        raise DegenerateStateError("averaged pair state has zero weight (u = 0)")
    return rho / tr


def rho_bell_closed_form(amps: AmplitudePair, pol1, pol2) -> np.ndarray:
    """Closed-form normalized pair matrix as a 4x4 Bell-basis array.

    It exists only for the ``validate`` command's comparison with
    ``to_bell_basis`` of ``rho_pure`` and ``rho_mixed``.  Valid both for
    unit polarization vectors (pure case) and, by direct substitution,
    for ensemble polarization vectors of length < 1: the unnormalized
    matrix is linear in each polarization vector, so the statistical
    average only replaces the unit vectors by P1, P2.
    """
    td, te = complex(amps.t_d), complex(amps.t_e)
    z1 = np.asarray(pol1, dtype=float)
    z2 = np.asarray(pol2, dtype=float)
    x1, y1, zz1 = z1
    x2, y2, zz2 = z2
    dot = float(z1 @ z2)
    u = abs(td) ** 2 + abs(te) ** 2 - (1.0 + dot) * (td * te.conjugate()).real
    if is_empty_pair(u, td, te):
        raise DegenerateStateError("pair state vanishes (u = 0)")
    dd = abs(td - te) ** 2
    ss = abs(td + te) ** 2
    ds = (td - te) * (td + te).conjugate()
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = dd * (1.0 + x1 * x2 - y1 * y2 + zz1 * zz2)
    m[0, 1] = dd * (zz1 + zz2 + 1j * x1 * y2 + 1j * y1 * x2)
    m[0, 2] = dd * (x1 + x2 - 1j * y1 * zz2 - 1j * zz1 * y2)
    m[0, 3] = ds * (1j * y1 - 1j * y2 - x1 * zz2 + zz1 * x2)
    m[1, 1] = dd * (1.0 - x1 * x2 + y1 * y2 + zz1 * zz2)
    m[1, 2] = dd * (-1j * y1 - 1j * y2 + x1 * zz2 + zz1 * x2)
    m[1, 3] = ds * (-x1 + x2 + 1j * y1 * zz2 - 1j * zz1 * y2)
    m[2, 2] = dd * (1.0 + x1 * x2 + y1 * y2 - zz1 * zz2)
    m[2, 3] = ds * (zz1 - zz2 - 1j * x1 * y2 + 1j * y1 * x2)
    m[3, 3] = ss * (1.0 - x1 * x2 - y1 * y2 - zz1 * zz2)
    for i in range(4):
        for j in range(i):
            m[i, j] = m[j, i].conjugate()
    return m / (4.0 * u)


def reduced_density(rho, keep: str = "first") -> np.ndarray:
    """Partial trace of a product-basis pair matrix onto one electron."""
    m = product_matrix(rho).reshape(2, 2, 2, 2)
    if keep == "first":
        return np.einsum("ijkj->ik", m)
    if keep == "second":
        return np.einsum("ijik->jk", m)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


def to_bell_basis(rho) -> np.ndarray:
    """A 4x4 product-basis pair matrix re-expressed in the Bell basis."""
    u = BELL_TO_PRODUCT
    return u.conj().T @ rho @ u
