"""Two-qubit spin algebra for the outgoing electron pair.

The pair state produced by an ionizing collision with direct and
exchange amplitudes (t_d, t_e), projectile spinor chi and target
spinor eta is

    |X> = t_d |chi>|eta> - t_e |eta>|chi>        (unnormalized),

the first factor being the electron seen by detector A and the second
the one seen by detector B.

Basis conventions
-----------------
Product basis order: (uu, ud, du, dd).
Bell basis order: (Phi+, Phi-, Psi+, Psi-) with
Phi+- = (uu +- dd)/sqrt(2) and Psi+- = (ud +- du)/sqrt(2).
``BELL_TO_PRODUCT`` maps Bell coordinates to product coordinates; its
conjugate transpose performs the reverse change of basis.

Spin directions are described either by Bloch angles (theta, phi) or
by polarization 3-vectors.  A unit polarization vector corresponds to
a pure spinor; shorter vectors describe partially polarized ensembles
and enter only through the statistically averaged density matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateStateError",
    "AmplitudePair",
    "SpinDensityMatrix",
    "PAULI",
    "BELL_TO_PRODUCT",
    "bloch_spinor",
    "spinor_from_polarization",
    "pauli_expectation",
    "pair_state",
    "bell_coefficients",
    "rho_pure",
    "rho_mixed",
    "rho_bell_closed_form",
    "reduced_density",
    "to_bell_basis",
    "to_product_basis",
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

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = -1e-10


@dataclass(frozen=True)
class AmplitudePair:
    """Direct and exchange ionization amplitudes (atomic units)."""

    t_d: complex
    t_e: complex


@dataclass(frozen=True)
class SpinDensityMatrix:
    """4x4 density matrix of the electron pair with a basis tag."""

    matrix: np.ndarray
    basis: str  # "product" or "bell"

    def validate(self) -> "SpinDensityMatrix":
        m = self.matrix
        if m.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got {m.shape}")
        if self.basis not in ("product", "bell"):
            raise ValueError(f"unknown basis tag {self.basis!r}")
        if np.abs(m - m.conj().T).max() > _HERM_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > _TRACE_TOL or abs(np.trace(m).imag) > _TRACE_TOL:
            raise ValueError("density matrix trace is not 1")
        if np.linalg.eigvalsh(m).min() < _PSD_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        return self


def _freeze(m: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(m)
    m.flags.writeable = False
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


def _unit3(v, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector")
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > 1e-8:
        raise ValueError(f"{name} must have unit norm, |{name}| = {n:.12g}")
    return v


def spinor_from_polarization(zeta) -> np.ndarray:
    """Spin-up spinor along the unit polarization vector ``zeta``."""
    zeta = _unit3(zeta, "zeta")
    theta = math.acos(min(1.0, max(-1.0, zeta[2])))
    phi = math.atan2(zeta[1], zeta[0]) % (2.0 * math.pi)
    return bloch_spinor(theta, phi)


def pauli_expectation(spinor) -> np.ndarray:
    """Expectation values (<sx>, <sy>, <sz>) of a single spinor."""
    u, d = complex(spinor[0]), complex(spinor[1])
    c = u.conjugate() * d
    return np.array([2.0 * c.real, 2.0 * c.imag, abs(u) ** 2 - abs(d) ** 2])


def pair_state(amps: AmplitudePair, chi, eta) -> np.ndarray:
    """Unnormalized product-basis pair state t_d chi(x)eta - t_e eta(x)chi."""
    chi = np.asarray(chi, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    return amps.t_d * np.kron(chi, eta) - amps.t_e * np.kron(eta, chi)


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


def _branch_kernels(p1, p2):
    """Polarization-averaged outer-product kernels (K1, K2, K3).

    The unnormalized averaged pair matrix is
        |t_d|^2 K1 + |t_e|^2 K2 - t_d t_e* K3 - t_d* t_e K3^dag,
    summed over the four (+-zeta1, +-zeta2) ensemble branches with
    weights (1 +- P1)(1 +- P2)/4.  The kernels are built once per
    polarization pair and returned read-only.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != (3,) or p2.shape != (3,):
        raise ValueError("polarization vectors must be 3-vectors")
    return _kernels_for(tuple(p1.tolist()), tuple(p2.tolist()))


@functools.lru_cache(maxsize=256)
def _kernels_for(p1: tuple, p2: tuple):
    p1 = np.array(p1)
    p2 = np.array(p2)
    m1 = float(np.linalg.norm(p1))
    m2 = float(np.linalg.norm(p2))
    if m1 > 1.0 + 1e-12 or m2 > 1.0 + 1e-12:
        raise ValueError(f"polarization magnitudes must be <= 1, got {m1:.12g}, {m2:.12g}")
    zhat = np.array([0.0, 0.0, 1.0])
    u1 = p1 / m1 if m1 > 0.0 else zhat
    u2 = p2 / m2 if m2 > 0.0 else zhat
    k1 = np.zeros((4, 4), dtype=complex)
    k2 = np.zeros((4, 4), dtype=complex)
    k3 = np.zeros((4, 4), dtype=complex)
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            w = 0.25 * (1.0 + s1 * m1) * (1.0 + s2 * m2)
            if w == 0.0:
                continue
            chi = spinor_from_polarization(s1 * u1)
            eta = spinor_from_polarization(s2 * u2)
            # the product-basis vectors chi (x) eta and eta (x) chi
            va = np.outer(chi, eta).ravel()
            vb = np.outer(eta, chi).ravel()
            k1 += w * np.outer(va, va.conj())
            k2 += w * np.outer(vb, vb.conj())
            k3 += w * np.outer(va, vb.conj())
    return _freeze(k1), _freeze(k2), _freeze(k3)


def _assemble_pair_density(td, te, k1, k2, k3) -> np.ndarray:
    """Unnormalized averaged pair matrix from the ``_branch_kernels``.

    Amplitude arrays give matrices of shape ``td.shape + (4, 4)``.  Real
    arithmetic (numpy's complex multiply may fuse) keeps Python's bits.
    """
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


def rho_pure(amps: AmplitudePair, zeta1, zeta2) -> SpinDensityMatrix:
    """Normalized pair density matrix for fully polarized initial spins.

    Rank-1 projector onto the (normalized) pair state built from the
    unit polarization vectors zeta1 and zeta2.
    """
    z1 = _unit3(zeta1, "zeta1")
    z2 = _unit3(zeta2, "zeta2")
    chi = spinor_from_polarization(z1)
    eta = spinor_from_polarization(z2)
    x = pair_state(amps, chi, eta)
    u = float(np.vdot(x, x).real)
    scale = abs(amps.t_d) ** 2 + abs(amps.t_e) ** 2
    if scale == 0.0:
        raise DegenerateStateError("both amplitudes are zero")
    if u <= 1e-14 * scale:
        raise DegenerateStateError(
            "pair state vanishes for these amplitudes and polarizations (u = 0)"
        )
    return SpinDensityMatrix(_freeze(np.outer(x, x.conj()) / u), "product")


def rho_mixed(amps: AmplitudePair, p1, p2) -> SpinDensityMatrix:
    """Normalized pair density matrix for partially polarized beams.

    Statistical average of the four pure branches (+-zeta1, +-zeta2)
    with weights (1 +- P1)(1 +- P2)/4, where zeta_i = P_i/|P_i|.
    Reduces to ``rho_pure`` when both polarizations are unit vectors.
    """
    td, te = complex(amps.t_d), complex(amps.t_e)
    if td == 0.0 and te == 0.0:
        raise DegenerateStateError("both amplitudes are zero")
    k1, k2, k3 = _branch_kernels(p1, p2)
    rho = _assemble_pair_density(td, te, k1, k2, k3)
    tr = float(np.trace(rho).real)
    if tr <= 1e-14 * (abs(td) ** 2 + abs(te) ** 2):
        raise DegenerateStateError("averaged pair state has zero weight (u = 0)")
    return SpinDensityMatrix(_freeze(rho / tr), "product")


def rho_bell_closed_form(amps: AmplitudePair, pol1, pol2) -> SpinDensityMatrix:
    """Closed-form pair density matrix in the Bell basis.

    Valid both for unit polarization vectors (pure case) and, by direct
    substitution, for ensemble polarization vectors of length < 1: the
    unnormalized matrix is linear in each polarization vector, so the
    statistical average only replaces the unit vectors by P1, P2.
    """
    td, te = complex(amps.t_d), complex(amps.t_e)
    z1 = np.asarray(pol1, dtype=float)
    z2 = np.asarray(pol2, dtype=float)
    x1, y1, zz1 = z1
    x2, y2, zz2 = z2
    dot = float(z1 @ z2)
    u = abs(td) ** 2 + abs(te) ** 2 - (1.0 + dot) * (td * te.conjugate()).real
    if u <= 1e-14 * (abs(td) ** 2 + abs(te) ** 2):
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
    return SpinDensityMatrix(_freeze(m / (4.0 * u)), "bell")


def reduced_density(rho: SpinDensityMatrix, keep: str = "first") -> np.ndarray:
    """Partial trace of a product-basis pair matrix onto one electron."""
    if rho.basis != "product":
        raise ValueError("reduced_density expects a product-basis matrix")
    m = rho.matrix.reshape(2, 2, 2, 2)
    if keep == "first":
        return np.einsum("ijkj->ik", m)
    if keep == "second":
        return np.einsum("ijik->jk", m)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


def to_bell_basis(rho: SpinDensityMatrix) -> SpinDensityMatrix:
    """Re-express a product-basis density matrix in the Bell basis."""
    if rho.basis != "product":
        raise ValueError("to_bell_basis expects a product-basis matrix")
    u = BELL_TO_PRODUCT
    return SpinDensityMatrix(_freeze(u.conj().T @ rho.matrix @ u), "bell")


def to_product_basis(rho: SpinDensityMatrix) -> SpinDensityMatrix:
    """Re-express a Bell-basis density matrix in the product basis."""
    if rho.basis != "bell":
        raise ValueError("to_product_basis expects a Bell-basis matrix")
    u = BELL_TO_PRODUCT
    return SpinDensityMatrix(_freeze(u @ rho.matrix @ u.conj().T), "product")
