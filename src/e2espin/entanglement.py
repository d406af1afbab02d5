"""Entanglement measures for the outgoing electron pair.

The general mixed-state measure is the Wootters concurrence; for the
states produced by ionization there are closed forms in terms of the
amplitudes and initial polarizations, which the functions below expose
alongside the matrix route so each can serve as an oracle for the
other.  Entropies are base-2 throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .spin import AmplitudePair, DegenerateStateError, SpinDensityMatrix

__all__ = [
    "concurrence_wootters",
    "concurrence_closed_form",
    "concurrence_pure_closed",
    "concurrence_pure_from_state",
    "concurrence_unpolarized",
    "singlet_triplet_concurrence",
    "entanglement_of_formation",
    "entropy_from_concurrence",
    "von_neumann_entropy",
    "linear_entropy",
]

# sigma_y (x) sigma_y in the product basis (real matrix).
_YY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


def _as_product_matrix(rho) -> np.ndarray:
    if isinstance(rho, SpinDensityMatrix):
        if rho.basis != "product":
            raise ValueError("concurrence requires a product-basis density matrix")
        m = rho.matrix
    else:
        m = np.asarray(rho, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {m.shape}")
    if np.abs(m - m.conj().T).max() > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    tr = np.trace(m)
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"density matrix trace is {tr}, expected 1")
    return m


def wootters_batch(rhos: np.ndarray) -> np.ndarray:
    """Wootters concurrence of a stack of product-basis matrices (..., 4, 4).

    The needed square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy) are the eigenvalues of the Hermitian
    surrogate sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho), which
    factors as A A^dag with A = sqrt(rho) (sy x sy) conj(sqrt(rho)).
    Taking the singular values of A directly avoids the square root of
    noise-level eigenvalues, which would otherwise inflate rounding
    errors from 1e-16 to 1e-8.
    """
    w, v = np.linalg.eigh(rhos)
    # spectral floor: eigenvalues at rounding level are structural zeros
    w = np.where(w > 1e-14 * w[..., -1:], w, 0.0)
    vh = np.conj(np.swapaxes(v, -1, -2))
    sqrt_rho = (v * np.sqrt(w)[..., None, :]) @ vh
    a = sqrt_rho @ _YY @ np.conj(sqrt_rho)
    s = np.linalg.svd(a, compute_uv=False)  # descending
    c = s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3]
    return np.clip(c, 0.0, 1.0)


def concurrence_wootters(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix (product basis)."""
    return float(wootters_batch(_as_product_matrix(rho)))


def _pure_form(td, te, dot: float) -> np.ndarray:
    """Pure-state closed form on amplitude arrays, 0 where the state vanishes."""
    ab2 = np.abs(td) ** 2 + np.abs(te) ** 2
    u = ab2 - (td * np.conj(te)).real * (1.0 + dot)
    good = (ab2 > 0.0) & (u > 1e-14 * ab2)
    out = np.zeros(np.shape(td))
    out[good] = np.abs(td[good]) * np.abs(te[good]) * (1.0 - dot) / u[good]
    return np.clip(out, 0.0, 1.0)


def _unpolarized_form(td, te) -> np.ndarray:
    """Unpolarized closed form on amplitude arrays, 0 where the gate is shut."""
    gate = np.abs(td + te) ** 2 - 3.0 * np.abs(td - te) ** 2
    open_ = gate > 0.0
    tdg, teg = td[open_], te[open_]
    re = (tdg * np.conj(teg)).real
    ab2 = np.abs(tdg) ** 2 + np.abs(teg) ** 2
    out = np.zeros(np.shape(td))
    out[open_] = (4.0 * re - ab2) / (2.0 * (ab2 - re))
    return np.clip(out, 0.0, 1.0)


def concurrence_closed_form(td, te, p1, p2):
    """Closed-form pair concurrence on arrays of amplitudes, or None.

    Covers unit/unit polarizations (pure state), zero/zero (unpolarized)
    and unit/zero (one electron unpolarized, where the pure form with
    perpendicular polarizations applies).  Any other pair has no closed
    form and gives None; ``concurrence_wootters`` of the averaged density
    matrix covers it.  Points where both amplitudes vanish give 0.
    """
    td = np.asarray(td, dtype=complex)
    te = np.asarray(te, dtype=complex)
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    m1, m2 = float(np.linalg.norm(p1)), float(np.linalg.norm(p2))
    unit1, unit2 = abs(m1 - 1.0) < 1e-12, abs(m2 - 1.0) < 1e-12
    if unit1 and unit2:
        return _pure_form(td, te, float(p1 @ p2))
    if (unit1 and m2 == 0.0) or (m1 == 0.0 and unit2):
        return _pure_form(td, te, 0.0)
    if m1 == 0.0 and m2 == 0.0:
        return _unpolarized_form(td, te)
    return None


def concurrence_pure_closed(amps: AmplitudePair, zeta1, zeta2) -> float:
    """Closed-form pair concurrence for fully polarized initial spins.

    C = |t_d||t_e|(1 - z1.z2) / (|t_d|^2 + |t_e|^2 - Re(t_d t_e*)(1 + z1.z2))
    """
    td, te = complex(amps.t_d), complex(amps.t_e)
    z1 = np.asarray(zeta1, dtype=float)
    z2 = np.asarray(zeta2, dtype=float)
    for name, z in (("zeta1", z1), ("zeta2", z2)):
        if abs(np.linalg.norm(z) - 1.0) > 1e-8:
            raise ValueError(f"{name} must be a unit vector")
    dot = float(z1 @ z2)
    u = abs(td) ** 2 + abs(te) ** 2 - (td * te.conjugate()).real * (1.0 + dot)
    if u <= 1e-14 * (abs(td) ** 2 + abs(te) ** 2 + 1e-300):
        raise DegenerateStateError("pair state vanishes (u = 0)")
    return float(_pure_form(np.asarray(td), np.asarray(te), dot))


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


def concurrence_unpolarized(amps: AmplitudePair) -> float:
    """Pair concurrence for unpolarized projectile and target.

    Nonzero only when singlet scattering dominates:
    theta(|t_d + t_e|^2 - 3 |t_d - t_e|^2)
      * (4 Re(t_d t_e*) - |t_d|^2 - |t_e|^2)
      / (2 (|t_d|^2 + |t_e|^2 - Re(t_d t_e*))).
    """
    td, te = complex(amps.t_d), complex(amps.t_e)
    if td == 0.0 and te == 0.0:
        raise ValueError("both amplitudes are zero")
    return float(_unpolarized_form(np.asarray(td), np.asarray(te)))


def singlet_triplet_concurrence(i_s: float, i_t: float) -> float:
    """Unpolarized-beam concurrence from singlet/triplet TDCS components."""
    if i_s < 0.0 or i_t < 0.0:
        raise ValueError("cross-section components must be nonnegative")
    if i_s == 0.0 and i_t == 0.0:
        raise ValueError("cross-section components are both zero")
    if i_s <= i_t:
        return 0.0
    return (i_s - i_t) / (i_s + i_t)


def entanglement_of_formation(c):
    """Entanglement of formation of a two-qubit state with concurrence c.

    Takes a scalar (returns a float) or an array of concurrences.
    """
    c = np.asarray(c, dtype=float)
    ok = (c >= 0.0) & (c <= 1.0)
    if not ok.all():
        raise ValueError(f"concurrence must be in [0, 1], got {c[~ok].flat[0]}")
    x = 0.5 * (1.0 + np.sqrt(np.clip(1.0 - c * c, 0.0, None)))
    out = np.zeros_like(x)
    inner = (x > 0.0) & (x < 1.0)
    xi = x[inner]
    out[inner] = -xi * np.log2(xi) - (1.0 - xi) * np.log2(1.0 - xi)
    return float(out) if out.ndim == 0 else out


def entropy_from_concurrence(c: float) -> float:
    """Von Neumann entropy of either marginal of a pure pair state.

    For pure states this coincides with the entanglement of formation.
    """
    return entanglement_of_formation(c)


def von_neumann_entropy(rho1) -> float:
    """-Tr(rho log2 rho) of a single-electron density matrix."""
    m = np.asarray(rho1, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 reduced density matrix")
    if np.abs(m - m.conj().T).max() > 1e-10:
        raise ValueError("reduced density matrix is not Hermitian")
    w = np.linalg.eigvalsh(m)
    if w.min() < -1e-8:
        raise ValueError(f"reduced density matrix has eigenvalue {w.min():.3g} < 0")
    return sum(_binary_entropy_term(float(x)) for x in w)


def _binary_entropy_term(x: float) -> float:
    if x <= 0.0:
        return 0.0
    return -x * math.log2(x)


def linear_entropy(rho1) -> float:
    """1 - Tr(rho^2) of a single-electron density matrix."""
    m = np.asarray(rho1, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 reduced density matrix")
    return 1.0 - float(np.trace(m @ m).real)
