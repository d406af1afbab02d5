"""Entanglement measures for the outgoing electron pair.

The general mixed-state measure is the Wootters concurrence of a
density matrix.  For the states produced by ionization with fully
polarized or unpolarized initial spins, ``concurrence_closed_form``
gives it directly from arrays of amplitudes; the observables core in
``scan`` uses it, and ``validate`` checks it against the Wootters route.
Entropies are base-2 throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .spin import is_unit_norm, product_matrix

__all__ = [
    "concurrence_wootters",
    "concurrence_closed_form",
    "concurrence_pure_from_state",
    "entanglement_of_formation",
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
    return float(wootters_batch(product_matrix(rho)))


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
    unit1, unit2 = is_unit_norm(m1), is_unit_norm(m2)
    if unit1 and unit2:
        return _pure_form(td, te, float(p1 @ p2))
    if (unit1 and m2 == 0.0) or (m1 == 0.0 and unit2):
        return _pure_form(td, te, 0.0)
    if m1 == 0.0 and m2 == 0.0:
        return _unpolarized_form(td, te)
    return None


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


def von_neumann_entropy(rho1) -> float:
    """-Tr(rho log2 rho) of a single-electron density matrix."""
    w = np.linalg.eigvalsh(product_matrix(rho1, 2))
    if w.min() < -1e-8:
        raise ValueError(f"reduced density matrix has eigenvalue {w.min():.3g} < 0")
    return sum(_binary_entropy_term(float(x)) for x in w)


def _binary_entropy_term(x: float) -> float:
    if x <= 0.0:
        return 0.0
    return -x * math.log2(x)


def linear_entropy(rho1) -> float:
    """1 - Tr(rho^2) of a single-electron density matrix."""
    m = product_matrix(rho1, 2)
    return 1.0 - float(np.trace(m @ m).real)
