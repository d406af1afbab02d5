"""CHSH operator and Bell-inequality quantities for the electron pair.

The fixed-setting CHSH combination is

    Pi = A1 (B1 - B2) + A2 (B1 + B2),

with A_i = a_i . sigma on the first electron and B_i = b_i . sigma on
the second.  The default projection directions maximize the violation
for the singlet: a1 = z, a2 = x, b1 = -(x + z)/sqrt(2),
b2 = (z - x)/sqrt(2).  Local realism bounds <Pi> by 2; quantum
mechanics by 2 sqrt(2) (Tsirelson).  The cross-section form of the
inequality, ``bell_lhs`` of the observables core in ``scan``, is
<Pi>/(2 sqrt 2); its classical bound is RATIO_BOUND = 1/sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin import (AmplitudePair, DegenerateStateError, dot_sigma, is_empty_pair,
                   product_matrix, unit_vector)

__all__ = [
    "DetectorSettings",
    "DEFAULT_SETTINGS",
    "TSIRELSON_BOUND",
    "RATIO_BOUND",
    "chsh_operator",
    "chsh_expectation",
    "chsh_closed_form",
]

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
RATIO_BOUND = 1.0 / math.sqrt(2.0)

_S = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class DetectorSettings:
    """Unit projection directions of the two spin analyzers."""

    a1: tuple = (0.0, 0.0, 1.0)
    a2: tuple = (1.0, 0.0, 0.0)
    b1: tuple = (-_S, 0.0, -_S)
    b2: tuple = (-_S, 0.0, _S)

    def vectors(self):
        return [unit_vector(getattr(self, n), f"setting {n}") for n in ("a1", "a2", "b1", "b2")]


DEFAULT_SETTINGS = DetectorSettings()


def chsh_operator(settings: DetectorSettings = DEFAULT_SETTINGS) -> np.ndarray:
    """4x4 Hermitian CHSH operator in the product basis."""
    op_a1, op_a2, op_b1, op_b2 = (dot_sigma(v) for v in settings.vectors())
    return np.kron(op_a1, op_b1 - op_b2) + np.kron(op_a2, op_b1 + op_b2)


def chsh_expectation(rho, settings: DetectorSettings = DEFAULT_SETTINGS) -> float:
    """Tr(rho Pi) for a product-basis density matrix."""
    return float(np.trace(product_matrix(rho) @ chsh_operator(settings)).real)


def chsh_closed_form(amps: AmplitudePair, pol1, pol2) -> float:
    """<Pi> at the default settings, directly from amplitudes.

    sqrt(2) [2 Re(t_d t_e*)(1 - z1y z2y)
             - (|t_d|^2 + |t_e|^2)(z1x z2x + z1z z2z)] / u,
    u = |t_d|^2 + |t_e|^2 - Re(t_d t_e*)(1 + z1.z2).

    Valid for unit polarization vectors, and with the ensemble vectors
    P1, P2 substituted for them in the partially polarized case.
    """
    td, te = complex(amps.t_d), complex(amps.t_e)
    z1 = np.asarray(pol1, dtype=float)
    z2 = np.asarray(pol2, dtype=float)
    re = (td * te.conjugate()).real
    ab2 = abs(td) ** 2 + abs(te) ** 2
    u = ab2 - re * (1.0 + float(z1 @ z2))
    if is_empty_pair(u, td, te):
        raise DegenerateStateError("pair state vanishes (u = 0)")
    num = 2.0 * re * (1.0 - z1[1] * z2[1]) - ab2 * (z1[0] * z2[0] + z1[2] * z2[2])
    return math.sqrt(2.0) * num / u
