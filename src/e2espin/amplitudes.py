"""Ionization amplitude models for atomic hydrogen (1s target).

Two models are provided:

* ``pwba``: the analytic plane-wave Born amplitudes
      t_d = 4 pi phi(q) / |k0 - kA|^2,   t_e = 4 pi phi(q) / |k0 - kB|^2,
  with phi the momentum-space 1s wave function and q = kA + kB - k0.

* ``c3``: the 3C (BBK-type) T matrix, a six-dimensional integral over
  the two electron coordinates of
      psiC*(kA, r1) psiC*(kB, r2) f*(kAB, r12)
        (1/r12 - 1/r1) e^{i k0.r1} psi_1s(r2),
  where psiC are Coulomb waves in the proton field, f is the
  electron-electron Coulomb correlation factor with relative momentum
  kAB = (kA - kB)/2, and the integral is evaluated by importance-sampled
  Monte Carlo (see ``c3mc``).

Momentum-space normalization follows the convention
int d^3p/(2 pi)^3 |phi(p)|^2 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import Kinematics, KinematicsError
from .spin import AmplitudePair

__all__ = [
    "HYDROGEN_ET_EV",
    "McConfig",
    "pwba_amplitudes",
    "pwba_grid",
    "free_limit_closed_form",
]

# E_T of H(1s) in eV, the one target; the 3C stream word hashes its exact bits
HYDROGEN_ET_EV = -13.605693


@dataclass(frozen=True)
class McConfig:
    """Budget and sampling parameters of the 3C Monte Carlo estimator.

    samples: per-amplitude sample count (>= 1000 for any reported
    estimate).  r_max bounds both radial integrals (the bound-state
    weight makes the r2 tail negligible, and the r1 integrand is
    smoothly tapered toward r_max, see ``c3mc``).
    With debug_free_limit the continuum distortions are evaluated at
    Z = 0 and the correlation factor is replaced by unity, which makes
    the integral exactly computable for cross-checks.
    """

    samples: int = 200_000
    seed: int = 0
    r_max: float = 14.0
    debug_free_limit: bool = False

    def validated(self) -> "McConfig":
        if int(self.samples) < 1000:
            raise ValueError(f"mc samples must be >= 1000, got {self.samples}")
        if int(self.seed) < 0:
            raise ValueError(f"mc seed must be nonnegative, got {self.seed}")
        if int(self.seed) >= 2**64:  # the Philox key holds 64 bits of seed
            raise ValueError(f"mc seed must be below 2**64, got {self.seed}")
        if not 0.0 < self.r_max < math.inf:
            raise ValueError(f"mc r_max must be positive and finite, got {self.r_max}")
        return self


def _phi_1s_q2(q2):
    """Momentum-space 1s wave function as a function of |q|^2."""
    return 8.0 * math.sqrt(math.pi) / (q2 + 1.0) ** 2


def pwba_amplitudes(kin: Kinematics) -> AmplitudePair:
    """Plane-wave Born amplitude pair for the hydrogen 1s target."""
    da = kin.k0 - kin.k_a
    db = kin.k0 - kin.k_b
    da2 = float(da @ da)
    db2 = float(db @ db)
    if da2 == 0.0 or db2 == 0.0:
        raise KinematicsError("vanishing momentum transfer: Born amplitude is singular")
    phi = _phi_1s_q2(float(kin.q @ kin.q))
    return AmplitudePair(
        t_d=complex(4.0 * math.pi * phi / da2),
        t_e=complex(4.0 * math.pi * phi / db2),
    )


def pwba_grid(e0: float, e_b: float, e_t: float, theta_a_rad, theta_b_rad):
    """Vectorized Born amplitudes on an angle grid.

    Returns complex arrays (t_d, t_e) of shape (len(theta_a), len(theta_b)).
    """
    e_a = e0 + e_t - e_b
    if e_a <= 0.0:
        raise KinematicsError(f"closed channel: e_a = {e_a:.6g} <= 0")
    ka = math.sqrt(2.0 * e_a)
    kb = math.sqrt(2.0 * e_b)
    k0 = math.sqrt(2.0 * e0)
    ta = np.asarray(theta_a_rad, dtype=float)[:, None]
    tb = np.asarray(theta_b_rad, dtype=float)[None, :]
    kax, kaz = ka * np.sin(ta), ka * np.cos(ta)
    kbx, kbz = kb * np.sin(tb), kb * np.cos(tb)
    qx = kax + kbx
    qz = kaz + kbz - k0
    q2 = qx * qx + qz * qz
    da2 = kax * kax + (kaz - k0) ** 2
    db2 = kbx * kbx + (kbz - k0) ** 2
    if np.any(da2 == 0.0) or np.any(db2 == 0.0):
        raise KinematicsError("vanishing momentum transfer on the grid")
    phi = _phi_1s_q2(q2)
    td = 4.0 * math.pi * phi / da2
    te = 4.0 * math.pi * phi / db2
    return td.astype(complex), te.astype(complex)


def free_limit_closed_form(kin: Kinematics, ordering: str = "direct") -> complex:
    """Exact plane-wave limit of the 3C T matrix.

    With unit correlation factor and Z = 0 continuum distortions the
    six-dimensional integral factorizes (substitute r1 = r2 + s and use
    the Fourier transform of 1/s), giving
        4 pi / |k0 - kA|^2 * (phi(q) - phi(kB))
    for the direct ordering, and kA <-> kB for the exchange one.
    """
    if ordering == "direct":
        kfast, kslow = kin.k_a, kin.k_b
    elif ordering == "exchange":
        kfast, kslow = kin.k_b, kin.k_a
    else:
        raise ValueError(f"ordering must be 'direct' or 'exchange', got {ordering!r}")
    d = kin.k0 - kfast
    d2 = float(d @ d)
    if d2 == 0.0:
        raise KinematicsError("vanishing momentum transfer in the plane-wave limit")
    phi_q = _phi_1s_q2(float(kin.q @ kin.q))
    phi_k = _phi_1s_q2(float(kslow @ kslow))
    return complex(4.0 * math.pi * (phi_q - phi_k) / d2)
