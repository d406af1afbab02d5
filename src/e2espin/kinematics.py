"""Coplanar (e,2e) kinematics and spin-resolved TDCS assembly.

Atomic units throughout: energies in hartree, momenta in 1/bohr, cross
sections in bohr^2 / hartree / sr^2.  The beam travels along +z and
the scattering plane is xz.  Emission angles are measured from the
beam, signed, positive in the upper half plane (+x side); both -pi and
+pi describe the same backward direction, and give the same momentum.

The target is infinitely heavy and at rest, so energy conservation
reads E_A + E_B = E_0 + E_T with E_T < 0 the bound-state energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin import AmplitudePair

__all__ = [
    "KinematicsError",
    "HARTREE_EV",
    "Kinematics",
    "build_coplanar",
    "tdcs_prefactor",
    "tdcs_polarized",
]

HARTREE_EV = 27.211386245988


class KinematicsError(ValueError):
    """The requested kinematics are closed or outside the model's domain."""


@dataclass(frozen=True)
class Kinematics:
    """On-shell coplanar kinematics of one (e,2e) event (atomic units)."""

    e0: float
    e_a: float
    e_b: float
    e_t: float
    theta_a: float
    theta_b: float
    k0: np.ndarray
    k_a: np.ndarray
    k_b: np.ndarray
    q: np.ndarray  # momentum transfer to the residual system, kA + kB - k0


def _freeze(v: np.ndarray) -> np.ndarray:
    v = np.ascontiguousarray(v, dtype=float)
    v.flags.writeable = False
    return v


def _sin(theta: float) -> float:
    """sin(theta), exactly 0 at theta = +-pi, where math.sin gives +-1.2e-16."""
    return 0.0 if abs(theta) == math.pi else math.sin(theta)


def build_coplanar(e0: float, e_b: float, theta_a: float, theta_b: float, e_t: float) -> Kinematics:
    """Construct on-shell coplanar kinematics.

    Parameters are in hartree and radians; e_t is the (negative) bound
    state energy, and e_a is fixed by energy conservation.

    In symmetric kinematics (e_a == e_b with theta_b == -theta_a) the
    second momentum is built by mirroring the first through the beam
    axis, so the two outgoing momenta are exact reflections of each
    other in floating point.  At theta = -pi and +pi, the one backward
    direction, a momentum has x component exactly 0, so both angles
    give bitwise-equal momenta.
    """
    e0 = float(e0)
    e_b = float(e_b)
    e_t = float(e_t)
    theta_a = float(theta_a)
    theta_b = float(theta_b)
    if e0 <= 0.0:
        raise KinematicsError(f"incident energy must be positive, got {e0}")
    if e_b <= 0.0:
        raise KinematicsError(f"outgoing energy e_b must be positive, got {e_b}")
    e_a = e0 + e_t - e_b
    if e_a <= 0.0:
        raise KinematicsError(
            f"closed channel: e_a = e0 + e_t - e_b = {e_a:.6g} <= 0 "
            f"(e0 = {e0:.6g}, e_t = {e_t:.6g}, e_b = {e_b:.6g})"
        )
    for name, th in (("theta_a", theta_a), ("theta_b", theta_b)):
        if not abs(th) <= math.pi + 1e-12:  # NaN fails every comparison
            raise KinematicsError(f"{name} must lie in [-pi, pi], got {th}")
    ka = math.sqrt(2.0 * e_a)
    kb = math.sqrt(2.0 * e_b)
    k0v = np.array([0.0, 0.0, math.sqrt(2.0 * e0)])
    kav = np.array([ka * _sin(theta_a), 0.0, ka * math.cos(theta_a)])
    if e_a == e_b and theta_b == -theta_a:
        kbv = np.array([-kav[0], 0.0, kav[2]])
    else:
        kbv = np.array([kb * _sin(theta_b), 0.0, kb * math.cos(theta_b)])
    q = kav + kbv - k0v
    return Kinematics(
        e0=e0,
        e_a=e_a,
        e_b=e_b,
        e_t=e_t,
        theta_a=theta_a,
        theta_b=theta_b,
        k0=_freeze(k0v),
        k_a=_freeze(kav),
        k_b=_freeze(kbv),
        q=_freeze(q),
    )


def tdcs_prefactor(kin: Kinematics) -> float:
    """Flux/phase-space prefactor kA kB / ((2 pi)^5 k0)."""
    ka = float(np.linalg.norm(kin.k_a))
    kb = float(np.linalg.norm(kin.k_b))
    k0 = float(np.linalg.norm(kin.k0))
    return ka * kb / ((2.0 * math.pi) ** 5 * k0)


def tdcs_polarized(amps: AmplitudePair, p_dot: float, kin: Kinematics) -> float:
    """Spin-unresolved TDCS for initial polarizations with P1.P2 = p_dot.

    prefactor * [|t_d|^2 + |t_e|^2 - (1 + P1.P2) Re(t_d t_e*)].
    """
    p_dot = float(p_dot)
    if not -1.0 <= p_dot <= 1.0:
        raise ValueError(f"p_dot must be in [-1, 1], got {p_dot}")
    td, te = complex(amps.t_d), complex(amps.t_e)
    val = abs(td) ** 2 + abs(te) ** 2 - (1.0 + p_dot) * (td * te.conjugate()).real
    return tdcs_prefactor(kin) * val
