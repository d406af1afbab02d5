"""Cross-checking suites: every closed form against its matrix oracle.

Each suite pits two independent routes to the same quantity against
each other (closed form vs. density-matrix algebra, analytic limit vs.
Monte Carlo, and so on) and reports the worst deviation against a
fixed tolerance.  The CLI ``validate`` subcommand runs them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import c3mc
from .amplitudes import McConfig, free_limit_closed_form, pwba_amplitudes
from .bell import (
    DEFAULT_SETTINGS,
    TSIRELSON_BOUND,
    bell_lhs_cross_sections,
    chsh_closed_form,
    chsh_expectation,
)
from .entanglement import (
    concurrence_closed_form,
    concurrence_pure_closed,
    concurrence_unpolarized,
    concurrence_wootters,
)
from .kinematics import build_coplanar
from .spin import (
    AmplitudePair,
    rho_bell_closed_form,
    rho_mixed,
    rho_pure,
    to_bell_basis,
)

__all__ = ["SuiteResult", "run_all_suites"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    observed: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (
            f"[{status}] {self.name}: observed {self.observed:.3e}, "
            f"tolerance {self.tolerance:.1e}{extra}"
        )


def _random_amplitudes(rng) -> AmplitudePair:
    z = rng.standard_normal(4)
    return AmplitudePair(complex(z[0], z[1]), complex(z[2], z[3]))


def _random_unit(rng) -> np.ndarray:
    while True:
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
        if n > 1e-3:
            return v / n


def suite_pure_concurrence(n: int = 10_000, seed: int = 20240, tol: float = 1e-10) -> SuiteResult:
    """Closed-form pure-state concurrence vs. Wootters on the projector."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        amps = _random_amplitudes(rng)
        z1, z2 = _random_unit(rng), _random_unit(rng)
        closed = concurrence_pure_closed(amps, z1, z2)
        woot = concurrence_wootters(rho_pure(amps, z1, z2))
        worst = max(worst, abs(closed - woot))
    return SuiteResult("pure-concurrence-closed-vs-wootters", worst <= tol, worst, tol)


def suite_mixed_concurrence(n: int = 10_000, seed: int = 20241, tol: float = 1e-10) -> SuiteResult:
    """Unpolarized and one-unpolarized closed forms vs. the Wootters route."""
    rng = np.random.default_rng(seed)
    zero = np.zeros(3)
    worst = 0.0
    for _ in range(n):
        amps = _random_amplitudes(rng)
        closed = concurrence_unpolarized(amps)
        woot = concurrence_wootters(rho_mixed(amps, zero, zero))
        worst = max(worst, abs(closed - woot))
        p1 = _random_unit(rng)
        closed1 = float(concurrence_closed_form(amps.t_d, amps.t_e, p1, zero))
        woot1 = concurrence_wootters(rho_mixed(amps, p1, zero))
        worst = max(worst, abs(closed1 - woot1))
    return SuiteResult("mixed-concurrence-closed-vs-wootters", worst <= tol, worst, tol)


def suite_density_closed_form(n: int = 1_000, seed: int = 20242, tol: float = 1e-12) -> SuiteResult:
    """Constructed density matrix vs. the closed-form Bell-basis entries."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        amps = _random_amplitudes(rng)
        z1, z2 = _random_unit(rng), _random_unit(rng)
        built = to_bell_basis(rho_pure(amps, z1, z2)).matrix
        closed = rho_bell_closed_form(amps, z1, z2).matrix
        worst = max(worst, float(np.abs(built - closed).max()))
        p1 = rng.uniform(0.0, 1.0) * _random_unit(rng)
        p2 = rng.uniform(0.0, 1.0) * _random_unit(rng)
        built = to_bell_basis(rho_mixed(amps, p1, p2)).matrix
        closed = rho_bell_closed_form(amps, p1, p2).matrix
        worst = max(worst, float(np.abs(built - closed).max()))
    return SuiteResult("density-matrix-closed-form", worst <= tol, worst, tol)


def suite_chsh(
    n: int = 10_000,
    seed: int = 20243,
    tol: float = 1e-12,
    closed_form=chsh_closed_form,
) -> SuiteResult:
    """Amplitude-level CHSH forms vs. the operator trace.

    ``closed_form`` is injectable so tests can verify the suite catches
    a wrong formula.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    singlet = AmplitudePair(1.0 + 0.0j, 1.0 + 0.0j)
    zhat = np.array([0.0, 0.0, 1.0])
    rho_s = rho_pure(singlet, zhat, -zhat)
    worst = max(worst, abs(closed_form(singlet, zhat, -zhat) - TSIRELSON_BOUND))
    worst = max(worst, abs(chsh_expectation(rho_s) - TSIRELSON_BOUND))
    for _ in range(n):
        amps = _random_amplitudes(rng)
        z1, z2 = _random_unit(rng), _random_unit(rng)
        closed = closed_form(amps, z1, z2)
        rho = rho_pure(amps, z1, z2)
        trace = chsh_expectation(rho, DEFAULT_SETTINGS)
        worst = max(worst, abs(closed - trace))
        # the cross-section form is <Pi>/(2 sqrt 2) for the same inputs
        td, te = amps.t_d, amps.t_e
        i_anti = abs(td) ** 2 + abs(te) ** 2
        i_par = abs(td - te) ** 2
        ratio = bell_lhs_cross_sections(i_anti, i_par, z1, z2)
        worst = max(worst, abs(ratio * TSIRELSON_BOUND - closed))
        if abs(trace) > TSIRELSON_BOUND + 1e-12:
            worst = max(worst, abs(trace) - TSIRELSON_BOUND)
    return SuiteResult("chsh-closed-vs-trace", worst <= tol, worst, tol)


def suite_pwba_symmetry(n: int = 200, seed: int = 20244, tol: float = 1e-15) -> SuiteResult:
    """Born amplitudes must coincide exactly in symmetric kinematics."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        e0 = rng.uniform(1.0, 5.0)
        et = -rng.uniform(0.2, 0.9)
        eb = 0.5 * (e0 + et)
        th = rng.uniform(0.05, math.pi - 0.05)
        kin = build_coplanar(e0, eb, th, -th, et)
        amps = pwba_amplitudes(kin)
        rel = abs(amps.t_d - amps.t_e) / abs(amps.t_d)
        worst = max(worst, rel)
    return SuiteResult("pwba-exchange-symmetry", worst <= tol, worst, tol)


def suite_c3_symmetry(samples: int = 20_000, seed: int = 20245) -> SuiteResult:
    """Mirror-symmetrized 3C sampling must give t_d == t_e exactly."""
    worst = 0.0
    for th_deg in (25.0, 45.0, 70.0, 130.0):
        kin = build_coplanar(2.0, 0.75, math.radians(th_deg), -math.radians(th_deg), -0.5)
        est = c3mc.c3_pair(kin, McConfig(samples=samples, seed=seed, r_max=14.0))
        worst = max(worst, abs(est.t_d - est.t_e))
    return SuiteResult("c3-exchange-symmetry", worst == 0.0, worst, 0.0)


def suite_c3_free_limit(samples: int = 200_000, seed: int = 20246) -> SuiteResult:
    """Plane-wave-limit Monte Carlo vs. the exact factorized integral."""
    kin = build_coplanar(2.0, 0.75, math.radians(45.0), math.radians(-60.0), -0.5)
    cfg = McConfig(samples=samples, seed=seed, r_max=14.0, debug_free_limit=True)
    est = c3mc.c3_pair(kin, cfg)
    worst = 0.0
    for ordering, value, err in (
        ("direct", est.t_d, (est.stderr_d_re, est.stderr_d_im)),
        ("exchange", est.t_e, (est.stderr_e_re, est.stderr_e_im)),
    ):
        oracle = free_limit_closed_form(kin, ordering)
        worst = max(
            worst,
            abs(value.real - oracle.real) / err[0],
            abs(value.imag - oracle.imag) / err[1],
        )
    return SuiteResult(
        "c3-plane-wave-limit", worst <= 3.0, worst, 3.0, detail="pull in standard errors"
    )


def run_all_suites(mc_samples: int = 200_000, seed: int = 0) -> list[SuiteResult]:
    """Run every oracle suite; MC budgets scale with ``mc_samples``."""
    return [
        suite_pure_concurrence(seed=20240 + seed),
        suite_mixed_concurrence(seed=20241 + seed),
        suite_density_closed_form(seed=20242 + seed),
        suite_chsh(seed=20243 + seed),
        suite_pwba_symmetry(seed=20244 + seed),
        suite_c3_symmetry(samples=max(1000, mc_samples // 10), seed=20245 + seed),
        suite_c3_free_limit(samples=mc_samples, seed=20246 + seed),
    ]
