"""Acceptance suite: one test per release criterion, fixed tolerances.

Every test prints a single [PASS]/[FAIL] line (run with ``pytest -s``
to see them all).  Monte Carlo checks use the 3-standard-error bands
of the estimator; the 3C figure-structure run uses the documented
reduced grid (10 degree step, 40000 samples per point).
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from e2espin import c3mc
from e2espin.amplitudes import McConfig, free_limit_closed_form, pwba_amplitudes
from e2espin.bell import (
    DEFAULT_SETTINGS,
    RATIO_BOUND,
    TSIRELSON_BOUND,
    chsh_closed_form,
    chsh_expectation,
)
from e2espin.bellsim import simulate_chsh
from e2espin.entanglement import concurrence_closed_form, concurrence_wootters
from e2espin.kinematics import build_coplanar
from e2espin.scan import (
    amplitude_grids,
    observables_from_amplitudes,
    parse_config,
    run_scan,
    write_csv,
    write_pgm,
)
from e2espin.special import kummer_1f1, ln_gamma
from e2espin.spin import (
    AmplitudePair,
    rho_bell_closed_form,
    rho_mixed,
    rho_pure,
    to_bell_basis,
)

C3_SCAN_STEP_DEG = 10.0
C3_SCAN_SAMPLES = 40_000

ZHAT = np.array([0.0, 0.0, 1.0])
PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


def random_amps(rng):
    z = rng.standard_normal(4)
    return AmplitudePair(complex(z[0], z[1]), complex(z[2], z[3]))


def random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


@pytest.fixture(scope="module")
def pwba_scans():
    """Default-protocol PWBA scans (2 degree grid) per scenario."""
    cfg = parse_config({})  # 54.4 eV, equal sharing, 2 degrees, pwba
    td, te, covs = amplitude_grids(cfg)
    out = {"thetas": cfg.grid_deg()}
    for scenario in ("perp", "antiparallel", "one_unpolarized", "unpolarized"):
        out[scenario] = observables_from_amplitudes(
            replace(cfg, scenario=scenario), td, te, covs
        )
    return out


@pytest.fixture(scope="module")
def c3_scans():
    """Reduced-grid 3C scans (10 degree step, fixed reduced budget)."""
    cfg = parse_config(
        {
            "model": "c3",
            "step_deg": C3_SCAN_STEP_DEG,
            "mc": {"samples": C3_SCAN_SAMPLES, "seed": 0},
        }
    )
    td, te, covs = amplitude_grids(cfg)
    out = {"thetas": cfg.grid_deg(), "td": td, "te": te}
    for scenario in ("perp", "antiparallel", "unpolarized"):
        out[scenario] = observables_from_amplitudes(
            replace(cfg, scenario=scenario), td, te, covs
        )
    return out


def test_criterion_01_pure_concurrence_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        amps = random_amps(rng)
        z1, z2 = random_unit(rng), random_unit(rng)
        closed = float(concurrence_closed_form(amps.t_d, amps.t_e, z1, z2))
        woot = concurrence_wootters(rho_pure(amps, z1, z2))
        worst = max(worst, abs(closed - woot))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report(
        "criterion 1 (pure concurrence closed vs Wootters)",
        ok,
        f"max|diff| = {worst:.3e} (tol 1e-10), runtime {elapsed:.1f} s (< 10 s)",
    )
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_02_mixed_concurrence_oracle():
    rng = np.random.default_rng(102)
    zero = np.zeros(3)
    worst_unpol = 0.0
    worst_one = 0.0
    for _ in range(10_000):
        amps = random_amps(rng)
        closed = float(concurrence_closed_form(amps.t_d, amps.t_e, zero, zero))
        worst_unpol = max(
            worst_unpol, abs(closed - concurrence_wootters(rho_mixed(amps, zero, zero)))
        )
        td, te = amps.t_d, amps.t_e
        perp = min(
            1.0,
            abs(td) * abs(te) / (abs(td) ** 2 + abs(te) ** 2 - (td * te.conjugate()).real),
        )
        worst_one = max(
            worst_one,
            abs(perp - concurrence_wootters(rho_mixed(amps, random_unit(rng), zero))),
        )
    ok = worst_unpol <= 1e-10 and worst_one <= 1e-10
    report(
        "criterion 2 (mixed concurrence closed vs Wootters)",
        ok,
        f"unpolarized max|diff| = {worst_unpol:.3e}, one-unpolarized = {worst_one:.3e} (tol 1e-10)",
    )
    assert worst_unpol <= 1e-10
    assert worst_one <= 1e-10


def test_criterion_03_bell_basis_closed_form():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        amps = random_amps(rng)
        z1, z2 = random_unit(rng), random_unit(rng)
        diff = np.abs(
            to_bell_basis(rho_pure(amps, z1, z2))
            - rho_bell_closed_form(amps, z1, z2)
        ).max()
        worst = max(worst, float(diff))
        p1 = rng.uniform() * random_unit(rng)
        p2 = rng.uniform() * random_unit(rng)
        diff = np.abs(
            to_bell_basis(rho_mixed(amps, p1, p2))
            - rho_bell_closed_form(amps, p1, p2)
        ).max()
        worst = max(worst, float(diff))
    ok = worst <= 1e-12
    report(
        "criterion 3 (Bell-basis density closed form)",
        ok,
        f"max elementwise |diff| = {worst:.3e} (tol 1e-12)",
    )
    assert worst <= 1e-12


def test_criterion_04_chsh_identities():
    rng = np.random.default_rng(104)
    worst_trace = 0.0
    worst_ratio = 0.0
    worst_bound = 0.0
    for _ in range(10_000):
        amps = random_amps(rng)
        z1, z2 = random_unit(rng), random_unit(rng)
        closed = chsh_closed_form(amps, z1, z2)
        trace = chsh_expectation(rho_pure(amps, z1, z2), DEFAULT_SETTINGS)
        worst_trace = max(worst_trace, abs(closed - trace))
        cfg = parse_config({"scenario": "custom", "p1": list(z1), "p2": list(z2)})
        lhs = observables_from_amplitudes(
            cfg, np.array([amps.t_d]), np.array([amps.t_e])
        )["bell_lhs"][0]
        worst_ratio = max(worst_ratio, abs(lhs * TSIRELSON_BOUND - closed))
        worst_bound = max(worst_bound, abs(trace) - TSIRELSON_BOUND)
    singlet = abs(
        chsh_expectation(rho_pure(AmplitudePair(1.0, 1.0), ZHAT, -ZHAT)) - TSIRELSON_BOUND
    )
    ok = (
        worst_trace <= 1e-12
        and worst_ratio <= 1e-12
        and singlet <= 1e-12
        and worst_bound <= 1e-12
    )
    report(
        "criterion 4 (CHSH identities)",
        ok,
        f"closed-vs-trace {worst_trace:.3e}, ratio identity {worst_ratio:.3e}, "
        f"singlet {singlet:.3e}, Tsirelson excess {worst_bound:.3e} (tol 1e-12)",
    )
    assert ok


def test_criterion_05_exchange_symmetry():
    worst_pwba = 0.0
    for th in (15.0, 35.264, 45.0, 77.0, 130.0):
        kin = build_coplanar(2.0, 0.75, math.radians(th), -math.radians(th), -0.5)
        amps = pwba_amplitudes(kin)
        worst_pwba = max(worst_pwba, abs(amps.t_d - amps.t_e) / abs(amps.t_d))
    worst_c3 = 0.0
    for th in (30.0, 45.0, 120.0):
        kin = build_coplanar(2.0, 0.75, math.radians(th), -math.radians(th), -0.5)
        est = c3mc.c3_pair(kin, McConfig(samples=20_000, seed=5))
        worst_c3 = max(worst_c3, abs(est.t_d - est.t_e))
    ok = worst_pwba <= 1e-15 and worst_c3 == 0.0
    report(
        "criterion 5 (parity symmetry)",
        ok,
        f"pwba rel diff {worst_pwba:.2e} (tol 1e-15), c3 |t_d - t_e| = {worst_c3} (exact 0)",
    )
    assert worst_pwba <= 1e-15
    assert worst_c3 == 0.0


def test_criterion_06_free_limit_oracle():
    kin = build_coplanar(2.0, 0.75, math.radians(45.0), math.radians(-60.0), -0.5)
    cfg = McConfig(samples=10_000_000, seed=606, debug_free_limit=True)
    start = time.perf_counter()
    est = c3mc.c3_pair(kin, cfg)
    elapsed = time.perf_counter() - start
    worst_pull = 0.0
    worst_rel = 0.0
    for ordering, val, err in (
        ("direct", est.t_d, (est.stderr_d_re, est.stderr_d_im)),
        ("exchange", est.t_e, (est.stderr_e_re, est.stderr_e_im)),
    ):
        oracle = free_limit_closed_form(kin, ordering)
        worst_pull = max(
            worst_pull,
            abs(val.real - oracle.real) / err[0],
            abs(val.imag - oracle.imag) / err[1],
        )
        worst_rel = max(worst_rel, math.hypot(*err) / abs(oracle))
    ok = worst_pull <= 3.0 and worst_rel <= 0.05 and elapsed <= 600.0
    report(
        "criterion 6 (3C plane-wave-limit oracle, 1e7 samples)",
        ok,
        f"worst pull {worst_pull:.2f} (<= 3), rel stderr {worst_rel:.2%} (<= 5%), "
        f"runtime {elapsed:.0f} s (<= 600 s)",
    )
    assert worst_pull <= 3.0
    assert worst_rel <= 0.05
    assert elapsed <= 600.0


def _grids(scans, scenario):
    return scans["thetas"], scans[scenario].__getitem__


def _measurable_diagonal(scans, scenario):
    """Mask of measurable grid points with theta_B = -theta_A != 0."""
    thetas, get = _grids(scans, scenario)
    ta, tb = thetas[:, None], thetas[None, :]
    return (ta == -tb) & (ta != 0.0) & get("measurable")


def _mott_factor(kin):
    """Spin-averaged e-e Mott factor 1/a^2 + 1/b^2 - 1/(ab).

    a = |k0 - kA|^2 and b = |k0 - kB|^2; this is
    1/4 |1/a + 1/b|^2 + 3/4 |1/a - 1/b|^2, always positive.
    """
    da = kin.k0 - kin.k_a
    db = kin.k0 - kin.k_b
    a = float(da @ da)
    b = float(db @ db)
    return 1.0 / a**2 + 1.0 / b**2 - 1.0 / (a * b)


def test_criterion_07a_pwba_tdcs_peak_location(pwba_scans):
    """The Born binary peak lies on the diagonal with |theta| in [30, 60] deg.

    The unpolarized PWBA TDCS factorizes exactly as
    tdcs = pref (4 pi)^2 phi(q)^2 M, with M the spin-averaged e-e Mott
    factor (``_mott_factor``) and q = kA + kB - k0.  The raw maximum
    sits at (0, 0): the Rutherford factor in M outgrows phi(q)^2 toward
    forward emission, since the first-order Born amplitude has no
    electron-electron repulsion.  That maximum is not the binary peak.
    The binary peak is where the ejected electron absorbs the whole
    momentum transfer, the Bethe ridge q = 0, which is the maximum of
    tdcs / M.  At 54.4 eV with equal sharing it lies on theta_A =
    -theta_B at |theta| = arccos(k0 / 2k) = 35.26 deg, so at 36 deg on
    the 2 degree grid.  M is computed here from the kinematics, not from
    the Born amplitudes under test.
    """
    cfg = parse_config({})
    e0, eb, et = cfg.energies_hartree()
    thetas, get = _grids(pwba_scans, "unpolarized")
    tdcs = get("tdcs")
    rad = np.radians(thetas)
    mott = np.array(
        [[_mott_factor(build_coplanar(e0, eb, ta, tb, et)) for tb in rad] for ta in rad]
    )
    ridge = tdcs / mott
    i, j = np.unravel_index(np.argmax(ridge), ridge.shape)
    ta, tb = thetas[i], thetas[j]
    ri, rj = np.unravel_index(np.argmax(tdcs), tdcs.shape)
    on_diag = ta == -tb
    in_band = 30.0 <= abs(ta) <= 60.0
    ok = on_diag and in_band
    report(
        "criterion 7a (PWBA Bethe-ridge peak of TDCS/Mott on diagonal, "
        "|theta| in [30, 60] deg)",
        ok,
        f"TDCS/M max at ({ta:.0f}, {tb:.0f}) deg; raw TDCS max at "
        f"({thetas[ri]:.0f}, {thetas[rj]:.0f}) deg (forward Born peak)",
    )
    assert on_diag, f"PWBA TDCS/M max at ({ta}, {tb}) is off the diagonal"
    assert in_band, f"PWBA TDCS/M max at ({ta}, {tb}) is outside |theta| in [30, 60]"


def test_criterion_07b_pwba_diagonal_concurrence(pwba_scans):
    worst = 0.0
    count = 0
    for scenario in ("perp", "antiparallel", "unpolarized"):
        diag = _measurable_diagonal(pwba_scans, scenario)
        conc = pwba_scans[scenario]["concurrence"][diag]
        worst = max(worst, float(np.abs(conc - 1.0).max(initial=0.0)))
        count += int(np.count_nonzero(diag))
    ok = count > 0 and worst <= 1e-6
    report(
        "criterion 7b (PWBA concurrence on measurable diagonal)",
        ok,
        f"max |C - 1| = {worst:.2e} over {count} points (tol 1e-6)",
    )
    assert ok


def test_criterion_07c_pwba_unpolarized_gate(pwba_scans):
    cfg = parse_config({})
    td, te, _ = amplitude_grids(cfg)
    i_s = 0.25 * np.abs(td + te) ** 2
    i_t = 0.75 * np.abs(td - te) ** 2
    _, get = _grids(pwba_scans, "unpolarized")
    conc = get("concurrence")
    bad = int(np.count_nonzero((i_t >= i_s) & (conc > 0.0)))
    ok = bad == 0
    report(
        "criterion 7c (unpolarized concurrence vanishes when triplet dominates)",
        ok,
        f"{bad} offending grid points",
    )
    assert ok


def test_criterion_07d_pwba_violation_superset(pwba_scans):
    # on points measurable under both polarization scenarios, every
    # perpendicular-scenario violation is also an antiparallel one, and
    # the antiparallel violation region is the larger one overall.  (The
    # two runs have different detection thresholds, so the comparison is
    # made where both runs see signal.)
    _, get_perp = _grids(pwba_scans, "perp")
    _, get_anti = _grids(pwba_scans, "antiparallel")
    both = get_perp("measurable") & get_anti("measurable")
    perp_viol = (get_perp("bell_lhs") > RATIO_BOUND) & both
    anti_viol = (get_anti("bell_lhs") > RATIO_BOUND) & both
    missing = int(np.count_nonzero(perp_viol & ~anti_viol))
    n_perp = int(np.count_nonzero((get_perp("bell_lhs") > RATIO_BOUND) & get_perp("measurable")))
    n_anti = int(np.count_nonzero((get_anti("bell_lhs") > RATIO_BOUND) & get_anti("measurable")))
    ok = missing == 0 and n_anti >= n_perp
    report(
        "criterion 7d (antiparallel violation region contains perpendicular one)",
        ok,
        f"{missing} excess points on the common measurable set; region sizes "
        f"{n_anti} (antiparallel) vs {n_perp} (perpendicular)",
    )
    assert ok


def test_criterion_07e_c3_structure(c3_scans):
    thetas, get = _grids(c3_scans, "unpolarized")
    tdcs = get("tdcs")
    err = get("tdcs_stderr")

    # peak location, within Monte Carlo resolution: the best diagonal-band
    # point must be statistically compatible with the global maximum
    gi, gj = np.unravel_index(np.argmax(tdcs), tdcs.shape)
    band = [
        (i, j)
        for i, ta in enumerate(thetas)
        for j, tb in enumerate(thetas)
        if ta == -tb and 30.0 <= abs(ta) <= 60.0
    ]
    bi, bj = max(band, key=lambda ij: tdcs[ij])
    gap = tdcs[gi, gj] - tdcs[bi, bj]
    sigma = math.hypot(err[gi, gj], err[bi, bj])
    peak_ok = gap <= 3.0 * sigma

    # concurrence pinned to 1 on the measurable diagonal (exact exchange
    # symmetry of the sampler)
    worst_diag = 0.0
    for scen in ("perp", "antiparallel", "unpolarized"):
        conc = c3_scans[scen]["concurrence"][_measurable_diagonal(c3_scans, scen)]
        worst_diag = max(worst_diag, float(np.abs(conc - 1.0).max(initial=0.0)))
    diag_ok = worst_diag <= 1e-6

    # the triplet-dominance gate holds identically for the sampled amplitudes
    td, te = c3_scans["td"], c3_scans["te"]
    i_s = 0.25 * np.abs(td + te) ** 2
    i_t = 0.75 * np.abs(td - te) ** 2
    conc = get("concurrence")
    meas = get("measurable")
    gate_bad = int(np.count_nonzero((i_t >= i_s) & (conc > 0.0) & meas))
    gate_ok = gate_bad == 0

    # violation-region inclusion on the common measurable set
    _, gp = _grids(c3_scans, "perp")
    _, ga = _grids(c3_scans, "antiparallel")
    both = gp("measurable") & ga("measurable")
    perp_viol = (gp("bell_lhs") > RATIO_BOUND) & both
    anti_viol = (ga("bell_lhs") > RATIO_BOUND) & both
    unexplained = int(np.count_nonzero(perp_viol & ~anti_viol))
    superset_ok = unexplained == 0

    ok = peak_ok and diag_ok and gate_ok and superset_ok
    report(
        "criterion 7e (3C figure structure, 10 deg grid, 3-sigma tolerances)",
        ok,
        f"peak gap {gap:.3g} vs 3 sigma {3*sigma:.3g} at ({thetas[gi]:.0f},{thetas[gj]:.0f}); "
        f"diagonal |C-1| max {worst_diag:.1e}; gate violations {gate_bad}; "
        f"unexplained superset misses {unexplained}",
    )
    assert peak_ok
    assert diag_ok
    assert gate_ok
    assert superset_ok


def test_criterion_08_bell_sim_statistics():
    rng = np.random.default_rng(108)
    rhos = [np.outer(PSI_MINUS, PSI_MINUS.conj())]
    for _ in range(3):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = a @ a.conj().T
        rhos.append(m / np.trace(m).real)
    bad = 0
    runs = 0
    for k, rho in enumerate(rhos):
        exact = chsh_expectation(rho)
        for seed in range(25):
            res = simulate_chsh(rho, 100_000, seed=1000 * k + seed)
            runs += 1
            if abs(res["chsh_estimate"] - exact) > 5.0 * res["chsh_stderr"]:
                bad += 1
    res = simulate_chsh(rhos[0], 1_000_000, seed=424242)
    stderr_dev = abs(res["chsh_stderr"] - math.sqrt(2e-6)) / math.sqrt(2e-6)
    ok = (runs - bad) >= 99 and stderr_dev <= 0.10
    report(
        "criterion 8 (coincidence-simulation statistics)",
        ok,
        f"{runs - bad}/100 runs within 5 sigma (>= 99); singlet stderr off by "
        f"{stderr_dev:.1%} from sqrt(2e-6) (<= 10%)",
    )
    assert runs - bad >= 99
    assert stderr_dev <= 0.10


def test_criterion_09_special_functions():
    a, b = 0.3j, 1.0
    worst_kummer = 0.0
    for r in np.linspace(0.5, 20.0, 14):
        for th in np.linspace(0.0, 2.0 * math.pi, 17):
            z = r * complex(math.cos(th), math.sin(th))
            lhs = kummer_1f1(a, b, z)
            rhs = np.exp(z) * kummer_1f1(b - a, b, -z)
            worst_kummer = max(worst_kummer, abs(lhs - rhs) / max(1.0, abs(lhs)))
    worst_gamma = 0.0
    for y in np.linspace(0.1, 5.0, 50):
        g2 = abs(np.exp(ln_gamma(complex(1.0, y)))) ** 2
        ref = math.pi * y / math.sinh(math.pi * y)
        worst_gamma = max(worst_gamma, abs(g2 - ref) / ref)
    ok = worst_kummer <= 1e-9 and worst_gamma <= 1e-12
    report(
        "criterion 9 (special functions)",
        ok,
        f"Kummer-transform residual {worst_kummer:.2e} (tol 1e-9), "
        f"|Gamma(1+iy)|^2 identity {worst_gamma:.2e} (tol 1e-12)",
    )
    assert worst_kummer <= 1e-9
    assert worst_gamma <= 1e-12


def test_criterion_10_deterministic_outputs(tmp_path):
    outputs = []
    cfg_pwba = parse_config({"scenario": "antiparallel"})
    cfg_c3 = parse_config(
        {"model": "c3", "step_deg": 60.0, "mc": {"samples": 2000, "seed": 17}}
    )
    for workers in (1, 2):
        blobs = []
        for tag, cfg in (("pwba", cfg_pwba), ("c3", cfg_c3)):
            obs, thetas = run_scan(cfg, workers=workers)
            csv_path = tmp_path / f"{tag}-{workers}.csv"
            write_csv(obs, thetas, csv_path)
            pgm_path = tmp_path / f"{tag}-{workers}.pgm"
            write_pgm(np.where(obs["measurable"], obs["tdcs"], 0.0), pgm_path)
            blobs.append(csv_path.read_bytes())
            blobs.append(pgm_path.read_bytes())
        outputs.append(blobs)
    ok = outputs[0] == outputs[1]
    report(
        "criterion 10 (byte-identical outputs across worker counts)",
        ok,
        f"pwba 2-degree and c3 60-degree scans, {len(outputs[0])} files compared",
    )
    assert ok
