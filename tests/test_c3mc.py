import math

import numpy as np
import pytest

from e2espin import c3mc
from e2espin.amplitudes import (
    McConfig,
    coulomb_wave,
    ee_correlation,
    free_limit_closed_form,
    hydrogen_1s_position,
)
from e2espin.kinematics import HARTREE_EV, build_coplanar
from e2espin.scan import parse_config
from e2espin.special import kummer_1f1

E0, ET, EB = 2.0, -0.5, 0.75


def kin_at(theta_a_deg, theta_b_deg, eb=EB):
    return build_coplanar(E0, eb, math.radians(theta_a_deg), math.radians(theta_b_deg), ET)


# the benchmark's 3C point: 54.4 eV, a 5 eV slow electron, two wave xi
C3_POINT = build_coplanar(54.4 / HARTREE_EV, 5.0 / HARTREE_EV, math.radians(20.0),
                          math.radians(-60.0), -13.605693 / HARTREE_EV)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        kin = kin_at(40.0, -70.0)
        cfg = McConfig(samples=20_000, seed=9)
        a = c3mc.c3_pair(kin, cfg)
        b = c3mc.c3_pair(kin, cfg)
        assert a.t_d == b.t_d and a.t_e == b.t_e
        assert np.array_equal(a.cov, b.cov)
        assert a.n_rejected == b.n_rejected

    def test_seed_changes_stream(self):
        kin = kin_at(40.0, -70.0)
        a = c3mc.c3_pair(kin, McConfig(samples=20_000, seed=9))
        b = c3mc.c3_pair(kin, McConfig(samples=20_000, seed=10))
        assert a.t_d != b.t_d

    def test_point_key_changes_stream(self):
        kin = kin_at(40.0, -70.0)
        cfg = McConfig(samples=20_000, seed=9)
        a = c3mc.c3_pair(kin, cfg, point_key=0)
        b = c3mc.c3_pair(kin, cfg, point_key=1)
        assert a.t_d != b.t_d


class TestExchangeSymmetry:
    @pytest.mark.parametrize("theta", [20.0, 45.0, 75.0, 120.0, 160.0])
    def test_symmetric_3c_pair_identical(self, theta):
        est = c3mc.c3_pair(kin_at(theta, -theta), McConfig(samples=10_000, seed=2))
        assert est.t_d - est.t_e == 0.0

    def test_symmetric_free_limit_pair_identical(self):
        est = c3mc.c3_pair(
            kin_at(45.0, -45.0), McConfig(samples=10_000, seed=2, debug_free_limit=True)
        )
        assert est.t_d - est.t_e == 0.0

    def test_asymmetric_pair_differs(self):
        est = c3mc.c3_pair(kin_at(45.0, -70.0), McConfig(samples=10_000, seed=2))
        assert est.t_d != est.t_e


class TestFreeLimit:
    def test_matches_closed_form_within_three_sigma(self):
        kin = kin_at(45.0, -60.0)
        cfg = McConfig(samples=400_000, seed=77, debug_free_limit=True)
        est = c3mc.c3_pair(kin, cfg)
        for ordering, val, err in (
            ("direct", est.t_d, (est.stderr_d_re, est.stderr_d_im)),
            ("exchange", est.t_e, (est.stderr_e_re, est.stderr_e_im)),
        ):
            oracle = free_limit_closed_form(kin, ordering)
            assert abs(val.real - oracle.real) <= 3.0 * err[0]
            assert abs(val.imag - oracle.imag) <= 3.0 * err[1]

    def test_stderr_scales_with_samples(self):
        kin = kin_at(45.0, -60.0)
        ratios = []
        for seed in range(10):
            a = c3mc.c3_pair(kin, McConfig(samples=20_000, seed=seed, debug_free_limit=True))
            b = c3mc.c3_pair(kin, McConfig(samples=40_000, seed=seed, debug_free_limit=True))
            ratios.append(b.stderr_d_re / a.stderr_d_re)
        mean = sum(ratios) / len(ratios)
        assert 1.0 / math.sqrt(2.0) - 0.15 <= mean <= 1.0 / math.sqrt(2.0) + 0.15

    def test_pull_distribution(self):
        # estimator and its error bar are mutually consistent
        kin = kin_at(45.0, -60.0)
        oracle = free_limit_closed_form(kin, "direct")
        pulls = []
        for seed in range(50):
            est = c3mc.c3_pair(kin, McConfig(samples=20_000, seed=seed, debug_free_limit=True))
            pulls.append((est.t_d.real - oracle.real) / est.stderr_d_re)
            pulls.append((est.t_d.imag - oracle.imag) / est.stderr_d_im)
        pulls = np.array(pulls)
        assert abs(pulls.mean()) <= 0.5
        assert 0.6 <= pulls.std() <= 1.6


class TestEdgeCases:
    def test_coincident_momenta_vanish(self):
        est = c3mc.c3_pair(kin_at(30.0, 30.0), McConfig(samples=5_000, seed=1))
        assert est.t_d == 0.0 and est.t_e == 0.0
        assert est.stderr_d_re == 0.0

    def test_sample_budget_enforced(self):
        with pytest.raises(ValueError):
            c3mc.c3_pair(kin_at(45.0, -45.0), McConfig(samples=100, seed=1))

    def test_rejection_accounting_error(self, monkeypatch):
        # poison a fraction of the integrand evaluations and make sure the
        # estimator refuses to report
        real = c3mc.Coulomb1F1Table.evaluate

        def poisoned(self, x):
            out = np.asarray(real(self, x)).copy()
            out[:: 50] = complex(math.nan, math.nan)
            return out

        monkeypatch.setattr(c3mc.Coulomb1F1Table, "evaluate", poisoned)
        with pytest.raises(ArithmeticError, match="rejected"):
            c3mc.c3_pair(kin_at(45.0, -60.0), McConfig(samples=5_000, seed=3))

    def test_small_rejection_is_counted_not_fatal(self, monkeypatch):
        real = c3mc.Coulomb1F1Table.evaluate

        def rarely_poisoned(self, x):
            out = np.asarray(real(self, x)).copy()
            out[::30001] = complex(math.nan, math.nan)
            return out

        monkeypatch.setattr(c3mc.Coulomb1F1Table, "evaluate", rarely_poisoned)
        est = c3mc.c3_pair(kin_at(45.0, -60.0), McConfig(samples=60_000, seed=3))
        assert 0 < est.n_rejected <= 0.001 * 60_000

    def test_covariance_shape_and_symmetry(self):
        est = c3mc.c3_pair(kin_at(45.0, -60.0), McConfig(samples=5_000, seed=8))
        assert est.cov.shape == (4, 4)
        assert np.abs(est.cov - est.cov.T).max() < 1e-18
        assert est.stderr_d_re > 0.0


class TestEnergySharing:
    def test_unequal_sharing_runs(self):
        est = c3mc.c3_pair(kin_at(45.0, -60.0, eb=0.5), McConfig(samples=5_000, seed=5))
        assert np.isfinite(est.t_d.real)
        assert est.t_d != est.t_e


class TestRejection:
    def test_rejected_samples_count_as_zero_weight(self, monkeypatch):
        # non-finite samples must weigh like zero-valued ones: the same
        # sums over the same full budget, not a mean over the survivors
        kin = kin_at(45.0, -60.0)
        cfg = McConfig(samples=2_000, seed=6)
        real = c3mc.Coulomb1F1Table.evaluate

        def spoiled(fill):
            def evaluate(self, x):
                out = np.array(real(self, x), copy=True)
                for k in range(4):
                    for s in (17, 1234):
                        out[k * 2000 + s] = fill
                return out
            return evaluate

        monkeypatch.setattr(c3mc.Coulomb1F1Table, "evaluate", spoiled(np.nan))
        rejected = c3mc.c3_pair(kin, cfg)
        monkeypatch.setattr(c3mc.Coulomb1F1Table, "evaluate", spoiled(0.0))
        zeroed = c3mc.c3_pair(kin, cfg)
        assert rejected.n_rejected == 2
        assert zeroed.n_rejected == 0
        assert rejected.t_d == pytest.approx(zeroed.t_d, rel=1e-14)
        assert rejected.t_e == pytest.approx(zeroed.t_e, rel=1e-14)
        np.testing.assert_allclose(rejected.cov, zeroed.cov, rtol=1e-14, atol=0.0)


def scalar_integrand(k0, k_a, k_b, r1, r2):
    """The unsymmetrized 3C integrand at one point, from the scalar functions."""
    r12 = r1 - r2
    return (
        np.conj(coulomb_wave(k_a, r1))
        * np.conj(coulomb_wave(k_b, r2))
        * np.conj(ee_correlation(0.5 * (k_a - k_b), r12))
        * (1.0 / np.linalg.norm(r12) - 1.0 / np.linalg.norm(r1))
        * hydrogen_1s_position(r2)
        * np.exp(1j * float(k0 @ r1))
    )


def unit_vectors(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestIntegrandOracle:
    # the scalar and the batched 1F1 agree to a few 1e-9 (special.py's floor)
    RTOL = 1e-7

    @pytest.mark.parametrize(
        "kin",
        [
            kin_at(45.0, -60.0),
            kin_at(20.0, -60.0, eb=0.3),  # unequal sharing: two wave xi
            kin_at(40.0, -40.0),  # symmetric
            C3_POINT,
        ],
        ids=["equal", "unequal", "symmetric", "c3_point"],
    )
    def test_kernel_matches_scalar_integrand(self, kin):
        cfg = McConfig()
        rng = np.random.default_rng(2024)
        n = 20
        r1mag = rng.uniform(0.2, 0.99 * cfg.r_max, n)  # crosses the taper at r_max/2
        r2mag = rng.uniform(0.1, 4.0, n)
        r1 = r1mag[:, None] * unit_vectors(rng, n)
        r2 = r2mag[:, None] * unit_vectors(rng, n)
        w = c3mc._kernel(kin, cfg)(r1, r1mag, r2, r2mag, np.ones(n))

        # (k0, kA, kB) and their reflection through the symmetrization plane
        normal = c3mc._mirror_normal(kin.k_a, kin.k_b)
        k = (kin.k0, kin.k_a, kin.k_b)
        mk = tuple(v - 2.0 * float(v @ normal) * normal for v in k)
        for s in range(n):
            ramp = min(max((r1mag[s] / cfg.r_max - 0.5) * 2.0, 0.0), 1.0)
            window = math.cos(0.5 * math.pi * ramp) ** 2
            for row, (a, b) in enumerate(((1, 2), (2, 1))):  # direct, then kA <-> kB
                expected = 0.5 * window * (
                    scalar_integrand(k[0], k[a], k[b], r1[s], r2[s])
                    + scalar_integrand(mk[0], mk[a], mk[b], r1[s], r2[s])
                )
                assert abs(w[row, s] - expected) <= self.RTOL * abs(expected), (row, s)

    def test_kernel_is_zero_outside_the_ball(self):
        cfg = McConfig()
        r1mag = np.array([cfg.r_max * 1.01, 2.0])
        r2mag = np.array([1.0, cfg.r_max * 1.01])
        r1 = r1mag[:, None] * np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        r2 = r2mag[:, None] * np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        w = c3mc._kernel(kin_at(45.0, -60.0), cfg)(r1, r1mag, r2, r2mag, np.ones(2))
        assert np.all(w == 0.0)



def tables_for(kin, r_max):
    """The kernel's 1F1 tables at ``kin``: |kA|, |kB| and |kA - kB|/2."""
    kab = 0.5 * (kin.k_a - kin.k_b)
    kmags = (math.sqrt(float(kin.k_a @ kin.k_a)), math.sqrt(float(kin.k_b @ kin.k_b)))
    return c3mc._coulomb_tables(kmags, math.sqrt(float(kab @ kab)), r_max)


def c3_scan_kin(theta_a_deg, theta_b_deg):
    e0, eb, et = parse_config({"model": "c3", "e0_ev": 54.4}).energies_hartree()
    return build_coplanar(e0, eb, math.radians(theta_a_deg), math.radians(theta_b_deg), et)


TABLE_KINEMATICS = pytest.mark.parametrize(
    "kin",
    [kin_at(45.0, -60.0), kin_at(20.0, -60.0, eb=0.3), kin_at(40.0, -40.0), C3_POINT,
     c3_scan_kin(-30.0, 90.0)],
    ids=["equal", "unequal", "symmetric", "c3_point", "c3_scan"],
)


class TestCoulombTables:
    # kummer_1f1's own series noise near |z| = 21 is a few 1e-9 for |xi| <= 1
    # and ~1e-8 for |xi| ~ 1.3 (special.py); the worst seen here is 2.1e-8
    RTOL = 5e-8

    @TABLE_KINEMATICS
    def test_table_matches_kummer_over_its_range(self, kin):
        waves, corr = tables_for(kin, McConfig().r_max)
        for table in (*waves.values(), corr):
            x = np.linspace(0.0, table.x_max, 4001)
            direct = kummer_1f1(1j * table.alpha, 1.0, 1j * x)
            assert np.all(np.abs(table.evaluate(x) - direct) <= self.RTOL * np.abs(direct))

    @TABLE_KINEMATICS
    def test_largest_in_ball_argument_is_inside_the_table(self, kin):
        # r1 and r2 at r_max along -k and +k give |k||r| + k.r = 2|k| r_max
        # for the waves and |kab||r12| + kab.r12 = 4|kab| r_max for the
        # correlation factor, as the kernel forms them
        r_max = McConfig().r_max
        waves, corr = tables_for(kin, r_max)
        kab = 0.5 * (kin.k_a - kin.k_b)
        for k, table in ((kin.k_a, waves[math.sqrt(float(kin.k_a @ kin.k_a))]),
                         (kin.k_b, waves[math.sqrt(float(kin.k_b @ kin.k_b))])):
            kmag = math.sqrt(float(k @ k))
            r = (r_max / kmag) * k
            largest = kmag * r_max + r @ k
            assert largest <= table.x_max * (1.0 + 1e-15)
        kab_mag = math.sqrt(float(kab @ kab))
        r12 = (r_max / kab_mag) * kab - (-(r_max / kab_mag) * kab)
        largest = kab_mag * math.sqrt(float(r12 @ r12)) + r12 @ kab
        assert largest <= corr.x_max * (1.0 + 1e-15)
        direct = kummer_1f1(1j * corr.alpha, 1.0, 1j * largest)
        assert abs(corr.evaluate(largest) - direct) <= self.RTOL * abs(direct)

    def test_pair_matches_a_kummer_backed_evaluator(self, monkeypatch):
        # a fixed-seed estimate from the tables against the same samples
        # weighed with direct kummer_1f1 calls
        cfg = McConfig(samples=20_000, seed=12)
        table = c3mc.c3_pair(C3_POINT, cfg)

        def direct(self, x):
            return kummer_1f1(1j * self.alpha, 1.0, 1j * np.clip(x, 0.0, self.x_max))

        monkeypatch.setattr(c3mc.Coulomb1F1Table, "evaluate", direct)
        oracle = c3mc.c3_pair(C3_POINT, cfg)
        assert table.n_rejected == oracle.n_rejected == 0
        diff = np.array([(table.t_d - oracle.t_d).real, (table.t_d - oracle.t_d).imag,
                         (table.t_e - oracle.t_e).real, (table.t_e - oracle.t_e).imag])
        sigma = np.sqrt(np.diag(table.cov))
        assert np.all(np.abs(diff) <= 1e-3 * sigma)
