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

E0, ET, EB = 2.0, -0.5, 0.75


def kin_at(theta_a_deg, theta_b_deg, eb=EB):
    return build_coplanar(E0, eb, math.radians(theta_a_deg), math.radians(theta_b_deg), ET)


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
        real = c3mc.kummer_1f1

        def poisoned(a, b, z, **kw):
            out = np.asarray(real(a, b, z, **kw)).copy()
            out[:: 50] = complex(math.nan, math.nan)
            return out

        monkeypatch.setattr(c3mc, "kummer_1f1", poisoned)
        with pytest.raises(ArithmeticError, match="rejected"):
            c3mc.c3_pair(kin_at(45.0, -60.0), McConfig(samples=5_000, seed=3))

    def test_small_rejection_is_counted_not_fatal(self, monkeypatch):
        real = c3mc.kummer_1f1

        def rarely_poisoned(a, b, z, **kw):
            out = np.asarray(real(a, b, z, **kw)).copy()
            out[::30001] = complex(math.nan, math.nan)
            return out

        monkeypatch.setattr(c3mc, "kummer_1f1", rarely_poisoned)
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
        real = c3mc.kummer_1f1

        def spoiled(fill):
            def kummer(a, b, z):
                out = np.array(real(a, b, z), copy=True)
                for k in range(4):
                    for s in (17, 1234):
                        out[k * 2000 + s] = fill
                return out
            return kummer

        monkeypatch.setattr(c3mc, "kummer_1f1", spoiled(np.nan))
        rejected = c3mc.c3_pair(kin, cfg)
        monkeypatch.setattr(c3mc, "kummer_1f1", spoiled(0.0))
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
            build_coplanar(54.4 / HARTREE_EV, 5.0 / HARTREE_EV, math.radians(20.0),
                           math.radians(-60.0), -13.605693 / HARTREE_EV),
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

