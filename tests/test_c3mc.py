import math

import numpy as np
import pytest

from e2espin import c3mc
from e2espin.amplitudes import McConfig, free_limit_closed_form
from e2espin.kinematics import build_coplanar

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
