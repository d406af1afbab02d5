import math

import numpy as np
import pytest

from e2espin.kinematics import (
    HARTREE_EV,
    Kinematics,
    KinematicsError,
    build_coplanar,
    tdcs_basic,
    tdcs_polarized,
    tdcs_prefactor,
)
from e2espin.bell import spin_asymmetry
from e2espin.spin import AmplitudePair


def random_amps(rng):
    z = rng.standard_normal(4)
    return AmplitudePair(complex(z[0], z[1]), complex(z[2], z[3]))


class TestBuildCoplanar:
    def test_reference_energies(self):
        kin = build_coplanar(2.0, 0.75, math.radians(45.0), math.radians(-45.0), -0.5)
        assert kin.e_a == pytest.approx(0.75, abs=1e-15)
        assert np.linalg.norm(kin.k_a) == pytest.approx(math.sqrt(1.5), rel=1e-15)
        assert np.linalg.norm(kin.k_b) == pytest.approx(math.sqrt(1.5), rel=1e-15)
        assert kin.e0 * HARTREE_EV == pytest.approx(54.4227724919, rel=1e-10)

    def test_on_shell_and_momentum_magnitudes(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            e0 = rng.uniform(0.5, 6.0)
            et = -rng.uniform(0.1, 0.9) * e0
            eb = rng.uniform(0.05, 0.95) * (e0 + et)
            kin = build_coplanar(e0, eb, rng.uniform(-math.pi, math.pi),
                                 rng.uniform(-math.pi, math.pi), et)
            assert kin.e_a + kin.e_b == pytest.approx(kin.e0 + kin.e_t, abs=1e-12)
            for k, e in ((kin.k_a, kin.e_a), (kin.k_b, kin.e_b), (kin.k0, kin.e0)):
                assert np.linalg.norm(k) == pytest.approx(math.sqrt(2 * e), rel=1e-12)

    def test_mirror_symmetric_angles_cancel_qx(self):
        kin = build_coplanar(2.0, 0.75, math.radians(37.0), math.radians(-37.0), -0.5)
        assert kin.q[0] == 0.0
        assert kin.q[1] == 0.0

    def test_closed_channel(self):
        with pytest.raises(KinematicsError, match="closed channel"):
            build_coplanar(2.0, 1.6, 0.5, -0.5, -0.5)

    def test_angle_range(self):
        for theta_a, theta_b in ((4.0, 0.0), (math.nan, 0.0), (0.0, math.nan)):
            with pytest.raises(KinematicsError):
                build_coplanar(2.0, 0.75, theta_a, theta_b, -0.5)

    def test_momentum_transfer_definition(self):
        kin = build_coplanar(2.0, 0.6, 0.3, -1.0, -0.5)
        np.testing.assert_allclose(kin.q, kin.k_a + kin.k_b - kin.k0, atol=1e-15)


class TestPrefactor:
    def test_reference_value(self):
        kin = build_coplanar(2.0, 0.75, math.radians(45.0), math.radians(-45.0), -0.5)
        two_pi_5 = 1.0
        for _ in range(5):
            two_pi_5 *= 2.0 * math.pi
        assert tdcs_prefactor(kin) == pytest.approx(1.5 / (two_pi_5 * 2.0), rel=1e-14)


class TestTdcsBasic:
    def test_equal_amplitudes_kill_parallel(self):
        kin = build_coplanar(2.0, 0.75, 0.7, -0.7, -0.5)
        xs = tdcs_basic(AmplitudePair(1.3 - 0.2j, 1.3 - 0.2j), kin)
        assert xs.i_par == 0.0
        assert xs.i_t == 0.0

    def test_antiparallel_ratio(self):
        kin = build_coplanar(2.0, 0.75, 0.7, -0.7, -0.5)
        rng = np.random.default_rng(51)
        for _ in range(100):
            amps = random_amps(rng)
            xs = tdcs_basic(amps, kin)
            if xs.i_anti_e > 0:
                assert xs.i_anti_d / xs.i_anti_e == pytest.approx(
                    abs(amps.t_d) ** 2 / abs(amps.t_e) ** 2, rel=1e-12
                )

    def test_triplet_is_three_quarters_parallel(self):
        kin = build_coplanar(2.0, 0.75, 0.7, -0.3, -0.5)
        rng = np.random.default_rng(52)
        for _ in range(100):
            xs = tdcs_basic(random_amps(rng), kin)
            assert xs.i_t == 0.75 * xs.i_par

    def test_singlet_plus_triplet_is_spin_averaged(self):
        kin = build_coplanar(2.0, 0.75, 0.7, -0.3, -0.5)
        rng = np.random.default_rng(53)
        for _ in range(200):
            amps = random_amps(rng)
            xs = tdcs_basic(amps, kin)
            avg = tdcs_polarized(amps, 0.0, kin)
            assert xs.i_s + xs.i_t == pytest.approx(avg, rel=1e-12, abs=1e-18)

    def test_nonnegative(self):
        kin = build_coplanar(2.0, 0.75, 0.7, -0.3, -0.5)
        rng = np.random.default_rng(54)
        for _ in range(500):
            xs = tdcs_basic(random_amps(rng), kin)
            assert min(xs.i_par, xs.i_anti_d, xs.i_anti_e, xs.i_s, xs.i_t) >= 0.0


class TestTdcsPolarized:
    def test_antiparallel_limit(self):
        kin = build_coplanar(2.0, 0.75, 0.7, -0.3, -0.5)
        rng = np.random.default_rng(55)
        for _ in range(100):
            amps = random_amps(rng)
            xs = tdcs_basic(amps, kin)
            assert tdcs_polarized(amps, -1.0, kin) == pytest.approx(
                xs.i_anti, rel=1e-12, abs=1e-18
            )

    def test_unpolarized_average(self):
        kin = build_coplanar(2.0, 0.75, 0.7, -0.3, -0.5)
        rng = np.random.default_rng(56)
        for _ in range(100):
            amps = random_amps(rng)
            xs = tdcs_basic(amps, kin)
            assert tdcs_polarized(amps, 0.0, kin) == pytest.approx(
                0.5 * (xs.i_anti + xs.i_par), rel=1e-12, abs=1e-18
            )

    def test_parallel_limit_equals_i_par(self):
        # (|t_d|^2 + |t_e|^2 - 2 Re t_d t_e*) == |t_d - t_e|^2 for all amplitudes
        kin = build_coplanar(2.0, 0.75, 0.7, -0.3, -0.5)
        rng = np.random.default_rng(57)
        for _ in range(500):
            amps = random_amps(rng)
            xs = tdcs_basic(amps, kin)
            assert tdcs_polarized(amps, 1.0, kin) == pytest.approx(
                xs.i_par, rel=1e-12, abs=1e-15
            )

    def test_domain(self):
        kin = build_coplanar(2.0, 0.75, 0.7, -0.3, -0.5)
        with pytest.raises(ValueError):
            tdcs_polarized(AmplitudePair(1.0, 0.5), 1.5, kin)


class TestCrossModuleConsistency:
    def test_asymmetry_matches_amplitude_formula(self):
        kin = build_coplanar(2.0, 0.75, 0.7, -0.3, -0.5)
        rng = np.random.default_rng(58)
        for _ in range(300):
            amps = random_amps(rng)
            xs = tdcs_basic(amps, kin)
            got = spin_asymmetry(xs.i_anti, xs.i_par)
            td, te = amps.t_d, amps.t_e
            ab2 = abs(td) ** 2 + abs(te) ** 2
            dd = abs(td - te) ** 2
            assert got == pytest.approx((ab2 - dd) / (ab2 + dd), abs=1e-12)
