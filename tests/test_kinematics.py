import math

import numpy as np
import pytest

from e2espin.kinematics import (
    HARTREE_EV,
    Kinematics,
    KinematicsError,
    build_coplanar,
    tdcs_polarized,
    tdcs_prefactor,
)
from e2espin.scan import observables_from_amplitudes, parse_config
from e2espin.spin import AmplitudePair

# E0 = 2, E_B = 0.75 hartree and hydrogen's E_T; the core oracles below
# build their kinematics from these energies
CORE_CFG = parse_config({"e0_ev": 2.0 * HARTREE_EV, "eb_ev": 0.75 * HARTREE_EV})


def random_amps(rng):
    z = rng.standard_normal(4)
    return AmplitudePair(complex(z[0], z[1]), complex(z[2], z[3]))


def random_amp_arrays(rng, n):
    z = rng.standard_normal((4, n))
    return z[0] + 1j * z[1], z[2] + 1j * z[3]


def core_kinematics():
    """Kinematics at the CORE_CFG energies, theta_A = 0.7, theta_B = -0.3 rad."""
    e0, eb, et = CORE_CFG.energies_hartree()
    return build_coplanar(e0, eb, 0.7, -0.3, et)


def core(td, te):
    """Observables core arrays at the CORE_CFG energies, unpolarized beams."""
    return observables_from_amplitudes(CORE_CFG, np.atleast_1d(td), np.atleast_1d(te))


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

    def test_plus_and_minus_pi_give_one_backward_momentum(self):
        # -pi and +pi are one direction: x is exactly 0, not sin(+-pi) = +-1.2e-16
        for eb in (0.75, 0.5):
            plus = build_coplanar(2.0, eb, math.pi, math.pi, -0.5)
            minus = build_coplanar(2.0, eb, -math.pi, -math.pi, -0.5)
            for k_plus, k_minus in ((plus.k_a, minus.k_a), (plus.k_b, minus.k_b)):
                assert k_plus.tobytes() == k_minus.tobytes()
                assert k_plus[0] == 0.0 and k_plus[2] < 0.0

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
    """The spin-resolved TDCS parts of the observables core."""

    def test_equal_amplitudes_kill_parallel(self):
        obs = core(1.3 - 0.2j, 1.3 - 0.2j)
        assert obs["i_par"][0] == 0.0
        assert obs["i_triplet"][0] == 0.0

    def test_antiparallel_ratio(self):
        td, te = random_amp_arrays(np.random.default_rng(51), 100)
        obs = core(td, te)
        np.testing.assert_allclose(
            obs["i_anti_direct"] / obs["i_anti_exchange"], np.abs(td) ** 2 / np.abs(te) ** 2,
            rtol=1e-12,
        )

    def test_triplet_is_three_quarters_parallel(self):
        obs = core(*random_amp_arrays(np.random.default_rng(52), 100))
        assert np.array_equal(obs["i_triplet"], 0.75 * obs["i_par"])

    def test_singlet_plus_triplet_is_spin_averaged(self):
        kin = core_kinematics()
        td, te = random_amp_arrays(np.random.default_rng(53), 200)
        obs = core(td, te)
        np.testing.assert_allclose(obs["i_singlet"] + obs["i_triplet"], obs["tdcs"],
                                   rtol=1e-12, atol=1e-18)
        for k in range(len(td)):
            avg = tdcs_polarized(AmplitudePair(td[k], te[k]), 0.0, kin)
            assert obs["i_singlet"][k] + obs["i_triplet"][k] == pytest.approx(
                avg, rel=1e-12, abs=1e-18
            )

    def test_nonnegative(self):
        obs = core(*random_amp_arrays(np.random.default_rng(54), 500))
        for name in ("i_par", "i_anti_direct", "i_anti_exchange", "i_singlet", "i_triplet"):
            assert np.all(obs[name] >= 0.0), name


class TestTdcsPolarized:
    def test_antiparallel_limit(self):
        kin = core_kinematics()
        rng = np.random.default_rng(55)
        for _ in range(100):
            amps = random_amps(rng)
            i_anti = core(amps.t_d, amps.t_e)["i_anti"][0]
            assert tdcs_polarized(amps, -1.0, kin) == pytest.approx(
                i_anti, rel=1e-12, abs=1e-18
            )

    def test_unpolarized_average(self):
        kin = core_kinematics()
        rng = np.random.default_rng(56)
        for _ in range(100):
            amps = random_amps(rng)
            obs = core(amps.t_d, amps.t_e)
            assert tdcs_polarized(amps, 0.0, kin) == pytest.approx(
                0.5 * (obs["i_anti"][0] + obs["i_par"][0]), rel=1e-12, abs=1e-18
            )

    def test_parallel_limit_equals_i_par(self):
        # (|t_d|^2 + |t_e|^2 - 2 Re t_d t_e*) == |t_d - t_e|^2 for all amplitudes
        kin = core_kinematics()
        rng = np.random.default_rng(57)
        for _ in range(500):
            amps = random_amps(rng)
            i_par = core(amps.t_d, amps.t_e)["i_par"][0]
            assert tdcs_polarized(amps, 1.0, kin) == pytest.approx(
                i_par, rel=1e-12, abs=1e-15
            )

    def test_domain(self):
        kin = core_kinematics()
        with pytest.raises(ValueError):
            tdcs_polarized(AmplitudePair(1.0, 0.5), 1.5, kin)


class TestCrossModuleConsistency:
    def test_asymmetry_matches_amplitude_formula(self):
        td, te = random_amp_arrays(np.random.default_rng(58), 300)
        got = core(td, te)["asymmetry"]
        ab2 = np.abs(td) ** 2 + np.abs(te) ** 2
        dd = np.abs(td - te) ** 2
        np.testing.assert_allclose(got, (ab2 - dd) / (ab2 + dd), rtol=0.0, atol=1e-12)
