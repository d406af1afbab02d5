import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from e2espin.amplitudes import McConfig, free_limit_closed_form, pwba_amplitudes, pwba_grid
from e2espin.kinematics import HARTREE_EV, Kinematics, KinematicsError, build_coplanar
from e2espin.scan import amplitude_grids, parse_config
from e2espin.special import coulomb_norm

from oracles import coulomb_wave, ee_correlation, hydrogen_1s_momentum, hydrogen_1s_position


class TestHydrogenPosition:
    def test_origin(self):
        assert hydrogen_1s_position([0.0, 0.0, 0.0]) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-15
        )

    def test_unit_radius(self):
        assert hydrogen_1s_position([1.0, 0.0, 0.0]) == pytest.approx(
            math.exp(-1.0) / math.sqrt(math.pi), rel=1e-15
        )

    def test_normalization_by_quadrature(self):
        val, _ = integrate.quad(
            lambda r: 4.0 * math.pi * r * r * hydrogen_1s_position([r, 0.0, 0.0]) ** 2,
            0.0,
            60.0,
        )
        assert abs(val - 1.0) < 1e-10


class TestHydrogenMomentum:
    def test_origin_value(self):
        assert hydrogen_1s_momentum([0.0, 0.0, 0.0]) == pytest.approx(
            8.0 * math.sqrt(math.pi), rel=1e-15
        )

    def test_normalization_by_quadrature(self):
        # int d^3q/(2 pi)^3 |phi|^2 = 1
        val, _ = integrate.quad(
            lambda q: 4.0 * math.pi * q * q
            * hydrogen_1s_momentum([q, 0.0, 0.0]) ** 2 / (2.0 * math.pi) ** 3,
            0.0,
            200.0,
        )
        assert abs(val - 1.0) < 1e-10

    def test_fourier_transform_by_quadrature(self):
        # phi(p) = (4 pi / p) int_0^inf sin(p r) psi(r) r dr
        for p in (0.3, 1.0, 2.5):
            val, _ = integrate.quad(
                lambda r: math.sin(p * r) * hydrogen_1s_position([r, 0.0, 0.0]) * r,
                0.0,
                80.0,
                limit=200,
            )
            phi = 4.0 * math.pi * val / p
            assert phi == pytest.approx(hydrogen_1s_momentum([0.0, 0.0, p]), rel=1e-9)

    def test_even_parity(self):
        q = np.array([0.4, -0.2, 1.1])
        assert hydrogen_1s_momentum(q) == hydrogen_1s_momentum(-q)


class TestPwba:
    def test_symmetric_kinematics_give_equal_pair(self):
        kin = build_coplanar(2.0, 0.75, math.radians(45.0), math.radians(-45.0), -0.5)
        amps = pwba_amplitudes(kin)
        assert amps.t_d == amps.t_e  # exact, by mirrored construction

    def test_reference_point(self):
        kin = build_coplanar(2.0, 0.75, math.radians(45.0), math.radians(-45.0), -0.5)
        amps = pwba_amplitudes(kin)
        k = math.sqrt(1.5)
        q = abs(2.0 * k * math.cos(math.radians(45.0)) - 2.0)
        phi = 8.0 * math.sqrt(math.pi) / (q * q + 1.0) ** 2
        da2 = 4.0 + 1.5 - 2.0 * 2.0 * k * math.cos(math.radians(45.0))
        assert amps.t_d == pytest.approx(4.0 * math.pi * phi / da2, rel=1e-12)

    def test_ratio_property(self):
        rng = np.random.default_rng(60)
        for _ in range(100):
            kin = build_coplanar(
                2.0, rng.uniform(0.2, 1.3), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), -0.5
            )
            amps = pwba_amplitudes(kin)
            da2 = float((kin.k0 - kin.k_a) @ (kin.k0 - kin.k_a))
            db2 = float((kin.k0 - kin.k_b) @ (kin.k0 - kin.k_b))
            assert amps.t_d / amps.t_e == pytest.approx(db2 / da2, rel=1e-12)

    def test_vanishing_transfer_rejected(self):
        k0 = np.array([0.0, 0.0, 2.0])
        kin = Kinematics(
            e0=2.0, e_a=2.0, e_b=0.5, e_t=0.0, theta_a=0.0, theta_b=0.0,
            k0=k0, k_a=k0.copy(), k_b=np.array([0.0, 0.0, 1.0]),
            q=np.array([0.0, 0.0, 1.0]),
        )
        with pytest.raises(KinematicsError):
            pwba_amplitudes(kin)

    def test_grid_matches_pointwise(self):
        thetas = np.deg2rad(np.array([-120.0, -45.0, 0.0, 30.0, 160.0]))
        td, te = pwba_grid(2.0, 0.75, -0.5, thetas[:, None], thetas)
        for i, ta in enumerate(thetas):
            for j, tb in enumerate(thetas):
                kin = build_coplanar(2.0, 0.75, float(ta), float(tb), -0.5)
                amps = pwba_amplitudes(kin)
                assert td[i, j] == pytest.approx(amps.t_d, rel=1e-12)
                assert te[i, j] == pytest.approx(amps.t_e, rel=1e-12)


class TestCoulombWave:
    def test_plane_wave_limit_exact(self):
        rng = np.random.default_rng(61)
        for _ in range(1000):
            k = rng.standard_normal(3)
            r = 5.0 * rng.standard_normal(3)
            val = coulomb_wave(k, r, 0.0)
            assert abs(val - cmath.exp(1j * float(k @ r))) <= 1e-12

    def test_origin_is_normalization_factor(self):
        k = np.array([0.0, 0.0, 1.2247])
        xi = -1.0 / np.linalg.norm(k)
        assert coulomb_wave(k, [0.0, 0.0, 0.0], 1.0) == pytest.approx(coulomb_norm(xi), abs=1e-14)

    def test_gamow_factor_at_origin(self):
        k = np.array([0.7, 0.0, 1.0])
        xi = -1.0 / float(np.linalg.norm(k))
        dens = abs(coulomb_wave(k, [0.0, 0.0, 0.0], 1.0)) ** 2
        assert dens == pytest.approx(
            2.0 * math.pi * xi / math.expm1(2.0 * math.pi * xi), rel=1e-12
        )

    def test_zero_momentum_rejected(self):
        with pytest.raises(ValueError):
            coulomb_wave([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 1.0)


class TestEeCorrelation:
    def test_coincidence_point(self):
        kab = np.array([0.3, 0.0, 0.4])
        xi = 0.5 / float(np.linalg.norm(kab))
        assert ee_correlation(kab, [0.0, 0.0, 0.0]) == pytest.approx(coulomb_norm(xi), abs=1e-14)

    def test_forward_asymptote_unit_modulus(self):
        # along the forward ray (k.r = kr) the factor tends to modulus 1
        kab = np.array([0.0, 0.0, 0.5])
        r12 = np.array([0.0, 0.0, 400.0])  # k r = 200
        assert abs(ee_correlation(kab, r12)) == pytest.approx(1.0, abs=0.05)

    def test_mirror_momentum_identity(self):
        # flipping the momentum and reflecting the point leaves it
        # unchanged (tolerance covers rounding of the reflected inputs,
        # which the oscillatory factor amplifies by ~|z|)
        rng = np.random.default_rng(62)
        for _ in range(50):
            kab = rng.standard_normal(3)
            r = 3.0 * rng.standard_normal(3)
            khat = kab / np.linalg.norm(kab)
            r_mirror = r - 2.0 * float(r @ khat) * khat
            a = ee_correlation(kab, r)
            b = ee_correlation(-kab, r_mirror)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_zero_relative_momentum_rejected(self):
        with pytest.raises(ValueError):
            ee_correlation([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])


class TestFreeLimitClosedForm:
    def test_bethe_integral_piece_by_quadrature(self):
        # int e^{iQ.r} e^{-mu r}/r d^3r = 4 pi/(Q^2 + mu^2), the mu -> 0
        # limit of which is the kernel used in the closed form
        q, mu = 1.3, 0.05
        val, _ = integrate.quad(
            lambda r: math.sin(q * r) * math.exp(-mu * r), 0.0, 400.0,
            limit=400,
        )
        assert 4.0 * math.pi * val / q == pytest.approx(
            4.0 * math.pi / (q * q + mu * mu), rel=1e-6
        )

    def test_exchange_is_swapped(self):
        kin = build_coplanar(2.0, 0.55, 0.9, -0.4, -0.5)
        kin_sw = build_coplanar(2.0, kin.e_a, -0.4, 0.9, -0.5)
        a = free_limit_closed_form(kin, "exchange")
        b = free_limit_closed_form(kin_sw, "direct")
        assert a == pytest.approx(b, rel=1e-12)

    def test_bad_ordering(self):
        kin = build_coplanar(2.0, 0.75, 0.9, -0.4, -0.5)
        with pytest.raises(ValueError):
            free_limit_closed_form(kin, "both")


def _symmetric_point(model, **over):
    """0-d amplitude arrays at e0 = 2 hartree, equal sharing, theta = +-0.6 rad."""
    data = {"model": model, "e0_ev": 2.0 * HARTREE_EV, **over}
    th = math.degrees(0.6)
    return amplitude_grids(parse_config(data), th, -th)


class TestAmplitudePairApi:
    def test_pwba_has_zero_errors(self):
        td, te, covs = _symmetric_point("pwba")
        assert covs is None
        assert td.shape == () and td == te

    def test_c3_symmetric_equal_pair(self):
        td, te, covs = _symmetric_point("c3", mc={"samples": 2000, "seed": 4})
        assert td.shape == () and td == te
        assert covs.shape == (4, 4) and covs[0, 0] > 0.0

    def test_unknown_model(self):
        cfg = replace(parse_config({}), model="dwba")
        with pytest.raises(ValueError):
            amplitude_grids(cfg, 30.0, -30.0)

    def test_mc_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(samples=10).validated()
        with pytest.raises(ValueError):
            McConfig(r_max=0.0).validated()
        with pytest.raises(ValueError):
            McConfig(seed=-1).validated()
        with pytest.raises(ValueError):
            McConfig(seed=2**64).validated()
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                McConfig(r_max=bad).validated()
