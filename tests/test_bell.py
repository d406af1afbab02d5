import math

import numpy as np
import pytest

from e2espin.bell import (
    DEFAULT_SETTINGS,
    RATIO_BOUND,
    TSIRELSON_BOUND,
    DetectorSettings,
    chsh_closed_form,
    chsh_expectation,
    chsh_operator,
)
from e2espin.scan import observables_from_amplitudes, parse_config
from e2espin.spin import AmplitudePair, DegenerateStateError, rho_pure

ZHAT = np.array([0.0, 0.0, 1.0])
YHAT = np.array([0.0, 1.0, 0.0])
PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def random_amps(rng):
    z = rng.standard_normal(4)
    return AmplitudePair(complex(z[0], z[1]), complex(z[2], z[3]))


def random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def core(td, te, p1=(0.0, 0.0, 0.0), p2=(0.0, 0.0, 0.0)):
    """The observables core at one point with initial polarizations P1, P2."""
    cfg = parse_config({"scenario": "custom", "p1": list(p1), "p2": list(p2)})
    obs = observables_from_amplitudes(cfg, np.array([td], dtype=complex),
                                      np.array([te], dtype=complex))
    return {name: value[0].item() for name, value in obs.items()}


class TestOperator:
    def test_hermitian(self):
        op = chsh_operator()
        assert np.abs(op - op.conj().T).max() <= 1e-14

    def test_spectral_radius_is_tsirelson(self):
        eig = np.linalg.eigvalsh(chsh_operator())
        assert max(abs(eig[0]), abs(eig[-1])) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_singlet_expectation(self):
        val = PSI_MINUS.conj() @ chsh_operator() @ PSI_MINUS
        assert val.real == pytest.approx(TSIRELSON_BOUND, abs=1e-12)
        assert abs(val.imag) < 1e-14

    def test_nonunit_settings_rejected(self):
        with pytest.raises(ValueError):
            chsh_operator(DetectorSettings(a1=(0.0, 0.0, 2.0)))

    def test_random_settings_bounded(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            s = DetectorSettings(
                a1=tuple(random_unit(rng)),
                a2=tuple(random_unit(rng)),
                b1=tuple(random_unit(rng)),
                b2=tuple(random_unit(rng)),
            )
            eig = np.linalg.eigvalsh(chsh_operator(s))
            assert max(abs(eig[0]), abs(eig[-1])) <= TSIRELSON_BOUND + 1e-12


class TestExpectation:
    def test_singlet(self):
        rho = np.outer(PSI_MINUS, PSI_MINUS.conj())
        assert chsh_expectation(rho) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_maximally_mixed(self):
        assert chsh_expectation(np.eye(4, dtype=complex) / 4.0) == pytest.approx(0.0, abs=1e-14)

    def test_parallel_product_state(self):
        rho = rho_pure(AmplitudePair(1.0, 0.0j), ZHAT, ZHAT)
        assert chsh_expectation(rho) == pytest.approx(-math.sqrt(2.0), abs=1e-12)

    def test_tsirelson_bound_for_random_states(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            assert abs(chsh_expectation(rho)) <= TSIRELSON_BOUND + 1e-12


class TestClosedForm:
    def test_singlet_maximal(self):
        amps = AmplitudePair(1.0 + 0.5j, 1.0 + 0.5j)
        assert chsh_closed_form(amps, ZHAT, -ZHAT) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_parallel_direct(self):
        assert chsh_closed_form(AmplitudePair(1.0, 0.0j), ZHAT, ZHAT) == pytest.approx(
            -math.sqrt(2.0), abs=1e-14
        )

    def test_matches_trace(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            amps = random_amps(rng)
            z1, z2 = random_unit(rng), random_unit(rng)
            closed = chsh_closed_form(amps, z1, z2)
            trace = chsh_expectation(rho_pure(amps, z1, z2), DEFAULT_SETTINGS)
            assert abs(closed - trace) <= 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateStateError):
            chsh_closed_form(AmplitudePair(1.0, 1.0), ZHAT, ZHAT)


class TestCrossSectionForm:
    """The observables core's ``bell_lhs``."""

    def test_pure_singlet_limit(self):
        lhs = core(1.0 + 0.5j, 1.0 + 0.5j, ZHAT, -ZHAT)["bell_lhs"]  # I_par = 0
        assert lhs == pytest.approx(1.0, abs=1e-15)
        assert lhs > RATIO_BOUND

    def test_y_parallel_polarizations(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            amps = random_amps(rng)
            assert core(amps.t_d, amps.t_e, YHAT, YHAT)["bell_lhs"] == pytest.approx(0.0, abs=1e-15)

    def test_identity_with_operator_form(self):
        rng = np.random.default_rng(43)
        for _ in range(2000):
            amps = random_amps(rng)
            z1, z2 = random_unit(rng), random_unit(rng)
            lhs = core(amps.t_d, amps.t_e, z1, z2)["bell_lhs"]
            assert abs(lhs * TSIRELSON_BOUND - chsh_closed_form(amps, z1, z2)) <= 1e-12

    def test_zero_denominator(self):
        # parallel polarizations and t_d = t_e: I_anti (1 - P1.P2) = I_par (1 + P1.P2) = 0
        assert core(0.7 - 0.1j, 0.7 - 0.1j, ZHAT, ZHAT)["bell_lhs"] == 0.0


class TestAsymmetry:
    """The observables core's ``asymmetry`` (I_anti - I_par)/(I_anti + I_par)."""

    def test_no_parallel_flux(self):
        a = core(1.0, 1.0)["asymmetry"]
        assert a == 1.0
        assert a > RATIO_BOUND

    def test_balanced(self):
        assert core(1.0, 0.75j)["asymmetry"] == 0.0  # Re(t_d t_e*) = 0, exact moduli

    def test_three_to_one(self):
        a = core(1.0, 1.0 + 1.0j)["asymmetry"]  # I_anti = 3 I_par
        assert a == pytest.approx(0.5, abs=1e-15)
        assert not a > RATIO_BOUND
        assert 0.5 < RATIO_BOUND

    def test_zero_flux(self):
        assert core(0.0, 0.0)["asymmetry"] == 0.0
