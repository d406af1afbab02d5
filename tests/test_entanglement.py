import math

import numpy as np
import pytest

from e2espin.entanglement import (
    concurrence_closed_form,
    concurrence_wootters,
    entanglement_of_formation,
    linear_entropy,
    von_neumann_entropy,
)
from e2espin.scan import observables_from_amplitudes, parse_config
from e2espin.spin import (
    AmplitudePair,
    pair_state,
    reduced_density,
    rho_mixed,
    rho_pure,
    spinor_from_polarization,
)

from oracles import concurrence_pure_from_state

ZHAT = np.array([0.0, 0.0, 1.0])
ZERO = np.zeros(3)
PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def random_amps(rng):
    z = rng.standard_normal(4)
    return AmplitudePair(complex(z[0], z[1]), complex(z[2], z[3]))


def random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def closed(amps, p1, p2):
    """``concurrence_closed_form`` at one amplitude pair."""
    return float(concurrence_closed_form(amps.t_d, amps.t_e, p1, p2))


def wootters_eigenvalue_oracle(rho):
    """Direct (non-Hermitian) eigenvalue route to the concurrence."""
    yy = np.array(
        [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float
    )
    r = rho @ yy @ rho.conj() @ yy
    lam = np.sort(np.abs(np.linalg.eigvals(r).real))[::-1]
    s = np.sqrt(lam)
    return max(0.0, s[0] - s[1] - s[2] - s[3])


class TestWootters:
    def test_singlet(self):
        rho = np.outer(PSI_MINUS, PSI_MINUS.conj())
        assert concurrence_wootters(rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert concurrence_wootters(np.eye(4, dtype=complex) / 4.0) == pytest.approx(0.0, abs=1e-12)

    def test_werner_state(self):
        p = 0.9
        rho = p * np.outer(PSI_MINUS, PSI_MINUS.conj()) + (1 - p) * np.eye(4) / 4.0
        assert concurrence_wootters(rho) == pytest.approx(0.85, abs=1e-12)
        assert wootters_eigenvalue_oracle(rho) == pytest.approx(0.85, abs=1e-10)

    def test_agrees_with_eigenvalue_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            assert concurrence_wootters(rho) == pytest.approx(
                wootters_eigenvalue_oracle(rho), abs=1e-8
            )

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            concurrence_wootters(np.eye(4, dtype=complex))  # trace 4
        bad = np.eye(4, dtype=complex) / 4.0
        bad[0, 1] = 0.3
        with pytest.raises(ValueError):
            concurrence_wootters(bad)


class TestPureClosedForm:
    def test_parallel_is_zero(self):
        assert closed(AmplitudePair(1.0, 0.4j), ZHAT, ZHAT) == 0.0

    def test_antiparallel_equal_amplitudes(self):
        assert closed(AmplitudePair(0.7j, 0.7j), ZHAT, -ZHAT) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_antiparallel_value(self):
        # 2 |t_d||t_e| / (|t_d|^2+|t_e|^2) = 2*0.5/1.25 = 0.8
        c = closed(AmplitudePair(1.0, 0.5), ZHAT, -ZHAT)
        assert c == pytest.approx(0.8, abs=1e-14)

    def test_degenerate(self):
        # parallel spins and t_d = t_e annihilate the pair state: 0, as at dead grid points
        assert closed(AmplitudePair(1.0, 1.0), ZHAT, ZHAT) == 0.0

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            amps = random_amps(rng)
            z1, z2 = random_unit(rng), random_unit(rng)
            woot = concurrence_wootters(rho_pure(amps, z1, z2))
            assert abs(closed(amps, z1, z2) - woot) <= 1e-10


class TestPureFromState:
    def test_product_state(self):
        psi = np.kron(spinor_from_polarization(ZHAT), spinor_from_polarization(-ZHAT))
        assert concurrence_pure_from_state(psi) == pytest.approx(0.0, abs=1e-12)

    def test_singlet(self):
        assert concurrence_pure_from_state(PSI_MINUS) == pytest.approx(1.0, abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            concurrence_pure_from_state(2.0 * PSI_MINUS)

    def test_agrees_with_wootters(self):
        rng = np.random.default_rng(32)
        for _ in range(1000):
            amps = random_amps(rng)
            chi = spinor_from_polarization(random_unit(rng))
            eta = spinor_from_polarization(random_unit(rng))
            x = pair_state(amps, chi, eta)
            n = math.sqrt(float(np.vdot(x, x).real))
            if n < 1e-3:
                continue
            psi = x / n
            c1 = concurrence_pure_from_state(psi)
            c2 = concurrence_wootters(np.outer(psi, psi.conj()))
            assert abs(c1 - c2) <= 1e-10


class TestUnpolarized:
    def test_equal_amplitudes(self):
        assert closed(AmplitudePair(0.5 - 0.2j, 0.5 - 0.2j), ZERO, ZERO) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_pure_direct_is_gated(self):
        assert closed(AmplitudePair(1.0, 0.0j), ZERO, ZERO) == 0.0

    def test_opposite_amplitudes(self):
        assert closed(AmplitudePair(1.0, -1.0), ZERO, ZERO) == 0.0

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(33)
        for _ in range(2000):
            amps = random_amps(rng)
            woot = concurrence_wootters(rho_mixed(amps, ZERO, ZERO))
            assert abs(closed(amps, ZERO, ZERO) - woot) <= 1e-10

    def test_one_unpolarized_matches_perpendicular_form(self):
        rng = np.random.default_rng(34)
        zero = np.zeros(3)
        for _ in range(2000):
            amps = random_amps(rng)
            td, te = amps.t_d, amps.t_e
            perp = abs(td) * abs(te) / (
                abs(td) ** 2 + abs(te) ** 2 - (td * te.conjugate()).real
            )
            woot = concurrence_wootters(rho_mixed(amps, random_unit(rng), zero))
            assert abs(min(1.0, perp) - woot) <= 1e-10

    def test_perpendicular_below_antiparallel(self):
        rng = np.random.default_rng(35)
        for _ in range(10_000):
            amps = random_amps(rng)
            td, te = amps.t_d, amps.t_e
            anti = 2.0 * abs(td) * abs(te) / (abs(td) ** 2 + abs(te) ** 2)
            perp = abs(td) * abs(te) / (
                abs(td) ** 2 + abs(te) ** 2 - (td * te.conjugate()).real
            )
            assert perp <= anti + 1e-12


class TestSingletTriplet:
    """The core's unpolarized concurrence against the measurable form
    max(0, (I_S - I_T)/(I_S + I_T)) of its own singlet and triplet TDCS."""

    @staticmethod
    def core(td, te):
        obs = observables_from_amplitudes(parse_config({}), np.array([td], dtype=complex),
                                          np.array([te], dtype=complex))
        i_s, i_t = obs["i_singlet"][0], obs["i_triplet"][0]
        return obs["concurrence"][0], max(0.0, (i_s - i_t) / (i_s + i_t))

    def test_pure_singlet(self):
        assert self.core(2.0, 2.0) == (1.0, 1.0)  # I_T = 0

    def test_boundary(self):
        # I_S = I_T where |t_d + t_e|^2 = 3 |t_d - t_e|^2, at t_e/t_d = 2 - sqrt(3)
        conc, form = self.core(1.0, 2.0 - math.sqrt(3.0))
        assert conc == pytest.approx(0.0, abs=1e-15)
        assert form == pytest.approx(0.0, abs=1e-15)
        assert self.core(1.0, 0.25) == (0.0, 0.0)  # I_S < I_T

    def test_value(self):
        conc, form = self.core(2.0, 1.0)  # I_S = 3 I_T
        assert conc == pytest.approx(0.5, abs=1e-15)
        assert form == pytest.approx(0.5, abs=1e-15)


class TestEntropies:
    def test_eof_endpoints(self):
        assert entanglement_of_formation(0.0) == 0.0
        assert entanglement_of_formation(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_eof_midpoint(self):
        assert entanglement_of_formation(0.5) == pytest.approx(0.35458, abs=5e-5)

    def test_eof_monotone(self):
        grid = np.linspace(0.0, 1.0, 1000)
        vals = [entanglement_of_formation(float(c)) for c in grid]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_eof_domain(self):
        with pytest.raises(ValueError):
            entanglement_of_formation(1.1)

    def test_von_neumann_pure(self):
        assert von_neumann_entropy(np.array([[1.0, 0.0], [0.0, 0.0]])) == 0.0

    def test_von_neumann_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2) / 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_entropy_matches_concurrence_form(self):
        rng = np.random.default_rng(36)
        for _ in range(1000):
            amps = random_amps(rng)
            z1, z2 = random_unit(rng), random_unit(rng)
            rho = rho_pure(amps, z1, z2)
            c = concurrence_wootters(rho)
            s = von_neumann_entropy(reduced_density(rho, "first"))
            assert abs(s - entanglement_of_formation(c)) <= 1e-10

    def test_linear_entropy_values(self):
        assert linear_entropy(np.array([[1.0, 0.0], [0.0, 0.0]])) == pytest.approx(0.0, abs=1e-15)
        assert linear_entropy(np.eye(2) / 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_linear_below_von_neumann(self):
        rng = np.random.default_rng(37)
        for _ in range(1000):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            assert linear_entropy(rho) <= von_neumann_entropy(rho) + 1e-12

    def test_entropy_validation(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.array([[1.5, 0.0], [0.0, -0.5]]))


class TestMeasureInvariances:
    def test_global_phase(self):
        rng = np.random.default_rng(38)
        for _ in range(200):
            amps = random_amps(rng)
            ph = math.tau * rng.uniform()
            rot = AmplitudePair(
                amps.t_d * complex(math.cos(ph), math.sin(ph)),
                amps.t_e * complex(math.cos(ph), math.sin(ph)),
            )
            z1, z2 = random_unit(rng), random_unit(rng)
            assert closed(amps, z1, z2) == pytest.approx(closed(rot, z1, z2), abs=1e-13)
            assert closed(amps, ZERO, ZERO) == pytest.approx(closed(rot, ZERO, ZERO), abs=1e-13)

    def test_detector_swap(self):
        rng = np.random.default_rng(39)
        for _ in range(200):
            amps = random_amps(rng)
            flipped = AmplitudePair(amps.t_e, amps.t_d)
            z1, z2 = random_unit(rng), random_unit(rng)
            assert closed(amps, z1, z2) == pytest.approx(closed(flipped, z1, z2), abs=1e-13)
            assert closed(amps, ZERO, ZERO) == pytest.approx(
                closed(flipped, ZERO, ZERO), abs=1e-13
            )
