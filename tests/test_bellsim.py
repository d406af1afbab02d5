import math

import numpy as np
import pytest

from e2espin.bell import DEFAULT_SETTINGS, TSIRELSON_BOUND, chsh_expectation
from e2espin.bellsim import (
    CoincidenceCounts,
    chsh_estimate,
    outcome_probabilities,
    sample_coincidences,
    simulate_chsh,
)
from e2espin.spin import PAULI, AmplitudePair, rho_pure

ZHAT = np.array([0.0, 0.0, 1.0])
PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
RHO_SINGLET = np.outer(PSI_MINUS, PSI_MINUS.conj())


def random_rho(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class Testprobabilities:
    def test_singlet_anticorrelation(self):
        p = outcome_probabilities(RHO_SINGLET, ZHAT, ZHAT)
        np.testing.assert_allclose(p, [0.0, 0.5, 0.5, 0.0], atol=1e-14)

    def test_maximally_mixed(self):
        rng = np.random.default_rng(70)
        p = outcome_probabilities(np.eye(4, dtype=complex) / 4, random_unit(rng), random_unit(rng))
        np.testing.assert_allclose(p, 0.25, atol=1e-14)

    def test_correlator_operator_identity(self):
        rng = np.random.default_rng(71)
        for _ in range(1000):
            rho = random_rho(rng)
            a, b = random_unit(rng), random_unit(rng)
            p = outcome_probabilities(rho, a, b)
            corr = p[0] + p[3] - p[1] - p[2]
            sa = a[0] * PAULI[0] + a[1] * PAULI[1] + a[2] * PAULI[2]
            sb = b[0] * PAULI[0] + b[1] * PAULI[1] + b[2] * PAULI[2]
            ref = float(np.trace(rho @ np.kron(sa, sb)).real)
            assert abs(corr - ref) <= 1e-12

    def test_valid_distribution(self):
        rng = np.random.default_rng(72)
        for _ in range(10_000):
            p = outcome_probabilities(random_rho(rng), random_unit(rng), random_unit(rng))
            assert np.all(p >= 0.0) and np.all(p <= 1.0)
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_nonunit_setting_rejected(self):
        with pytest.raises(ValueError):
            outcome_probabilities(RHO_SINGLET, [0.0, 0.0, 2.0], ZHAT)


class TestSampling:
    def test_zero_draws(self):
        c = sample_coincidences(RHO_SINGLET, ZHAT, ZHAT, 0, 1)
        assert (c.n_pp, c.n_pm, c.n_mp, c.n_mm) == (0, 0, 0, 0)

    def test_total_conserved(self):
        c = sample_coincidences(RHO_SINGLET, ZHAT, [1.0, 0.0, 0.0], 12345, 7)
        assert c.total == 12345

    def test_deterministic(self):
        a = sample_coincidences(RHO_SINGLET, ZHAT, [1.0, 0.0, 0.0], 5000, 42)
        b = sample_coincidences(RHO_SINGLET, ZHAT, [1.0, 0.0, 0.0], 5000, 42)
        assert a == b

    @pytest.mark.parametrize("seed", [2**64, (1, 2**64), -1])
    def test_seed_beyond_64_bits_rejected(self, seed):
        # masking it to 64 bits would alias another seed's stream
        with pytest.raises(ValueError, match="2\\*\\*64"):
            sample_coincidences(RHO_SINGLET, ZHAT, ZHAT, 10, seed)

    def test_frequencies_track_probabilities(self):
        rng = np.random.default_rng(73)
        n = 1_000_000
        for trial in range(3):
            rho = random_rho(rng)
            a, b = random_unit(rng), random_unit(rng)
            p = outcome_probabilities(rho, a, b)
            c = sample_coincidences(rho, a, b, n, (99, trial))
            for k, nk in enumerate((c.n_pp, c.n_pm, c.n_mp, c.n_mm)):
                sigma = math.sqrt(max(p[k] * (1 - p[k]) * n, 1.0))
                assert abs(nk - n * p[k]) <= 5.0 * sigma


class TestChshEstimate:
    def test_exact_probability_combination(self):
        # with exact probabilities the four correlators are +-1/sqrt(2)
        # and the CHSH combination saturates the Tsirelson bound
        a1, a2, b1, b2 = DEFAULT_SETTINGS.vectors()
        combo = 0.0
        for sign, (a, b) in zip(
            (1.0, -1.0, 1.0, 1.0), ((a1, b1), (a1, b2), (a2, b1), (a2, b2))
        ):
            p = outcome_probabilities(RHO_SINGLET, a, b)
            combo += sign * (p[0] + p[3] - p[1] - p[2])
        assert combo == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_stderr_formula_for_singlet(self):
        n = 1_000_000
        res = simulate_chsh(RHO_SINGLET, n, seed=11)
        expected = math.sqrt(2.0 / n)  # four settings with E^2 = 1/2
        assert res["chsh_stderr"] == pytest.approx(expected, rel=0.1)
        assert res["chsh_estimate"] == pytest.approx(TSIRELSON_BOUND, abs=5 * expected)

    def test_product_state_never_violates(self):
        rho = rho_pure(AmplitudePair(1.0, 0.0j), ZHAT, ZHAT)
        for seed in range(10):
            res = simulate_chsh(rho, 20_000, seed=seed)
            assert res["chsh_estimate"] < 2.0
            assert res["chsh_estimate"] == pytest.approx(-math.sqrt(2.0), abs=0.1)

    def test_estimator_consistency(self):
        rng = np.random.default_rng(74)
        rhos = [RHO_SINGLET] + [random_rho(rng) for _ in range(3)]
        bad = 0
        runs = 0
        for rho in rhos:
            exact = chsh_expectation(rho)
            for seed in range(25):
                res = simulate_chsh(rho, 10_000, seed=seed)
                runs += 1
                if abs(res["chsh_estimate"] - exact) > 5.0 * res["chsh_stderr"]:
                    bad += 1
        assert bad <= 0.01 * runs + 1

    def test_empty_setting_rejected(self):
        good = CoincidenceCounts(10, 5, 5, 10)
        with pytest.raises(ValueError):
            chsh_estimate([good, good, good, CoincidenceCounts(0, 0, 0, 0)])

    def test_needs_four_settings(self):
        good = CoincidenceCounts(10, 5, 5, 10)
        with pytest.raises(ValueError):
            chsh_estimate([good, good, good])
