import ast
import math
from pathlib import Path

import numpy as np
import pytest

import e2espin
from e2espin.bell import DetectorSettings, chsh_expectation
from e2espin.bellsim import outcome_probabilities, sample_coincidences, simulate_chsh
from e2espin.entanglement import (
    concurrence_closed_form,
    concurrence_wootters,
    linear_entropy,
    von_neumann_entropy,
)
from e2espin.spin import (
    BELL_TO_PRODUCT,
    _pair_kernels,
    AmplitudePair,
    DegenerateStateError,
    SpinDensityMatrix,
    bell_coefficients,
    bloch_spinor,
    pair_matrix,
    pair_state,
    pauli_expectation,
    polarization_matrix,
    product_matrix,
    reduced_density,
    rho_bell_closed_form,
    rho_mixed,
    rho_pure,
    spinor_from_polarization,
    to_bell_basis,
    to_product_basis,
)

ZHAT = np.array([0.0, 0.0, 1.0])
XHAT = np.array([1.0, 0.0, 0.0])

# product-basis singlet (ud - du)/sqrt(2)
PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
RHO_SINGLET = np.outer(PSI_MINUS, PSI_MINUS.conj())

# every consumer of a pair density matrix, with valid settings
PAIR_CONSUMERS = {
    "concurrence_wootters": concurrence_wootters,
    "chsh_expectation": chsh_expectation,
    "outcome_probabilities": lambda rho: outcome_probabilities(rho, ZHAT, XHAT),
    "sample_coincidences": lambda rho: sample_coincidences(rho, ZHAT, XHAT, 10, 0),
    "simulate_chsh": lambda rho: simulate_chsh(rho, 10, 0),
    "reduced_density": reduced_density,
}


def random_amps(rng):
    z = rng.standard_normal(4)
    return AmplitudePair(complex(z[0], z[1]), complex(z[2], z[3]))


def random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestSpinors:
    def test_north_pole(self):
        np.testing.assert_allclose(bloch_spinor(0.0, 1.3), [1.0, 0.0], atol=1e-15)

    def test_south_pole(self):
        np.testing.assert_allclose(bloch_spinor(math.pi, 0.0), [0.0, 1.0], atol=1e-15)

    def test_equator_y(self):
        chi = bloch_spinor(math.pi / 2, math.pi / 2)
        np.testing.assert_allclose(pauli_expectation(chi), [0.0, 1.0, 0.0], atol=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bloch_spinor(-0.1, 0.0)
        with pytest.raises(ValueError):
            bloch_spinor(0.5, -0.1)
        with pytest.raises(ValueError):
            bloch_spinor(0.5, 2.0 * math.pi)

    def test_polarization_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = random_unit(rng)
            chi = spinor_from_polarization(v)
            np.testing.assert_allclose(pauli_expectation(chi), v, atol=1e-12)
            assert abs(np.vdot(chi, chi).real - 1.0) < 1e-12

    def test_nonunit_polarization_rejected(self):
        with pytest.raises(ValueError):
            spinor_from_polarization([0.0, 0.0, 0.5])


class TestBellCoefficients:
    def test_up_down(self):
        amps = AmplitudePair(2.0 + 1.0j, 0.5 - 0.5j)
        coeffs = bell_coefficients(amps, [1.0, 0.0], [0.0, 1.0])
        np.testing.assert_allclose(
            coeffs, [0.0, 0.0, amps.t_d - amps.t_e, amps.t_d + amps.t_e], atol=1e-15
        )

    def test_equal_amplitudes_leave_only_singlet(self):
        rng = np.random.default_rng(5)
        amps = AmplitudePair(1.0 - 0.7j, 1.0 - 0.7j)
        for _ in range(20):
            chi = spinor_from_polarization(random_unit(rng))
            eta = spinor_from_polarization(random_unit(rng))
            coeffs = bell_coefficients(amps, chi, eta)
            np.testing.assert_allclose(coeffs[:3], 0.0, atol=1e-15)

    def test_parallel_up_spins(self):
        amps = AmplitudePair(1.5, 0.25j)
        coeffs = bell_coefficients(amps, [1.0, 0.0], [1.0, 0.0])
        d = amps.t_d - amps.t_e
        np.testing.assert_allclose(coeffs, [d, d, 0.0, 0.0], atol=1e-15)

    def test_reconstructs_pure_density(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            amps = random_amps(rng)
            z1, z2 = random_unit(rng), random_unit(rng)
            chi = spinor_from_polarization(z1)
            eta = spinor_from_polarization(z2)
            coeffs = bell_coefficients(amps, chi, eta)
            vec = BELL_TO_PRODUCT @ coeffs
            nrm = float(np.vdot(vec, vec).real)
            if nrm < 1e-12:
                continue
            rho = np.outer(vec, vec.conj()) / nrm
            ref = rho_pure(amps, z1, z2).matrix
            assert np.abs(rho - ref).max() < 1e-12


class TestPairState:
    def test_norm_matches_overlap_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            amps = random_amps(rng)
            chi = spinor_from_polarization(random_unit(rng))
            eta = spinor_from_polarization(random_unit(rng))
            x = pair_state(amps, chi, eta)
            u = float(np.vdot(x, x).real)
            ov = complex(np.vdot(chi, eta))
            td, te = amps.t_d, amps.t_e
            expected = (
                abs(td) ** 2 + abs(te) ** 2 - 2.0 * (td * te.conjugate()).real * abs(ov) ** 2
            )
            assert abs(u - expected) < 1e-12 * max(1.0, expected)


class TestRhoPure:
    def test_trace_one(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            rho = rho_pure(random_amps(rng), random_unit(rng), random_unit(rng))
            assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
            rho.validate()

    def test_singlet_formation(self):
        amps = AmplitudePair(0.8 + 0.3j, 0.8 + 0.3j)
        rho = rho_pure(amps, ZHAT, -ZHAT)
        np.testing.assert_allclose(rho.matrix, np.outer(PSI_MINUS, PSI_MINUS.conj()), atol=1e-14)

    def test_closed_form_match(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            amps = random_amps(rng)
            z1, z2 = random_unit(rng), random_unit(rng)
            built = to_bell_basis(rho_pure(amps, z1, z2)).matrix
            closed = rho_bell_closed_form(amps, z1, z2).matrix
            assert np.abs(built - closed).max() <= 1e-12

    def test_degenerate_raises(self):
        amps = AmplitudePair(1.0 + 0.0j, 1.0 + 0.0j)
        with pytest.raises(DegenerateStateError):
            rho_pure(amps, ZHAT, ZHAT)
        with pytest.raises(DegenerateStateError):
            rho_pure(AmplitudePair(0.0j, 0.0j), ZHAT, -ZHAT)


class TestRhoMixed:
    def test_unit_polarizations_reduce_to_pure(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            amps = random_amps(rng)
            z1, z2 = random_unit(rng), random_unit(rng)
            np.testing.assert_allclose(
                rho_mixed(amps, z1, z2).matrix, rho_pure(amps, z1, z2).matrix, atol=1e-13
            )

    def test_closed_form_with_ensemble_vectors(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            amps = random_amps(rng)
            p1 = rng.uniform(0.0, 1.0) * random_unit(rng)
            p2 = rng.uniform(0.0, 1.0) * random_unit(rng)
            built = to_bell_basis(rho_mixed(amps, p1, p2)).matrix
            closed = rho_bell_closed_form(amps, p1, p2).matrix
            assert np.abs(built - closed).max() <= 1e-12

    def test_unpolarized_equal_amplitudes_is_singlet(self):
        amps = AmplitudePair(0.3 - 1.1j, 0.3 - 1.1j)
        rho = rho_mixed(amps, np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(rho.matrix, np.outer(PSI_MINUS, PSI_MINUS.conj()), atol=1e-14)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(16)
        mats = []
        for _ in range(10_000):
            amps = random_amps(rng)
            p1 = rng.uniform(0.0, 1.0) * random_unit(rng)
            p2 = rng.uniform(0.0, 1.0) * random_unit(rng)
            mats.append(rho_mixed(amps, p1, p2).matrix)
        eigs = np.linalg.eigvalsh(np.array(mats))
        assert eigs.min() >= -1e-10

    def test_overlong_polarization_rejected(self):
        with pytest.raises(ValueError):
            rho_mixed(AmplitudePair(1.0, 0.5), 1.2 * ZHAT, ZHAT)


def kron_branch_kernels(p1, p2):
    """The branch kernels built from np.kron on every call (reference)."""
    m1, m2 = float(np.linalg.norm(p1)), float(np.linalg.norm(p2))
    u1 = p1 / m1 if m1 > 0.0 else ZHAT
    u2 = p2 / m2 if m2 > 0.0 else ZHAT
    k = [np.zeros((4, 4), dtype=complex) for _ in range(3)]
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            w = 0.25 * (1.0 + s1 * m1) * (1.0 + s2 * m2)
            if w == 0.0:
                continue
            chi = spinor_from_polarization(s1 * u1)
            eta = spinor_from_polarization(s2 * u2)
            va, vb = np.kron(chi, eta), np.kron(eta, chi)
            k[0] += w * np.outer(va, va.conj())
            k[1] += w * np.outer(vb, vb.conj())
            k[2] += w * np.outer(va, vb.conj())
    return k


class TestBranchKernels:
    def test_product_form_kernels_match_the_kron_loop(self):
        rng = np.random.default_rng(21)
        # the four named scenarios, then partial with unit and partial with partial
        pairs = [(ZHAT, XHAT), (ZHAT, -ZHAT), (ZHAT, np.zeros(3)), (np.zeros(3), np.zeros(3))]
        pairs += [(rng.uniform(0.0, 1.0) * random_unit(rng), random_unit(rng)) for _ in range(50)]
        pairs += [
            (rng.uniform(0.0, 1.0) * random_unit(rng), rng.uniform(0.0, 1.0) * random_unit(rng))
            for _ in range(2000)
        ]
        for p1, p2 in pairs:
            for got, ref in zip(_pair_kernels(p1, p2), kron_branch_kernels(p1, p2)):
                assert np.abs(got - ref).max() <= 1e-15

    def test_unpolarized_initial_state_is_exactly_identity_over_four(self):
        rho_in = _pair_kernels(np.zeros(3), np.zeros(3))[0]
        assert np.array_equal(rho_in, np.eye(4) / 4)
        # with t_e = 0 the pair keeps its initial state, bit for bit
        rho = rho_mixed(AmplitudePair(1.0, 0.0), np.zeros(3), np.zeros(3)).matrix
        assert np.array_equal(rho, np.eye(4) / 4)

    @pytest.mark.parametrize(
        "p1, p2", [(np.zeros(2), ZHAT), (ZHAT, (1.0 + 1e-9) * XHAT), ([math.nan, 0.0, 0.0], ZHAT)]
    )
    def test_pair_matrix_checks_polarizations(self, p1, p2):
        with pytest.raises(ValueError):
            pair_matrix(1.0, 0.5, p1, p2)


def _non_hermitian(m, eps=1e-11):
    m = np.array(m, dtype=complex)
    m[0, 1] += eps
    return m


BAD_PAIR_MATRICES = {
    "trace_2": 2.0 * RHO_SINGLET,  # unchecked, its CHSH value 5.66 exceeds Tsirelson
    "trace_1_plus_1e-11": (1.0 + 1e-11) * RHO_SINGLET,
    "identity": np.eye(4, dtype=complex),
    "non_hermitian_1e-11": _non_hermitian(RHO_SINGLET),
    "non_hermitian": _non_hermitian(np.eye(4) / 4.0, 0.5),
    "3x3": np.eye(3, dtype=complex) / 3.0,
    "nan": np.full((4, 4), math.nan, dtype=complex),
}


class TestProductMatrix:
    @pytest.mark.parametrize("consumer", list(PAIR_CONSUMERS.values()), ids=list(PAIR_CONSUMERS))
    def test_bell_basis_matrix_is_rejected(self, consumer):
        rho = to_bell_basis(rho_pure(AmplitudePair(1.0, 0.5), ZHAT, XHAT))
        with pytest.raises(ValueError, match="product-basis"):
            consumer(rho)

    @pytest.mark.parametrize("bad", list(BAD_PAIR_MATRICES.values()), ids=list(BAD_PAIR_MATRICES))
    @pytest.mark.parametrize("consumer", list(PAIR_CONSUMERS.values()), ids=list(PAIR_CONSUMERS))
    def test_non_density_matrix_is_rejected(self, consumer, bad):
        with pytest.raises(ValueError, match="density matrix"):
            consumer(bad)
        with pytest.raises(ValueError, match="density matrix"):
            consumer(SpinDensityMatrix(bad, "product"))

    @pytest.mark.parametrize("entropy", [von_neumann_entropy, linear_entropy])
    @pytest.mark.parametrize(
        "bad",
        [5.0 * np.eye(2), _non_hermitian(np.eye(2) / 2.0)],
        ids=["5I", "non_hermitian_1e-11"],
    )
    def test_entropies_reject_non_density_matrices(self, entropy, bad):
        with pytest.raises(ValueError, match="density matrix"):
            entropy(bad)

    def test_valid_matrices_pass_through_unchanged(self):
        # the check returns the very array, so no consumer's bits move
        rho = rho_mixed(AmplitudePair(1.0, 0.5), 0.6 * XHAT, [0.3, 0.0, 0.4])
        assert product_matrix(rho) is rho.matrix
        assert to_bell_basis(rho).validate().basis == "bell"


class TestUnitDirectionRule:
    def test_every_consumer_draws_the_same_line(self):
        # norms within +-3 ulp of 1 +- 1e-12, plus 1 + 1e-9 and 1 + 1e-11
        rng = np.random.default_rng(1313)
        vectors = [(1.0 + 1e-9) * ZHAT, (1.0 + 1e-11) * XHAT]
        for _ in range(20_000):
            u = rng.standard_normal(3)
            bound = 1.0 + float(rng.choice([-1e-12, 1e-12]))
            vectors.append(u / np.linalg.norm(u) * (bound + int(rng.integers(-3, 4)) * np.spacing(bound)))
        amps = AmplitudePair(1.0, 0.5)
        accepted = 0
        for v in vectors:
            verdicts = []
            for use in (
                lambda: rho_pure(amps, v, XHAT),
                lambda: DetectorSettings(a1=tuple(v)).vectors(),
                lambda: outcome_probabilities(RHO_SINGLET, v, XHAT),
            ):
                try:
                    use()
                    verdicts.append(True)
                except ValueError:
                    verdicts.append(False)
            verdicts.append(concurrence_closed_form(1.0, 0.5, v, XHAT) is not None)
            assert len(set(verdicts)) == 1, (v.tolist(), verdicts)
            if verdicts[0]:
                polarization_matrix(v, "p")
                accepted += 1
        assert 0 < accepted < len(vectors) - 2


def test_no_module_imports_another_modules_private_names():
    """Each module's underscore names stay inside it (the pair-matrix kernels in ``spin``)."""
    offenders = []
    for path in sorted(Path(e2espin.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module != path.stem:
                offenders += [f"{path.name}: {node.module}.{a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert offenders == []


class TestReducedDensity:
    def test_product_state(self):
        rho = rho_pure(AmplitudePair(1.0, 0.0j), ZHAT, -ZHAT)  # up (x) down
        red = reduced_density(rho, "first")
        np.testing.assert_allclose(red, [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)
        red2 = reduced_density(rho, "second")
        np.testing.assert_allclose(red2, [[0.0, 0.0], [0.0, 1.0]], atol=1e-14)

    def test_singlet_is_maximally_mixed(self):
        rho = SpinDensityMatrix(np.outer(PSI_MINUS, PSI_MINUS.conj()), "product")
        np.testing.assert_allclose(reduced_density(rho, "first"), np.eye(2) / 2, atol=1e-14)

    def test_closed_form(self):
        # partial trace vs. the explicit single-electron expression
        rng = np.random.default_rng(17)
        for _ in range(1000):
            amps = random_amps(rng)
            z1, z2 = random_unit(rng), random_unit(rng)
            chi = spinor_from_polarization(z1)
            eta = spinor_from_polarization(z2)
            x = pair_state(amps, chi, eta)
            u = float(np.vdot(x, x).real)
            if u < 1e-6:
                continue
            td, te = amps.t_d, amps.t_e
            ov = complex(np.vdot(chi, eta))  # <chi|eta>
            expected = (
                abs(td) ** 2 * np.outer(chi, chi.conj())
                - td * te.conjugate() * ov * np.outer(chi, eta.conj())
                - td.conjugate() * te * ov.conjugate() * np.outer(eta, chi.conj())
                + abs(te) ** 2 * np.outer(eta, eta.conj())
            ) / u
            got = reduced_density(rho_pure(amps, z1, z2), "first")
            assert np.abs(got - expected).max() <= 1e-12

    def test_requires_product_basis(self):
        rho = to_bell_basis(rho_pure(AmplitudePair(1.0, 0.5), ZHAT, XHAT))
        with pytest.raises(ValueError):
            reduced_density(rho, "first")


class TestBellBasis:
    def test_unitarity(self):
        u = BELL_TO_PRODUCT
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-15)

    def test_identity_invariant(self):
        rho = SpinDensityMatrix(np.eye(4, dtype=complex) / 4.0, "product")
        np.testing.assert_allclose(to_bell_basis(rho).matrix, np.eye(4) / 4.0, atol=1e-15)

    def test_singlet_diagonal(self):
        rho = SpinDensityMatrix(np.outer(PSI_MINUS, PSI_MINUS.conj()), "product")
        np.testing.assert_allclose(to_bell_basis(rho).matrix, np.diag([0, 0, 0, 1.0]), atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(19)
        rho = rho_pure(random_amps(rng), random_unit(rng), random_unit(rng))
        back = to_product_basis(to_bell_basis(rho))
        assert np.abs(back.matrix - rho.matrix).max() <= 1e-14


class TestInvariances:
    def test_global_phase(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            amps = random_amps(rng)
            phase = complex(math.cos(p := rng.uniform(0, 2 * math.pi)), math.sin(p))
            rot = AmplitudePair(phase * amps.t_d, phase * amps.t_e)
            z1, z2 = random_unit(rng), random_unit(rng)
            assert np.abs(rho_pure(amps, z1, z2).matrix - rho_pure(rot, z1, z2).matrix).max() <= 1e-13
            p1 = 0.6 * random_unit(rng)
            p2 = 0.3 * random_unit(rng)
            assert np.abs(rho_mixed(amps, p1, p2).matrix - rho_mixed(rot, p1, p2).matrix).max() <= 1e-13

    def test_swap_covariance(self):
        # swapping the detectors is the qubit swap; in amplitude language
        # that is t_d <-> t_e alone (or, equivalently, zeta1 <-> zeta2
        # alone).  Performing both swaps together returns the same state.
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = 1.0
        swap[1, 2] = swap[2, 1] = 1.0
        rng = np.random.default_rng(21)
        for _ in range(200):
            amps = random_amps(rng)
            flipped = AmplitudePair(amps.t_e, amps.t_d)
            z1, z2 = random_unit(rng), random_unit(rng)
            a = rho_pure(amps, z1, z2).matrix
            assert np.abs(swap @ a @ swap - rho_pure(flipped, z1, z2).matrix).max() <= 1e-13
            assert np.abs(swap @ a @ swap - rho_pure(amps, z2, z1).matrix).max() <= 1e-13
            assert np.abs(a - rho_pure(flipped, z2, z1).matrix).max() <= 1e-13

    def test_validate_rejects_bad_matrices(self):
        bad = np.eye(4, dtype=complex) / 4.0
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            SpinDensityMatrix(bad, "product").validate()
        with pytest.raises(ValueError):
            SpinDensityMatrix(np.eye(4, dtype=complex), "product").validate()
