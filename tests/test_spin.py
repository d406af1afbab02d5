import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import e2espin
from e2espin.bell import DetectorSettings, chsh_closed_form, chsh_expectation
from e2espin.bellsim import outcome_probabilities, sample_coincidences, simulate_chsh
from e2espin.entanglement import (
    concurrence_closed_form,
    concurrence_wootters,
    linear_entropy,
    von_neumann_entropy,
)
from e2espin.scan import observables_from_amplitudes, parse_config
from e2espin.spin import (
    BELL_TO_PRODUCT,
    _pair_kernels,
    AmplitudePair,
    DegenerateStateError,
    bloch_spinor,
    is_empty_pair,
    pair_matrix,
    pair_state,
    polarization_matrix,
    product_matrix,
    reduced_density,
    rho_bell_closed_form,
    rho_mixed,
    rho_pure,
    spinor_from_polarization,
    to_bell_basis,
)

from oracles import bell_coefficients, pauli_expectation

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
            ref = rho_pure(amps, z1, z2)
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
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            product_matrix(rho)

    def test_singlet_formation(self):
        amps = AmplitudePair(0.8 + 0.3j, 0.8 + 0.3j)
        rho = rho_pure(amps, ZHAT, -ZHAT)
        np.testing.assert_allclose(rho, np.outer(PSI_MINUS, PSI_MINUS.conj()), atol=1e-14)

    def test_closed_form_match(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            amps = random_amps(rng)
            z1, z2 = random_unit(rng), random_unit(rng)
            built = to_bell_basis(rho_pure(amps, z1, z2))
            closed = rho_bell_closed_form(amps, z1, z2)
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
                rho_mixed(amps, z1, z2), rho_pure(amps, z1, z2), atol=1e-13
            )

    def test_closed_form_with_ensemble_vectors(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            amps = random_amps(rng)
            p1 = rng.uniform(0.0, 1.0) * random_unit(rng)
            p2 = rng.uniform(0.0, 1.0) * random_unit(rng)
            built = to_bell_basis(rho_mixed(amps, p1, p2))
            closed = rho_bell_closed_form(amps, p1, p2)
            assert np.abs(built - closed).max() <= 1e-12

    def test_unpolarized_equal_amplitudes_is_singlet(self):
        amps = AmplitudePair(0.3 - 1.1j, 0.3 - 1.1j)
        rho = rho_mixed(amps, np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(rho, np.outer(PSI_MINUS, PSI_MINUS.conj()), atol=1e-14)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(16)
        mats = []
        for _ in range(10_000):
            amps = random_amps(rng)
            p1 = rng.uniform(0.0, 1.0) * random_unit(rng)
            p2 = rng.uniform(0.0, 1.0) * random_unit(rng)
            mats.append(rho_mixed(amps, p1, p2))
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
        rho = rho_mixed(AmplitudePair(1.0, 0.0), np.zeros(3), np.zeros(3))
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
    "non_psd": np.diag([2.0, -1.0, 0.0, 0.0]).astype(complex),  # unchecked, its CHSH value -4.24 exceeds Tsirelson
}


class TestProductMatrix:
    @pytest.mark.parametrize("bad", list(BAD_PAIR_MATRICES.values()), ids=list(BAD_PAIR_MATRICES))
    @pytest.mark.parametrize("consumer", list(PAIR_CONSUMERS.values()), ids=list(PAIR_CONSUMERS))
    def test_non_density_matrix_is_rejected(self, consumer, bad):
        with pytest.raises(ValueError, match="density matrix"):
            consumer(bad)

    @pytest.mark.parametrize("entropy", [von_neumann_entropy, linear_entropy])
    @pytest.mark.parametrize(
        "bad",
        [5.0 * np.eye(2), _non_hermitian(np.eye(2) / 2.0), np.diag([1.5, -0.5])],
        ids=["5I", "non_hermitian_1e-11", "non_psd"],
    )
    def test_entropies_reject_non_density_matrices(self, entropy, bad):
        with pytest.raises(ValueError, match="density matrix"):
            entropy(bad)

    def test_valid_matrices_pass_through_unchanged(self):
        # the check returns the very array, so no consumer's bits move
        rho = rho_mixed(AmplitudePair(1.0, 0.5), 0.6 * XHAT, [0.3, 0.0, 0.4])
        assert product_matrix(rho) is rho


class TestUnitDirectionRule:
    def test_every_consumer_draws_the_same_line(self):
        # norms within +-3 ulp of 1 +- 1e-12, plus 1 + 1e-9 and 1 + 1e-11
        rng = np.random.default_rng(1313)
        vectors = [(1.0 + 1e-9) * ZHAT, (1.0 + 1e-11) * XHAT]
        for _ in range(20_000):
            u = rng.standard_normal(3)
            bound = 1.0 + float(rng.choice([-1e-12, 1e-12]))
            vectors.append(u / np.linalg.norm(u) * (bound + int(rng.integers(-3, 4)) * np.spacing(bound)))
        vectors.append(np.array([1.0, -1e-20, 0.0]))  # its azimuth wraps to 2 pi
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


def _near_equal(ratio):
    """(1, 1 + i d): at P1 = P2 = z its pair weight |t_d - t_e|^2 = d^2 is ``ratio`` s."""
    return AmplitudePair(1.0 + 0.0j, complex(1.0, math.sqrt(2.0 * ratio / (1.0 - ratio))))


# s = |t_d|^2 + |t_e|^2; at P1 = P2 = z the pair weight is |t_d - t_e|^2
BOUNDARY_PAIRS = {
    "t_d=t_e=0": (AmplitudePair(0.0j, 0.0j), True),
    "u=0": (_near_equal(0.0), True),
    "u=0.5e-14s": (_near_equal(0.5e-14), True),
    "u=2e-14s": (_near_equal(2e-14), False),
}


class TestEmptyPairRule:
    """Every consumer calls a pair state empty exactly where ``is_empty_pair`` does."""

    @pytest.mark.parametrize("amps, empty", list(BOUNDARY_PAIRS.values()), ids=list(BOUNDARY_PAIRS))
    def test_parallel_spins(self, amps, empty):
        assert is_empty_pair(abs(amps.t_d - amps.t_e) ** 2, amps.t_d, amps.t_e) == empty
        for consumer in (rho_pure, rho_mixed, rho_bell_closed_form, chsh_closed_form):
            if empty:
                with pytest.raises(DegenerateStateError):
                    consumer(amps, ZHAT, ZHAT)
            else:
                consumer(amps, ZHAT, ZHAT)
        cfg = parse_config({"scenario": "custom", "p1": [0, 0, 1], "p2": [0, 0, 1]})
        obs = observables_from_amplitudes(cfg, np.array([[amps.t_d]]), np.array([[amps.t_e]]))
        assert (obs["bell_lhs"][0, 0] == 0.0) == empty
        if empty:
            assert obs["concurrence"][0, 0] == 0.0 and obs["eof"][0, 0] == 0.0

    def test_wootters_route(self):
        # |P| < 1 - 1e-12 keeps u >= 5e-13 s, so only t_d = t_e = 0 is empty
        cfg = parse_config({"scenario": "custom", "p1": [0, 0, 0.5], "p2": [0.3, 0, 0]})
        pairs = [amps for amps, _ in BOUNDARY_PAIRS.values()]
        td = np.array([[a.t_d for a in pairs]], dtype=complex)
        te = np.array([[a.t_e for a in pairs]], dtype=complex)
        u = np.abs(td) ** 2 + np.abs(te) ** 2 - (td * np.conj(te)).real
        conc = observables_from_amplitudes(cfg, td, te)["concurrence"]
        assert is_empty_pair(u, td, te).tolist() == [[True, False, False, False]]
        assert ((conc == 0.0) == is_empty_pair(u, td, te)).all()


def test_no_module_imports_another_modules_private_names():
    """Each module's underscore names stay inside it (the pair-matrix kernels in ``spin``)."""
    offenders = []
    for path in sorted(Path(e2espin.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module != path.stem:
                offenders += [f"{path.name}: {node.module}.{a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert offenders == []


def _uses(tree, skip=None):
    """Names loaded or read as attributes in ``tree``, outside the top-level definition ``skip``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for stmt in tree.body if getattr(stmt, "name", None) != skip
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)}


def test_every_public_name_is_reached():
    """Each ``__all__`` name is used outside its own definition: in ``src`` (by name,
    attribute or an import into another module than ``__init__``), in ``bench/*.py``
    or in the README library sketch."""
    root = Path(__file__).resolve().parents[1]
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p))
               for p in sorted(Path(e2espin.__file__).parent.glob("*.py")) if p.stem != "__init__"}
    sketch = re.search(r"## Library sketch\s*```python\n(.*?)```",
                       (root / "README.md").read_text(encoding="utf-8"), re.S).group(1)
    outside = _uses(ast.parse(sketch)).union(
        *(_uses(ast.parse(p.read_text())) for p in sorted((root / "bench").glob("*.py"))))
    unreached = []
    for stem, tree in modules.items():
        public = next((ast.literal_eval(n.value) for n in tree.body if isinstance(n, ast.Assign)
                       and any(getattr(t, "id", None) == "__all__" for t in n.targets)), [])
        for name in public:
            imported = any(isinstance(n, ast.ImportFrom) and n.level > 0 and n.module == stem
                           and name in {a.name for a in n.names}
                           for other, t in modules.items() if other != stem for n in ast.walk(t))
            used = any(name in _uses(t, name if other == stem else None)
                       for other, t in modules.items())
            if not (imported or used or name in outside):
                unreached.append(f"{stem}.{name}")
    assert unreached == []


def test_spin_owns_the_empty_pair_tolerance():
    """1e-14 appears outside ``spin`` only as the spectral floor of ``wootters_batch``,
    and ``cli`` decides no emptiness by comparing amplitudes with 0."""
    package = Path(e2espin.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "spin.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        floor = set()
        if path.name == "entanglement.py":  # an eigenvalue floor, a different rule
            func = next(n for n in ast.walk(tree)
                        if isinstance(n, ast.FunctionDef) and n.name == "wootters_batch")
            floor = {id(n) for n in ast.walk(func) if isinstance(n, ast.Constant)
                     and n.value == 1e-14}
            assert len(floor) == 1
        offenders += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                      if isinstance(n, ast.Constant) and isinstance(n.value, float)
                      and n.value == 1e-14 and id(n) not in floor]
    cli = ast.parse((package / "cli.py").read_text())
    offenders += [f"cli.py:{n.lineno} == 0.0" for n in ast.walk(cli)
                  if isinstance(n, ast.Compare) and any(isinstance(op, ast.Eq) for op in n.ops)
                  and any(isinstance(c, ast.Constant) and isinstance(c.value, float)
                          and c.value == 0.0 for c in (n.left, *n.comparators))]
    assert offenders == []


class TestReducedDensity:
    def test_product_state(self):
        rho = rho_pure(AmplitudePair(1.0, 0.0j), ZHAT, -ZHAT)  # up (x) down
        red = reduced_density(rho, "first")
        np.testing.assert_allclose(red, [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)
        red2 = reduced_density(rho, "second")
        np.testing.assert_allclose(red2, [[0.0, 0.0], [0.0, 1.0]], atol=1e-14)

    def test_singlet_is_maximally_mixed(self):
        rho = np.outer(PSI_MINUS, PSI_MINUS.conj())
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


class TestBellBasis:
    def test_unitarity(self):
        u = BELL_TO_PRODUCT
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-15)

    def test_identity_invariant(self):
        rho = np.eye(4, dtype=complex) / 4.0
        np.testing.assert_allclose(to_bell_basis(rho), np.eye(4) / 4.0, atol=1e-15)

    def test_singlet_diagonal(self):
        rho = np.outer(PSI_MINUS, PSI_MINUS.conj())
        np.testing.assert_allclose(to_bell_basis(rho), np.diag([0, 0, 0, 1.0]), atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(19)
        rho = rho_pure(random_amps(rng), random_unit(rng), random_unit(rng))
        u = BELL_TO_PRODUCT
        back = u @ to_bell_basis(rho) @ u.conj().T
        assert np.abs(back - rho).max() <= 1e-14


class TestInvariances:
    def test_global_phase(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            amps = random_amps(rng)
            phase = complex(math.cos(p := rng.uniform(0, 2 * math.pi)), math.sin(p))
            rot = AmplitudePair(phase * amps.t_d, phase * amps.t_e)
            z1, z2 = random_unit(rng), random_unit(rng)
            assert np.abs(rho_pure(amps, z1, z2) - rho_pure(rot, z1, z2)).max() <= 1e-13
            p1 = 0.6 * random_unit(rng)
            p2 = 0.3 * random_unit(rng)
            assert np.abs(rho_mixed(amps, p1, p2) - rho_mixed(rot, p1, p2)).max() <= 1e-13

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
            a = rho_pure(amps, z1, z2)
            assert np.abs(swap @ a @ swap - rho_pure(flipped, z1, z2)).max() <= 1e-13
            assert np.abs(swap @ a @ swap - rho_pure(amps, z2, z1)).max() <= 1e-13
            assert np.abs(a - rho_pure(flipped, z2, z1)).max() <= 1e-13

    def test_validate_rejects_bad_matrices(self):
        bad = np.eye(4, dtype=complex) / 4.0
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            product_matrix(bad)
        with pytest.raises(ValueError):
            product_matrix(np.eye(4, dtype=complex))
