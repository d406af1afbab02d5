import cmath
import math

import mpmath
import numpy as np
import pytest

from e2espin import special
from e2espin.special import (
    Coulomb1F1Table,
    ConvergenceError,
    _asymptotic_1f1,
    _maclaurin_1f1,
    coulomb_norm,
    kummer_1f1,
    ln_gamma,
)

from oracles import clenshaw_table


def reference_1f1(a, b, z, terms=200):
    """Independent truncated-series oracle for small |z| (plain Python)."""
    term = complex(1.0, 0.0)
    total = complex(1.0, 0.0)
    for n in range(terms):
        term *= z * (a + n) / ((b + n) * (n + 1))
        total += term
    return total


class TestLnGamma:
    def test_gamma_one_is_one(self):
        assert abs(ln_gamma(1.0)) < 1e-14

    def test_recurrence_at_real_point(self):
        z = 2.5 + 0.0j
        assert abs(ln_gamma(z + 1) - ln_gamma(z) - cmath.log(z)) < 1e-13

    def test_modulus_gamma_one_plus_i(self):
        # |Gamma(1+iy)|^2 = pi y / sinh(pi y) via the reflection formula
        val = abs(cmath.exp(ln_gamma(1 + 1j)))
        assert abs(val - math.sqrt(math.pi / math.sinh(math.pi))) < 1e-12

    def test_modulus_identity_on_grid(self):
        for y in np.linspace(0.1, 5.0, 50):
            g2 = abs(cmath.exp(ln_gamma(complex(1.0, y)))) ** 2
            assert abs(g2 - math.pi * y / math.sinh(math.pi * y)) < 1e-12 * g2

    def test_recurrence_property_right_half_plane(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            z = complex(rng.uniform(0.05, 10.0), rng.uniform(-10.0, 10.0))
            lhs = cmath.exp(ln_gamma(z + 1))
            rhs = z * cmath.exp(ln_gamma(z))
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_poles_raise(self):
        for z in (0.0, -1.0, -5.0):
            with pytest.raises(ValueError, match="pole"):
                ln_gamma(z)

    def test_reflection_values(self):
        assert abs(cmath.exp(ln_gamma(-0.5)) - (-2.0 * math.sqrt(math.pi))) < 1e-13
        assert abs(cmath.exp(ln_gamma(0.5)) - math.sqrt(math.pi)) < 1e-15
        # 4 sqrt(pi) / 3 at -3/2
        assert abs(cmath.exp(ln_gamma(-1.5)) - 4.0 * math.sqrt(math.pi) / 3.0) < 1e-13

    def test_principal_imaginary_part_on_negative_axis(self):
        assert ln_gamma(-0.5).imag == pytest.approx(math.pi)
        assert ln_gamma(-1.5).imag == 0.0

    def test_nonfinite_raises(self):
        with pytest.raises(ValueError):
            ln_gamma(complex(math.nan, 0.0))


class TestKummer1F1:
    def test_at_zero(self):
        for a, b in ((0.3j, 1.0), (1.5 - 2j, 2.5), (0.0, 1.0)):
            assert kummer_1f1(a, b, 0.0) == 1.0

    def test_exponential_reduction(self):
        z = 0.5 + 0.5j
        assert abs(kummer_1f1(1.0, 1.0, z) - cmath.exp(z)) < 1e-14

    def test_against_reference_series(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
            z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            ref = reference_1f1(a, b, z)
            assert abs(kummer_1f1(a, b, z) - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_kummer_transform_residual(self):
        # 1F1(a,b,z) = e^z 1F1(b-a, b, -z), checked on a disk |z| <= 20;
        # the residual is measured relative to the function size, which
        # reaches e^20 on the positive real side
        a, b = 0.3j, 1.0
        worst = 0.0
        for r in np.linspace(0.5, 20.0, 14):
            for th in np.linspace(0.0, 2.0 * math.pi, 17):
                z = r * cmath.exp(1j * th)
                lhs = kummer_1f1(a, b, z)
                rhs = cmath.exp(z) * kummer_1f1(b - a, b, -z)
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        assert worst <= 1e-9

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            a = complex(0.0, rng.uniform(-2, 2))
            b = 1.0
            z = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
            v = kummer_1f1(a, b, z)
            vc = kummer_1f1(a.conjugate(), b, z.conjugate())
            assert abs(vc - v.conjugate()) <= 1e-13 * max(1e-30, abs(v))

    def test_series_asymptotic_overlap(self):
        # both branches agree in a band straddling the switch radius; the
        # achievable agreement in double precision is a few 1e-8 there
        # (series cancellation meets the asymptotic truncation floor)
        for xi in (0.3, 0.8165):
            a = 1j * xi
            for y in np.linspace(20.0, 22.0, 9):
                for z in (1j * y, -1j * y):
                    zz = np.array([z], dtype=complex)
                    s = _maclaurin_1f1(a, 1.0, zz, 10000)[0]
                    asy = _asymptotic_1f1(a, 1.0, zz)[0]
                    assert abs(s - asy) <= 3e-8 * max(abs(s), abs(asy))

    def test_large_argument_magnitudes(self):
        # asymptotic regime up to |z| ~ 500 on the Coulomb (imaginary) axis
        for y in (50.0, 200.0, 500.0):
            v = kummer_1f1(0.5j, 1.0, -1j * y)
            assert np.isfinite(v.real) and np.isfinite(v.imag)
            # the algebraic branch dominates with modulus e^{pi xi/2}/|Gamma(1-i xi)|
            expected = cmath.exp(0.25 * math.pi) / abs(cmath.exp(ln_gamma(1 - 0.5j)))
            assert abs(v) == pytest.approx(expected, rel=0.1)

    def test_array_input_shape(self):
        z = np.array([[0.0, 1.0j], [30.0j, -2.0]])
        out = kummer_1f1(0.3j, 1.0, z)
        assert out.shape == z.shape
        assert out[0, 0] == 1.0

    def test_pole_b_raises(self):
        with pytest.raises(ValueError, match="nonpositive integer"):
            kummer_1f1(0.5j, -1.0, 1.0)

    def test_term_budget_exceeded(self):
        with pytest.raises(ConvergenceError, match=r"\|z\|"):
            kummer_1f1(0.5j, 1.0, 15.0j, max_terms=5)


TABLES = pytest.mark.parametrize(
    "alpha, x_max",
    [
        (1 / 1.622, 45.4),  # c3_point waves (fast and slow) and correlation factor
        (1 / 0.606, 17.0),
        (-0.614, 45.6),
        (0.816, 34.3),  # 54.4 eV equal-sharing wave
        (1.291, 21.7),  # the unequal-sharing oracle kinematics
        (-0.515, 54.4),
        (2.0, 30.0),
    ],
)


class TestCoulomb1F1Table:
    @TABLES
    def test_no_worse_than_kummer_against_mpmath(self, alpha, x_max):
        # the worst errors of both sit in the band around the series /
        # asymptotic switch at |z| = 21, so half the points go there
        rng = np.random.default_rng(17)
        x = np.concatenate([rng.uniform(0.0, x_max, 100), rng.uniform(20.0, 22.0, 100)])
        x = x[x <= x_max]
        with mpmath.workdps(30):
            exact = np.array([complex(mpmath.hyp1f1(1j * alpha, 1, 1j * float(v))) for v in x])
        err_kummer = np.abs(kummer_1f1(1j * alpha, 1.0, 1j * x) - exact) / np.abs(exact)
        err_table = np.abs(Coulomb1F1Table(alpha, x_max).evaluate(x) - exact) / np.abs(exact)
        assert err_table.max() <= err_kummer.max()

    @TABLES
    def test_horner_matches_clenshaw(self, alpha, x_max):
        # the power basis against the Chebyshev recurrence on the same fit,
        # segment ends and the clamped ends included
        table = Coulomb1F1Table(alpha, x_max)
        x = np.concatenate([np.random.default_rng(19).uniform(0.0, x_max, 20_000),
                            np.arange(table._n_seg + 1) / table._inv_width, [-1.0, 2.0 * x_max]])
        exact = clenshaw_table(table, x)
        assert np.all(np.abs(table.evaluate(x) - exact) <= 1e-14 * np.abs(exact))

    def test_values_do_not_depend_on_the_batch(self):
        # kummer_1f1's series stops on its whole batch; the table is elementwise
        table = Coulomb1F1Table(0.8165, 34.3)
        x = np.random.default_rng(3).uniform(0.0, 34.3, 5000)
        batch = table.evaluate(x)
        alone = np.array([complex(table.evaluate(x[i:i + 1])[0]) for i in range(0, 5000, 37)])
        assert np.array_equal(batch[::37], alone)
        assert np.array_equal(table.evaluate(x[::-1])[::-1], batch)

    def test_clamps_into_its_range(self):
        table = Coulomb1F1Table(-0.6, 20.0)
        out = table.evaluate(np.array([-1e-12, 0.0, 20.0, 20.0 + 1e-9, math.inf]))
        assert out[0] == out[1] and out[2] == out[3] == out[4]
        assert abs(out[1] - 1.0) <= 1e-11
        assert np.isnan(table.evaluate(np.array([math.nan]))).all()

    def test_out_and_work_change_no_bit(self):
        # a caller's output and scratch arrays against fresh ones, over more
        # than one chunk of arguments, the clamped ends and NaN included
        table = Coulomb1F1Table(0.8165, 34.3)
        x = np.random.default_rng(5).uniform(-1.0, 35.0, (3, 7_000))
        x[1, :3] = [math.nan, math.inf, -math.inf]
        fresh = table.evaluate(x)
        out = np.full(x.shape, math.nan, dtype=complex)
        kept = {}

        def work(name, shape, dtype):
            return kept.setdefault(name, np.empty(shape, dtype))
        assert table.evaluate(x, out=out, work=work) is out
        assert out.tobytes() == fresh.tobytes()
        assert np.isnan(out[1, 0].real) and np.isnan(out[1, 0].imag)
        assert set(kept) and all(a.size <= 2 * special._TABLE_CHUNK for a in kept.values())
        # a second call reuses the scratch
        again = np.empty(x.shape, dtype=complex)
        table.evaluate(x, out=again, work=work)
        assert again.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("out", [np.empty(5, dtype=complex), np.empty((2, 3)),
                                     np.empty((3, 2), dtype=complex).T])
    def test_rejects_an_unfit_out(self, out):
        with pytest.raises(ValueError):
            Coulomb1F1Table(0.5, 10.0).evaluate(np.ones((2, 3)), out=out)

    def test_shape(self):
        table = Coulomb1F1Table(0.5, 10.0)
        assert table.evaluate(np.ones((2, 3))).shape == (2, 3)
        assert table.evaluate(3.0).shape == ()
        assert table.evaluate(3.0) == pytest.approx(kummer_1f1(0.5j, 1.0, 3.0j), rel=1e-9)

    @pytest.mark.parametrize("alpha, x_max", [(math.nan, 1.0), (0.5, 0.0), (0.5, -1.0),
                                              (0.5, math.inf), (0.5, math.nan)])
    def test_rejects_bad_parameters(self, alpha, x_max):
        with pytest.raises(ValueError):
            Coulomb1F1Table(alpha, x_max)


class TestCoulombNorm:
    def test_zero_is_exactly_one(self):
        assert coulomb_norm(0.0) == 1.0 + 0.0j

    def test_gamow_identity(self):
        for xi in (0.5, -0.5, 1.3, 2.0, -2.7, 0.01):
            n2 = abs(coulomb_norm(xi)) ** 2
            gamow = 2.0 * math.pi * xi / math.expm1(2.0 * math.pi * xi)
            assert abs(n2 - gamow) < 1e-12 * gamow

    def test_monotone_decrease_repulsive(self):
        vals = [abs(coulomb_norm(x)) for x in (1.0, 2.0, 4.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_nonfinite_raises(self):
        with pytest.raises(ValueError):
            coulomb_norm(math.inf)

    def test_strong_repulsion_underflows_cleanly(self):
        assert coulomb_norm(300.0) == 0.0
