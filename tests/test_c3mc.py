import hashlib
import math
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from e2espin import c3mc
from e2espin.amplitudes import McConfig, free_limit_closed_form
from e2espin.kinematics import HARTREE_EV, build_coplanar
from e2espin.scan import amplitude_grids, parse_config
from e2espin.special import kummer_1f1

from oracles import coulomb_wave, ee_correlation, hydrogen_1s_position

E0, ET, EB = 2.0, -0.5, 0.75


def kin_at(theta_a_deg, theta_b_deg, eb=EB):
    return build_coplanar(E0, eb, math.radians(theta_a_deg), math.radians(theta_b_deg), ET)


# the benchmark's 3C point: 54.4 eV, a 5 eV slow electron, two wave xi
C3_POINT = build_coplanar(54.4 / HARTREE_EV, 5.0 / HARTREE_EV, math.radians(20.0),
                          math.radians(-60.0), -13.605693 / HARTREE_EV)


# the benchmark's 3C scan: 54.4 eV equal sharing
def c3_scan_kin(theta_a_deg, theta_b_deg):
    e0, eb, et = parse_config({"model": "c3", "e0_ev": 54.4}).energies_hartree()
    return build_coplanar(e0, eb, math.radians(theta_a_deg), math.radians(theta_b_deg), et)


REAL_DRAW, REAL_KERNEL = c3mc._draw, c3mc._kernel


def poison(monkeypatch, samples, fill):
    """Make ``weigh`` return ``fill`` for ``samples`` (indices in each block).

    The samples are recognized by their projectile radius, which ``weigh``
    gets unchanged in whatever slices ``c3_pair`` cuts a block; a second
    call replaces the first.
    """
    marked, drawn = [], {}  # drawn: samples drawn so far from each block's stream

    def draw(stream, n, r_max, ws=None):
        sample = REAL_DRAW(stream, n, r_max, ws)
        lo = drawn.get(stream, 0)
        drawn[stream] = lo + n
        in_block = np.zeros(c3mc.BLOCK_SIZE, dtype=bool)
        in_block[samples] = True
        marked.extend(sample[1][in_block[lo:lo + n]].tolist())
        return sample

    def kernel(kin, cfg):
        weigh = REAL_KERNEL(kin, cfg)

        def poisoned(r1, r1mag, r2, r2mag, density, ws=None):
            w = weigh(r1, r1mag, r2, r2mag, density, ws)
            w[:, np.isin(r1mag, marked)] = fill
            return w
        return poisoned

    monkeypatch.setattr(c3mc, "_draw", draw)
    monkeypatch.setattr(c3mc, "_kernel", kernel)


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

    def test_kinematics_change_stream(self):
        # the same kinematics, built twice, give the same bits; other
        # kinematics draw other samples
        cfg = McConfig(samples=20_000, seed=9)
        a = c3mc.c3_pair(kin_at(40.0, -70.0), cfg)
        b = c3mc.c3_pair(kin_at(40.0, -70.0), cfg)
        assert a.t_d == b.t_d and a.t_e == b.t_e and np.array_equal(a.cov, b.cov)
        words = [c3mc._stream_word(c3mc._canonical(kin))
                 for kin in (kin_at(40.0, -70.0), kin_at(40.0, -71.0))]
        assert words[0] != words[1]
        draws = [c3mc._draw(c3mc._block_stream(np.array([9, w], dtype=np.uint64), 0), 100, 14.0)[1]
                 for w in words]
        assert not np.any(draws[0] == draws[1])


def stream_word(e0, eb, theta_a_deg, theta_b_deg, et=ET):
    return c3mc._stream_word(c3mc._canonical(
        build_coplanar(e0, eb, math.radians(theta_a_deg), math.radians(theta_b_deg), et)))


class TestStreamKey:
    def test_electron_labels_do_not_change_the_word(self):
        assert stream_word(E0, EB, 40.0, -70.0) == stream_word(E0, EB, -70.0, 40.0)

    def test_plus_and_minus_180_share_a_word(self):
        assert stream_word(E0, EB, 180.0, -70.0) == stream_word(E0, EB, -180.0, -70.0)
        assert stream_word(E0, EB, 30.0, 180.0) == stream_word(E0, EB, 30.0, -180.0)

    def test_angle_rounding_does_not_change_the_word(self):
        # an angle off by its last bit is the same point; one micro-degree is not
        theta_a = math.nextafter(math.radians(30.0), 1.0)
        kin = build_coplanar(E0, EB, theta_a, math.radians(-60.0), ET)
        assert c3mc._stream_word(c3mc._canonical(kin)) == stream_word(E0, EB, 30.0, -60.0)
        assert stream_word(E0, EB, 30.0, -60.0) != stream_word(E0, EB, 30.000001, -60.0)

    def test_energies_change_the_word(self):
        base = stream_word(E0, EB, 40.0, -70.0)
        assert base != stream_word(E0, 0.5, 40.0, -70.0)
        assert base != stream_word(E0 + 0.25, EB, 40.0, -70.0, et=ET - 0.25)
        assert base != stream_word(2.1, EB, 40.0, -70.0)

    def test_mirror_image_shares_the_word(self):
        # x -> -x maps (thetaA, thetaB) to (-thetaA, -thetaB); 180 deg stays 180
        assert stream_word(E0, EB, 40.0, -70.0) == stream_word(E0, EB, -40.0, 70.0)
        assert stream_word(E0, EB, 180.0, 40.0) == stream_word(E0, EB, -180.0, -40.0)
        assert stream_word(E0, EB, 40.0, -70.0) != stream_word(E0, EB, -40.0, -70.0)
        # the canonical member keeps the word it had before reflection shared it
        assert c3mc._stream_word(c3mc._canonical(C3_POINT)) == 7397496058057166766

    def test_default_grid_has_no_repeated_word(self):
        # the default 181^2 grid at equal sharing and at 5 eV: one word per
        # physical point up to relabeling and reflection, where a point is
        # an unordered pair of electrons, +-180 deg is one direction and the
        # reflection negates both angles
        grid = parse_config({}).grid_deg()
        wrapped = np.where(grid == -180.0, 180.0, grid)

        def mirror(t):
            return t if t == 180.0 else -t

        points, words = set(), set()
        for eb_ev in (None, 5.0):
            e0, eb, et = parse_config({"eb_ev": eb_ev}).energies_hartree()
            e_a = e0 + et - eb
            for ta, wa in zip(grid, wrapped):
                for tb, wb in zip(grid, wrapped):
                    pair = frozenset([(e_a, wa), (eb, wb)])
                    image = frozenset([(e_a, mirror(wa)), (eb, mirror(wb))])
                    points.add((e_a, eb, frozenset([pair, image])))
                    words.add(stream_word(e0, eb, ta, tb, et))
        # orbits of the reflection on the 180 directions (0 and 180 fixed):
        # at equal sharing 180 * 181 / 2 unordered pairs, 3 + 89 of them
        # fixed; at 5 eV 180^2 ordered pairs, 4 of them fixed
        assert len(points) == (180 * 181 // 2 + 92) // 2 + (180**2 + 4) // 2
        assert len(words) == len(points)


class TestExchangeSymmetry:
    @pytest.mark.parametrize("theta", [20.0, 45.0, 75.0, 120.0, 160.0])
    def test_symmetric_3c_pair_identical(self, theta):
        est = c3mc.c3_pair(kin_at(theta, -theta), McConfig(samples=10_000, seed=2))
        assert est.t_d - est.t_e == 0.0

    def test_symmetric_free_limit_pair_identical(self):
        for theta in (45.0, 20.0, 75.0, 120.0, 160.0):
            est = c3mc.c3_pair(
                kin_at(theta, -theta), McConfig(samples=10_000, seed=2, debug_free_limit=True)
            )
            assert est.t_d - est.t_e == 0.0, theta

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

    @pytest.mark.parametrize("offset", [1e-7, 1e-3])
    def test_nearly_coincident_momenta_vanish(self, offset):
        # 1e-7 deg rounds to the same micro-degree, |k_ab| = 0: the zero
        # estimate; at 1e-3 deg the Gamow factor of |k_ab| ~ 1e-5 underflows
        kin = c3_scan_kin(10.0, 10.0 + offset)
        assert (c3mc._kab_mag(kin) == 0.0) == (offset < 5e-7)
        est = c3mc.c3_pair(kin, McConfig(samples=5_000, seed=1))
        assert est.t_d == 0.0 and est.t_e == 0.0
        assert np.all(est.cov == 0.0) and est.n_rejected == 0

    def test_sample_budget_enforced(self):
        with pytest.raises(ValueError):
            c3mc.c3_pair(kin_at(45.0, -45.0), McConfig(samples=100, seed=1))

    def test_rejection_accounting_error(self, monkeypatch):
        # poison a fraction of the integrand evaluations and make sure the
        # estimator refuses to report
        poison(monkeypatch, slice(None, None, 50), complex(math.nan, math.nan))
        with pytest.raises(ArithmeticError, match="rejected"):
            c3mc.c3_pair(kin_at(45.0, -60.0), McConfig(samples=5_000, seed=3))

    def test_small_rejection_is_counted_not_fatal(self, monkeypatch):
        poison(monkeypatch, slice(None, None, 30001), complex(math.nan, math.nan))
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
        poison(monkeypatch, [17, 1234], np.nan)
        rejected = c3mc.c3_pair(kin, cfg)
        poison(monkeypatch, [17, 1234], 0.0)
        zeroed = c3mc.c3_pair(kin, cfg)
        assert rejected.n_rejected == 2
        assert zeroed.n_rejected == 0
        assert rejected.t_d == pytest.approx(zeroed.t_d, rel=1e-14)
        assert rejected.t_e == pytest.approx(zeroed.t_e, rel=1e-14)
        np.testing.assert_allclose(rejected.cov, zeroed.cov, rtol=1e-14, atol=0.0)


def scalar_integrand(k0, k_a, k_b, r1, r2):
    """The unsymmetrized 3C integrand at one point, from the scalar functions."""
    r12 = r1 - r2
    return (
        np.conj(coulomb_wave(k_a, r1))
        * np.conj(coulomb_wave(k_b, r2))
        * np.conj(ee_correlation(0.5 * (k_a - k_b), r12))
        * (1.0 / np.linalg.norm(r12) - 1.0 / np.linalg.norm(r1))
        * hydrogen_1s_position(r2)
        * np.exp(1j * float(k0 @ r1))
    )


def unit_vectors(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestIntegrandOracle:
    # the scalar and the batched 1F1 agree to a few 1e-9 (special.py's floor)
    RTOL = 1e-7

    @pytest.mark.parametrize(
        "kin",
        [
            kin_at(45.0, -60.0),
            kin_at(20.0, -60.0, eb=0.3),  # unequal sharing: two wave xi
            kin_at(40.0, -40.0),  # symmetric
            C3_POINT,
            c3_scan_kin(-30.0, 90.0),  # equal sharing, mirror off the x axis
        ],
        ids=["equal", "unequal", "symmetric", "c3_point", "c3_scan"],
    )
    def test_kernel_matches_scalar_integrand(self, kin):
        cfg = McConfig()
        rng = np.random.default_rng(2024)
        n = 20
        r1mag = rng.uniform(0.2, 0.99 * cfg.r_max, n)  # crosses the taper at r_max/2
        r2mag = rng.uniform(0.1, 4.0, n)
        r1 = r1mag[:, None] * unit_vectors(rng, n)
        r2 = r2mag[:, None] * unit_vectors(rng, n)
        w = c3mc._kernel(kin, cfg)(r1, r1mag, r2, r2mag, np.ones(n))

        # (k0, kA, kB) and their reflection through the symmetrization plane,
        # which at equal sharing the kernel takes as (k0', kB, kA) exactly
        normal = c3mc._mirror_normal(kin)
        k = (kin.k0, kin.k_a, kin.k_b)
        mk = tuple(v - 2.0 * float(v @ normal) * normal for v in k)
        for s in range(n):
            ramp = min(max((r1mag[s] / cfg.r_max - 0.5) * 2.0, 0.0), 1.0)
            window = math.cos(0.5 * math.pi * ramp) ** 2
            for row, (a, b) in enumerate(((1, 2), (2, 1))):  # direct, then kA <-> kB
                expected = 0.5 * window * (
                    scalar_integrand(k[0], k[a], k[b], r1[s], r2[s])
                    + scalar_integrand(mk[0], mk[a], mk[b], r1[s], r2[s])
                )
                assert abs(w[row, s] - expected) <= self.RTOL * abs(expected), (row, s)

    def test_kernel_is_zero_outside_the_ball(self):
        cfg = McConfig()
        r1mag = np.array([cfg.r_max * 1.01, 2.0])
        r2mag = np.array([1.0, cfg.r_max * 1.01])
        r1 = r1mag[:, None] * np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        r2 = r2mag[:, None] * np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        w = c3mc._kernel(kin_at(45.0, -60.0), cfg)(r1, r1mag, r2, r2mag, np.ones(2))
        assert np.all(w == 0.0)



def unit_phase(ph, cos_out, sin_out):
    """cos(ph) and sin(ph) as ``weigh`` takes them: ``_unit_circle`` of tan(ph / 2)."""
    c3mc._unit_circle(np.tan(0.5 * ph), cos_out, sin_out)


class TestUnitCircle:
    def test_unit_phase_matches_mpmath(self):
        ph = np.random.default_rng(29).uniform(-100.0, 100.0, 2_000)
        g = np.empty(len(ph), complex)
        unit_phase(ph, g.real, g.imag)
        with mpmath.workdps(30):
            exact = [complex(mpmath.expj(mpmath.mpf(float(p)))) for p in ph]
        err = max(max(abs(z.real - e.real), abs(z.imag - e.imag)) for z, e in zip(g, exact))
        assert err <= 5e-16, err

    def test_drawn_directions_have_unit_norm(self):
        # |r| / |r| in extended precision, where the host has it
        stream = c3mc._block_stream(np.array([29, 1], dtype=np.uint64), 0)
        r1, r1mag, r2, r2mag, _ = c3mc._draw(stream, 20_000, McConfig().r_max)
        for r, rmag in ((r1, r1mag), (r2, r2mag)):
            x = r.astype(np.longdouble)
            norm = np.sqrt((x * x).sum(axis=1)) / rmag.astype(np.longdouble)
            assert float(np.max(np.abs(norm - 1.0))) <= 4e-16

    @pytest.mark.parametrize("strided", [False, True])
    def test_values_do_not_depend_on_the_batch(self, strided):
        ph = np.random.default_rng(30).uniform(-100.0, 100.0, 64)
        ref_cos, ref_sin = np.empty(len(ph)), np.empty(len(ph))
        unit_phase(ph, ref_cos, ref_sin)
        for start in range(8):
            for n in range(1, 34):
                if strided:  # the real and imaginary parts of a complex array
                    g = np.empty(n, complex)
                    c, s = g.real, g.imag
                else:
                    c, s = np.empty(n), np.empty(n)
                unit_phase(ph[start:start + n], c, s)
                assert c.tobytes() == ref_cos[start:start + n].tobytes(), (start, n)
                assert s.tobytes() == ref_sin[start:start + n].tobytes(), (start, n)


def count_lookups(monkeypatch):
    """Count the arguments of every ``Coulomb1F1Table.evaluate`` call."""
    count = [0]
    evaluate = c3mc.Coulomb1F1Table.evaluate

    def counted(self, x, out=None, work=None):
        count[0] += np.size(x)
        return evaluate(self, x, out, work)

    monkeypatch.setattr(c3mc.Coulomb1F1Table, "evaluate", counted)
    return count


class TestSharedLookups:
    # at equal sharing the mirrored rows are the exchange rows but for the
    # beam, so a sample needs 4 wave and 2 correlation lookups, not 12

    @pytest.mark.parametrize("kin, per_sample", [
        (kin_at(45.0, -60.0), 6), (kin_at(40.0, -40.0), 6), (c3_scan_kin(-30.0, 90.0), 6),
        (kin_at(45.0, -60.0, eb=0.5), 12), (C3_POINT, 12)],
        ids=["equal", "symmetric", "c3_scan", "unequal", "c3_point"])
    def test_lookups_per_sample(self, monkeypatch, kin, per_sample):
        count = count_lookups(monkeypatch)
        c3mc.c3_pair(kin, McConfig(samples=5_000, seed=3))
        assert count[0] == per_sample * 5_000

    @pytest.mark.parametrize("kin", [
        c3_scan_kin(-30.0, 90.0), c3_scan_kin(150.0, 60.0), kin_at(40.0, -40.0), C3_POINT],
        ids=["c3_scan", "c3_scan_obtuse", "symmetric", "c3_point"])
    @pytest.mark.parametrize("n", [16_384, 4_096, 4_095])  # across numpy's elision size
    def test_shared_lookups_change_no_bit(self, monkeypatch, kin, n):
        # the shared rows against every row evaluated on its own
        sample = c3mc._draw(c3mc._block_stream(np.array([4, 11], dtype=np.uint64), 0), n, 14.0)
        shared = c3mc._kernel(kin, McConfig())(*sample)
        monkeypatch.setattr(c3mc, "_distinct_rows", lambda rows: (list(rows), None))
        count = count_lookups(monkeypatch)
        every_row = c3mc._kernel(kin, McConfig())(*sample)
        assert count[0] == 12 * n
        assert shared.tobytes() == every_row.tobytes()


def tables_for(kin, r_max):
    """The kernel's 1F1 tables at ``kin``: |kA|, |kB| and |kA - kB|/2."""
    return c3mc._coulomb_tables(c3mc._wave_numbers(kin), c3mc._kab_mag(kin), r_max)


TABLE_KINEMATICS = pytest.mark.parametrize(
    "kin",
    [kin_at(45.0, -60.0), kin_at(20.0, -60.0, eb=0.3), kin_at(40.0, -40.0), C3_POINT,
     c3_scan_kin(-30.0, 90.0)],
    ids=["equal", "unequal", "symmetric", "c3_point", "c3_scan"],
)


class TestCoulombTables:
    # kummer_1f1's own series noise near |z| = 21 is a few 1e-9 for |xi| <= 1
    # and ~1e-8 for |xi| ~ 1.3 (special.py); the worst seen here is 2.1e-8
    RTOL = 5e-8

    @TABLE_KINEMATICS
    def test_table_matches_kummer_over_its_range(self, kin):
        waves, corr = tables_for(kin, McConfig().r_max)
        for table in (*waves.values(), corr):
            x = np.linspace(0.0, table.x_max, 4001)
            direct = kummer_1f1(1j * table.alpha, 1.0, 1j * x)
            assert np.all(np.abs(table.evaluate(x) - direct) <= self.RTOL * np.abs(direct))

    @TABLE_KINEMATICS
    def test_largest_in_ball_argument_is_inside_the_table(self, kin):
        # r1 and r2 at r_max along -k and +k give |k||r| + k.r = 2|k| r_max
        # for the waves and |kab||r12| + kab.r12 = 4|kab| r_max for the
        # correlation factor, as the kernel forms them
        # (|k| and |kab| the kernel's, the directions the vectors')
        r_max = McConfig().r_max
        waves, corr = tables_for(kin, r_max)
        kab = 0.5 * (kin.k_a - kin.k_b)
        for k, kmag in zip((kin.k_a, kin.k_b), c3mc._wave_numbers(kin)):
            r = (r_max / math.sqrt(float(k @ k))) * k
            largest = kmag * r_max + r @ k
            assert largest <= waves[kmag].x_max * (1.0 + 1e-15)
        kab_mag = c3mc._kab_mag(kin)
        unit = kab / math.sqrt(float(kab @ kab))
        r12 = (r_max * unit) - (-(r_max * unit))
        largest = kab_mag * math.sqrt(float(r12 @ r12)) + r12 @ kab
        assert largest <= corr.x_max * (1.0 + 1e-15)
        direct = kummer_1f1(1j * corr.alpha, 1.0, 1j * largest)
        assert abs(corr.evaluate(largest) - direct) <= self.RTOL * abs(direct)

    def test_pair_matches_a_kummer_backed_evaluator(self, monkeypatch):
        # a fixed-seed estimate from the tables against the same samples
        # weighed with direct kummer_1f1 calls
        cfg = McConfig(samples=20_000, seed=12)
        table = c3mc.c3_pair(C3_POINT, cfg)

        def direct(self, x, out, work=None):
            out[...] = kummer_1f1(1j * self.alpha, 1.0, 1j * np.clip(x, 0.0, self.x_max))
            return out

        monkeypatch.setattr(c3mc.Coulomb1F1Table, "evaluate", direct)
        oracle = c3mc.c3_pair(C3_POINT, cfg)
        assert table.n_rejected == oracle.n_rejected == 0
        diff = np.array([(table.t_d - oracle.t_d).real, (table.t_d - oracle.t_d).imag,
                         (table.t_e - oracle.t_e).real, (table.t_e - oracle.t_e).imag])
        sigma = np.sqrt(np.diag(table.cov))
        assert np.all(np.abs(diff) <= 1e-3 * sigma)

    def test_cached_tables_change_no_bit(self):
        cfg = McConfig(samples=20_000, seed=12)
        c3mc._table.cache_clear()
        cold = c3mc.c3_pair(C3_POINT, cfg)
        # unequal sharing: two wave |k| and the correlation table
        assert c3mc._table.cache_info().currsize == 3
        warm = c3mc.c3_pair(C3_POINT, cfg)
        assert c3mc._table.cache_info().hits == 3
        assert cold.t_d == warm.t_d and cold.t_e == warm.t_e
        assert cold.cov.tobytes() == warm.cov.tobytes()

    @pytest.mark.parametrize("kins, waves", [
        ([c3_scan_kin(-150.0, -120.0), c3_scan_kin(30.0, 60.0)], 1),
        ([kin_at(20.0, -60.0, 0.3), kin_at(-50.0, -130.0, 0.3), kin_at(170.0, 90.0, 0.3)], 2)],
        ids=["equal", "unequal"])
    def test_one_correlation_table_per_relative_angle(self, kins, waves):
        c3mc._table.cache_clear()
        for kin in kins:
            c3mc.c3_pair(kin, McConfig(samples=2_000, seed=12))
        info = c3mc._table.cache_info()
        assert info.currsize == waves + 1
        assert info.hits == (waves + 1) * (len(kins) - 1)

    def test_cold_grid_builds_one_wave_table_per_energy(self):
        # every cell of a 10-degree equal-sharing grid has the one wave |k|
        # sqrt(2 E), whatever its momentum vectors' norms; with a correlation
        # table for each relative angle 10, 20, ..., 180 degrees
        c3mc._table.cache_clear()
        amplitude_grids(parse_config({"model": "c3", "step_deg": 10.0, "mc": {"samples": 1000}}))
        assert c3mc._table.cache_info().currsize == 1 + 18

    @pytest.mark.parametrize("eb_ev, theta_a, theta_b", [
        (None, 10.0, 10.000001),  # one micro-degree apart
        (None, 90.0, -89.999),  # 179.999 deg apart
        (None, 179.9999, -179.9999),  # 0.0002 deg apart across the +-180 wrap
        (None, 170.0, -170.0),
        (5.0, 20.0, -60.0),
        (5.0, 10.0, 10.000001),
        (5.0, -180.0, 180.0)])
    def test_kab_mag_matches_the_vectors(self, eb_ev, theta_a, theta_b):
        # |k_A - k_B| / 2 from the momenta at 40 digits
        e0, eb, et = parse_config({"model": "c3", "e0_ev": 54.4, "eb_ev": eb_ev}).energies_hartree()
        kin = build_coplanar(e0, eb, math.radians(theta_a), math.radians(theta_b), et)
        with mpmath.workdps(40):
            def k(e, theta_deg):
                kmag, theta = mpmath.sqrt(2 * mpmath.mpf(e)), mpmath.radians(mpmath.mpf(theta_deg))
                return kmag * mpmath.sin(theta), kmag * mpmath.cos(theta)
            (xa, za), (xb, zb) = k(kin.e_a, repr(theta_a)), k(kin.e_b, repr(theta_b))
            exact = float(mpmath.sqrt((xa - xb) ** 2 + (za - zb) ** 2) / 2)
        assert abs(c3mc._kab_mag(kin) - exact) <= 1e-13 * exact
        # the relabeled and mirrored points give the same bits
        relabeled = build_coplanar(e0, kin.e_a, kin.theta_b, kin.theta_a, et)
        mirrored = build_coplanar(e0, eb, -kin.theta_a, -kin.theta_b, et)
        if kin.e_a == kin.e_b:
            assert c3mc._kab_mag(relabeled) == c3mc._kab_mag(kin)
        assert c3mc._kab_mag(mirrored) == c3mc._kab_mag(kin)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)``: c3mc sees n usable CPUs, so a call computes at most n blocks at once."""
    def use(n):
        monkeypatch.setattr(c3mc, "usable_cpus", lambda: n)
    return use


class TestBlockPool:
    # last blocks of 3,392 (one short slice), 4,464 (one slice) and 16,960
    # samples (two full slices and 576 samples)
    @pytest.mark.parametrize("samples", [200_000, 70_000, 1_000_000])
    def test_pool_width_changes_no_bit(self, cpus, samples):
        cfg = McConfig(samples=samples, seed=4)
        cpus(1)
        inline = c3mc.c3_pair(C3_POINT, cfg)
        cpus(2)
        pooled = c3mc.c3_pair(C3_POINT, cfg)
        for a, b in ((pooled.t_d, inline.t_d), (pooled.t_e, inline.t_e), (pooled.cov, inline.cov)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert pooled.n_rejected == inline.n_rejected

    @pytest.mark.parametrize("n", [65_536, 40_000, 16_960, 3_392])
    def test_weighing_in_slices_changes_no_bit(self, n):
        # slices of any size, on both sides of 4,096 samples (where numpy
        # would reorder a product with a temporary operand), give the bits
        # of weighing the whole block
        key, r_max = np.array([4, 11], dtype=np.uint64), McConfig().r_max
        for kin in (c3_scan_kin(-30.0, 90.0), C3_POINT,
                    build_coplanar(C3_POINT.e0, C3_POINT.e_b, math.radians(30.0),
                                   math.radians(30.0), C3_POINT.e_t)):
            weigh = c3mc._kernel(kin, McConfig())
            whole = weigh(*c3mc._draw(c3mc._block_stream(key, 0), n, r_max)).tobytes()
            for size in (1_000, 4_095, 4_097, c3mc._SLICE):
                stream = c3mc._block_stream(key, 0)  # the slices drawn one after another
                parts = [weigh(*c3mc._draw(stream, min(size, n - lo), r_max))
                         for lo in range(0, n, size)]
                assert np.concatenate(parts, axis=1).tobytes() == whole, (kin.e_b, kin.theta_a, size)

    @pytest.mark.parametrize("n_cpus", [1, 2, 3, 64])
    def test_pool_width_is_capped_by_cpus_and_blocks(self, cpus, monkeypatch, n_cpus):
        # a recording executor that maps serially: no thread is started
        pools = []

        class RecordingPool:
            def __init__(self, max_workers, thread_name_prefix):
                self.width, self.maps = max_workers, []
                assert thread_name_prefix == "c3mc-block"
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                tasks = list(tasks)
                self.maps.append([blk for _, blk in tasks])  # (point, block) tasks
                return map(fn, tasks)

        monkeypatch.setattr(c3mc, "ThreadPoolExecutor", RecordingPool)
        cpus(n_cpus)
        c3mc.c3_pair(C3_POINT, McConfig(samples=60_000, seed=4))  # one block: inline
        assert pools == []
        for samples in (200_000, 70_000):  # 4 and 2 blocks
            c3mc.c3_pair(C3_POINT, McConfig(samples=samples, seed=4))
        assert [p.width for p in pools] == ([] if n_cpus == 1 else [min(n_cpus, 4), 2])
        assert [p.maps for p in pools] == ([] if n_cpus == 1 else [[[0, 1, 2, 3]], [[0, 1]]])

    def test_blocks_run_on_at_most_one_thread_per_cpu(self, cpus, monkeypatch):
        # 8 workers, 4 two-block points, 2 usable CPUs: the blocks run on
        # pool threads, never more than 2 at once, and no pool thread
        # outlives the call
        active, seen, lock = [0, 0], set(), threading.Lock()

        def kernel(kin, cfg):
            weigh = REAL_KERNEL(kin, cfg)

            def counted(*sample):
                with lock:
                    active[0] += 1
                    active[1] = max(active)
                    seen.add(threading.current_thread().name)
                try:
                    time.sleep(0.01)  # let the other threads catch up
                    return weigh(*sample)
                finally:
                    with lock:
                        active[0] -= 1
            return counted

        monkeypatch.setattr(c3mc, "_kernel", kernel)
        cpus(2)
        cfg = parse_config({"model": "c3", "eb_ev": 5.0, "theta_min_deg": -90.0,
                            "theta_max_deg": 0.0, "step_deg": 90.0,
                            "mc": {"samples": 70_000, "seed": 5}})
        amplitude_grids(cfg, workers=8)
        assert active[0] == 0 and 0 < active[1] <= 2
        assert seen and all(name.startswith("c3mc-block") for name in seen)
        assert not [t for t in threading.enumerate() if t.name.startswith("c3mc-block")]

        seen.clear()
        c3mc.c3_pair(C3_POINT, McConfig(samples=20_000, seed=4))
        assert seen == {threading.current_thread().name}

    def test_peak_memory_of_a_pooled_point(self, cpus):
        # two blocks in flight take less memory than one unsliced block did
        cfg = McConfig(samples=1_000_000, seed=4)
        cpus(2)
        c3mc.c3_pair(C3_POINT, replace(cfg, samples=2_000))  # wave tables
        tracemalloc.start()
        try:
            c3mc.c3_pair(C3_POINT, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak / 2**20

    def test_peak_memory_of_a_warm_point(self):
        # one worker computes 8 one-block points in one workspace, so they
        # peak within 0.5 MiB of one point (with fresh slice arrays a
        # one-block point peaked at 7.2 MiB)
        cfg = McConfig(samples=c3mc.BLOCK_SIZE, seed=4)
        kins = [build_coplanar(C3_POINT.e0, C3_POINT.e_b, C3_POINT.theta_a,
                               math.radians(-60.0 - 10.0 * i), C3_POINT.e_t) for i in range(8)]
        c3mc.c3_pairs(kins, replace(cfg, samples=2_000), workers=1)  # the tables
        peaks = []
        for points in (kins[:1], kins):
            tracemalloc.start()
            try:
                c3mc.c3_pairs(points, cfg, workers=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2**19, [peak / 2**20 for peak in peaks]

    def test_no_two_blocks_share_a_workspace(self, cpus, monkeypatch):
        # 2 usable CPUs and 3 workers: 5 two-block points (8 slices and 1)
        # on a 2-thread pool, each thread in a workspace of its own
        made, lock = [], threading.Lock()

        class Recorded(c3mc._Workspace):
            def __init__(self):
                super().__init__()
                with lock:
                    made.append((weakref.ref(self), threading.current_thread().name))

        monkeypatch.setattr(c3mc, "_Workspace", Recorded)
        blocks = []  # one stream per block computed
        real_stream = c3mc._block_stream
        monkeypatch.setattr(c3mc, "_block_stream", lambda *a: blocks.append(a) or real_stream(*a))
        cfg = parse_config({"model": "c3", "eb_ev": 5.0, "theta_min_deg": -90.0,
                            "theta_max_deg": 90.0, "step_deg": 90.0,
                            "mc": {"samples": 70_000, "seed": 5}})
        cpus(1)
        alone = amplitude_grids(cfg, workers=1)
        assert [name for _, name in made] == [threading.current_thread().name]
        made.clear()
        cpus(2)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pooled = amplitude_grids(cfg, workers=3)
        finally:
            sys.setswitchinterval(switch)
        for a, b in zip(alone, pooled):
            assert a.tobytes() == b.tobytes()
        # at most one workspace per thread, and none kept after the grid
        names = [name for _, name in made]
        assert len(blocks) > 2 and 0 < len(names) <= 2 and len(set(names)) == len(names)
        assert all(name.startswith("c3mc-block") for name in names)
        assert all(ref() is None for ref, _ in made)


class TestPairs:
    # coincident, relabeled, mirrored, duplicate and unequal-sharing points
    POINTS = [kin_at(30.0, 30.0), kin_at(40.0, -70.0), kin_at(-70.0, 40.0),
              kin_at(70.0, -40.0), kin_at(40.0, -70.0), kin_at(20.0, -60.0, 0.5)]

    @pytest.mark.parametrize("samples", [20_000, 2 * c3mc.BLOCK_SIZE + 1_000])  # 1 and 3 blocks
    def test_points_keep_their_own_bits_in_order(self, cpus, samples):
        cfg = McConfig(samples=samples, seed=6)
        alone = [c3mc.c3_pair(kin, cfg) for kin in self.POINTS]
        assert alone[0].t_d == alone[0].t_e == 0.0 and not alone[0].cov.any()
        assert alone[1].t_d == alone[2].t_e and alone[1].t_d != alone[1].t_e
        cpus(3)
        for workers in (1, 2, 3):
            together = c3mc.c3_pairs(self.POINTS, cfg, workers=workers)
            assert len(together) == len(alone)
            for a, b in zip(together, alone):
                assert same_estimate(a, b), workers
            assert not [t for t in threading.enumerate() if t.name.startswith("c3mc-block")]

    def test_a_rejecting_point_raises(self, monkeypatch):
        # every weight of one point's blocks is NaN; the others are healthy
        bad = c3mc._stream_word(c3mc._canonical(kin_at(45.0, -60.0)))

        def kernel(kin, cfg):
            weigh = REAL_KERNEL(kin, cfg)
            if c3mc._stream_word(kin) != bad:
                return weigh

            def poisoned(*sample):
                w = weigh(*sample)
                w[...] = complex(math.nan, math.nan)
                return w
            return poisoned

        monkeypatch.setattr(c3mc, "_kernel", kernel)
        kins = [kin_at(40.0, -70.0), kin_at(45.0, -60.0), kin_at(30.0, 80.0)]
        with pytest.raises(ArithmeticError, match="rejected 5000 of 5000"):
            c3mc.c3_pairs(kins, McConfig(samples=5_000, seed=3), workers=2)
        assert not [t for t in threading.enumerate() if t.name.startswith("c3mc-block")]
        c3mc.c3_pairs(kins[::2], McConfig(samples=5_000, seed=3), workers=2)


def numpy_simd_target() -> str:
    """The x86 target of numpy's dispatched math loops: "X86_V4" (AVX-512), "X86_V3" (AVX2) or older.

    ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` turns the
    AVX-512 loops off on a CPU that has them.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return next((t for t in ("X86_V4", "X86_V3") if __cpu_features__.get(t)), "older")


def same_estimate(a, b) -> bool:
    return (np.asarray(a.t_d).tobytes() == np.asarray(b.t_d).tobytes()
            and np.asarray(a.t_e).tobytes() == np.asarray(b.t_e).tobytes()
            and a.cov.tobytes() == b.cov.tobytes() and a.n_rejected == b.n_rejected)


class TestReflection:
    # the T matrix is invariant under x -> -x, which maps (thetaA, thetaB)
    # to (-thetaA, -thetaB): a point and its mirror image share one estimate

    # equal sharing (EB), unequal sharing, the +-180 wrap, a 0 deg electron
    # and the plane-wave limit
    @pytest.mark.parametrize("eb, theta_a, theta_b, free", [
        (EB, 40.0, -70.0, False), (EB, 30.0, 80.0, False), (0.5, 40.0, -70.0, False),
        (5.0 / HARTREE_EV, 20.0, -60.0, False), (EB, 180.0, 40.0, False),
        (0.5, -180.0, 40.0, False), (0.5, 0.0, 110.0, False), (EB, 40.0, -70.0, True)])
    def test_mirror_images_give_the_same_bits(self, eb, theta_a, theta_b, free):
        cfg = McConfig(samples=5_000, seed=7, debug_free_limit=free)
        a = c3mc.c3_pair(kin_at(theta_a, theta_b, eb), cfg)
        b = c3mc.c3_pair(kin_at(-theta_a, -theta_b, eb), cfg)
        assert same_estimate(a, b)

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_multi_block_mirror_images_give_the_same_bits(self, cpus, n_cpus):
        cpus(n_cpus)
        cfg = McConfig(samples=200_000, seed=4)
        mirror = build_coplanar(C3_POINT.e0, C3_POINT.e_b, -C3_POINT.theta_a,
                                -C3_POINT.theta_b, C3_POINT.e_t)
        assert same_estimate(c3mc.c3_pair(C3_POINT, cfg), c3mc.c3_pair(mirror, cfg))

    def test_mirror_images_share_a_key(self):
        def key(theta_a, theta_b, eb=EB):
            return c3mc.estimate_key(kin_at(theta_a, theta_b, eb))

        # electrons on the beam axis; -0.0 matches 0.0 and -180 matches 180
        assert key(0.0, 180.0) == key(-0.0, -180.0) == key(0.0, -180.0)
        assert key(-180.0, 0.0) == key(180.0, 0.0)
        # at equal sharing the mirror image of theta_B = -theta_A is the point
        # relabeled; at unequal sharing it is another point with the same key
        assert key(30.0, -30.0)[0] == key(-30.0, 30.0)[0]
        assert key(30.0, -30.0)[1] != key(-30.0, 30.0)[1]
        assert key(30.0, -30.0, 0.5) == key(-30.0, 30.0, 0.5)
        assert key(0.0, 40.0) == key(0.0, -40.0)
        # relabeling the electrons keeps the key and changes the order
        assert key(30.0, 80.0)[0] == key(80.0, 30.0)[0] == key(-80.0, -30.0)[0]
        assert key(30.0, 80.0)[1] != key(-80.0, -30.0)[1]
        # different points, different keys
        assert key(40.0, -70.0)[0] != key(-40.0, -70.0)[0]
        assert key(30.0, -30.0)[0] != key(30.0, -30.0, 0.5)[0]
        assert key(30.0, 80.0)[0] != key(30.000001, 80.0)[0]

    def test_equal_keys_give_the_same_bits(self):
        # (30, 80) is estimated at its mirror image (-30, -80), which
        # relabeled is (-80, -30): t_d and t_e exchange, the covariance with them
        cfg = McConfig(samples=3_000, seed=7)
        a, b = kin_at(30.0, 80.0), kin_at(-80.0, -30.0)
        assert c3mc.estimate_key(a)[0] == c3mc.estimate_key(b)[0]
        x, y = c3mc.c3_pair(a, cfg), c3mc.c3_pair(b, cfg)
        relabeled = replace(y, t_d=y.t_e, t_e=y.t_d, cov=y.cov[np.ix_([2, 3, 0, 1], [2, 3, 0, 1])])
        assert same_estimate(x, relabeled)

    # numpy's exp, log1p and tan loops round differently on each CPU target,
    # so the c3_point bits depend on it: (t_d, t_e) in hex and the covariance
    # hash for numpy's AVX-512 loops and for its X86_V3 (AVX2) ones
    CANONICAL_BITS = {
        "X86_V4": (["-0x1.355aa42d46aa1p+6", "-0x1.11ceb478df342p+6",
                    "-0x1.878dc225220f7p+3", "-0x1.d8352a9763f87p+1"],
                   "194a2f4d6efa639df9a43bd22f6f284a"),
        "X86_V3": (["-0x1.355aa42d46aa1p+6", "-0x1.11ceb478df342p+6",
                    "-0x1.878dc225220f7p+3", "-0x1.d8352a9763f84p+1"],
                   "0ecbe356f91e1768064aa4376e9eac81"),
    }

    def test_canonical_point_keeps_its_bits(self):
        # the benchmark's c3_point config: its word is the one it had before
        # mirror images shared a stream
        assert c3mc._stream_word(C3_POINT) == 7397496058057166766
        est = c3mc.c3_pair(C3_POINT, McConfig(samples=1_000_000, seed=0))
        assert est.n_rejected == 0
        # the estimate before the unit phases, the directions and the window
        # came from tan (AVX-512 loops): the change is rounding, a few 1e-16
        before = [float.fromhex(h) for h in ("-0x1.355aa42d46a9fp+6", "-0x1.11ceb478df342p+6",
                                             "-0x1.878dc225220f6p+3", "-0x1.d8352a9763f7fp+1")]
        for t, (re, im) in ((est.t_d, before[:2]), (est.t_e, before[2:])):
            assert abs(t - complex(re, im)) <= 1e-12 * abs(complex(re, im))
        target = numpy_simd_target()
        assert target in self.CANONICAL_BITS, f"no measured bits for numpy's {target} loops"
        bits, cov_hash = self.CANONICAL_BITS[target]
        assert [x.hex() for x in (est.t_d.real, est.t_d.imag, est.t_e.real, est.t_e.imag)] == bits
        assert hashlib.blake2b(est.cov.tobytes(), digest_size=16).hexdigest() == cov_hash
