import json
import math
import re
import time
from dataclasses import fields, replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from e2espin import c3mc, special
from e2espin.amplitudes import HYDROGEN_ET_EV, McConfig
from e2espin.bell import TSIRELSON_BOUND, chsh_expectation
from e2espin.entanglement import concurrence_wootters, entanglement_of_formation
from e2espin.kinematics import build_coplanar, tdcs_prefactor
from e2espin.scan import (
    ConfigError,
    ScanConfig,
    amplitude_grids,
    observables_from_amplitudes,
    parse_config,
    read_config,
    resolve_polarizations,
    run_scan,
    write_csv,
    write_pgm,
)
from e2espin.spin import AmplitudePair, pair_matrix, rho_mixed


def _diagonal(thetas):
    """Mask of theta_B = -theta_A != 0 on a square grid."""
    ta, tb = thetas[:, None], thetas[None, :]
    return (ta == -tb) & (ta != 0.0)


def coarse_cfg(**over):
    base = {"step_deg": 15.0}
    base.update(over)
    return parse_config(base)


class TestConfigParsing:
    def test_empty_object_gives_defaults(self):
        cfg = parse_config({})
        assert cfg.model == "pwba"
        assert cfg.e0_ev == 54.4
        assert cfg.scenario == "unpolarized"
        assert cfg.step_deg == 2.0
        assert cfg.eb_ev is None  # equal sharing
        assert cfg.threshold_frac == 0.05
        assert len(cfg.grid_deg()) == 181
        assert cfg.mc == McConfig()

    def test_readme_block_documents_every_key_and_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("\n```", 1)[0]
        data = json.loads(re.sub(r"//.*", "", block))
        assert set(data) == {f.name for f in fields(ScanConfig)}
        assert set(data["mc"]) == {f.name for f in fields(McConfig)}
        assert parse_config(data) == parse_config({})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="tdcs_scale"):
            parse_config({"tdcs_scale": 2})

    def test_unknown_mc_key_named(self):
        with pytest.raises(ConfigError, match="walkers"):
            parse_config({"mc": {"walkers": 2}})

    def test_removed_lambda1_is_unknown(self):
        with pytest.raises(ConfigError, match=r"unknown configuration key\(s\): mc\.lambda1"):
            parse_config({"mc": {"lambda1": 1.0}})

    def test_threshold_range(self):
        with pytest.raises(ConfigError, match="threshold_frac"):
            parse_config({"threshold_frac": 1.5})

    def test_step_must_divide_range(self):
        with pytest.raises(ConfigError, match="divide"):
            parse_config({"step_deg": 7.0})

    def test_at_most_36001_angles_per_axis(self):
        # 0.01 degrees over the full circle is the finest grid
        assert len(parse_config({"step_deg": 0.01}).grid_deg()) == 36_001
        for data in ({"step_deg": 0.005}, {"step_deg": 1e-9}, {"step_deg": 5e-324},
                     {"theta_min_deg": -10.0, "theta_max_deg": 10.0, "step_deg": 1e-9}):
            with pytest.raises(ConfigError, match=r"^step_deg .* more than 36001 angles per axis"):
                parse_config(data)

    def test_scenario_value(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config({"scenario": "parallel"})

    def test_custom_requires_vectors(self):
        with pytest.raises(ConfigError, match="custom"):
            parse_config({"scenario": "custom"})
        cfg = parse_config({"scenario": "custom", "p1": [0, 0, 1], "p2": [0, 0.5, 0]})
        p1, p2 = resolve_polarizations(cfg)
        np.testing.assert_allclose(p1, [0, 0, 1])
        np.testing.assert_allclose(p2, [0, 0.5, 0])

    def test_vectors_only_for_custom(self):
        with pytest.raises(ConfigError):
            parse_config({"scenario": "perp", "p1": [0, 0, 1]})

    def test_overlong_custom_vector(self):
        with pytest.raises(ConfigError, match="magnitude"):
            parse_config({"scenario": "custom", "p1": [0, 0, 2], "p2": [0, 0, 0]})

    def test_polarization_bound_is_the_pair_matrix_bound(self):
        # vectors within +-3 ulp of the bound 1 + 1e-12: parse_config accepts
        # exactly the vectors that spin.pair_matrix accepts
        rng = np.random.default_rng(1212)
        bound = 1.0 + 1e-12
        accepted = rejected = 0
        for _ in range(20_000):
            u = rng.standard_normal(3)
            p = u / np.linalg.norm(u) * (bound + int(rng.integers(-3, 4)) * np.spacing(bound))
            try:
                pair_matrix(1.0, 0.5, p, np.zeros(3))
                spin_ok = True
            except ValueError:
                spin_ok = False
            try:
                parse_config({"scenario": "custom", "p1": p.tolist(), "p2": [0, 0, 0]})
                config_ok = True
            except ConfigError as exc:
                assert str(exc).startswith("p1 ")
                config_ok = False
            assert config_ok == spin_ok, p.tolist()
            accepted += spin_ok
            rejected += not spin_ok
        assert accepted and rejected

    def test_eb_conflicts_with_equal_sharing(self):
        with pytest.raises(ConfigError, match="equal_sharing"):
            parse_config({"eb_ev": 20.0, "equal_sharing": True})
        cfg = parse_config({"eb_ev": 20.0})
        assert cfg.eb_ev == 20.0
        assert cfg.energies_hartree()[1] == pytest.approx(20.0 / 27.211386245988)

    def test_closed_channel(self):
        with pytest.raises(ConfigError, match="closed channel"):
            parse_config({"eb_ev": 60.0})

    def test_positive_binding_rejected(self):
        # the target is H(1s): its binding energy is not a setting
        with pytest.raises(ConfigError, match=r"unknown configuration key\(s\): et_ev"):
            parse_config({"et_ev": 13.6})

    def test_mc_validation_bubbles_up(self):
        with pytest.raises(ConfigError, match="samples"):
            parse_config({"mc": {"samples": 10}})

    def test_angles_beyond_180_rejected(self):
        # -200 and 160 deg are the same direction
        with pytest.raises(ConfigError, match="-180 <= theta_min_deg"):
            parse_config({"theta_min_deg": -200, "theta_max_deg": 200, "step_deg": 50})
        with pytest.raises(ConfigError, match="-180 <= theta_min_deg"):
            parse_config({"theta_min_deg": 0, "theta_max_deg": 190, "step_deg": 10})
        assert len(parse_config({"theta_min_deg": -180, "theta_max_deg": 180}).grid_deg()) == 181

    def test_scenario_polarizations(self):
        assert np.allclose(
            resolve_polarizations(parse_config({"scenario": "antiparallel"}))[1], [0, 0, -1]
        )
        p1, p2 = resolve_polarizations(parse_config({"scenario": "perp"}))
        assert abs(float(p1 @ p2)) == 0.0
        p1, p2 = resolve_polarizations(parse_config({"scenario": "one_unpolarized"}))
        assert np.linalg.norm(p1) == 1.0 and np.linalg.norm(p2) == 0.0


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(read_config(tmp_path / "nope.json"))

    def test_parse_error_has_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"model": }')
        with pytest.raises(ConfigError, match=r"line 1, column"):
            parse_config(read_config(p))

    def test_round_trip(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps({"model": "pwba", "step_deg": 30.0, "scenario": "perp"}))
        cfg = parse_config(read_config(p))
        assert cfg.scenario == "perp"
        assert len(cfg.grid_deg()) == 13


class TestRunScanPwba:
    def test_diagonal_concurrence_is_unity(self):
        for scenario in ("perp", "antiparallel", "unpolarized"):
            obs, thetas = run_scan(coarse_cfg(scenario=scenario))
            diag = _diagonal(thetas) & obs["measurable"]
            assert diag.any(), "expected measurable diagonal points"
            assert np.all(np.abs(obs["concurrence"][diag] - 1.0) <= 1e-6)
            assert np.all(np.abs(obs["eof"][diag] - 1.0) <= 1e-5)

    def test_one_unpolarized_matches_perp_grids(self):
        cfg = coarse_cfg(scenario="perp")
        td, te, covs = amplitude_grids(cfg, cfg.grid_deg()[:, None], cfg.grid_deg())
        obs_perp = observables_from_amplitudes(cfg, td, te, covs)
        obs_one = observables_from_amplitudes(
            replace(cfg, scenario="one_unpolarized"), td, te, covs
        )
        assert np.all(np.abs(obs_perp["concurrence"] - obs_one["concurrence"]) <= 1e-10)
        assert np.all(np.abs(obs_perp["eof"] - obs_one["eof"]) <= 1e-10)

    def test_unpolarized_tdcs_matches_perp(self):
        cfg = coarse_cfg(scenario="perp")
        td, te, covs = amplitude_grids(cfg, cfg.grid_deg()[:, None], cfg.grid_deg())
        obs_perp = observables_from_amplitudes(cfg, td, te, covs)
        obs_unpol = observables_from_amplitudes(replace(cfg, scenario="unpolarized"), td, te, covs)
        a, b = obs_perp["tdcs"], obs_unpol["tdcs"]
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(a)))

    def test_unpolarized_concurrence_vanishes_when_triplet_dominates(self):
        obs, _ = run_scan(coarse_cfg(scenario="unpolarized"))
        cfg = coarse_cfg()
        td, te, _ = amplitude_grids(cfg, cfg.grid_deg()[:, None], cfg.grid_deg())
        i_s = 0.25 * np.abs(td + te) ** 2
        i_t = 0.75 * np.abs(td - te) ** 2
        assert np.all(obs["concurrence"][i_t >= i_s] == 0.0)

    def test_measurable_mask_definition(self):
        obs, _ = run_scan(coarse_cfg())
        peak = obs["tdcs"].max()
        assert np.array_equal(obs["measurable"], obs["tdcs"] >= 0.05 * peak)

    def test_record_ordering(self, tmp_path):
        obs, thetas = run_scan(coarse_cfg())
        path = tmp_path / "records.csv"
        write_csv(obs, thetas, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        keys = [(float(r[0]), float(r[1])) for r in rows]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys)) == len(thetas) ** 2


CORE_SCENARIOS = [
    {"scenario": "perp"},
    {"scenario": "antiparallel"},
    {"scenario": "one_unpolarized"},
    {"scenario": "unpolarized"},
    {"scenario": "custom", "p1": [0.3, -0.4, 0.5], "p2": [0.0, 0.6, -0.2]},
]


ZHAT = np.array([0.0, 0.0, 1.0])
ZERO = np.zeros(3)
PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def random_grids(rng, shape=(7, 6)):
    td = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    te = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return td, te


class TestObservablesCore:
    """The array core against the density-matrix algebra, point by point.

    rho~(P1, P2) is the unnormalized polarization-averaged pair matrix;
    with the flux prefactor its trace is the TDCS for P1, P2, and its
    entries and projections are the spin-resolved parts.
    """

    @pytest.mark.parametrize("data", CORE_SCENARIOS, ids=lambda d: d["scenario"])
    def test_matches_scalar_oracles(self, data):
        cfg = parse_config(data)
        rng = np.random.default_rng(31)
        td, te = random_grids(rng)
        td[0, :3] = te[0, :3] = 0.0  # dead points, as at coincident 3C momenta
        a = rng.standard_normal((7, 6, 4, 4))
        covs = a @ np.swapaxes(a, -1, -2)
        obs = observables_from_amplitudes(cfg, td, te, covs)

        for name, value in obs.items():
            assert value.shape == td.shape, name
            assert np.all(np.isfinite(value)), name
            assert np.all(value[0, :3] == 0), name
        p1, p2 = resolve_polarizations(cfg)
        e0, eb, et = cfg.energies_hartree()
        pref = tdcs_prefactor(build_coplanar(e0, eb, 0.3, -1.1, et))
        polarizations = {
            "scenario": (p1, p2),
            "parallel": (ZHAT, ZHAT),
            "antiparallel": (ZHAT, -ZHAT),
            "unpolarized": (ZERO, ZERO),
        }
        for i, j in np.ndindex(td.shape):
            if i == 0 and j < 3:
                continue
            rho = {key: pair_matrix(td[i, j], te[i, j], *p)
                   for key, p in polarizations.items()}
            singlet = (PSI_MINUS @ rho["unpolarized"] @ PSI_MINUS).real
            for name, want in (
                ("tdcs", np.trace(rho["scenario"]).real),
                ("i_par", np.trace(rho["parallel"]).real),
                ("i_anti", np.trace(rho["antiparallel"]).real),
                ("i_anti_direct", rho["antiparallel"][1, 1].real),
                ("i_anti_exchange", rho["antiparallel"][2, 2].real),
                ("i_singlet", singlet),
                ("i_triplet", np.trace(rho["unpolarized"]).real - singlet),
            ):
                assert obs[name][i, j] == pytest.approx(pref * want, rel=1e-10, abs=0.0), name
            amps = AmplitudePair(complex(td[i, j]), complex(te[i, j]))
            woot = concurrence_wootters(rho_mixed(amps, p1, p2))
            for name, want in (
                ("bell_lhs", chsh_expectation(rho_mixed(amps, p1, p2)) / TSIRELSON_BOUND),
                ("asymmetry", chsh_expectation(rho_mixed(amps, ZHAT, ZERO)) / TSIRELSON_BOUND),
                ("concurrence", woot),
                ("eof", entanglement_of_formation(woot)),
            ):
                assert abs(obs[name][i, j] - want) <= 1e-10, name

    @pytest.mark.parametrize("data", CORE_SCENARIOS, ids=lambda d: d["scenario"])
    def test_every_shape_gives_the_same_bits_per_point(self, data):
        # a 2-D grid, its rows as 1-D arrays and each point as 0-d arrays;
        # the measurable mask is relative to the input's maximum, so it differs
        cfg = parse_config(data)
        rng = np.random.default_rng(35)
        td, te = random_grids(rng)
        td[0, :3] = te[0, :3] = 0.0
        td[1, :2] = te[1, :2]  # t_d = t_e: an empty pair state for parallel spins
        a = rng.standard_normal((7, 6, 4, 4))
        covs = a @ np.swapaxes(a, -1, -2)
        grid = observables_from_amplitudes(cfg, td, te, covs)
        assert len(grid) == 13
        for i, j in np.ndindex(td.shape):
            row = observables_from_amplitudes(cfg, td[i], te[i], covs[i])
            point = observables_from_amplitudes(cfg, td[i, j], te[i, j], covs[i, j])
            for name, value in grid.items():
                assert isinstance(row[name], np.ndarray) and row[name].shape == (6,), name
                assert isinstance(point[name], np.ndarray) and point[name].shape == (), name
                if name != "measurable":
                    assert same_bits(row[name][j], value[i, j]), name
                    assert same_bits(point[name], value[i, j]), name

    def test_unpolarized_concurrence_is_measurable_form(self):
        """C = max(0, (I_S - I_T)/(I_S + I_T)) from the core's own arrays."""
        td, te = random_grids(np.random.default_rng(33), (40, 50))
        td[:5] = te[:5] * np.exp(0.1j * np.arange(5))[:, None]  # t_d ~ t_e: singlet-dominated
        obs = observables_from_amplitudes(parse_config({}), td, te)
        i_s, i_t = obs["i_singlet"], obs["i_triplet"]
        form = np.maximum(0.0, (i_s - i_t) / (i_s + i_t))
        assert np.count_nonzero(form) > 100
        np.testing.assert_allclose(obs["concurrence"], form, rtol=0.0, atol=1e-12)


class TestRunScanC3:
    def test_tiny_grid_with_errors(self):
        cfg = parse_config(
            {"model": "c3", "step_deg": 90.0, "mc": {"samples": 2000, "seed": 3}}
        )
        obs, thetas = run_scan(cfg)
        assert obs["tdcs"].size == 25
        assert np.all(obs["tdcs_stderr"] >= 0.0)
        # exchange symmetry of the sampler makes the diagonal exactly singlet
        diag = _diagonal(thetas) & (obs["tdcs"] > 0)
        assert np.all(np.abs(obs["concurrence"][diag] - 1.0) <= 1e-12)

    def test_worker_count_does_not_change_results(self):
        cfg = parse_config(
            {"model": "c3", "step_deg": 90.0, "mc": {"samples": 2000, "seed": 5}}
        )
        a, _ = run_scan(cfg, workers=1)
        b, _ = run_scan(cfg, workers=3)
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    # the 2x2 equal-sharing grid estimates 3 cells (i <= j), of which only
    # (-90, 0) is not coincident: its 3 blocks are the tasks, so 3 caps the
    # pool; only 2 CPUs, fewer than the tasks, make the CPU count the cap
    @pytest.mark.parametrize(
        "workers, cpus, expected",
        [(100_000, 64, 3), (100_000, 3, 3), (100_000, 2, 2), (2, 64, 2)],
    )
    def test_worker_pool_is_capped_by_points_and_cpus(self, monkeypatch, workers, cpus, expected):
        # a recording executor that maps serially: no thread is started
        pools = []

        class SerialPool:
            def __init__(self, max_workers, thread_name_prefix):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(c3mc, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(c3mc.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        cfg = parse_config({"model": "c3", "theta_min_deg": -90.0, "theta_max_deg": 0.0,
                            "step_deg": 90.0,
                            "mc": {"samples": 2 * c3mc.BLOCK_SIZE + 2000, "seed": 5}})
        grid = cfg.grid_deg()
        td, te, covs = amplitude_grids(cfg, grid[:, None], grid, workers=workers)
        assert pools == [expected]
        serial = amplitude_grids(cfg, grid[:, None], grid, workers=1)
        assert all(np.array_equal(x, y) for x, y in zip((td, te, covs), serial))


def c3_grids(theta_min, theta_max, step, **over):
    cfg = parse_config({"model": "c3", "e0_ev": 54.4, "theta_min_deg": theta_min,
                        "theta_max_deg": theta_max, "step_deg": step,
                        "mc": {"samples": 2000, "seed": 3}, **over})
    return amplitude_grids(cfg, cfg.grid_deg()[:, None], cfg.grid_deg())


class TestPhysicalStreams:
    # a 3C estimate depends on its own kinematics, not on the grid around it

    def test_point_equals_scan_cell(self):
        td, te, covs = c3_grids(-60.0, 60.0, 30.0)
        cfg = parse_config({"model": "c3", "e0_ev": 54.4, "mc": {"samples": 2000, "seed": 3}})
        ptd, pte, pcovs = amplitude_grids(cfg, 30.0, -60.0)
        assert ptd == td[3, 0] and pte == te[3, 0]
        assert np.array_equal(pcovs, covs[3, 0])

    def test_scan_ranges_agree_on_shared_points(self):
        # {-30, 0, 30, 60} deg is in both grids
        a = c3_grids(-60.0, 60.0, 30.0)
        b = c3_grids(-30.0, 90.0, 30.0)
        for grid_a, grid_b in zip(a, b):
            assert np.array_equal(grid_a[1:, 1:], grid_b[:4, :4])

    def test_equal_sharing_relabeling_swaps_amplitudes(self):
        # t_d(thetaA, thetaB) = t_e(thetaB, thetaA), bit for bit, on a grid
        # assembled from single rows, which estimate every cell
        cfg = parse_config({"model": "c3", "e0_ev": 54.4, "theta_min_deg": -90.0,
                            "theta_max_deg": 90.0, "step_deg": 30.0,
                            "mc": {"samples": 2000, "seed": 3}})
        thetas = cfg.grid_deg()
        rows = [amplitude_grids(cfg, [[t]], thetas) for t in thetas]
        td, te, covs = (np.concatenate([row[k] for row in rows]) for k in range(3))
        assert np.array_equal(td, te.T)
        assert np.count_nonzero(td) == 42  # all but the coincident diagonal
        # the grid that fills cells by relabeling gives the same bits
        filled = amplitude_grids(cfg, thetas[:, None], thetas)
        assert all(same_bits(x, y) for x, y in zip(filled, (td, te, covs)))

    def test_plus_and_minus_180_rows_share_a_stream(self):
        # -180 and +180 deg are one direction, with one stream and bitwise
        # equal momenta, so their rows and columns hold the same bits
        td, te, covs = c3_grids(-180.0, 180.0, 90.0)
        for grid in (td, te, covs):
            for first, last in ((grid[0], grid[-1]), (grid[:, 0], grid[:, -1])):
                assert same_bits(first, last)
        assert np.all(np.sqrt(covs[0, 1:4, 0, 0]) > 1e-3 * np.abs(td[0, 1:4]))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def recording(monkeypatch, module, name, pause=0.0) -> list:
    """Wrap ``module.name`` so each call appends its positional arguments.

    A ``pause`` (seconds) before each call lets other threads run into
    the same code meanwhile.
    """
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        time.sleep(pause)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def points_of(calls) -> list:
    """The kinematics passed to the recorded ``c3mc._estimate_points`` calls, in order."""
    return [kin for kins, *_ in calls for kin in kins]


# the benchmark's c3_scan grid: 54.4 eV equal sharing, 11 x 11 angles
C3_SCAN = {"model": "c3", "e0_ev": 54.4, "theta_min_deg": -150.0, "theta_max_deg": 150.0,
           "step_deg": 30.0, "mc": {"samples": 20_000, "seed": 0}}


class TestRelabelingFill:
    # c3mc.c3_pairs estimates one cell of a 3C grid per c3mc.estimate_key
    # (relabeling the electrons at equal sharing, and the reflection x -> -x)
    # and fills the rest

    def test_filled_cells_equal_independent_points(self):
        # the +-180 rows and the theta_B = -theta_A cells included, at equal
        # sharing and at 5 eV; a grid that holds +180 but not -180; axes that differ
        for over, axes in (
            ({"theta_min_deg": -180.0, "step_deg": 45.0}, None),
            ({"theta_min_deg": -180.0, "step_deg": 45.0, "eb_ev": 5.0}, None),
            ({"theta_min_deg": -150.0, "step_deg": 30.0}, None),
            ({}, ([-150.0, -120.0, -90.0], [-90.0, -120.0, -150.0])),
        ):
            cfg = parse_config({"model": "c3", "theta_max_deg": 180.0, **over,
                                "mc": {"samples": 2000, "seed": 3}})
            theta_a, theta_b = axes or (cfg.grid_deg(), cfg.grid_deg())
            td, te, covs = amplitude_grids(cfg, np.array(theta_a)[:, None], theta_b)
            for i, j in np.ndindex(td.shape):
                ptd, pte, pcovs = amplitude_grids(cfg, theta_a[i], theta_b[j])
                assert same_bits(ptd, td[i, j]) and same_bits(pte, te[i, j])
                assert same_bits(pcovs, covs[i, j])

    def test_c3_scan_estimates_half_and_builds_a_table_per_relative_angle(self, monkeypatch):
        calls = recording(monkeypatch, c3mc, "_estimate_points")
        # the pause makes both block threads miss the empty cache at once
        kummer = recording(monkeypatch, special, "kummer_1f1", pause=0.01)
        c3mc._table.cache_clear()
        cfg = parse_config(C3_SCAN)
        amplitude_grids(cfg, cfg.grid_deg()[:, None], cfg.grid_deg(), workers=2)
        pairs = points_of(calls)
        # (121 + 11 + 1 + 11) / 4 orbits of relabeling and reflection, the
        # 6 orbits of the coincident diagonal included
        assert len(pairs) == 36
        computed = sum(float((kin.k_a - kin.k_b) @ (kin.k_a - kin.k_b)) > 0.0
                       for kin in pairs)
        assert computed == 30
        # one wave table for them all, and a correlation table for each of
        # the relative angles 30, 60, ..., 180 degrees
        assert len(kummer) == 7

    @pytest.mark.parametrize("over, calls", [
        ({"eb_ev": 20.3971535}, 36),  # half of e0 + E_T, in binary too
        ({"eb_ev": 5.0}, 61),  # (121 + 1) / 2 orbits of the reflection
        ({"e0_ev": 60.0, "eb_ev": 23.1971535}, 61),  # half in decimal only
    ], ids=["bitwise_half", "eb_5", "decimal_half"])
    def test_explicit_eb_is_reduced_at_bitwise_equal_energies(self, monkeypatch, over, calls):
        cfg = parse_config({**C3_SCAN, **over, "mc": {"samples": 1000}})
        e0, eb, et = cfg.energies_hartree()
        assert (e0 + et - eb == eb) == (calls == 36)
        if cfg.eb_ev != 5.0:
            assert 2 * Decimal(repr(cfg.eb_ev)) == Decimal(repr(cfg.e0_ev)) + Decimal(
                repr(HYDROGEN_ET_EV))
        pairs = recording(monkeypatch, c3mc, "_estimate_points")
        amplitude_grids(cfg, cfg.grid_deg()[:, None], cfg.grid_deg())
        assert len(points_of(pairs)) == calls

    def test_different_axes_share_relabeled_cells(self, monkeypatch):
        # {-150, -120, -90} against its reverse: 9 cells, 3 pairs of them relabeled
        cfg = parse_config({**C3_SCAN, "mc": {"samples": 1000}})
        thetas = cfg.grid_deg()[:3]
        pairs = recording(monkeypatch, c3mc, "_estimate_points")
        amplitude_grids(cfg, thetas[:, None], thetas[::-1])
        assert len(points_of(pairs)) == 6

    def test_grid_with_180_but_not_minus_180_fills_mirror_images(self, monkeypatch):
        # -150 .. 180 deg: 12 * 13 / 2 unordered pairs, of which the reflection
        # (180 staying 180) fixes {a, -a} for a in 30 .. 150, {0, 0},
        # {180, 180} and {0, 180}: (78 + 8) / 2 keys
        cfg = parse_config({**C3_SCAN, "theta_max_deg": 180.0, "mc": {"samples": 1000}})
        pairs = recording(monkeypatch, c3mc, "_estimate_points")
        amplitude_grids(cfg, cfg.grid_deg()[:, None], cfg.grid_deg())
        assert len(points_of(pairs)) == 43

    @pytest.mark.parametrize("eb_ev, words", [(None, 8191), (5.0, 16202)])
    def test_default_grid_estimates_one_point_per_stream_word(self, monkeypatch, eb_ev, words):
        # the orbit counts of test_c3mc's test_default_grid_has_no_repeated_word
        estimated = []

        def stub(kins, mc, workers=None):
            estimated.extend(c3mc._stream_word(c3mc._canonical(kin)) for kin in kins)
            return [c3mc.PairEstimate(0j, 0j, np.zeros((4, 4)), mc.samples, 0) for _ in kins]

        monkeypatch.setattr(c3mc, "_estimate_points", stub)
        cfg = parse_config({"model": "c3", "eb_ev": eb_ev})
        amplitude_grids(cfg, cfg.grid_deg()[:, None], cfg.grid_deg(), workers=1)
        assert len(estimated) == len(set(estimated)) == words


class TestCsv:
    def test_header_and_round_trip(self, tmp_path):
        obs, thetas = run_scan(coarse_cfg(scenario="antiparallel"))
        path = tmp_path / "records.csv"
        write_csv(obs, thetas, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "theta_a_deg,theta_b_deg,tdcs,concurrence,eof,bell_lhs,asymmetry,measurable"
        assert len(lines) == obs["tdcs"].size + 1
        row = lines[1].split(",")
        assert float(row[0]) == thetas[0]
        assert float(row[2]) == obs["tdcs"][0, 0]  # shortest round-trip representation
        assert row[7] in ("true", "false")

    def test_stderr_column_for_c3(self, tmp_path):
        cfg = parse_config({"model": "c3", "step_deg": 180.0, "mc": {"samples": 1000}})
        obs, thetas = run_scan(cfg)
        path = tmp_path / "c3.csv"
        write_csv(obs, thetas, path)
        assert path.read_text().splitlines()[0].endswith(",tdcs_stderr")

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv({"tdcs": np.zeros((0, 0))}, np.zeros(0), tmp_path / "x.csv")

    def test_io_error_carries_path(self, tmp_path):
        obs, thetas = run_scan(coarse_cfg())
        with pytest.raises(OSError, match="no/such"):
            write_csv(obs, thetas, tmp_path / "no/such/dir/records.csv")


class TestPgm:
    def test_format_and_scaling(self, tmp_path):
        field = np.array([[0.0, 1.0], [0.5, 0.25]])
        path = tmp_path / "f.pgm"
        write_pgm(field, path)
        tokens = path.read_text().split("\n")
        assert tokens[0] == "P2"
        assert tokens[1] == "2" and tokens[2] == "2"
        assert tokens[3] == "255"
        assert tokens[4:8] == ["0", "255", "128", "64"]

    def test_negative_values_clamp_to_zero(self, tmp_path):
        path = tmp_path / "n.pgm"
        write_pgm(np.array([[-1.0, 2.0]]), path)
        assert path.read_text().split("\n")[4:6] == ["0", "255"]

    def test_all_zero_grid(self, tmp_path):
        path = tmp_path / "z.pgm"
        write_pgm(np.zeros((3, 2)), path)
        vals = path.read_text().split("\n")[4:10]
        assert vals == ["0"] * 6

    def test_masked_points_are_zero(self, tmp_path):
        obs, _ = run_scan(coarse_cfg())
        path = tmp_path / "t.pgm"
        write_pgm(np.where(obs["measurable"], obs["tdcs"], 0.0), path)
        tokens = path.read_text().split("\n")
        n = obs["tdcs"].shape[0]
        pix = np.array(tokens[4 : 4 + n * n], dtype=int).reshape(n, n)
        assert pix[~obs["measurable"]].max(initial=0) == 0
        assert pix.max() == 255


class TestDeterminism:
    def test_byte_identical_across_workers(self, tmp_path):
        cfg = parse_config(
            {"model": "c3", "step_deg": 90.0, "mc": {"samples": 2000, "seed": 9}}
        )
        outputs = []
        for workers in (1, 3):
            obs, thetas = run_scan(cfg, workers=workers)
            csv_path = tmp_path / f"w{workers}.csv"
            pgm_path = tmp_path / f"w{workers}.pgm"
            write_csv(obs, thetas, csv_path)
            write_pgm(np.where(obs["measurable"], obs["tdcs"], 0.0), pgm_path)
            outputs.append((csv_path.read_bytes(), pgm_path.read_bytes()))
        assert outputs[0] == outputs[1]
