import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from e2espin import scan
from e2espin.amplitudes import McConfig
from e2espin.bell import TSIRELSON_BOUND, chsh_expectation
from e2espin.entanglement import concurrence_wootters, entanglement_of_formation
from e2espin.kinematics import build_coplanar, tdcs_prefactor
from e2espin.scan import (
    ConfigError,
    ScanConfig,
    amplitude_grids,
    load_config,
    observables_from_amplitudes,
    parse_config,
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
            load_config(tmp_path / "nope.json")

    def test_parse_error_has_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"model": }')
        with pytest.raises(ConfigError, match=r"line 1, column"):
            load_config(p)

    def test_round_trip(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps({"model": "pwba", "step_deg": 30.0, "scenario": "perp"}))
        cfg = load_config(p)
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
        td, te, covs = amplitude_grids(cfg)
        obs_perp = observables_from_amplitudes(cfg, td, te, covs)
        obs_one = observables_from_amplitudes(
            replace(cfg, scenario="one_unpolarized"), td, te, covs
        )
        assert np.all(np.abs(obs_perp["concurrence"] - obs_one["concurrence"]) <= 1e-10)
        assert np.all(np.abs(obs_perp["eof"] - obs_one["eof"]) <= 1e-10)

    def test_unpolarized_tdcs_matches_perp(self):
        cfg = coarse_cfg(scenario="perp")
        td, te, covs = amplitude_grids(cfg)
        obs_perp = observables_from_amplitudes(cfg, td, te, covs)
        obs_unpol = observables_from_amplitudes(replace(cfg, scenario="unpolarized"), td, te, covs)
        a, b = obs_perp["tdcs"], obs_unpol["tdcs"]
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(a)))

    def test_unpolarized_concurrence_vanishes_when_triplet_dominates(self):
        obs, _ = run_scan(coarse_cfg(scenario="unpolarized"))
        cfg = coarse_cfg()
        td, te, _ = amplitude_grids(cfg)
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

    @pytest.mark.parametrize(
        "workers, cpus, expected", [(100_000, 64, 4), (100_000, 3, 3), (2, 64, 2)]
    )
    def test_worker_pool_is_capped_by_points_and_cpus(self, monkeypatch, workers, cpus, expected):
        # a recording executor that maps serially: no thread is started
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(scan, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(scan.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        cfg = parse_config({"model": "c3", "theta_min_deg": -90.0, "theta_max_deg": 0.0,
                            "step_deg": 90.0, "mc": {"samples": 2000, "seed": 5}})
        td, te, covs = amplitude_grids(cfg, workers=workers)
        assert pools == [expected]
        serial = amplitude_grids(cfg, workers=1)
        assert all(np.array_equal(x, y) for x, y in zip((td, te, covs), serial))


def c3_grids(theta_min, theta_max, step, **over):
    cfg = parse_config({"model": "c3", "e0_ev": 54.4, "theta_min_deg": theta_min,
                        "theta_max_deg": theta_max, "step_deg": step,
                        "mc": {"samples": 2000, "seed": 3}, **over})
    return amplitude_grids(cfg)


class TestPhysicalStreams:
    # a 3C estimate depends on its own kinematics, not on the grid around it

    def test_point_equals_scan_cell(self):
        td, te, covs = c3_grids(-60.0, 60.0, 30.0)
        cfg = parse_config({"model": "c3", "e0_ev": 54.4, "mc": {"samples": 2000, "seed": 3}})
        ptd, pte, pcovs = amplitude_grids(cfg, theta_a_deg=[30.0], theta_b_deg=[-60.0])
        assert ptd[0, 0] == td[3, 0] and pte[0, 0] == te[3, 0]
        assert np.array_equal(pcovs[0, 0], covs[3, 0])

    def test_scan_ranges_agree_on_shared_points(self):
        # {-30, 0, 30, 60} deg is in both grids
        a = c3_grids(-60.0, 60.0, 30.0)
        b = c3_grids(-30.0, 90.0, 30.0)
        for grid_a, grid_b in zip(a, b):
            assert np.array_equal(grid_a[1:, 1:], grid_b[:4, :4])

    def test_equal_sharing_relabeling_swaps_amplitudes(self):
        # t_d(thetaA, thetaB) = t_e(thetaB, thetaA), bit for bit
        td, te, _ = c3_grids(-90.0, 90.0, 30.0)
        assert np.array_equal(td, te.T)
        assert np.count_nonzero(td) == 42  # all but the coincident diagonal

    def test_plus_and_minus_180_rows_share_a_stream(self):
        # sin(+-pi) differ by rounding, so the kinematics, and with one
        # stream the estimates, differ only far below the Monte Carlo error
        td, te, covs = c3_grids(-180.0, 180.0, 90.0)
        for grid in (td, te):
            for first, last in ((grid[0], grid[-1]), (grid[:, 0], grid[:, -1])):
                assert np.all(np.abs(first - last) <= 1e-9 * np.abs(first))
        assert np.all(np.sqrt(covs[0, 1:4, 0, 0]) > 1e-3 * np.abs(td[0, 1:4]))


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
