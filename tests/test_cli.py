import json
import math

import numpy as np
import pytest

from e2espin.bell import TSIRELSON_BOUND
from e2espin.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from e2espin.validate import suite_chsh, run_all_suites


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPointCommand:
    def test_symmetric_point_consistency(self, capsys):
        code, out, _ = run_cli(capsys, "point", "--theta-a", "45", "--theta-b", "-45")
        assert code == EXIT_OK
        rep = json.loads(out)
        conc = rep["concurrence"]
        assert abs(conc["closed_form"] - conc["wootters"]) <= 1e-10
        assert rep["tdcs"]["i_triplet"] == 0.75 * rep["tdcs"]["i_par"]
        assert rep["amplitudes"]["t_d"] == rep["amplitudes"]["t_e"]

    def test_antiparallel_scenario_saturates_chsh(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "antiparallel"}))
        code, out, _ = run_cli(
            capsys, "point", "--config", str(cfg), "--theta-a", "40", "--theta-b", "-40"
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert abs(rep["chsh"]["expectation"] - TSIRELSON_BOUND) <= 1e-12
        assert rep["chsh"]["violated"]

    def test_partial_polarization_has_no_closed_form(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"scenario": "custom", "p1": [0, 0, 0.5], "p2": [0, 0, 0]})
        )
        code, out, _ = run_cli(
            capsys, "point", "--config", str(cfg), "--theta-a", "45", "--theta-b", "-70"
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["concurrence"]["closed_form"] is None
        assert 0.0 <= rep["concurrence"]["wootters"] <= 1.0

    def test_c3_point_reports_errors(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "c3", "mc": {"samples": 2000, "seed": 1}}))
        code, out, _ = run_cli(
            capsys, "point", "--config", str(cfg), "--theta-a", "45", "--theta-b", "-60"
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["amplitudes"]["t_d"]["stderr_re"] > 0.0


class TestScanCommand:
    def test_writes_outputs(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"step_deg": 30.0, "scenario": "antiparallel"}))
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "scan", "--config", str(cfg), "--output-dir", str(out_dir)
        )
        assert code == EXIT_OK
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "asymmetry.pgm",
            "bell_lhs.pgm",
            "concurrence.pgm",
            "eof.pgm",
            "records.csv",
            "tdcs.pgm",
        ]
        header = (out_dir / "records.csv").read_text().splitlines()[0]
        assert header.startswith("theta_a_deg,")

    def test_seed_override_changes_c3_output(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"model": "c3", "step_deg": 180.0, "mc": {"samples": 1000}})
        )
        outs = []
        for seed in ("1", "2"):
            d = tmp_path / f"out{seed}"
            code, _, _ = run_cli(
                capsys, "scan", "--config", str(cfg), "--output-dir", str(d), "--seed", seed
            )
            assert code == EXIT_OK
            outs.append((d / "records.csv").read_text())
        assert outs[0] != outs[1]


class TestExitCodes:
    def test_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"model": "mock"}')
        code, _, err = run_cli(capsys, "point", "--config", str(cfg), "--theta-a", "0", "--theta-b", "0")
        assert code == EXIT_CONFIG
        assert "configuration error" in err

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"e0_ev": None}, "e0_ev"),
            ({"scenario": "custom", "p1": 1, "p2": [0, 0, 0]}, "p1"),
            ({"mc": {"samples": None}}, "mc.samples"),
            ({"e0_ev": "abc"}, "e0_ev"),
            ({"equal_sharing": "false"}, "equal_sharing"),
            ({"mc": {"debug_free_limit": "false"}}, "mc.debug_free_limit"),
        ],
    )
    def test_malformed_value_is_config_error(self, capsys, tmp_path, data, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        code, _, err = run_cli(
            capsys, "point", "--config", str(cfg), "--theta-a", "45", "--theta-b", "-45"
        )
        assert code == EXIT_CONFIG
        assert f"configuration error: {key} " in err

    def test_missing_config_file(self, capsys):
        code, _, _ = run_cli(
            capsys, "scan", "--config", "/nonexistent/cfg.json"
        )
        assert code == EXIT_CONFIG

    def test_closed_channel_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "closed.json"
        cfg.write_text(json.dumps({"eb_ev": 42.0, "equal_sharing": False}))
        code, _, _ = run_cli(
            capsys, "point", "--config", str(cfg), "--theta-a", "10", "--theta-b", "20"
        )
        assert code == EXIT_CONFIG

    def test_numeric_error(self, capsys, tmp_path):
        cfg = tmp_path / "degenerate.json"
        # parallel unit polarizations annihilate the pair state wherever
        # t_d = t_e, e.g. in symmetric kinematics
        cfg.write_text(
            json.dumps({"scenario": "custom", "p1": [0, 0, 1], "p2": [0, 0, 1]})
        )
        code, _, err = run_cli(
            capsys, "point", "--config", str(cfg), "--theta-a", "45", "--theta-b", "-45"
        )
        assert code == EXIT_NUMERIC
        assert "numeric/model error" in err

    def test_validate_passes(self, capsys):
        import time

        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "validate", "--mc-samples", "20000")
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK
        assert "all 7 suites passed" in out
        assert elapsed < 60.0  # the closed-form suites are interactive-speed

    def test_validation_failure_exit_code(self, capsys, monkeypatch):
        import e2espin.cli as cli_mod
        from e2espin.validate import SuiteResult

        def fake_suites(mc_samples=0, seed=0):
            return [SuiteResult("forced", False, 1.0, 0.0)]

        monkeypatch.setattr(cli_mod, "run_all_suites", fake_suites)
        code, out, _ = run_cli(capsys, "validate")
        assert code == EXIT_VALIDATION
        assert "FAIL" in out


class TestBellSimCommand:
    def test_singlet_violation_detected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "antiparallel", "mc": {"seed": 3}}))
        code, out, _ = run_cli(
            capsys,
            "bell-sim", "--config", str(cfg),
            "--theta-a", "45", "--theta-b", "-45", "--n-per-setting", "20000",
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["violated"]
        assert abs(rep["chsh_exact"] - TSIRELSON_BOUND) < 1e-12
        assert abs(rep["chsh_estimate"] - rep["chsh_exact"]) <= 5 * rep["chsh_stderr"]
        assert sum(c["pp"] + c["pm"] + c["mp"] + c["mm"] for c in rep["counts"]) == 4 * 20000


class TestMutationSanity:
    def test_broken_closed_form_is_caught(self):
        from e2espin.spin import AmplitudePair

        def broken(amps, z1, z2):
            # wrong sign on the y-component coupling
            td, te = complex(amps.t_d), complex(amps.t_e)
            z1 = np.asarray(z1, float)
            z2 = np.asarray(z2, float)
            re = (td * te.conjugate()).real
            ab2 = abs(td) ** 2 + abs(te) ** 2
            u = ab2 - re * (1.0 + float(z1 @ z2))
            num = 2.0 * re * (1.0 + z1[1] * z2[1]) - ab2 * (z1[0] * z2[0] + z1[2] * z2[2])
            return math.sqrt(2.0) * num / u

        assert not suite_chsh(n=200, closed_form=broken).passed

    def test_real_suites_pass(self):
        results = run_all_suites(mc_samples=20_000)
        assert all(r.passed for r in results)
