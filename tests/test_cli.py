import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from e2espin import c3mc
from e2espin.bell import TSIRELSON_BOUND
from e2espin.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from e2espin.validate import suite_chsh


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# parallel unit polarizations: the pair state is empty wherever t_d = t_e
PARALLEL = {"scenario": "custom", "p1": [0, 0, 1], "p2": [0, 0, 1]}


class TestPointCommand:
    def test_symmetric_point_consistency(self, capsys):
        code, out, _ = run_cli(capsys, "point", "--theta-a", "45", "--theta-b", "-45")
        assert code == EXIT_OK
        rep = json.loads(out)
        conc = rep["concurrence"]
        assert abs(conc["closed_form"] - conc["wootters"]) <= 1e-10
        assert rep["tdcs"]["i_triplet"] == 0.75 * rep["tdcs"]["i_par"]
        assert rep["amplitudes"]["t_d"] == rep["amplitudes"]["t_e"]

    def test_c3_point_does_not_depend_on_the_hash_seed(self, tmp_path):
        # the 3C stream key is a blake2b digest, not Python's salted hash()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "c3", "mc": {"samples": 1000, "seed": 1}}))
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "e2espin.cli", "point", "--config", str(cfg),
                "--theta-a", "30", "--theta-b", "-60"]
        outputs = [subprocess.run(argv, env={**os.environ, "PYTHONPATH": path,
                                             "PYTHONHASHSEED": hash_seed},
                                  capture_output=True, check=True).stdout
                   for hash_seed in ("1", "2")]
        assert outputs[0] == outputs[1] and b"t_d" in outputs[0]

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

    @pytest.mark.parametrize("theta_a, theta_b", [(45.0, -45.0), (30.0, 30.0)])
    def test_empty_pair_state_reports_the_scan_row(self, capsys, tmp_path, theta_a, theta_b):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**PARALLEL, "step_deg": 15.0}))
        code, out, _ = run_cli(capsys, "point", "--config", str(cfg),
                               "--theta-a", str(theta_a), "--theta-b", str(theta_b))
        assert code == EXIT_OK
        rep = json.loads(out)
        assert run_cli(capsys, "scan", "--config", str(cfg),
                       "--output-dir", str(tmp_path))[0] == EXIT_OK
        rows = (tmp_path / "records.csv").read_text().splitlines()
        header = rows[0].split(",")
        row = next(dict(zip(header, r.split(","))) for r in rows[1:]
                   if r.startswith(f"{theta_a!r},{theta_b!r},"))
        assert rep["tdcs"]["scenario_tdcs"] == float(row["tdcs"]) == 0.0
        assert rep["concurrence"]["closed_form"] == float(row["concurrence"]) == 0.0
        assert rep["entanglement_of_formation"] == float(row["eof"]) == 0.0
        assert rep["chsh"]["bell_lhs"] == float(row["bell_lhs"]) == 0.0
        assert rep["asymmetry"]["value"] == float(row["asymmetry"])
        assert rep["concurrence"]["wootters"] == rep["chsh"]["expectation"] == 0.0

    def test_c3_point_mirror_image_reports_the_same_amplitudes(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "c3", "mc": {"samples": 2000, "seed": 1}}))
        reports = []
        for theta_a, theta_b in (("20", "-60"), ("-20", "60")):
            code, out, _ = run_cli(capsys, "point", "--config", str(cfg),
                                   "--theta-a", theta_a, "--theta-b", theta_b)
            assert code == EXIT_OK
            reports.append(json.loads(out)["amplitudes"])
        assert reports[0] == reports[1]
        assert reports[0]["t_d"]["stderr_re"] > 0.0

    def test_c3_point_at_plus_and_minus_180_reports_the_same_amplitudes(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "c3", "mc": {"samples": 2000, "seed": 1}}))
        reports = []
        for theta_b in ("180", "-180"):
            code, out, _ = run_cli(capsys, "point", "--config", str(cfg),
                                   "--theta-a", "40", "--theta-b", theta_b)
            assert code == EXIT_OK
            reports.append(json.loads(out)["amplitudes"])
        assert reports[0] == reports[1]
        assert reports[0]["t_d"]["stderr_re"] > 0.0

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

    def test_output_dir_is_made_before_any_point_is_computed(self, capsys, tmp_path,
                                                              monkeypatch):
        calls = []
        real = c3mc.c3_pairs
        monkeypatch.setattr(c3mc, "c3_pairs", lambda *a: calls.append(a) or real(*a))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "c3", "step_deg": 180.0, "mc": {"samples": 1000}}))
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run_cli(capsys, "scan", "--config", str(cfg),
                               "--output-dir", str(blocker / "sub"))
        assert code == EXIT_NUMERIC and "i/o error" in err
        assert calls == []
        # the same scan into a directory reaches the estimator
        code, _, _ = run_cli(capsys, "scan", "--config", str(cfg),
                             "--output-dir", str(tmp_path / "out"))
        assert code == EXIT_OK and calls


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
            ({"mc": {"samples": 2000.9}}, "mc.samples"),
            ({"mc": {"debug_free_limit": "false"}}, "mc.debug_free_limit"),
            ({"mc": {"seed": 1.5}}, "mc.seed"),
            ({"threshold_frac": True}, "threshold_frac"),
            ({"mc": {"r_max": True}}, "mc.r_max"),
            ({"mc": {"seed": True}}, "mc.seed"),
            ({"output_dir": None}, "output_dir"),
            ({"output_dir": 5}, "output_dir"),
            ({"scenario": "custom", "p1": "100", "p2": [0, 0, 1]}, "p1"),
            ({"scenario": "custom", "p1": [0, 0, 1], "p2": "001"}, "p2"),
            ({"model": None}, "model"),
            ({"scenario": ["perp"]}, "scenario"),
            ({"e0_ev": math.inf, "eb_ev": 5.0, "step_deg": 90.0}, "e0_ev"),
            ({"model": "c3", "mc": {"r_max": math.inf}}, "mc.r_max"),
            ({"mc": {"lambda1": 1.0}}, "unknown"),  # a removed setting is an unknown key
            ({"theta_min_deg": math.nan}, "theta_min_deg"),
            ({"scenario": "custom", "p1": [0, 0, math.nan], "p2": [0, 0, 1]}, "p1"),
            # a quoted number is a string, not a real
            ({"e0_ev": "54.4"}, "e0_ev"),
            ({"eb_ev": "5"}, "eb_ev"),
            ({"et_ev": -13.6}, "unknown"),  # the H(1s) binding energy is not a setting
            ({"theta_min_deg": "-180"}, "theta_min_deg"),
            ({"theta_max_deg": "180"}, "theta_max_deg"),
            ({"step_deg": "90"}, "step_deg"),
            ({"threshold_frac": "0.01"}, "threshold_frac"),
            ({"mc": {"r_max": "14"}}, "mc.r_max"),
            ({"scenario": "custom", "p1": [0, 0, "0.5"], "p2": [0, 0, 1]}, "p1"),
            # |p1| passes a math.sqrt bound but not spin's np.linalg.norm one
            ({"scenario": "custom",
              "p1": [0.4339412657414101, -0.8114603922687387, 0.3914422175338375],
              "p2": [0, 0, 0.3]}, "p1"),
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

    @pytest.mark.parametrize(
        "argv",
        [
            ("point", "--model", "c3", "--theta-a", "45", "--theta-b", "-45"),
            ("bell-sim", "--theta-a", "45", "--theta-b", "-45"),
        ],
    )
    def test_negative_seed_override_is_config_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == EXIT_CONFIG
        assert "configuration error: mc: mc seed must be nonnegative" in err

    @pytest.mark.parametrize("target", ["grid_deg", "amplitude_grids"])
    def test_out_of_memory_is_numeric_error(self, capsys, tmp_path, monkeypatch, target):
        # numpy's message for a step_deg of 1e-9 over +-10 degrees (149 GiB);
        # the allocation is faked, never made, on a grid that parse_config
        # accepts
        import e2espin.scan as scan_mod

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 149. GiB for an array with shape "
                              "(20000000001,) and data type float64")
        if target == "grid_deg":
            monkeypatch.setattr(scan_mod.ScanConfig, "grid_deg", exhausted)
        else:
            monkeypatch.setattr(scan_mod, "amplitude_grids", exhausted)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "pwba", "theta_min_deg": -10,
                                   "theta_max_deg": 10, "step_deg": 0.001}))
        code, _, err = run_cli(capsys, "scan", "--config", str(cfg),
                               "--output-dir", str(tmp_path / "out"))
        assert code == EXIT_NUMERIC
        assert err.startswith("numeric/model error: out of memory: Unable to allocate 149. GiB")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["scan", "point"])
    def test_too_fine_a_grid_is_config_error(self, capsys, tmp_path, command):
        # +-10 degrees at 1e-9 would be 2e10 angles per axis; nothing is allocated
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "pwba", "theta_min_deg": -10,
                                   "theta_max_deg": 10, "step_deg": 1e-9}))
        argv = (["scan", "--output-dir", str(tmp_path / "out")] if command == "scan"
                else ["point", "--theta-a", "45", "--theta-b", "-45"])
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == EXIT_CONFIG and out == ""
        assert err.startswith("configuration error: step_deg 1e-09 gives more than 36001 angles")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_is_config_error(self, capsys, tmp_path, workers):
        code, _, err = run_cli(
            capsys, "scan", "--output-dir", str(tmp_path), "--workers", workers
        )
        assert code == EXIT_CONFIG
        assert "--workers" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("bell-sim", "--theta-a", "45", "--theta-b", "-45", "--n-per-setting", "0"),
             "--n-per-setting"),
            (("bell-sim", "--theta-a", "45", "--theta-b", "-45", "--n-per-setting", "-5"),
             "--n-per-setting"),
            (("validate", "--mc-samples", "10"), "--mc-samples"),
            (("validate", "--seed", "-20245"), "--seed"),
            (("validate", "--mc-samples", "1000", "--seed", str(2**64 - 1)), "--seed"),
        ],
    )
    def test_unrunnable_flag_is_config_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG
        assert flag in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("point", "--theta-a", "nan", "--theta-b", "-45"),
            ("bell-sim", "--theta-a", "45", "--theta-b", "nan"),
        ],
    )
    def test_nan_angle_is_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "must lie in [-pi, pi], got nan" in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "non_utf8"])
    def test_missing_config_file(self, capsys, tmp_path, kind):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "non_utf8":
            path.write_bytes(b'{"model": "\xff"}')
        code, _, err = run_cli(capsys, "scan", "--config", str(path))
        assert code == EXIT_CONFIG
        assert "configuration error" in err

    def test_closed_channel_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "closed.json"
        cfg.write_text(json.dumps({"eb_ev": 42.0}))
        code, _, _ = run_cli(
            capsys, "point", "--config", str(cfg), "--theta-a", "10", "--theta-b", "20"
        )
        assert code == EXIT_CONFIG

    def test_numeric_error(self, capsys, tmp_path):
        cfg = tmp_path / "degenerate.json"
        # parallel unit polarizations annihilate the pair state wherever
        # t_d = t_e, e.g. in symmetric kinematics: there is no pair to measure
        cfg.write_text(json.dumps(PARALLEL))
        code, _, err = run_cli(
            capsys, "bell-sim", "--config", str(cfg), "--theta-a", "45", "--theta-b", "-45"
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
        suite_lines = out.splitlines()[:-1]
        assert len(suite_lines) == 7
        assert all(re.search(r" in \d+\.\d\d s$", line) for line in suite_lines)
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
