#!/usr/bin/env python3
"""Regenerate reference.json, the high-budget 3C results the checks use.

    python3 bench/make_reference.py

Run it from the repository root (a few minutes on two cores).  It runs
the c3_scan grid at SCAN_SAMPLES per point and the c3_point action at
POINT_SAMPLES, both with REF_SEED, a seed the benchmark's passes do not
draw.  The checks compare a run against this file within a number of
combined standard errors, so the file needs regenerating only when the
physics model changes, not when the random streams do.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import checks
import run
from workloads import WORKLOADS, argv_for, config_for

REF_SEED = 271_828_182
SCAN_SAMPLES = 200_000
POINT_SAMPLES = 10_000_000


def _cli(pkg, argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = pkg.cli.main(argv)
    if rc != 0:
        raise SystemExit(f"e2espin {' '.join(argv)} exited with code {rc}")
    return buf.getvalue()


def main():
    pkg = run.load_package()
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        tmp = Path(tmp)
        scan_cfg = config_for("c3_scan", "unpolarized", REF_SEED, {"mc": {"samples": SCAN_SAMPLES}})
        (tmp / "scan.json").write_text(json.dumps(scan_cfg), encoding="utf-8")
        _cli(pkg, argv_for("c3_scan", str(tmp / "scan.json"), str(tmp / "scan")))
        cols = checks.read_csv(tmp / "scan" / "records.csv")

        point_cfg = config_for("c3_point", "one_unpolarized", REF_SEED,
                               {"mc": {"samples": POINT_SAMPLES}})
        (tmp / "point.json").write_text(json.dumps(point_cfg), encoding="utf-8")
        report = json.loads(_cli(pkg, argv_for("c3_point", str(tmp / "point.json"), "")))

    reference = {
        "c3_scan": {
            "config": scan_cfg,
            "workers": WORKLOADS["c3_scan"]["workers"],
            "points": [
                [float(a), float(b), float(t), float(e)]
                for a, b, t, e in zip(cols["theta_a_deg"], cols["theta_b_deg"],
                                      cols["tdcs"], cols["tdcs_stderr"])
            ],
        },
        "c3_point": {"config": point_cfg, **report["amplitudes"]},
    }
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
