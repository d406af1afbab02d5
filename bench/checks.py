"""Output checks: each failed check counts the operation as failed.

The checks call only e2espin's scalar oracles and a reference file, never
the grid code under test:

* Born scans: sampled CSV rows against ``pwba_amplitudes``,
  ``tdcs_polarized`` and ``concurrence_wootters(rho_mixed(...))``; every
  PGM has the grid's shape.
* 3C scans: ``asymmetry == 1.0`` exactly wherever theta_B = -theta_A != 0
  (bitwise t_d == t_e), and TDCS within ``K_SIGMA`` combined standard
  errors of the stored reference map.
* 3C point: closed-form concurrence equals Wootters, and t_d, t_e lie
  within ``K_SIGMA`` combined standard errors of the stored reference.

The Monte Carlo checks are statistical, so an estimator that draws
different random numbers still passes while a biased one fails.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# combined-sigma limit of the Monte Carlo checks; see README.md for how
# often an unbiased estimator trips it
K_SIGMA = 5.0
# scalar-oracle tolerance (the package's own closed-form-vs-oracle suites)
ORACLE_TOL = 1e-10
# sampled rows per Born CSV
BORN_SAMPLES = 24
PGM_NAMES = ("tdcs", "concurrence", "eof", "bell_lhs", "asymmetry")
POLARIZATIONS = {
    "perp": ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
    "antiparallel": ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)),
    "one_unpolarized": ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0)),
    "unpolarized": ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
}


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def read_csv(path) -> dict:
    """records.csv as a dict of numpy columns."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    _require(all(len(r) == len(header) for r in rows), f"{path}: ragged CSV")
    cols = {}
    for k, name in enumerate(header):
        raw = [r[k] for r in rows]
        if name == "measurable":
            cols[name] = np.array([v == "true" for v in raw])
        else:
            cols[name] = np.array([float(v) for v in raw])
    return cols


def grid_degrees(cfg: dict) -> np.ndarray:
    lo, hi, step = cfg["theta_min_deg"], cfg["theta_max_deg"], cfg["step_deg"]
    return lo + step * np.arange(int(round((hi - lo) / step)) + 1)


def _check_grid(cols: dict, thetas: np.ndarray):
    n = len(thetas)
    _require(len(cols["theta_a_deg"]) == n * n, f"expected {n * n} rows, got {len(cols['theta_a_deg'])}")
    _require(np.array_equal(cols["theta_a_deg"], np.repeat(thetas, n)), "theta_a column is not the grid")
    _require(np.array_equal(cols["theta_b_deg"], np.tile(thetas, n)), "theta_b column is not the grid")


def check_pgms(out_dir, n: int):
    for name in PGM_NAMES:
        tokens = (Path(out_dir) / f"{name}.pgm").read_text(encoding="ascii").split()
        _require(tokens[:4] == ["P2", str(n), str(n), "255"], f"{name}.pgm header {tokens[:4]}")
        pix = np.array([int(t) for t in tokens[4:]])
        _require(pix.size == n * n, f"{name}.pgm has {pix.size} pixels, expected {n * n}")
        _require(pix.min() >= 0 and pix.max() <= 255, f"{name}.pgm pixel out of range")


def check_born_scan(e2espin, out_dir, cfg: dict, rng: np.random.Generator):
    """Sampled rows of a Born scan against the scalar oracles."""
    thetas = grid_degrees(cfg)
    n = len(thetas)
    cols = read_csv(Path(out_dir) / "records.csv")
    _check_grid(cols, thetas)
    check_pgms(out_dir, n)
    p1, p2 = (np.array(p) for p in POLARIZATIONS[cfg["scenario"]])
    hartree = e2espin.HARTREE_EV
    e0, et = cfg["e0_ev"] / hartree, cfg.get("et_ev", -13.605693) / hartree
    eb = 0.5 * (e0 + et)  # the Born workload uses equal sharing
    tdcs_peak = float(np.abs(cols["tdcs"]).max())
    for idx in rng.choice(n * n, size=min(BORN_SAMPLES, n * n), replace=False):
        ta, tb = cols["theta_a_deg"][idx], cols["theta_b_deg"][idx]
        kin = e2espin.build_coplanar(e0, eb, math.radians(ta), math.radians(tb), et)
        amps = e2espin.pwba_amplitudes(kin)
        tdcs = e2espin.tdcs_polarized(amps, float(p1 @ p2), kin)
        conc = e2espin.concurrence_wootters(e2espin.rho_mixed(amps, p1, p2))
        got_tdcs, got_conc = cols["tdcs"][idx], cols["concurrence"][idx]
        _require(abs(got_tdcs - tdcs) <= ORACLE_TOL * max(abs(tdcs), 1e-6 * tdcs_peak),
                 f"tdcs at ({ta}, {tb}): {got_tdcs!r} vs oracle {tdcs!r}")
        _require(abs(got_conc - conc) <= ORACLE_TOL,
                 f"concurrence at ({ta}, {tb}): {got_conc!r} vs Wootters {conc!r}")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_c3_scan(out_dir, cfg: dict, reference: dict):
    """Exact exchange symmetry and agreement with the reference TDCS map."""
    thetas = grid_degrees(cfg)
    cols = read_csv(Path(out_dir) / "records.csv")
    _check_grid(cols, thetas)
    check_pgms(out_dir, len(thetas))
    ta, tb = cols["theta_a_deg"], cols["theta_b_deg"]
    sym = (tb == -ta) & (ta != 0.0)
    bad = np.flatnonzero(sym & (cols["asymmetry"] != 1.0))
    _require(bad.size == 0, f"asymmetry != 1.0 at theta_B = -theta_A: rows {bad.tolist()}")
    ref = {(p[0], p[1]): (p[2], p[3]) for p in reference["c3_scan"]["points"]}
    for k in range(len(ta)):
        key = (float(ta[k]), float(tb[k]))
        _require(key in ref, f"no reference TDCS at {key}")
        ref_tdcs, ref_err = ref[key]
        tdcs, err = cols["tdcs"][k], cols["tdcs_stderr"][k]
        _require(math.isfinite(tdcs) and err >= 0.0, f"tdcs {tdcs!r} +- {err!r} at {key}")
        sigma = math.hypot(err, ref_err)
        _require(abs(tdcs - ref_tdcs) <= K_SIGMA * sigma,
                 f"tdcs at {key}: {tdcs:.6g} vs reference {ref_tdcs:.6g} "
                 f"(> {K_SIGMA} x {sigma:.3g})")


def check_c3_point(report: dict, reference: dict):
    """Closed form against Wootters, and amplitudes against the reference."""
    conc = report["concurrence"]
    _require(conc["closed_form"] is not None, "no closed-form concurrence")
    _require(abs(conc["closed_form"] - conc["wootters"]) <= ORACLE_TOL,
             f"closed-form concurrence {conc['closed_form']!r} vs Wootters {conc['wootters']!r}")
    ref = reference["c3_point"]
    for amp in ("t_d", "t_e"):
        for part in ("re", "im"):
            got, err = report["amplitudes"][amp][part], report["amplitudes"][amp][f"stderr_{part}"]
            want, ref_err = ref[amp][part], ref[amp][f"stderr_{part}"]
            sigma = math.hypot(err, ref_err)
            _require(abs(got - want) <= K_SIGMA * sigma,
                     f"{amp}.{part} = {got:.6g} vs reference {want:.6g} (> {K_SIGMA} x {sigma:.3g})")


def scan_rel_err(out_dir) -> float:
    """Median tdcs_stderr / tdcs over the measurable points of a 3C scan."""
    cols = read_csv(Path(out_dir) / "records.csv")
    keep = cols["measurable"] & (cols["tdcs"] > 0.0)
    return float(np.median(cols["tdcs_stderr"][keep] / cols["tdcs"][keep]))


def point_rel_err(report: dict) -> float:
    """|sigma(t_d)| / |t_d| of a 3C point report."""
    td = report["amplitudes"]["t_d"]
    return math.hypot(td["stderr_re"], td["stderr_im"]) / math.hypot(td["re"], td["im"])
