"""Command-line interface.

Subcommands
-----------
point      observables at a single (theta_A, theta_B)
scan       full angle-grid scan; writes CSV and PGM heatmaps
bell-sim   finite-statistics CHSH coincidence experiment at one point
validate   run all cross-checking suites

Exit codes: 0 success, 2 configuration error, 3 numeric or model
error, 4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bellsim
from .amplitudes import McConfig
from .bell import RATIO_BOUND, chsh_expectation
from .entanglement import (
    concurrence_closed_form,
    concurrence_wootters,
    linear_entropy,
    von_neumann_entropy,
)
from .kinematics import HARTREE_EV
from .scan import (
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
from .spin import AmplitudePair, DegenerateStateError, reduced_density, rho_mixed
from .validate import MAX_SEED_OFFSET, run_all_suites

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VALIDATION = 4


def _load_cfg(args) -> ScanConfig:
    """The config file's mapping with the command-line overrides, validated once."""
    data = read_config(args.config) if args.config else {}
    if isinstance(data, dict):  # parse_config rejects anything else
        data = dict(data)
        if args.model:
            data["model"] = args.model
        if getattr(args, "output_dir", None):
            data["output_dir"] = args.output_dir
        if args.seed is not None and isinstance(data.get("mc", {}), dict):
            data["mc"] = {**data.get("mc", {}), "seed": args.seed}
    return parse_config(data)


def cmd_point(args) -> int:
    cfg = _load_cfg(args)
    td, te, covs = amplitude_grids(cfg, args.theta_a, args.theta_b)
    obs = {k: v.item() for k, v in observables_from_amplitudes(cfg, td, te, covs).items()}
    p1, p2 = resolve_polarizations(cfg)
    td, te = complex(td), complex(te)

    closed = concurrence_closed_form(td, te, p1, p2)
    closed = None if closed is None else closed.item()
    try:
        rho = rho_mixed(AmplitudePair(td, te), p1, p2)
    except DegenerateStateError:  # an empty pair state: the core's zeros
        woot = s_vn = s_lin = chsh = 0.0
    else:
        woot = concurrence_wootters(rho)
        red = reduced_density(rho, "first")
        s_vn = von_neumann_entropy(red)
        s_lin = linear_entropy(red)
        chsh = chsh_expectation(rho)

    e0, eb, et = cfg.energies_hartree()
    report = {
        "model": cfg.model,
        "scenario": cfg.scenario,
        "theta_a_deg": args.theta_a,
        "theta_b_deg": args.theta_b,
        "energies_ev": {
            "e0": e0 * HARTREE_EV,
            "e_a": (e0 + et - eb) * HARTREE_EV,
            "e_b": eb * HARTREE_EV,
            "e_t": et * HARTREE_EV,
        },
        "amplitudes": {
            "t_d": {"re": td.real, "im": td.imag},
            "t_e": {"re": te.real, "im": te.imag},
        },
        "tdcs": {
            "scenario_tdcs": obs["tdcs"],
            "i_par": obs["i_par"],
            "i_anti_direct": obs["i_anti_direct"],
            "i_anti_exchange": obs["i_anti_exchange"],
            "i_anti": obs["i_anti"],
            "i_singlet": obs["i_singlet"],
            "i_triplet": obs["i_triplet"],
        },
        "concurrence": {"closed_form": closed, "wootters": woot},
        "entanglement_of_formation": obs["eof"],
        "entropy": {"von_neumann": s_vn, "linear": s_lin},
        "chsh": {
            "expectation": chsh,
            "bell_lhs": obs["bell_lhs"],
            "violated": obs["bell_lhs"] > RATIO_BOUND,
        },
        "asymmetry": {"value": obs["asymmetry"], "violated": obs["asymmetry"] > RATIO_BOUND},
    }
    if covs is not None:
        stderr = np.sqrt(np.clip(np.diagonal(covs), 0.0, None)).tolist()
        report["amplitudes"]["t_d"]["stderr_re"] = stderr[0]
        report["amplitudes"]["t_d"]["stderr_im"] = stderr[1]
        report["amplitudes"]["t_e"]["stderr_re"] = stderr[2]
        report["amplitudes"]["t_e"]["stderr_im"] = stderr[3]
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_scan(args) -> int:
    cfg = _load_cfg(args)
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    os.makedirs(cfg.output_dir, exist_ok=True)  # an unusable directory fails before the grid
    obs, thetas = run_scan(cfg, workers=args.workers)
    write_csv(obs, thetas, os.path.join(cfg.output_dir, "records.csv"))
    for name in ("tdcs", "concurrence", "eof", "bell_lhs", "asymmetry"):
        write_pgm(np.where(obs["measurable"], obs[name], 0.0),
                  os.path.join(cfg.output_dir, f"{name}.pgm"))
    n = len(thetas)
    print(f"scan complete: {n}x{n} grid, model {cfg.model}, scenario {cfg.scenario}")
    print(f"wrote records.csv and 5 PGM maps to {cfg.output_dir}")
    return EXIT_OK


def cmd_bell_sim(args) -> int:
    cfg = _load_cfg(args)
    if args.n_per_setting < 1:
        raise ConfigError(f"--n-per-setting must be at least 1, got {args.n_per_setting}")
    td, te, _ = amplitude_grids(cfg, args.theta_a, args.theta_b)
    p1, p2 = resolve_polarizations(cfg)
    rho = rho_mixed(AmplitudePair(complex(td), complex(te)), p1, p2)
    result = bellsim.simulate_chsh(rho, args.n_per_setting, cfg.mc.seed)
    report = {
        "model": cfg.model,
        "scenario": cfg.scenario,
        "theta_a_deg": args.theta_a,
        "theta_b_deg": args.theta_b,
        "n_per_setting": args.n_per_setting,
        "seed": cfg.mc.seed,
        "counts": [
            {"pp": c.n_pp, "pm": c.n_pm, "mp": c.n_mp, "mm": c.n_mm}
            for c in result["counts"]
        ],
        "correlators": result["correlators"],
        "chsh_estimate": result["chsh_estimate"],
        "chsh_stderr": result["chsh_stderr"],
        "chsh_exact": result["chsh_exact"],
        "violated": result["chsh_estimate"] > 2.0,
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_validate(args) -> int:
    try:  # before any suite runs: its budget, and the seeds it derives
        McConfig(samples=args.mc_samples, seed=args.seed).validated()
        McConfig(seed=args.seed + MAX_SEED_OFFSET).validated()
    except ValueError as exc:
        raise ConfigError(
            f"--mc-samples/--seed (the suites use seeds up to --seed + {MAX_SEED_OFFSET}): {exc}"
        ) from exc
    results = run_all_suites(mc_samples=args.mc_samples, seed=args.seed)
    for res in results:
        print(res.line())
    if all(r.passed for r in results):
        print(f"all {len(results)} suites passed")
        return EXIT_OK
    failed = sum(1 for r in results if not r.passed)
    print(f"{failed} of {len(results)} suites FAILED")
    return EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e2espin",
        description="Spin entanglement and TDCS observables for (e,2e) ionization of hydrogen",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, thetas=False):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--model", choices=("pwba", "c3"), help="override the amplitude model")
        p.add_argument("--seed", type=int, help="override the Monte Carlo seed")
        if thetas:
            p.add_argument("--theta-a", type=float, required=True, help="degrees")
            p.add_argument("--theta-b", type=float, required=True, help="degrees")

    p_point = sub.add_parser("point", help="observables at one angle pair")
    add_common(p_point, thetas=True)
    p_point.set_defaults(func=cmd_point)

    p_scan = sub.add_parser("scan", help="full angle-grid scan with CSV/PGM output")
    add_common(p_scan)
    p_scan.add_argument("--output-dir", help="directory for records.csv and PGM maps")
    p_scan.add_argument("--workers", type=int,
                        help="threads that compute sample blocks (default: the usable CPUs)")
    p_scan.set_defaults(func=cmd_scan)

    p_sim = sub.add_parser("bell-sim", help="simulated CHSH coincidence run at one point")
    add_common(p_sim, thetas=True)
    p_sim.add_argument("--n-per-setting", type=int, default=100_000)
    p_sim.set_defaults(func=cmd_bell_sim)

    p_val = sub.add_parser("validate", help="run all oracle cross-check suites")
    p_val.add_argument("--mc-samples", type=int, default=McConfig.samples)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, ValueError) as exc:  # DegenerateStateError is a ValueError
        print(f"numeric/model error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # e.g. a scan grid too fine to allocate
        print(f"numeric/model error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
