#!/usr/bin/env python3
"""Benchmark of e2espin's three user actions, end to end and by layer.

    python3 bench/run.py --workload c3_point --seed 1 --seconds 42 --trace 0

Run it from the repository root.  It imports the package from ``src/``
and drives ``e2espin.cli.main`` in-process, one operation at a time (a
closed loop with one client).  Workloads are defined in ``workloads.py``;
``README.md`` explains each one and every metric.

With ``--trace 0`` it times passes of the workload for ``--seconds``
seconds and reports the end-to-end metrics.  With ``--trace 1`` it runs
the layer microbenchmarks, one untraced pass, then traced passes, and
reports the per-layer metrics.  Every operation's output is checked
(``checks.py``); a failed check counts the operation as failed.

Stdout ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A result file with the environment, every pass and (when
tracing) every span goes to ``.bench_out/results/``.  Exit codes: 0 for a
result, 2 when the package cannot be set up, 3 when a layer expected on
the workload records no spans.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import tracing
from workloads import SETUP_OVERRIDES, TOY_OVERRIDES, WORKLOADS, argv_for, config_for

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
MICRO_SECONDS = 0.5
MICRO_ARGS = 1 << 14
FREE_LIMIT_SAMPLES = 1 << 16

END_TO_END = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "special.kummer_1f1.calls": "count",
    "special.kummer_1f1.args": "count",
    "special.kummer_1f1.self_s": "s",
    "special.kummer_1f1.args_per_s": "1/s",
    "special.series.evals_per_s": "1/s",
    "special.asym.evals_per_s": "1/s",
    "c3mc.c3_pair.calls": "count",
    "c3mc.samples": "count",
    "c3mc.c3_pair.self_s": "s",
    "c3mc.samples_per_s": "1/s",
    "c3mc.rejected_fraction": "fraction",
    "c3mc.efficiency": "1/s",
    "c3mc.free_limit.samples_per_s": "1/s",
    "scan.amplitude_grids.s": "s",
    "scan.observables.s": "s",
    "scan.write_csv.s": "s",
    "scan.write_pgm.s": "s",
    "scan.records_to_grids.s": "s",
    "scan.output_bytes": "bytes",
    "scan.point_latency_s.p50": "s",
    "scan.point_latency_s.p90": "s",
    "scan.worker_busy_fraction": "fraction",
    "amplitudes.s": "s",
    "entanglement.wootters_batch.calls": "count",
    "entanglement.wootters_batch.matrices": "count",
    "entanglement.wootters_batch.s": "s",
    "cli.point.s": "s",
    "cli.point.non_mc_s": "s",
    "trace.overhead": "ratio",
    "mc_efficiency": "1/s",
}


class SetupError(Exception):
    """The package under test cannot be imported or run."""


class TraceError(Exception):
    """A layer expected on the workload recorded no spans."""


def load_package():
    """Import e2espin afresh from ROOT/src, dropping any earlier import."""
    src = ROOT / "src"
    if not (src / "e2espin" / "__init__.py").is_file():
        raise SetupError(f"no e2espin package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "e2espin" or n.startswith("e2espin.")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module("e2espin")
        importlib.import_module("e2espin.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import e2espin: {exc}") from exc
    if Path(pkg.__file__).resolve().parent != (src / "e2espin").resolve():
        raise SetupError(f"imported e2espin from {pkg.__file__}, not from {src}")
    return pkg


def derive_seed(seed: int, index: int) -> int:
    """Monte Carlo seed of pass ``index``; no two passes repeat work."""
    return (seed * 1_000_003 + index) % (1 << 63)


def points_of(workload: str, cfg: dict) -> int:
    if WORKLOADS[workload]["command"] == "point":
        return 1
    return len(checks.grid_degrees(cfg)) ** 2


class Runner:
    """Runs and checks operations of one workload, counting failures."""

    def __init__(self, workload: str, seed: int, toy: bool, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.overrides = TOY_OVERRIDES[workload] if toy else {}
        self.work_dir = work_dir
        self.reference = checks.load_reference()
        self.pkg = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.n_passes = 0
        self.n_setups = 0

    def _operation(self, cfg: dict, tracer=None):
        """Run one CLI call; returns (seconds, exit code or exception, stdout, op dir)."""
        op_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        cfg_path = op_dir / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        argv = argv_for(self.workload, str(cfg_path), str(op_dir / "out"))
        buf = io.StringIO()
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                status = self.pkg.cli.main(argv)
        except Exception as exc:  # judged by the caller, like a non-zero exit
            status = exc
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        return elapsed, status, buf.getvalue(), op_dir

    def measure_setup(self, repeats: int) -> list[float]:
        """Import, config parse and one smallest operation, ``repeats`` times."""
        times = []
        spec = WORKLOADS[self.workload]
        for _ in range(repeats):
            self.n_setups += 1
            cfg = config_for(self.workload, spec["scenarios"][-1],
                             derive_seed(self.seed, -self.n_setups), SETUP_OVERRIDES[self.workload])
            t0 = time.perf_counter()
            self.pkg = load_package()
            self.pkg.parse_config(cfg)
            _, status, _, op_dir = self._operation(cfg)
            times.append(time.perf_counter() - t0)
            shutil.rmtree(op_dir)
            if status != 0:
                raise SetupError(f"set-up operation ended with {status!r}")
        return times

    def _check(self, cfg: dict, status, stdout: str, op_dir: Path, rng) -> float | None:
        """Check one operation's output; returns its relative MC error."""
        if status != 0:
            cause = status if isinstance(status, BaseException) else None
            raise checks.CheckFailed(f"operation ended with {status!r}") from cause
        out = op_dir / "out"
        if self.workload == "born_scan":
            checks.check_born_scan(self.pkg, out, cfg, rng)
            return None
        if self.workload == "c3_scan":
            checks.check_c3_scan(out, cfg, self.reference)
            return checks.scan_rel_err(out)
        report = json.loads(stdout)
        checks.check_c3_point(report, self.reference)
        return checks.point_rel_err(report)

    def run_pass(self, tracer=None) -> dict:
        index = self.n_passes
        self.n_passes += 1
        mc_seed = derive_seed(self.seed, index)
        wall = 0.0
        points = 0
        out_bytes = 0
        rel_errs = []
        for k, scenario in enumerate(WORKLOADS[self.workload]["scenarios"]):
            cfg = config_for(self.workload, scenario, mc_seed, self.overrides)
            rng = np.random.default_rng([mc_seed, k])
            self.attempted += 1
            op_dir = None
            try:
                elapsed, status, stdout, op_dir = self._operation(cfg, tracer)
                wall += elapsed
                rel_err = self._check(cfg, status, stdout, op_dir, rng)
            except Exception:  # a failed operation is counted, and the run goes on
                self.failed += 1
                self.errors.append(f"pass {index} {scenario}: {traceback.format_exc(limit=3)}")
            else:
                points += points_of(self.workload, cfg)
                if rel_err is not None:
                    rel_errs.append(rel_err)
                out_bytes += sum(f.stat().st_size for f in (op_dir / "out").glob("*"))
            finally:
                if op_dir is not None:
                    shutil.rmtree(op_dir)
        return {
            "index": index,
            "mc_seed": mc_seed,
            "wall_s": wall,
            "points": points,
            "output_bytes": out_bytes,
            "rel_err": statistics.median(rel_errs) if rel_errs else None,
            "spans": tracer.take() if tracer is not None else None,
        }

    def run_for(self, seconds: float, tracer=None, between=None) -> list[dict]:
        """Passes until the next one would end past ``seconds`` (at least one).

        ``between`` runs after each pass and counts toward the time.
        """
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(tracer))
            if between is not None:
                between()
            spent = time.perf_counter() - start
            if spent + spent / len(passes) > seconds:
                return passes


def mc_efficiency(p: dict) -> float:
    """1 / (rel_err^2 * wall_s) of one pass; 0 without Monte Carlo."""
    return 1.0 / (p["rel_err"] ** 2 * p["wall_s"]) if p["rel_err"] else 0.0


def micro_benchmarks(pkg, seed: int) -> dict:
    """Layer rates measured on their own, outside the workload."""
    hartree = pkg.HARTREE_EV
    e0, et = 54.4 / hartree, -13.605693 / hartree
    k = math.sqrt(e0 + et)  # equal sharing: each electron has (e0 + et) / 2
    rng = np.random.default_rng(seed % (1 << 63))
    out = {}
    for branch, (lo, hi) in (("series", (0.0, 21.0)), ("asym", (60.0, 200.0))):
        z = 1j * rng.uniform(lo, hi, MICRO_ARGS)
        evals = 0
        t0 = time.perf_counter()
        while evals == 0 or time.perf_counter() - t0 < MICRO_SECONDS:
            for a in (1j / k, -1j / k):
                pkg.special.kummer_1f1(a, 1.0, z)
                evals += z.size
        out[f"special.{branch}.evals_per_s"] = evals / (time.perf_counter() - t0)

    theta_a, theta_b = (math.radians(t) for t in (20.0, -60.0))
    kin = pkg.build_coplanar(e0, 5.0 / hartree, theta_a, theta_b, et)
    samples = 0
    t0 = time.perf_counter()
    while samples == 0 or time.perf_counter() - t0 < MICRO_SECONDS:
        cfg = pkg.McConfig(samples=FREE_LIMIT_SAMPLES, seed=derive_seed(seed, samples),
                           debug_free_limit=True)
        samples += pkg.c3_pair(kin, cfg).n_samples
    out["c3mc.free_limit.samples_per_s"] = samples / (time.perf_counter() - t0)
    return out


def end_to_end_metrics(passes: list[dict], setup_times: list[float]) -> dict:
    total = sum(p["wall_s"] for p in passes)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "points_per_s": sum(p["points"] for p in passes) / total if total > 0 else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    start = time.perf_counter()
    metrics = micro_benchmarks(runner.pkg, runner.seed)
    untraced = runner.run_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        remaining = seconds - (time.perf_counter() - start)
        passes = runner.run_for(remaining, tracer)
    finally:
        tracer.uninstall()

    seen = set().union(*(tracing.layers_seen(p["spans"]) for p in passes))
    missing = [layer for layer in tracing.EXPECTED_LAYERS[runner.workload] if layer not in seen]
    if missing:
        raise TraceError(f"{runner.workload}: no spans recorded in layer(s) {', '.join(missing)}")
    names = {s["name"] for p in passes for s in p["spans"]}
    for name in tracing.NAMED_SPANS[runner.workload]:
        if name not in names:
            print(f"warning: {runner.workload}: no {name} spans; its metrics read 0",
                  file=sys.stderr)

    workers = WORKLOADS[runner.workload]["workers"]
    per_pass = [tracing.layer_metrics(p["spans"], workers) for p in passes]
    for name in per_pass[0]:
        metrics[name] = statistics.median(m[name] for m in per_pass)
    metrics["scan.output_bytes"] = statistics.median(p["output_bytes"] for p in passes)
    traced_wall = statistics.median(p["wall_s"] for p in passes)
    metrics["trace.overhead"] = traced_wall / untraced["wall_s"] if untraced["wall_s"] > 0 else 0.0
    metrics["mc_efficiency"] = mc_efficiency(untraced)
    return metrics, [untraced] + passes


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "toy": args.toy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
    }


def run(args) -> tuple[dict, dict]:
    """Returns (result line, result file contents)."""
    work = OUT_DIR / "work"
    work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        runner = Runner(args.workload, args.seed, args.toy, Path(tmp))
        setup_times = runner.measure_setup(SETUP_REPEATS)
        if args.trace:
            values, passes = traced_metrics(runner, args.seconds)
            units = PER_LAYER
        else:
            # one more set-up after each pass spreads the set-up samples
            # over the run, so a slow spell of the host skews fewer of them
            passes = runner.run_for(args.seconds,
                                    between=lambda: setup_times.extend(runner.measure_setup(1)))
            values = end_to_end_metrics(passes, setup_times)
            units = END_TO_END
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    report = {
        "environment": environment(args),
        "result": result,
        "error_rate": runner.failed / runner.attempted,
        "mc_efficiency": statistics.median(mc_efficiency(p) for p in passes if p["spans"] is None),
        "setup_s_runs": setup_times,
        "passes": passes,
        "errors": runner.errors,
    }
    return result, report


def summary(report: dict) -> str:
    env, result = report["environment"], report["result"]
    parts = [f"{env['workload']} seed={env['seed']} trace={int(env['trace'])}",
             f"passes={len(report['passes'])}",
             f"error_rate={report['error_rate']:.4g} ({result['failed']}/{result['attempted']})"]
    if report["mc_efficiency"]:
        parts.append(f"mc_efficiency={report['mc_efficiency']:.6g} 1/s")
    if not env["trace"]:
        parts += [f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    return "  ".join(parts)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="smoke-test sizes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, report = run(args)
    except SetupError as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 2
    except TraceError as exc:
        print(f"bench: trace failed: {exc}", file=sys.stderr)
        return 3
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(results / name, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for err in report["errors"]:
        print(err, file=sys.stderr)
    print(summary(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
