"""Smoke tests of the benchmark itself, at toy sizes.

    python3 -m pytest -q bench/test_smoke.py

Run from the repository root.  They check that each workload runs and
passes its output checks, that every metric BENCHMARK.json names is
emitted with its unit, that tracing reaches each layer where callers look
functions up, and that the benchmark refuses to run without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_the_runner():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_toy_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for m in spec:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float)) and value >= 0
        if trace == "0":
            assert value > 0


def test_tracer_wraps_where_callers_look_up():
    pkg = run.load_package()
    originals = {
        (pkg.c3mc, "kummer_1f1"): pkg.c3mc.kummer_1f1,
        (pkg.c3mc, "c3_pair"): pkg.c3mc.c3_pair,
        (pkg.scan, "wootters_batch"): pkg.scan.wootters_batch,
        (pkg.cli, "write_csv"): pkg.cli.write_csv,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, attr), fn in originals.items():
            assert getattr(mod, attr) is not fn
            assert getattr(mod, attr).__wrapped__ is fn
        assert pkg.scan.write_csv is pkg.cli.write_csv
    finally:
        tracer.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn


def test_self_time_excludes_children():
    spans = [
        {"id": 1, "name": "c3mc.c3_pair", "parent": None, "thread": 1, "start": 0.0, "end": 1.0,
         "samples": 1000, "rejected": 0, "rel_err": 0.5},
        {"id": 2, "name": "special.kummer_1f1", "parent": 1, "thread": 1, "start": 0.1,
         "end": 0.4, "args": 4000},
        {"id": 3, "name": "special.kummer_1f1", "parent": 1, "thread": 1, "start": 0.5,
         "end": 0.7, "args": 4000},
    ]
    m = tracing.layer_metrics(spans, workers=1)
    assert m["c3mc.c3_pair.self_s"] == pytest.approx(0.5)
    assert m["special.kummer_1f1.self_s"] == pytest.approx(0.5)
    assert m["special.kummer_1f1.args_per_s"] == pytest.approx(16000.0)
    assert m["c3mc.samples_per_s"] == pytest.approx(1000.0)
    assert m["c3mc.efficiency"] == pytest.approx(4.0)
    assert tracing.layers_seen(spans) == {"c3mc", "special"}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "c3_point", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
