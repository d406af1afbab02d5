"""The three user actions the benchmark times, as e2espin configurations.

Each workload is a list of ``e2espin`` command lines (one *operation*
each) that together make one *pass*.  A pass is the unit ``wall_s``
times.  ``README.md`` in this directory says why each workload exists.
"""

from __future__ import annotations

import copy

BORN_SCENARIOS = ("perp", "antiparallel", "one_unpolarized", "unpolarized")

# theta_A = 20, theta_B = -60 degrees with unequal sharing: the two Coulomb
# waves get different xi, so 1F1 runs with two parameter sets in one c3_pair
POINT_THETAS = (20.0, -60.0)

WORKLOADS = {
    "born_scan": {
        "command": "scan",
        "workers": 1,
        "scenarios": BORN_SCENARIOS,
        "config": {
            "model": "pwba",
            "e0_ev": 54.4,
            "theta_min_deg": -180.0,
            "theta_max_deg": 180.0,
            "step_deg": 2.0,
        },
    },
    "c3_scan": {
        "command": "scan",
        "workers": 2,
        "scenarios": ("unpolarized",),
        "config": {
            "model": "c3",
            "e0_ev": 54.4,
            "theta_min_deg": -150.0,
            "theta_max_deg": 150.0,
            "step_deg": 30.0,
            "mc": {"samples": 20_000},
        },
    },
    "c3_point": {
        "command": "point",
        "workers": 1,
        "scenarios": ("one_unpolarized",),
        "config": {
            "model": "c3",
            "e0_ev": 54.4,
            "eb_ev": 5.0,
            "mc": {"samples": 1_000_000},
        },
    },
}

# Toy sizes for the smoke tests; the c3_scan toy grid {-150, 0, 150} is a
# subset of the full grid, so the stored reference map still covers it.
TOY_OVERRIDES = {
    "born_scan": {"step_deg": 30.0},
    "c3_scan": {"step_deg": 150.0, "mc": {"samples": 5_000}},
    "c3_point": {"mc": {"samples": 20_000}},
}

# Smallest run of each workload's code path, used to time set-up: it
# pays for any lazy initialisation a first call triggers.
SETUP_OVERRIDES = {
    "born_scan": {"step_deg": 90.0},
    "c3_scan": {"step_deg": 150.0, "mc": {"samples": 1_000}},
    "c3_point": {"mc": {"samples": 1_000}},
}


def _merge(base: dict, over: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in over.items():
        if isinstance(value, dict):
            out[key] = _merge(out.get(key, {}), value)
        else:
            out[key] = value
    return out


def config_for(workload: str, scenario: str, mc_seed: int, overrides: dict | None = None) -> dict:
    """The JSON configuration of one operation of ``workload``."""
    spec = WORKLOADS[workload]
    cfg = _merge(spec["config"], overrides or {})
    cfg["scenario"] = scenario
    cfg.setdefault("mc", {})["seed"] = int(mc_seed)
    return cfg


def argv_for(workload: str, config_path: str, output_dir: str) -> list[str]:
    """The ``e2espin`` command line of one operation."""
    spec = WORKLOADS[workload]
    if spec["command"] == "point":
        theta_a, theta_b = POINT_THETAS
        return ["point", "--model", "c3", "--config", config_path,
                "--theta-a", repr(theta_a), "--theta-b", repr(theta_b)]
    argv = ["scan", "--config", config_path, "--output-dir", output_dir]
    if spec["workers"] > 1:
        argv += ["--workers", str(spec["workers"])]
    return argv
