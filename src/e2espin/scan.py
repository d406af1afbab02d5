"""Angle-grid scans of TDCS and entanglement observables, with file output.

A scan evaluates, on a square (theta_A, theta_B) grid, the
spin-unresolved TDCS for the configured initial polarizations together
with the pair concurrence, entanglement of formation, the
cross-section form of Bell's inequality and the spin asymmetry.
Points whose TDCS falls below ``threshold_frac`` times the grid
maximum are flagged unmeasurable, mimicking a detection threshold: an
experiment sees zeros there no matter what the entanglement measures
do.

``observables_from_amplitudes`` is the one place observables are
assembled: it maps amplitude arrays of any grid shape to a dict of
arrays of that shape.  ``point`` and ``bell-sim`` call it on a 1x1 grid.

Polarization scenarios
----------------------
perp            P1 = z, P2 = x (fully polarized, perpendicular)
antiparallel    P1 = z, P2 = -z (fully polarized)
one_unpolarized P1 = z, P2 = 0
unpolarized     P1 = P2 = 0
custom          explicit P1, P2 with |P| <= 1

The four named scenarios use the closed-form concurrences of
``entanglement.concurrence_closed_form``.  Only ``custom``
polarizations with either magnitude strictly between 0 and 1 go
through the batched Wootters concurrence of the averaged density
matrix.

Output files are deterministic byte for byte: numbers are written in
shortest round-trip decimal form, a 3C point's random stream follows
from its kinematics alone (``c3mc``), and assembly is ordered no matter
how many workers run the grid.

A 3C scan estimates one cell per ``c3mc.estimate_key`` and fills the
others: cells with equal keys share one estimate, with t_d and t_e
exchanged where the key says the electrons are listed in the other
order.  The key is ``c3mc``'s alone (relabeling the electrons at equal
sharing, the reflection (theta_A, theta_B) -> (-theta_A, -theta_B),
-180 and +180 degrees as one direction), so an estimate of a filled
cell would give exactly its bits and the fill changes no output byte.
At equal sharing about a quarter of the cells are estimated.  A filled
cell's error is its source's, fully correlated: such cells are not
independent samples.

A 3C scan hands its estimated cells to ``c3mc.c3_pairs`` in one call,
which computes their sample blocks on one pool of up to ``workers``
threads (by default the usable CPUs), capped by the usable CPUs and the
blocks.  A thread reuses one workspace from block to block, so the
working memory stays within the threads times one sliced block.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import c3mc
from .amplitudes import HYDROGEN_ET_EV, McConfig, pwba_grid
from .entanglement import concurrence_closed_form, entanglement_of_formation, wootters_batch
from .kinematics import HARTREE_EV, build_coplanar, tdcs_prefactor
from .spin import is_empty_pair, pair_matrix, polarization_matrix

__all__ = [
    "ConfigError",
    "ScanConfig",
    "SCENARIOS",
    "parse_config",
    "read_config",
    "resolve_polarizations",
    "amplitude_grids",
    "observables_from_amplitudes",
    "run_scan",
    "write_csv",
    "write_pgm",
]

SCENARIOS = ("perp", "antiparallel", "one_unpolarized", "unpolarized", "custom")


class ConfigError(ValueError):
    """A scan configuration file is invalid."""


@dataclass(frozen=True)
class ScanConfig:
    """A validated H(1s) configuration; ``eb_ev`` None means equal energy sharing."""

    model: str = "pwba"
    e0_ev: float = 54.4
    eb_ev: float | None = None
    scenario: str = "unpolarized"
    p1: tuple | None = None
    p2: tuple | None = None
    theta_min_deg: float = -180.0
    theta_max_deg: float = 180.0
    step_deg: float = 2.0
    threshold_frac: float = 0.05
    mc: McConfig = McConfig()
    output_dir: str = "."

    def energies_hartree(self) -> tuple[float, float, float]:
        """(e0, e_b, e_t) in hartree."""
        e0 = self.e0_ev / HARTREE_EV
        et = HYDROGEN_ET_EV / HARTREE_EV
        if self.eb_ev is not None:
            eb = self.eb_ev / HARTREE_EV
        else:
            eb = 0.5 * (e0 + et)
        return e0, eb, et

    def grid_deg(self) -> np.ndarray:
        n = int(round((self.theta_max_deg - self.theta_min_deg) / self.step_deg))
        return self.theta_min_deg + self.step_deg * np.arange(n + 1)


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _convert(key: str, value, conv):
    """``conv(value)``, with a ConfigError naming ``key`` when it fails."""
    try:
        return conv(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} has an invalid value {value!r}: {exc}") from exc


def _real(value) -> float:
    if isinstance(value, bool):
        raise TypeError("expected a number, not a boolean")
    if isinstance(value, str):  # float("54.4") would succeed
        raise TypeError("expected a number, not a string")
    x = float(value)
    if not math.isfinite(x):  # Python's json accepts NaN and Infinity
        raise ValueError("expected a finite number")
    return x


def _integer(value) -> int:
    if isinstance(value, bool) or int(value) != value:
        raise ValueError("expected an integer")
    return int(value)


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _vector(value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError("expected an array")
    return tuple(_real(x) for x in value)


def _nullable(conv):
    return lambda value: None if value is None else conv(value)


# the settable keys and their converters (a nested table for a nested
# object); the defaults live on the dataclass fields
_CONVERTERS = {
    "model": _string, "e0_ev": _real, "eb_ev": _nullable(_real),
    "scenario": _string, "p1": _nullable(_vector), "p2": _nullable(_vector),
    "theta_min_deg": _real, "theta_max_deg": _real, "step_deg": _real,
    "threshold_frac": _real, "output_dir": _string,
    "mc": {"samples": _integer, "seed": _integer, "r_max": _real, "debug_free_limit": _flag},
}


def _converted(data: dict, converters: dict, prefix: str = "") -> dict:
    """The keys ``data`` gives, each passed through its converter."""
    _require(isinstance(data, dict), f"{prefix[:-1] or 'configuration'} must be a JSON object")
    unknown = set(data) - set(converters)
    _require(not unknown, f"unknown configuration key(s): "
                          f"{', '.join(prefix + key for key in sorted(unknown))}")
    return {key: _converted(value, converters[key], f"{prefix}{key}.")
            if isinstance(converters[key], dict) else _convert(prefix + key, value, converters[key])
            for key, value in data.items()}


# the most steps of an angle axis: 0.01 degrees over the full circle
_MAX_STEPS = 36_000


def parse_config(data: dict) -> ScanConfig:
    """Validate a configuration mapping; absent keys take the field defaults."""
    values = _converted(data, _CONVERTERS)
    try:
        values["mc"] = McConfig(**values.get("mc", {})).validated()
    except ValueError as exc:
        raise ConfigError(f"mc: {exc}") from exc
    cfg = ScanConfig(**values)

    _require(cfg.model in ("pwba", "c3"), f"model must be 'pwba' or 'c3', got {cfg.model!r}")
    _require(cfg.e0_ev > 0.0, f"e0_ev must be positive, got {cfg.e0_ev}")
    if cfg.eb_ev is not None:
        _require(cfg.eb_ev > 0.0, f"eb_ev must be positive, got {cfg.eb_ev}")
    e0, eb, et = cfg.energies_hartree()
    _require(e0 + et - eb > 0.0, "closed channel: e0 + et - eb must be positive")
    _require(cfg.scenario in SCENARIOS,
             f"scenario must be one of {SCENARIOS}, got {cfg.scenario!r}")
    if cfg.scenario == "custom":
        _require(cfg.p1 is not None and cfg.p2 is not None,
                 "custom scenario requires p1 and p2")
        for name, p in (("p1", cfg.p1), ("p2", cfg.p2)):
            _convert(name, p, lambda v: polarization_matrix(v, name))
    else:
        _require(cfg.p1 is None and cfg.p2 is None,
                 "p1/p2 are only valid with the custom scenario")
    # beyond +-180 deg a grid would repeat directions under new labels
    _require(-180.0 <= cfg.theta_min_deg < cfg.theta_max_deg <= 180.0,
             "theta range must satisfy -180 <= theta_min_deg < theta_max_deg <= 180")
    _require(cfg.step_deg > 0.0, f"step_deg must be positive, got {cfg.step_deg}")
    span = cfg.theta_max_deg - cfg.theta_min_deg
    _require(span / cfg.step_deg < _MAX_STEPS + 0.5,
             f"step_deg {cfg.step_deg} gives more than {_MAX_STEPS + 1} angles per axis "
             f"(0.01 degrees over the full circle)")
    n = round(span / cfg.step_deg)
    _require(n >= 1 and abs(n * cfg.step_deg - span) < 1e-9,
             "step_deg must divide the theta range")
    _require(0.0 <= cfg.threshold_frac <= 1.0,
             f"threshold_frac must be in [0, 1], got {cfg.threshold_frac}")
    return cfg


def read_config(path):
    """The JSON value of a configuration file, not yet validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"configuration file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return data


def resolve_polarizations(cfg: ScanConfig) -> tuple[np.ndarray, np.ndarray]:
    """Initial polarization vectors (P1, P2) for the configured scenario."""
    if cfg.scenario == "perp":
        return np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    if cfg.scenario == "antiparallel":
        return np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
    if cfg.scenario == "one_unpolarized":
        return np.array([0.0, 0.0, 1.0]), np.zeros(3)
    if cfg.scenario == "unpolarized":
        return np.zeros(3), np.zeros(3)
    return np.asarray(cfg.p1, dtype=float), np.asarray(cfg.p2, dtype=float)


# the (Re t_d, Im t_d, Re t_e, Im t_e) order after relabeling the electrons
_RELABELED = [2, 3, 0, 1]


def _c3_amplitude_grid(cfg: ScanConfig, ta_rad: np.ndarray, tb_rad: np.ndarray,
                       workers: int | None):
    """Per-point 3C amplitudes and TDCS-gradient covariances.

    Cells with equal ``c3mc.estimate_key`` share one estimate: the first
    of them in row-major order is estimated, and the others take its
    amplitudes, with the electrons relabeled where their order differs.
    """
    e0, eb, et = cfg.energies_hartree()
    # key -> (the first cell's kinematics and order, [(cell, order)])
    groups = {}
    for cell in np.ndindex(len(ta_rad), len(tb_rad)):
        kin = build_coplanar(e0, eb, float(ta_rad[cell[0]]), float(tb_rad[cell[1]]), et)
        key, swapped = c3mc.estimate_key(kin)
        groups.setdefault(key, (kin, swapped, []))[2].append((cell, swapped))

    estimates = c3mc.c3_pairs([kin for kin, _, _ in groups.values()], cfg.mc, workers)
    td = np.empty((len(ta_rad), len(tb_rad)), dtype=complex)
    te = np.empty_like(td)
    covs = np.empty(td.shape + (4, 4))
    for (_, first, cells), est in zip(groups.values(), estimates):
        relabeled_cov = est.cov[np.ix_(_RELABELED, _RELABELED)]
        for cell, swapped in cells:
            if swapped != first:
                td[cell], te[cell], covs[cell] = est.t_e, est.t_d, relabeled_cov
            else:
                td[cell], te[cell], covs[cell] = est.t_d, est.t_e, est.cov
    return td, te, covs


def _wootters_grid(td, te, p1, p2) -> np.ndarray:
    """Pointwise Wootters concurrence of the averaged pair density matrix, 0 where empty."""
    rhos = pair_matrix(td, te, p1, p2)
    tr = np.trace(rhos, axis1=-2, axis2=-1).real
    ok = ~is_empty_pair(tr, td, te)
    out = np.zeros(td.shape)
    out[ok] = wootters_batch(rhos[ok] / tr[ok, None, None])
    return out


def amplitude_grids(cfg: ScanConfig, workers: int | None = None, theta_a_deg=None,
                    theta_b_deg=None):
    """Amplitude arrays (t_d, t_e, covariances) on a (theta_A, theta_B) grid.

    Both angle axes default to the configured grid; ``point`` passes one
    angle each.  A 3C estimate depends on its own angles only, not on the
    grid around it.  Cells with equal ``c3mc.estimate_key`` share one
    estimate, with t_d and t_e exchanged and the covariance reordered
    where the electrons are listed in the other order; the fill is bit
    for bit what estimating the filled cell gives, and an equal-sharing
    grid estimates about a quarter of its cells.  3C computes its sample
    blocks on ``workers`` threads (``c3mc.c3_pairs``).  The covariance
    array is None for the analytic Born model.  The grids do not depend
    on the polarization scenario, so one evaluation can feed several
    scenario assemblies.
    """
    grid = cfg.grid_deg()
    ta = np.deg2rad(grid if theta_a_deg is None else theta_a_deg)
    tb = np.deg2rad(grid if theta_b_deg is None else theta_b_deg)
    e0, eb, et = cfg.energies_hartree()
    if cfg.model == "pwba":
        td, te = pwba_grid(e0, eb, et, ta, tb)
        return td, te, None
    if cfg.model == "c3":
        return _c3_amplitude_grid(cfg, ta, tb, workers)
    raise ValueError(f"unknown amplitude model {cfg.model!r}")


def observables_from_amplitudes(cfg: ScanConfig, td, te, covs=None) -> dict:
    """Scenario observables and masking from amplitude grids.

    Returns a dict of arrays with the grid's shape: ``tdcs`` (for the
    scenario's polarizations), the spin-resolved parts ``i_par``,
    ``i_anti``, ``i_anti_direct``, ``i_anti_exchange``, ``i_singlet``,
    ``i_triplet``, then ``concurrence``, ``eof``, ``bell_lhs``,
    ``asymmetry``, ``measurable`` and, given covariances,
    ``tdcs_stderr`` (delta method).  Points where the pair state is empty
    by ``spin``'s rule give 0 for ``concurrence``, ``eof`` and ``bell_lhs``.
    """
    e0, eb, et = cfg.energies_hartree()
    p1, p2 = resolve_polarizations(cfg)
    p_dot = float(p1 @ p2)
    p1y_p2y = float(p1[1] * p2[1])

    kin0 = build_coplanar(e0, eb, 0.0, math.radians(90.0), et)
    pref = tdcs_prefactor(kin0)  # depends on the energies only

    abs_d2 = np.abs(td) ** 2
    abs_e2 = np.abs(te) ** 2
    ab2 = abs_d2 + abs_e2
    re = (td * np.conj(te)).real
    i_anti = pref * ab2
    i_par = pref * np.abs(td - te) ** 2
    u = ab2 - (1.0 + p_dot) * re  # the pair weight Tr(T rho_in T^dag)
    tdcs = pref * u

    num = i_anti * (1.0 - p_dot) - i_par * (1.0 - p1y_p2y)
    den = i_anti * (1.0 - p_dot) + i_par * (1.0 + p_dot)  # 2 pref u
    flux = ~is_empty_pair(u, td, te)
    bell_lhs = np.where(flux, num, 0.0) / np.where(flux, den, 1.0)

    den_a = i_anti + i_par
    has_flux = den_a > 0.0
    asym = np.where(has_flux, i_anti - i_par, 0.0) / np.where(has_flux, den_a, 1.0)

    conc = concurrence_closed_form(td, te, p1, p2)
    if conc is None:
        conc = _wootters_grid(td, te, p1, p2)

    grid_max = float(tdcs.max())
    threshold = cfg.threshold_frac * grid_max
    measurable = tdcs >= threshold if grid_max > 0.0 else np.zeros_like(tdcs, dtype=bool)

    obs = {
        "tdcs": tdcs,
        "i_par": i_par,
        "i_anti": i_anti,
        "i_anti_direct": pref * abs_d2,
        "i_anti_exchange": pref * abs_e2,
        "i_singlet": 0.25 * pref * np.abs(td + te) ** 2,
        "i_triplet": 0.75 * i_par,
        "concurrence": conc,
        "eof": entanglement_of_formation(conc),
        "bell_lhs": bell_lhs,
        "asymmetry": asym,
        "measurable": measurable,
    }
    if covs is not None:
        c = 1.0 + p_dot
        grad = pref * np.stack(
            [
                2.0 * td.real - c * te.real,
                2.0 * td.imag - c * te.imag,
                2.0 * te.real - c * td.real,
                2.0 * te.imag - c * td.imag,
            ],
            axis=-1,
        )
        var = np.einsum("ija,ijab,ijb->ij", grad, covs, grad)
        obs["tdcs_stderr"] = np.sqrt(np.clip(var, 0.0, None))
    return obs


def run_scan(cfg: ScanConfig, workers: int | None = None) -> tuple[dict, np.ndarray]:
    """Evaluate all observables on the configured angle grid.

    Returns the observables dict (arrays indexed [theta_A, theta_B])
    and the angle axis in degrees.  The result is independent of
    ``workers`` (each 3C point's stream is keyed by its physical point).
    """
    td, te, covs = amplitude_grids(cfg, workers)
    return observables_from_amplitudes(cfg, td, te, covs), cfg.grid_deg()


_CSV_FLOATS = ("tdcs", "concurrence", "eof", "bell_lhs", "asymmetry")


def write_csv(obs: dict, thetas_deg, path):
    """Write a scan as CSV, one row per grid point, theta_A-major.

    Floats are written in shortest round-trip form.  A ``tdcs_stderr``
    column follows when the scan has one (3C model).
    """
    thetas = [repr(t) for t in np.asarray(thetas_deg, dtype=float).tolist()]
    if not thetas:
        raise ValueError("no grid points to write")
    n = len(thetas)
    if obs["tdcs"].shape != (n, n):
        raise ValueError(f"observables of shape {obs['tdcs'].shape} do not match {n} angles")
    header = "theta_a_deg,theta_b_deg," + ",".join(_CSV_FLOATS) + ",measurable"
    columns = [[t for t in thetas for _ in range(n)], thetas * n]
    columns += [[repr(v) for v in obs[name].ravel().tolist()] for name in _CSV_FLOATS]
    columns.append(["true" if m else "false" for m in obs["measurable"].ravel().tolist()])
    if "tdcs_stderr" in obs:
        header += ",tdcs_stderr"
        columns.append([repr(v) for v in obs["tdcs_stderr"].ravel().tolist()])
    lines = [header, *map(",".join, zip(*columns))]
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def write_pgm(field2d, path):
    """Write a grid as a plain (P2) PGM image, linearly scaled to the max.

    Width is the number of theta_B points, height the number of theta_A
    points (row 0 = theta_min).  Pixels are round(255 * value / max);
    masked or negative values map to 0.  The byte stream is exactly
    reproducible: one LF-separated token per line.
    """
    a = np.asarray(field2d, dtype=float)
    if a.ndim != 2:
        raise ValueError("PGM field must be a 2-D grid")
    peak = float(a.max()) if a.size else 0.0
    if peak > 0.0:
        pix = np.rint(255.0 * np.clip(a, 0.0, None) / peak).astype(int)
        pix = np.clip(pix, 0, 255)
    else:
        pix = np.zeros_like(a, dtype=int)
    tokens = ["P2", str(a.shape[1]), str(a.shape[0]), "255"]
    tokens.extend(str(int(v)) for v in pix.ravel())
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(tokens) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write PGM to {path}: {exc}") from exc
