"""Finite-statistics simulation of a CHSH coincidence experiment.

Each setting pair (a, b) measures the spin projections of the two
electrons along unit vectors a and b; the joint outcome probabilities
follow from the pair density matrix,

    P(s1, s2) = Tr(rho P^a_{s1} (x) P^b_{s2}),   P^n_{+-} = (I +- n.sigma)/2.

Counts are drawn by inverse-CDF multinomial sampling on a single
counter-based uniform stream, so results are reproducible bit for bit
for a given seed.  The CHSH combination and its binomial standard
error follow from the per-setting correlators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import DEFAULT_SETTINGS, DetectorSettings, chsh_expectation
from .spin import dot_sigma, product_matrix, unit_vector

__all__ = [
    "CoincidenceCounts",
    "outcome_probabilities",
    "sample_coincidences",
    "chsh_estimate",
    "simulate_chsh",
]


@dataclass(frozen=True)
class CoincidenceCounts:
    """Coincidence counts for one setting pair, outcomes (++, +-, -+, --)."""

    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int

    @property
    def total(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm

    def correlator(self) -> float:
        n = self.total
        if n == 0:
            raise ValueError("no counts recorded for this setting pair")
        return (self.n_pp + self.n_mm - self.n_pm - self.n_mp) / n


def outcome_probabilities(rho, a, b) -> np.ndarray:
    """Joint outcome probabilities (P++, P+-, P-+, P--) for one setting pair."""
    m = product_matrix(rho)
    sa = dot_sigma(unit_vector(a, "setting a"))
    sb = dot_sigma(unit_vector(b, "setting b"))
    eye = np.eye(2, dtype=complex)
    probs = []
    for s1 in (1.0, -1.0):
        pa = 0.5 * (eye + s1 * sa)
        for s2 in (1.0, -1.0):
            pb = 0.5 * (eye + s2 * sb)
            probs.append(float(np.trace(m @ np.kron(pa, pb)).real))
    p = np.array(probs)
    p = np.clip(p, 0.0, 1.0)
    return p / p.sum()


def _philox_stream(seed) -> np.random.Generator:
    words = [int(w) for w in seed] if isinstance(seed, tuple) else [int(seed), 0]
    # a masked word would alias another seed's stream
    if not all(0 <= w < 2**64 for w in words):
        raise ValueError(f"seed words must lie in [0, 2**64), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=np.array(words, dtype=np.uint64)))


def sample_coincidences(rho, a, b, n: int, seed) -> CoincidenceCounts:
    """Draw ``n`` coincidence outcomes for one setting pair.

    ``seed`` may be an integer or an (integer, stream) tuple for derived
    per-setting streams.  Sampling is inverse-CDF on one uniform stream.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"sample count must be nonnegative, got {n}")
    probs = outcome_probabilities(rho, a, b)
    if n == 0:
        return CoincidenceCounts(0, 0, 0, 0)
    edges = np.cumsum(probs)
    edges[-1] = 1.0
    u = _philox_stream(seed).random(n)
    idx = np.searchsorted(edges, u, side="right")
    counts = np.bincount(idx, minlength=4)
    return CoincidenceCounts(*(int(c) for c in counts))


def chsh_estimate(counts) -> tuple[float, float]:
    """CHSH estimate and standard error from the four setting pairs.

    ``counts`` holds CoincidenceCounts in the order
    ((a1,b1), (a1,b2), (a2,b1), (a2,b2)); the estimate is
    E11 - E12 + E21 + E22 and the error adds the binomial correlator
    variances (1 - E^2)/n in quadrature.
    """
    counts = tuple(counts)
    if len(counts) != 4:
        raise ValueError("need counts for exactly four setting pairs")
    for c in counts:
        if c.total < 1:
            raise ValueError("every setting pair needs at least one count")
    e = [c.correlator() for c in counts]
    s = e[0] - e[1] + e[2] + e[3]
    var = sum((1.0 - ei * ei) / c.total for ei, c in zip(e, counts))
    return s, math.sqrt(var)


def simulate_chsh(
    rho,
    n_per_setting: int,
    seed: int,
    settings: DetectorSettings = DEFAULT_SETTINGS,
) -> dict:
    """Run the four-setting coincidence experiment and summarize it."""
    a1, a2, b1, b2 = settings.vectors()
    pairs = [(a1, b1), (a1, b2), (a2, b1), (a2, b2)]
    counts = [
        sample_coincidences(rho, a, b, n_per_setting, (seed, i))
        for i, (a, b) in enumerate(pairs)
    ]
    estimate, stderr = chsh_estimate(counts)
    return {
        "counts": counts,
        "correlators": [c.correlator() for c in counts],
        "chsh_estimate": estimate,
        "chsh_stderr": stderr,
        "chsh_exact": chsh_expectation(rho, settings),
    }
