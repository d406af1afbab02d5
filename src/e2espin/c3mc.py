"""Importance-sampled Monte Carlo evaluation of the 3C T matrix.

The six-dimensional integral over the projectile coordinate r1 and the
bound-electron coordinate r2 is estimated with the product density

    p(r1, r2) = p1(r1) p2(r2),

    p2(r)  = (L2^3 / 8 pi) e^{-L2 r},          L2 = 1
    p1(r)  = 1/2 * (l1^2 / 4 pi) e^{-l1 r}/r   (exponential component)
           + 1/2 * 1 / (4 pi r_max r^2)        (uniform-radius component)

The exponential r2 density matches the e^{-r} magnitude of the
bound-state factor (the integrand is linear in the bound state, so an
e^{-2r} probability-matched density would give exponentially growing
weights).  The projectile density is a defensive mixture: the
exponential-over-r component absorbs the 1/r1 nuclear singularity and
covers the few-bohr bulk, while the uniform-radius component (density
proportional to 1/r^2) bounds the weights against the slowly decaying
oscillatory tail of the potential difference, 1/r12 - 1/r1 ~ cos/r1^2
for r1 >> r2, which no exponential density can control.  Both radial
laws invert exactly from uniform draws.

Both radial integrals are truncated at r_max.  The r2 tail is
exponentially negligible.  The r1 integrand is multiplied by a cos^2
taper between r_max/2 and r_max instead of being cut sharply: a sharp
cutoff against the oscillatory 1/r1^2 tail leaves a boundary term of
order 1/r_max (several percent), while the smooth window removes that
term and damps the tail variance as well.  It does not bound the
truncation itself: with a 5 eV slow electron at 54.4 eV, t_d moves by
about 14% (5 standard errors) between r_max = 14 and r_max = 20.

Mirror symmetrization: every sample is paired with its reflection
through the plane spanned by the y axis and the bisector of the two
outgoing momenta.  Reflecting the sample is equivalent to reflecting
the momenta, so the pair average is evaluated by reusing each sample
with mirrored momentum sets.  In symmetric kinematics the mirrored
direct momentum set coincides bitwise with the exchange set, making
t_d - t_e vanish identically, as parity requires for the even 1s
target.  Elsewhere the pairing simply reduces the variance.

Each block of samples is drawn, weighed and reduced.  ``_draw`` gives
the coordinates, their radii and the density p1 p2.  The kernel from
``_kernel`` weighs them with a table of one row per mirror variant
(direct, mirrored direct, exchange, mirrored exchange): the beam, the
conjugated Coulomb waves at r1 and at r2, and the e-e relative
momentum.  ``c3_pair`` counts non-finite weights as zeros and sums the
blocks with ``math.fsum``.

Every 1F1 factor has the form 1F1(i*alpha; 1; i*x) with real x >= 0, so
the kernel reads it from a ``Coulomb1F1Table``: one per distinct wave
|k| (alpha = Z/|k|) on [0, 2|k| r_max] and one for the correlation
factor (alpha = -1/(2|k_ab|)) on [0, 4|k_ab| r_max].  These ranges hold
every argument inside the r_max ball; the zero-weight samples outside it
are clamped into the table.  A table value depends only on its own
argument, so bitwise-equal momenta in the paired variants of symmetric
kinematics give exactly t_d == t_e, however the samples are batched.

Randomness comes from counter-based Philox streams keyed by
(seed, point_key, block index), so the estimate is a pure function of
the configuration no matter how blocks are scheduled.  Accumulation is
per block with a fixed reduction order, giving bit-identical results
run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import McConfig
from .kinematics import Kinematics
from .special import Coulomb1F1Table, coulomb_norm
# The tables call kummer_1f1 inside special.  The name stays importable
# here because bench/test_smoke.py checks that bench/tracing.py wraps it
# where c3mc looks it up; drop it when the benchmark next changes.
from .special import kummer_1f1  # noqa: F401

__all__ = ["PairEstimate", "c3_pair", "BLOCK_SIZE"]

BLOCK_SIZE = 65536
_DRAWS = 10  # uniforms consumed per sample; fixed for stream stability
_LAMBDA2 = 1.0
_MAX_REJECT_FRACTION = 1e-3
_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi
_BOUND_NORM = math.sqrt(1.0 / math.pi)  # hydrogen 1s, Z = 1


@dataclass(frozen=True)
class PairEstimate:
    """Joint Monte Carlo estimate of (t_d, t_e) with mean covariance.

    ``cov`` is the 4x4 covariance matrix of the mean of
    (Re t_d, Im t_d, Re t_e, Im t_e); the two amplitudes share the
    sample set, so their errors are correlated.
    """

    t_d: complex
    t_e: complex
    cov: np.ndarray
    n_samples: int
    n_rejected: int

    @property
    def stderr_d_re(self) -> float:
        return math.sqrt(max(0.0, float(self.cov[0, 0])))

    @property
    def stderr_d_im(self) -> float:
        return math.sqrt(max(0.0, float(self.cov[1, 1])))

    @property
    def stderr_e_re(self) -> float:
        return math.sqrt(max(0.0, float(self.cov[2, 2])))

    @property
    def stderr_e_im(self) -> float:
        return math.sqrt(max(0.0, float(self.cov[3, 3])))


def _philox_key(seed: int, point_key: int, block: int) -> np.ndarray:
    word = ((int(point_key) << 20) | int(block)) & 0xFFFFFFFFFFFFFFFF
    return np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, word], dtype=np.uint64)


def _mirror_normal(k_a: np.ndarray, k_b: np.ndarray) -> np.ndarray:
    """Unit normal of the symmetrization plane (beam + bisector of kA, kB).

    Components that vanish to rounding are snapped to exact zeros so the
    coordinate-aligned cases reflect exactly; any orthogonal reflection
    with an isotropic sampling density leaves the estimator unbiased, so
    the snap costs nothing.
    """
    ma = math.sqrt(float(k_a @ k_a))
    mb = math.sqrt(float(k_b @ k_b))
    d = k_a / ma - k_b / mb
    nn = math.sqrt(float(d @ d))
    if nn < 1e-12:
        return np.array([0.0, 1.0, 0.0])  # parallel momenta: reflection is trivial
    n = d / nn
    big = float(np.abs(n).max())
    n[np.abs(n) < 1e-12 * big] = 0.0
    if int(np.count_nonzero(n)) == 1:
        return np.sign(n)  # exact +-1 on one coordinate axis
    return n / math.sqrt(float(n @ n))


def _spherical(rmag, cos_t, phi):
    sin_t = np.sqrt(np.clip(1.0 - cos_t * cos_t, 0.0, None))
    return np.stack(
        [rmag * sin_t * np.cos(phi), rmag * sin_t * np.sin(phi), rmag * cos_t], axis=1
    )


def _draw(cfg: McConfig, point_key: int, block: int, n: int):
    """The coordinates of one block of samples and their sampling density.

    Maps the block's Philox uniforms to (r1, |r1|, r2, |r2|, p1(r1) p2(r2)).
    """
    lam1 = float(cfg.lambda1)
    r_max = float(cfg.r_max)
    gen = np.random.Generator(np.random.Philox(key=_philox_key(cfg.seed, point_key, block)))
    u = gen.random((n, _DRAWS))

    r2mag = -(np.log1p(-u[:, 0]) + np.log1p(-u[:, 1]) + np.log1p(-u[:, 2])) / _LAMBDA2
    r2 = _spherical(r2mag, 2.0 * u[:, 3] - 1.0, _TWO_PI * u[:, 4])
    use_uni = u[:, 5] < 0.5
    r_exp = -(np.log1p(-u[:, 6]) + np.log1p(-u[:, 7])) / lam1
    r1mag = np.where(use_uni, u[:, 6] * r_max, r_exp)
    r1 = _spherical(r1mag, 2.0 * u[:, 8] - 1.0, _TWO_PI * u[:, 9])

    with np.errstate(divide="ignore", invalid="ignore"):
        p1 = 0.5 * (lam1 * lam1 / _FOUR_PI) * np.exp(-lam1 * r1mag) / r1mag + 0.5 / (
            _FOUR_PI * r_max * r1mag * r1mag
        )
        p2 = (_LAMBDA2**3 / (8.0 * math.pi)) * np.exp(-_LAMBDA2 * r2mag)
        return r1, r1mag, r2, r2mag, p1 * p2


def _coulomb_tables(kmags, kab_mag: float, r_max: float):
    """The 1F1 tables of one kernel: the waves by |k|, and the correlation factor.

    Each covers the arguments of the r_max ball: |k||r| + k.r <= 2|k| r_max
    for a wave, |k_ab||r12| + k_ab.r12 <= 4|k_ab| r_max with |r12| <= 2 r_max.
    """
    waves = {kmag: Coulomb1F1Table(1.0 / kmag, 2.0 * kmag * r_max)
             for kmag in dict.fromkeys(kmags)}
    return waves, Coulomb1F1Table(-0.5 / kab_mag, 4.0 * kab_mag * r_max)


def _kernel(kin: Kinematics, cfg: McConfig):
    """The weight kernel of the mirror-symmetrized 3C integrand at ``kin``.

    Returns ``weigh(r1, r1mag, r2, r2mag, density)``: the (2, n) weights of
    (t_d, t_e), zero outside the r_max ball.  It takes the radii and the
    density from the sampler; recomputing them would change bits.
    """
    r_max = float(cfg.r_max)
    z_eff = 0.0 if cfg.debug_free_limit else 1.0  # Z = 0 leaves plane waves
    k0, k_a, k_b = kin.k0, kin.k_a, kin.k_b
    n_hat = _mirror_normal(k_a, k_b)
    mk0, mk_a, mk_b = (k - (2.0 * float(k @ n_hat)) * n_hat for k in (k0, k_a, k_b))

    kmag_a = math.sqrt(float(k_a @ k_a))
    kmag_b = math.sqrt(float(k_b @ k_b))
    # one row per mirror variant: the beam, the conjugated waves at r1 and
    # at r2 as (momentum, |k|), and the e-e relative momentum; a mirror
    # image keeps the |k| of its source
    table = (
        (k0, (k_a, kmag_a), (k_b, kmag_b), 0.5 * (k_a - k_b)),  # direct
        (mk0, (mk_a, kmag_a), (mk_b, kmag_b), 0.5 * (mk_a - mk_b)),  # mirrored direct
        (k0, (k_b, kmag_b), (k_a, kmag_a), 0.5 * (k_b - k_a)),  # exchange
        (mk0, (mk_b, kmag_b), (mk_a, kmag_a), 0.5 * (mk_b - mk_a)),  # mirrored exchange
    )
    _, at_r1, at_r2, kabs = zip(*table)
    # |k| by (position, variant); xi = -Z/|k|, so equal |k| means equal xi
    kmags = np.array([[kmag for _, kmag in col] for col in (at_r1, at_r2)])

    # reflection and overall sign leave |kab| the same in every row
    kab_mag = math.sqrt(float(kabs[0] @ kabs[0]))
    if cfg.debug_free_limit:
        waves, corr = {}, None
    else:
        waves, corr = _coulomb_tables((kmag_a, kmag_b), kab_mag, r_max)

    # conjugated normalization factors; one overall scalar for all rows
    scale = np.conj(coulomb_norm(-z_eff / kmag_a)) * np.conj(coulomb_norm(-z_eff / kmag_b))
    if corr is not None:
        scale *= np.conj(coulomb_norm(0.5 / kab_mag))

    def weigh(r1, r1mag, r2, r2mag, density):
        n = len(r1mag)
        with np.errstate(divide="ignore", invalid="ignore"):
            r12 = r1 - r2
            r12mag = np.sqrt(np.sum(r12 * r12, axis=1))
            pot = 1.0 / r12mag - 1.0 / r1mag
            # smooth radial taper of the projectile coordinate
            ramp = np.clip((r1mag / r_max - 0.5) * 2.0, 0.0, 1.0)
            window = np.cos(0.5 * math.pi * ramp) ** 2
            common = (scale * _BOUND_NORM) * (pot * window * np.exp(-r2mag)) + 0.0j

            # plane-wave phases: beam at r1 and conjugated waves at r1, r2
            g = np.exp(1j * np.stack([r1 @ k - r1 @ k1 - r2 @ k2
                                      for k, (k1, *_), (k2, *_), _ in table]))
            if waves:
                # 1F1 arguments |k||r| + k.r by (position, variant, sample);
                # one flat table evaluation per xi, r1-waves first
                x = np.stack([[kmag * rmag + r @ k for k, kmag in col]
                              for r, rmag, col in ((r1, r1mag, at_r1), (r2, r2mag, at_r2))])
                f = np.empty(x.shape, dtype=complex)
                for kmag, wave in waves.items():
                    batch = kmags == kmag
                    f[batch] = wave.evaluate(x[batch].ravel()).reshape(-1, n)
                # the r1-wave stays the left factor: complex multiply is not
                # bitwise commutative under FMA, and exact exchange symmetry
                # needs the same operand order in paired variants
                g = g * (f[0] * f[1])
            if corr is not None:
                rc = kab_mag * r12mag
                args_c = np.concatenate([rc + r12 @ kab for kab in kabs])
                g = g * corr.evaluate(args_c).reshape(4, n)

            inv_p = (0.5 * common) / density
            w = (g[0::2] + g[1::2]) * inv_p
        inball = (r1mag <= r_max) & (r2mag <= r_max)
        return np.where(inball, w, 0.0)

    return weigh


def c3_pair(kin: Kinematics, cfg: McConfig, point_key: int = 0) -> PairEstimate:
    """Estimate both 3C amplitudes on one mirror-symmetrized sample set."""
    cfg = cfg.validated()
    n_total = int(cfg.samples)
    d_ab = kin.k_a - kin.k_b
    if not cfg.debug_free_limit and float(d_ab @ d_ab) == 0.0:
        # coincident outgoing momenta: the repulsive correlation factor
        # suppresses the state completely and the T matrix vanishes
        return PairEstimate(0.0 + 0.0j, 0.0 + 0.0j, np.zeros((4, 4)), n_total, 0)
    weigh = _kernel(kin, cfg)

    s1_blocks = []
    s2_blocks = []
    n_rejected = 0
    for blk in range((n_total + BLOCK_SIZE - 1) // BLOCK_SIZE):
        n = min(BLOCK_SIZE, n_total - blk * BLOCK_SIZE)
        w = weigh(*_draw(cfg, point_key, blk, n))
        finite = np.isfinite(w).all(axis=0)
        n_rejected += int(np.count_nonzero(~finite))
        w = np.where(finite, w, 0.0)

        x = np.stack([w[0].real, w[0].imag, w[1].real, w[1].imag])
        s1_blocks.append(x.sum(axis=1))
        s2_blocks.append(x @ x.T)

    if n_rejected > _MAX_REJECT_FRACTION * n_total:
        raise ArithmeticError(
            f"3C Monte Carlo rejected {n_rejected} of {n_total} samples "
            f"(> {_MAX_REJECT_FRACTION:.1%}); integrand evaluation is unhealthy"
        )
    s1 = np.array([math.fsum(b[i] for b in s1_blocks) for i in range(4)])
    s2 = np.array(
        [[math.fsum(b[i, j] for b in s2_blocks) for j in range(4)] for i in range(4)]
    )
    # rejected samples count as zero weights over the full budget, so the
    # estimator is not conditioned on the integrand evaluating finitely
    mean = s1 / n_total
    sample_cov = (s2 - n_total * np.outer(mean, mean)) / max(1, n_total - 1)
    cov_mean = sample_cov / n_total
    return PairEstimate(
        t_d=complex(mean[0], mean[1]),
        t_e=complex(mean[2], mean[3]),
        cov=cov_mean,
        n_samples=n_total,
        n_rejected=n_rejected,
    )
