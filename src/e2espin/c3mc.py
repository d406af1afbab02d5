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
order 1/r_max (several percent), while the smooth window pushes the
truncation error below the statistical resolution of any practical
sample budget and damps the tail variance as well.

Mirror symmetrization: every sample is paired with its reflection
through the plane spanned by the y axis and the bisector of the two
outgoing momenta.  Reflecting the sample is equivalent to reflecting
the momenta, so the pair average is evaluated by reusing each sample
with mirrored momentum sets.  In symmetric kinematics the mirrored
direct momentum set coincides bitwise with the exchange set, making
t_d - t_e vanish identically, as parity requires for the even 1s
target.  Elsewhere the pairing simply reduces the variance.

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
from .special import coulomb_norm, kummer_1f1

__all__ = ["PairEstimate", "c3_pair", "BLOCK_SIZE"]

BLOCK_SIZE = 65536
_DRAWS = 10  # uniforms consumed per sample; fixed for stream stability
_LAMBDA2 = 1.0
_MAX_REJECT_FRACTION = 1e-3
_FOUR_PI = 4.0 * math.pi


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

    def tdcs_variance(self, grad: np.ndarray) -> float:
        """Delta-method variance of a scalar with gradient ``grad``."""
        g = np.asarray(grad, dtype=float)
        return float(g @ self.cov @ g)


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


def _reflect(v: np.ndarray, n: np.ndarray) -> np.ndarray:
    return v - (2.0 * float(v @ n)) * n


def _spherical(rmag, cos_t, phi):
    sin_t = np.sqrt(np.clip(1.0 - cos_t * cos_t, 0.0, None))
    return np.stack(
        [rmag * sin_t * np.cos(phi), rmag * sin_t * np.sin(phi), rmag * cos_t], axis=1
    )


def c3_pair(kin: Kinematics, cfg: McConfig, point_key: int = 0) -> PairEstimate:
    """Estimate both 3C amplitudes on one mirror-symmetrized sample set."""
    cfg = cfg.validated()
    n_total = int(cfg.samples)
    lam1 = float(cfg.lambda1)
    r_max = float(cfg.r_max)
    z_eff = 0.0 if cfg.debug_free_limit else 1.0
    use_corr = not cfg.debug_free_limit

    k_a, k_b, k0 = kin.k_a, kin.k_b, kin.k0
    if use_corr and float((k_a - k_b) @ (k_a - k_b)) == 0.0:
        # coincident outgoing momenta: the repulsive correlation factor
        # suppresses the state completely and the T matrix vanishes
        return PairEstimate(0.0 + 0.0j, 0.0 + 0.0j, np.zeros((4, 4)), n_total, 0)

    n_hat = _mirror_normal(k_a, k_b)
    mk_a = _reflect(k_a, n_hat)
    mk_b = _reflect(k_b, n_hat)
    mk0 = _reflect(k0, n_hat)

    kmag_a = math.sqrt(float(k_a @ k_a))
    kmag_b = math.sqrt(float(k_b @ k_b))
    # relative-momentum magnitude shared by all four variants (reflection
    # and overall sign leave it unchanged)
    kab_d = 0.5 * (k_a - k_b)
    kab_dm = 0.5 * (mk_a - mk_b)
    kab_e = 0.5 * (k_b - k_a)
    kab_em = 0.5 * (mk_b - mk_a)
    kab_mag = math.sqrt(float(kab_d @ kab_d))

    xi_a = 0.0 if z_eff == 0.0 else -z_eff / kmag_a
    xi_b = 0.0 if z_eff == 0.0 else -z_eff / kmag_b
    # conjugated normalization factors; one overall scalar per variant
    scale = np.conj(coulomb_norm(xi_a)) * np.conj(coulomb_norm(xi_b))
    a_corr = 0.0j
    if use_corr:
        xi_ab = 0.5 / kab_mag
        scale *= np.conj(coulomb_norm(xi_ab))
        a_corr = complex(0.0, -xi_ab)
    bound_norm = math.sqrt(1.0 / math.pi)  # hydrogen 1s, Z = 1
    a_wave_a = complex(0.0, -xi_a)
    a_wave_b = complex(0.0, -xi_b)
    same_xi = xi_a == xi_b

    s1_blocks = []
    s2_blocks = []
    n_rej_blocks = []
    two_pi = 2.0 * math.pi
    n_blocks = (n_total + BLOCK_SIZE - 1) // BLOCK_SIZE
    for blk in range(n_blocks):
        n = min(BLOCK_SIZE, n_total - blk * BLOCK_SIZE)
        gen = np.random.Generator(np.random.Philox(key=_philox_key(cfg.seed, point_key, blk)))
        u = gen.random((n, _DRAWS))

        r2mag = -(np.log1p(-u[:, 0]) + np.log1p(-u[:, 1]) + np.log1p(-u[:, 2])) / _LAMBDA2
        r2 = _spherical(r2mag, 2.0 * u[:, 3] - 1.0, two_pi * u[:, 4])
        use_uni = u[:, 5] < 0.5
        r_exp = -(np.log1p(-u[:, 6]) + np.log1p(-u[:, 7])) / lam1
        r1mag = np.where(use_uni, u[:, 6] * r_max, r_exp)
        r1 = _spherical(r1mag, 2.0 * u[:, 8] - 1.0, two_pi * u[:, 9])

        with np.errstate(divide="ignore", invalid="ignore"):
            p1 = 0.5 * (lam1 * lam1 / _FOUR_PI) * np.exp(-lam1 * r1mag) / r1mag + 0.5 / (
                _FOUR_PI * r_max * r1mag * r1mag
            )
            p2 = (_LAMBDA2**3 / (8.0 * math.pi)) * np.exp(-_LAMBDA2 * r2mag)

            r12 = r1 - r2
            r12mag = np.sqrt(np.sum(r12 * r12, axis=1))
            pot = 1.0 / r12mag - 1.0 / r1mag
            # smooth radial taper of the projectile coordinate
            ramp = np.clip((r1mag / r_max - 0.5) * 2.0, 0.0, 1.0)
            window = np.cos(0.5 * math.pi * ramp) ** 2
            common = (scale * bound_norm) * (pot * window * np.exp(-r2mag)) + 0.0j

            # plane-wave phases: beam at r1 and conjugated waves at r1, r2
            da1 = r1 @ k_a
            dma1 = r1 @ mk_a
            db1 = r1 @ k_b
            dmb1 = r1 @ mk_b
            da2 = r2 @ k_a
            dma2 = r2 @ mk_a
            db2 = r2 @ k_b
            dmb2 = r2 @ mk_b
            d01 = r1 @ k0
            dm01 = r1 @ mk0
            ph = np.exp(
                1j
                * np.concatenate(
                    [d01 - da1 - db2, dm01 - dma1 - dmb2, d01 - db1 - da2, dm01 - dmb1 - dma2]
                )
            )
            g = ph.reshape(4, n)

            if z_eff != 0.0:
                ra1 = kmag_a * r1mag
                ra2 = kmag_a * r2mag
                rb1 = kmag_b * r1mag
                rb2 = kmag_b * r2mag
                args_a = np.concatenate([ra1 + da1, ra1 + dma1, ra2 + da2, ra2 + dma2])
                args_b = np.concatenate([rb2 + db2, rb2 + dmb2, rb1 + db1, rb1 + dmb1])
                if same_xi:
                    f = kummer_1f1(a_wave_a, 1.0, 1j * np.concatenate([args_a, args_b]))
                    fa, fb = f[: 4 * n].reshape(4, n), f[4 * n :].reshape(4, n)
                else:
                    fa = kummer_1f1(a_wave_a, 1.0, 1j * args_a).reshape(4, n)
                    fb = kummer_1f1(a_wave_b, 1.0, 1j * args_b).reshape(4, n)
                # row order: (d, dm, e, em); the exchange variants swap
                # which electron sees which Coulomb wave.  Keep the r1-wave
                # as the left factor in every product: complex multiply is
                # not bitwise commutative under FMA, and exact exchange
                # symmetry needs identical operand order in paired variants.
                g = g * np.stack([fa[0] * fb[0], fa[1] * fb[1], fb[2] * fa[2], fb[3] * fa[3]])

            if use_corr:
                rc = kab_mag * r12mag
                args_c = np.concatenate(
                    [rc + r12 @ kab_d, rc + r12 @ kab_dm, rc + r12 @ kab_e, rc + r12 @ kab_em]
                )
                g = g * kummer_1f1(a_corr, 1.0, 1j * args_c).reshape(4, n)

            inv_p = (0.5 * common) / (p1 * p2)
            wd = (g[0] + g[1]) * inv_p
            we = (g[2] + g[3]) * inv_p

        inball = (r1mag <= r_max) & (r2mag <= r_max)
        wd = np.where(inball, wd, 0.0)
        we = np.where(inball, we, 0.0)
        finite = (
            np.isfinite(wd.real) & np.isfinite(wd.imag)
            & np.isfinite(we.real) & np.isfinite(we.imag)
        )
        n_rej = int(np.count_nonzero(~finite))
        if n_rej:
            wd = np.where(finite, wd, 0.0)
            we = np.where(finite, we, 0.0)

        x = np.stack([wd.real, wd.imag, we.real, we.imag])
        s1_blocks.append(x.sum(axis=1))
        s2_blocks.append(x @ x.T)
        n_rej_blocks.append(n_rej)

    n_rejected = sum(n_rej_blocks)
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
