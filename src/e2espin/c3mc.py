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
with mirrored momentum sets.  At equal energies the reflection maps k_A
onto k_B in real arithmetic, so the kernel takes the mirrored momenta
as exactly k_B and k_A, not as their computed reflections (which differ
in the last bits): the mirrored direct variant then has the exchange
variant's Coulomb waves and e-e factor, and the other way round, with
only the beam reflected, and a sample needs 6 1F1 table lookups (4 wave,
2 correlation) instead of the 12 of unequal sharing.  In symmetric
kinematics the reflected beam is the beam, so the mirrored direct
momentum set coincides bitwise with the exchange set, making t_d - t_e
vanish identically, as parity requires for the even 1s target.
Elsewhere the pairing simply reduces the variance.

Each block of samples is drawn, weighed and reduced.  ``_draw`` gives
the next samples of the block's Philox stream: the coordinates, their
radii and the density p1 p2.  The kernel from ``_kernel`` weighs them
with a table of one row per mirror variant (direct, mirrored direct,
exchange, mirrored exchange): the beam and the conjugated Coulomb waves
at r1 and at r2, whose momenta give the e-e relative momentum.
A block is drawn and weighed in slices of ``_SLICE`` samples: the
weights go into one (4, n) array of (Re t_d, Im t_d, Re t_e, Im t_e),
non-finite weights count as zeros, and a point's block sums are added
in block order with ``math.fsum``.  Sampler, kernel and reduction write
every array into a ``_Workspace`` with ufunc ``out=`` arguments, in the
operand order of the plain expressions, so a slice allocates no arrays
of its own; each array handed to a reduction or a matrix product is
C-contiguous, as a new array would be, so its summation order is too.

Sines and cosines come from numpy's ``tan``, which runs in SIMD lanes
where its complex ``exp``, ``cos`` and ``sin`` run as scalar code:
``_unit_circle`` turns t = tan(theta/2) into cos theta = (1 - t^2) /
(1 + t^2) and sin theta = 2t / (1 + t^2), within a few 1e-16 of
e^{i theta}.  The plane-wave phases e^{i ph} take tan(ph/2), the
sampler's azimuths phi = 2 pi u take tan(pi u), and the window takes
cos^2 x = 1 / (1 + tan^2 x).  All of it is elementwise, so a value
depends only on its own argument; but numpy rounds ``exp``, ``log1p``
and ``tan`` differently in its AVX-512 and its AVX2 loops, so the last
bits of an estimate depend on the CPU numpy dispatches to.

The blocks are independent, so ``c3_pairs`` runs every (point, block)
task of a call on one pool of min(workers, usable CPUs, tasks) threads
(numpy releases the interpreter lock in its array loops), by default one
per usable CPU; with one thread the tasks run in the caller's thread.
A task builds its point's kernel (tens of microseconds, against tens of
milliseconds for a block), so no task shares state with another but the
table cache.  Each thread keeps one workspace for all its tasks, about
8.5 MiB at unequal sharing (6.5 MiB of slice arrays, 1.5 MiB of them the
table scratch of one 32,768-argument chunk, and the 2 MiB block array).
The pool, its threads and their workspaces end with the call, so no
idle thread or workspace keeps its memory between operations.
``c3_pair`` is ``c3_pairs`` of one point.

Every 1F1 factor has the form 1F1(i*alpha; 1; i*x) with real x >= 0, so
the kernel reads it from a ``Coulomb1F1Table``: one per wave number
(alpha = Z/|k|) on [0, 2|k| r_max], and one for the correlation factor
(alpha = -1/(2|k_ab|)) on [0, 4|k_ab| r_max].  The kernel takes every
|k| as sqrt(2 E) (``_wave_numbers``), and ``_kab_mag`` takes |k_ab| from
those and the micro-degree angle between the electrons, so all points
of one energy share a wave table and those of one energy sharing with
one relative angle a correlation table; all tables are cached across
points.  A slice reads each table in one call.  These ranges hold every
argument inside the r_max ball; the zero-weight samples outside it are
clamped into the table.  A table value depends only on its own
argument, and the kernel multiplies the factors of a sample in one
order, ((1F1 waves) (plane waves)) (e-e factor), so a weight depends
only on its sample and the point, not on how many samples are weighed
at once, and bitwise-equal momenta in the paired variants of symmetric
kinematics give exactly t_d == t_e.

Randomness comes from counter-based Philox streams keyed by the seed and
a blake2b word of the physical point: e0, e_t (exact float64) and the
unordered pair {(e_a, theta_A), (e_b, theta_B)}, angles in integer
micro-degrees wrapped into (-180, 180]; the block index is the top word
of the counter.  The reflection x -> -x leaves the beam and the 1s
target alone and maps (theta_A, theta_B) to (-theta_A, -theta_B) with
the same T matrix, so the word hashes the smaller of the sorted pair
and its mirror image (180 degrees stays 180).  ``c3_pair`` estimates a
point whose mirror image is the smaller at that image (``_canonical``):
its momenta are the exact x-negations of the point's, so a point and
its image give the same bits.  An estimate is thus a pure function of
(config, physical point up to reflection, seed), and relabeling the
electrons swaps t_d and t_e exactly.  ``estimate_key`` names that
point: cells with equal keys share one estimate, which is how ``scan``
fills a grid.  Blocks are reduced in a fixed order, so reruns give the
same bits.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .amplitudes import McConfig
from .kinematics import Kinematics, build_coplanar
from .special import Coulomb1F1Table, coulomb_norm
# The tables call kummer_1f1 inside special.  The name stays importable
# here because bench/test_smoke.py checks that bench/tracing.py wraps it
# where c3mc looks it up; drop it when the benchmark next changes.
from .special import kummer_1f1  # noqa: F401

__all__ = ["PairEstimate", "c3_pair", "c3_pairs", "estimate_key", "usable_cpus", "BLOCK_SIZE"]

BLOCK_SIZE = 65536
_SLICE = 8192  # samples weighed at once; no weight depends on it
_DRAWS = 10  # uniforms consumed per sample; fixed for stream stability
_LAMBDA1 = 1.0  # rate of the exponential projectile component
_LAMBDA2 = 1.0
_MAX_REJECT_FRACTION = 1e-3
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


_TURN = 360_000_000  # micro-degrees


def _wrap(m: int) -> int:
    """Integer micro-degrees wrapped into (-180, 180] degrees."""
    m %= _TURN
    return m - _TURN if m > _TURN // 2 else m


def _micro_degrees(theta: float) -> int:
    """An angle in radians as integer micro-degrees in (-180, 180] degrees."""
    return _wrap(round(math.degrees(theta) * 1e6))


def _electrons(kin: Kinematics, sign: float) -> list[tuple[float, int]]:
    """The sorted (energy, micro-degrees) of ``kin``'s electrons, angles times ``sign``."""
    return sorted([(kin.e_a, _micro_degrees(sign * kin.theta_a)),
                   (kin.e_b, _micro_degrees(sign * kin.theta_b))])


def _canonical(kin: Kinematics) -> Kinematics:
    """The kinematics ``c3_pair`` estimates at ``kin``: ``kin`` or its mirror image.

    The reflection x -> -x negates both angles (180 degrees stays 180)
    and keeps the T matrix; of a point and its image, ``c3_pair``
    estimates the one with the smaller ``_electrons``.  The image's
    momenta are the exact x-negations of ``kin``'s.
    """
    if _electrons(kin, -1.0) < _electrons(kin, 1.0):
        return build_coplanar(kin.e0, kin.e_b, -kin.theta_a, -kin.theta_b, kin.e_t)
    return kin


def estimate_key(kin: Kinematics) -> tuple[tuple, bool]:
    """The point ``c3_pair`` estimates at ``kin``, and whether ``kin`` lists its electrons swapped.

    The key is hashable: e0, e_t and the sorted (energy, micro-degrees,
    momentum) of the electrons of ``_canonical(kin)``, momenta compared
    by value (so -0.0 matches 0.0).  For any McConfig, kinematics with
    equal keys give the same ``c3_pair`` bits, with t_d and t_e, and
    the covariance blocks of their parts, exchanged where ``swapped``
    differs.
    """
    kin = _canonical(kin)
    a = (kin.e_a, _micro_degrees(kin.theta_a), *kin.k_a.tolist())
    b = (kin.e_b, _micro_degrees(kin.theta_b), *kin.k_b.tolist())
    return (kin.e0, kin.e_t, min(a, b), max(a, b)), b < a


def _stream_word(kin: Kinematics) -> int:
    """The 64-bit Philox key word of the canonical kinematics ``kin`` (not salted).

    ``kin`` is a ``_canonical`` point, so the word names its physical
    point up to reflection.
    """
    data = struct.pack("<2d", kin.e0, kin.e_t) + b"".join(
        struct.pack("<dq", e, m) for e, m in _electrons(kin, 1.0))
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def _wave_numbers(kin: Kinematics) -> tuple[float, float]:
    """|k_A| and |k_B| as sqrt(2 E), as ``build_coplanar`` computes them.

    The one |k| of the kernel, its tables and its mirror plane: the norm
    of a momentum vector can differ from it in the last bit, and differs
    between angles of one energy.
    """
    return math.sqrt(2.0 * kin.e_a), math.sqrt(2.0 * kin.e_b)


def _mirror_normal(kin: Kinematics) -> np.ndarray:
    """Unit normal of the symmetrization plane (beam + bisector of kA, kB).

    Components that vanish to rounding are snapped to exact zeros so the
    coordinate-aligned cases reflect exactly; any orthogonal reflection
    with an isotropic sampling density leaves the estimator unbiased, so
    the snap costs nothing.
    """
    ka, kb = _wave_numbers(kin)
    d = kin.k_a / ka - kin.k_b / kb
    nn = math.sqrt(float(d @ d))
    if nn < 1e-12:
        return np.array([0.0, 1.0, 0.0])  # parallel momenta: reflection is trivial
    n = d / nn
    big = float(np.abs(n).max())
    n[np.abs(n) < 1e-12 * big] = 0.0
    if int(np.count_nonzero(n)) == 1:
        return np.sign(n)  # exact +-1 on one coordinate axis
    return n / math.sqrt(float(n @ n))


class _Workspace:
    """The arrays of one block of samples, reused from slice to slice.

    ``ws(name, shape, dtype)`` is a C-contiguous array of ``shape`` over
    the buffer kept under ``name``, which grows to the largest size asked
    of it; it holds whatever the name's last user wrote.  A fresh
    workspace gives arrays of exactly the sizes asked.
    """

    def __init__(self):
        self._buffers = {}

    def __call__(self, name, shape, dtype=float):
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _unit_circle(t, cos_out, sin_out):
    """Writes cos(theta) and sin(theta) of t = tan(theta / 2) into ``cos_out`` and ``sin_out``.

    cos = (1 - t^2) / (1 + t^2) and sin = 2 t / (1 + t^2): no range
    reduction of its own, as ``np.tan`` reduces theta / 2.  Elementwise,
    so a value depends only on its own t.  ``sin_out`` holds 1 + t^2
    on the way, so ``t`` must share no memory with either output.
    """
    np.multiply(t, t, out=cos_out)
    np.add(1.0, cos_out, out=sin_out)
    np.subtract(1.0, cos_out, out=cos_out)
    cos_out /= sin_out
    # 2 (t / s) is 2 t / s: doubling is exact
    np.divide(t, sin_out, out=sin_out)
    sin_out *= 2.0


def _spherical(rmag, cos_t, tan_half_phi, out, ws):
    """Writes rmag (sin_t cos(phi), sin_t sin(phi), cos_t) into the (n, 3) ``out``.

    phi comes as tan(phi / 2), so cos(phi) and sin(phi) are
    ``_unit_circle``'s rational forms, with no cos or sin call.
    """
    n = len(rmag)
    rsin = ws("rsin", (n,))  # rmag sin_t
    np.multiply(cos_t, cos_t, out=rsin)
    np.subtract(1.0, rsin, out=rsin)
    np.clip(rsin, 0.0, None, out=rsin)
    np.sqrt(rsin, out=rsin)
    np.multiply(rmag, rsin, out=rsin)
    _unit_circle(tan_half_phi, out[:, 0], out[:, 1])
    out[:, 0] *= rsin
    out[:, 1] *= rsin
    np.multiply(rmag, cos_t, out=out[:, 2])
    return out


def _block_stream(key: np.ndarray, block: int) -> np.random.Generator:
    """The Philox generator of one block of samples."""
    counter = np.array([0, 0, 0, block], dtype=np.uint64)  # blocks 2**192 steps apart
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _exponential_radius(u, columns, rate, out, ws):
    """-(sum of log1p(-u[:, c]) over ``columns``) / rate, written into ``out``."""
    t = ws("t", out.shape)
    np.log1p(np.negative(u[:, columns[0]], out=out), out=out)
    for c in columns[1:]:
        out += np.log1p(np.negative(u[:, c], out=t), out=t)
    np.negative(out, out=out)
    out /= rate
    return out


def _draw(stream: np.random.Generator, n: int, r_max: float, ws=None):
    """The coordinates of the next n samples of a block and their sampling density.

    Maps ``stream``'s next uniforms to (r1, |r1|, r2, |r2|, p1(r1) p2(r2)),
    arrays of workspace ``ws`` (of a fresh one without it).  Drawing a
    block in slices, one after another, gives the samples of drawing it
    at once.
    """
    ws = _Workspace() if ws is None else ws
    u = stream.random(out=ws("u", (n, _DRAWS)))
    t, cos_t, tan_half_phi = ws("t", (n,)), ws("cos_t", (n,)), ws("tan_half_phi", (n,))

    def direction(c):
        """cos(theta) = 2 u_c - 1 and tan(phi / 2) = tan(pi u_{c+1}), phi = 2 pi u_{c+1}."""
        np.subtract(np.multiply(2.0, u[:, c], out=cos_t), 1.0, out=cos_t)
        np.multiply(math.pi, u[:, c + 1], out=tan_half_phi)
        return cos_t, np.tan(tan_half_phi, out=tan_half_phi)

    r2mag = _exponential_radius(u, (0, 1, 2), _LAMBDA2, ws("r2mag", (n,)), ws)
    r2 = _spherical(r2mag, *direction(3), ws("r2", (n, 3)), ws)
    use_uni = np.less(u[:, 5], 0.5, out=ws("use_uni", (n,), bool))
    r1mag = _exponential_radius(u, (6, 7), _LAMBDA1, ws("r1mag", (n,)), ws)
    np.copyto(r1mag, np.multiply(u[:, 6], r_max, out=t), where=use_uni)
    r1 = _spherical(r1mag, *direction(8), ws("r1", (n, 3)), ws)

    with np.errstate(divide="ignore", invalid="ignore"):
        # p1 = 0.5 (l1^2 / 4 pi) e^{-l1 r} / r + 0.5 / (4 pi r_max r r)
        p = ws("density", (n,))
        np.exp(np.multiply(-_LAMBDA1, r1mag, out=p), out=p)
        np.multiply(0.5 * (_LAMBDA1**2 / _FOUR_PI), p, out=p)
        p /= r1mag
        np.multiply(_FOUR_PI * r_max, r1mag, out=t)
        t *= r1mag
        p += np.divide(0.5, t, out=t)
        # times p2 = (l2^3 / 8 pi) e^{-l2 r}
        np.exp(np.multiply(-_LAMBDA2, r2mag, out=t), out=t)
        p *= np.multiply(_LAMBDA2**3 / (8.0 * math.pi), t, out=t)
    return r1, r1mag, r2, r2mag, p


# Wave and correlation tables by exact (alpha, x_max).  Every point of one
# energy sharing has the same wave |k|, and every pair of its points with
# the same relative angle the same |k_ab|, so a scan builds each table
# once: 256 tables hold the 180 relative angles of a 1-degree scan.  The
# lock keeps block threads that miss at once from building a table twice.
_table = functools.lru_cache(maxsize=256)(Coulomb1F1Table)
_table_lock = threading.Lock()


def _kab_mag(kin: Kinematics) -> float:
    """|k_A - k_B| / 2 from the wave numbers and the micro-degree angle between them.

    0.5 sqrt((|k_A| - |k_B|)^2 + 4 |k_A||k_B| sin^2(delta/2)) cancels
    nothing, even for momenta a micro-degree apart.  |k| is
    ``_wave_numbers``, and delta is wrapped into (-180, 180] degrees;
    relabeling the electrons or reflecting the point changes no bit.
    Zero exactly when the electrons have equal |k| and equal angles in
    micro-degrees: coincident momenta.
    """
    ka, kb = _wave_numbers(kin)
    delta = _wrap(_micro_degrees(kin.theta_a) - _micro_degrees(kin.theta_b))
    s = math.sin(math.radians(delta / 2e6))
    return 0.5 * math.sqrt((ka - kb) * (ka - kb) + 4.0 * (ka * kb) * (s * s))


def _coulomb_tables(kmags, kab_mag: float, r_max: float):
    """The 1F1 tables of one kernel: the waves by |k|, and the correlation factor.

    Each covers the arguments of the r_max ball: |k||r| + k.r <= 2|k| r_max
    for a wave, |k_ab||r12| + k_ab.r12 <= 4|k_ab| r_max with |r12| <= 2 r_max.
    All come from the table cache, the correlation table by |k_ab|.
    """
    with _table_lock:
        waves = {kmag: _table(1.0 / kmag, 2.0 * kmag * r_max) for kmag in dict.fromkeys(kmags)}
        return waves, _table(-0.5 / kab_mag, 4.0 * kab_mag * r_max)


def _distinct_rows(rows):
    """The distinct rows, first seen first, and each row's index among them.

    A row is a tuple of (momentum, |k|) pairs, compared by their bytes; the
    index is None when every row is distinct.
    """
    keys = [b"".join(np.append(k, kmag).tobytes() for k, kmag in row) for row in rows]
    first = list(dict.fromkeys(keys))
    distinct = [rows[keys.index(key)] for key in first]
    if len(distinct) == len(rows):
        return distinct, None
    return distinct, np.array([first.index(key) for key in keys])


def _kernel(kin: Kinematics, cfg: McConfig):
    """The weight kernel of the mirror-symmetrized 3C integrand at ``kin``.

    Returns ``weigh(r1, r1mag, r2, r2mag, density, ws=None)``: the (2, n)
    weights of (t_d, t_e), zero outside the r_max ball, an array of
    workspace ``ws`` (of a fresh one without it).  It takes the radii and
    the density from the sampler; recomputing them would change bits.
    """
    r_max = float(cfg.r_max)
    z_eff = 0.0 if cfg.debug_free_limit else 1.0  # Z = 0 leaves plane waves
    k0, k_a, k_b = kin.k0, kin.k_a, kin.k_b
    n_hat = _mirror_normal(kin)
    mk0, mk_a, mk_b = (k - (2.0 * float(k @ n_hat)) * n_hat for k in (k0, k_a, k_b))

    kmag_a, kmag_b = _wave_numbers(kin)
    a, b = (k_a, kmag_a), (k_b, kmag_b)
    if kin.e_a == kin.e_b:
        # the reflection maps kA onto kB exactly in real arithmetic (not in
        # floating point), so the mirror images are kB and kA themselves
        ma, mb = b, a
    else:
        # a mirror image keeps the |k| of its source
        ma, mb = (mk_a, kmag_a), (mk_b, kmag_b)
    # one row per mirror variant: the beam, and the conjugated waves at r1
    # and at r2 as (momentum, |k|); the e-e relative momentum is half the
    # r1 wave's momentum minus the r2 wave's
    table = (
        (k0, a, b),  # direct
        (mk0, ma, mb),  # mirrored direct
        (k0, b, a),  # exchange
        (mk0, mb, ma),  # mirrored exchange
    )
    # each distinct pair of waves is looked up once and its rows read by
    # ``rows``: at equal energies the mirrored rows repeat the exchange
    # rows' waves and e-e momentum, and only their beams differ
    waves_at, rows = _distinct_rows([row[1:] for row in table])
    m = len(waves_at)
    pair_of_row = range(4) if rows is None else rows.tolist()
    kabs = [0.5 * (k1 - k2) for (k1, _), (k2, _) in waves_at]

    # reflection and overall sign leave |kab| the same in every row
    kab_mag = _kab_mag(kin)
    if cfg.debug_free_limit:
        waves, corr = {}, None
    else:
        waves, corr = _coulomb_tables((kmag_a, kmag_b), kab_mag, r_max)

    # the wave lookups, (0 at r1 or 1 at r2, momentum, |k|): pair j's waves
    # at r1 and at r2 are lookups j and m + j.  Their rows are sorted by
    # |k|, so a slice reads each wave table in one call on adjacent rows.
    lookups = [(i, k, kmag) for i, col in enumerate(zip(*waves_at)) for k, kmag in col]
    order = sorted(range(2 * m), key=lambda j: lookups[j][2])
    pairs = [(order.index(j), order.index(m + j)) for j in range(m)]
    lookups = [lookups[j] for j in order]
    kmags = [kmag for _, _, kmag in lookups]
    spans = [(tab, bisect.bisect_left(kmags, key), bisect.bisect_right(kmags, key))
             for key, tab in waves.items()]

    # conjugated normalization factors; one overall scalar for all rows
    scale = np.conj(coulomb_norm(-z_eff / kmag_a)) * np.conj(coulomb_norm(-z_eff / kmag_b))
    if corr is not None:
        scale *= np.conj(coulomb_norm(0.5 / kab_mag))

    def weigh(r1, r1mag, r2, r2mag, density, ws=None):
        ws = _Workspace() if ws is None else ws
        n = len(r1mag)
        at = ((r1, r1mag), (r2, r2mag))
        t = ws("t", (n,))
        with np.errstate(divide="ignore", invalid="ignore"):
            r12 = np.subtract(r1, r2, out=ws("r12", (n, 3)))
            # |r12|^2 adds the squared components left to right, as
            # np.sum(r12 * r12, axis=1) does, without its per-row loop
            r12mag = np.multiply(r12[:, 0], r12[:, 0], out=ws("r12mag", (n,)))
            for c in (1, 2):
                r12mag += np.multiply(r12[:, c], r12[:, c], out=t)
            np.sqrt(r12mag, out=r12mag)
            pot = np.divide(1.0, r12mag, out=ws("pot", (n,)))
            pot -= np.divide(1.0, r1mag, out=t)
            # smooth radial taper of the projectile coordinate
            window = np.divide(r1mag, r_max, out=ws("window", (n,)))
            window -= 0.5
            window *= 2.0
            np.clip(window, 0.0, 1.0, out=window)
            np.multiply(0.5 * math.pi, window, out=window)
            # cos^2 = 1 / (1 + tan^2)
            np.square(np.tan(window, out=window), out=window)
            window += 1.0
            np.divide(1.0, window, out=window)
            pot *= window
            pot *= np.exp(np.negative(r2mag, out=t), out=t)
            common = np.multiply(scale * _BOUND_NORM, pot, out=ws("common", (n,), complex))
            common += 0.0j

            # plane-wave phases: beam at r1 and conjugated waves at r1, r2;
            # "arguments" holds them, then the waves' and the e-e factor's
            # 1F1 arguments, each set used up before the next is written
            ph = ws("arguments", (4, n))
            for row, (k, (k1, _), (k2, _)) in zip(ph, table):
                np.matmul(r1, k, out=row)
                row -= np.matmul(r1, k1, out=t)
                row -= np.matmul(r2, k2, out=t)
            # the unit phases e^{i ph} from tan(ph / 2)
            g = ws("g", (4, n), complex)
            ph *= 0.5
            _unit_circle(np.tan(ph, out=ph), g.real, g.imag)
            if corr is not None:
                # the waves' 1F1 factors at |k||r| + k.r, at r1 and r2
                x = ws("arguments", (2 * m, n))
                for row, (i, k, kmag) in zip(x, lookups):
                    np.matmul(at[i][0], k, out=row)
                    row += np.multiply(kmag, at[i][1], out=t)
                f_waves = ws("f_waves", (2 * m, n), complex)
                for tab, lo, hi in spans:
                    tab.evaluate(x[lo:hi], out=f_waves[lo:hi], work=ws)
                rc = np.multiply(kab_mag, r12mag, out=t)
                args_c = ws("arguments", (m, n))
                for row, kab in zip(args_c, kabs):
                    np.matmul(r12, kab, out=row)
                    row += rc
                c = corr.evaluate(args_c, out=ws("corr", (m, n), complex), work=ws)
                # complex multiply is not bitwise commutative, so a row's
                # factors are multiplied in one order, ((waves at r1 * waves
                # at r2) * phase) * e-e factor
                f = ws("f", (n,), complex)
                for row, j in zip(g, pair_of_row):
                    np.multiply(f_waves[pairs[j][0]], f_waves[pairs[j][1]], out=f)
                    f *= row
                    np.multiply(f, c[j], out=row)

            inv_p = np.multiply(0.5, common, out=common)
            inv_p /= density
            w = np.add(g[0::2], g[1::2], out=ws("w", (2, n), complex))
            w *= inv_p
        inball = np.less_equal(r1mag, r_max, out=ws("inball", (n,), bool))
        inball &= np.less_equal(r2mag, r_max, out=ws("inball_r2", (n,), bool))
        np.copyto(w, 0.0, where=np.logical_not(inball, out=inball))
        return w

    return weigh


def usable_cpus() -> int:
    """The number of CPUs this process may run on (its affinity where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _estimate(sums, n_total: int) -> PairEstimate:
    """A point's estimate from its blocks' (sums, second moments, rejected), in block order."""
    s1_blocks, s2_blocks, rejected = zip(*sums)
    n_rejected = sum(rejected)
    if n_rejected > _MAX_REJECT_FRACTION * n_total:
        raise ArithmeticError(
            f"3C Monte Carlo rejected {n_rejected} of {n_total} samples "
            f"(> {_MAX_REJECT_FRACTION:.1%}); integrand evaluation is unhealthy"
        )
    s1 = np.array([math.fsum(b[i] for b in s1_blocks) for i in range(4)])
    s2 = np.array([[math.fsum(b[i, j] for b in s2_blocks) for j in range(4)]
                   for i in range(4)])
    # rejected samples count as zero weights over the full budget, so the
    # estimator is not conditioned on the integrand evaluating finitely
    mean = s1 / n_total
    sample_cov = (s2 - n_total * np.outer(mean, mean)) / max(1, n_total - 1)
    return PairEstimate(complex(mean[0], mean[1]), complex(mean[2], mean[3]),
                        sample_cov / n_total, n_total, n_rejected)


def c3_pairs(kins, cfg: McConfig, workers: int | None = None) -> list[PairEstimate]:
    """Estimate both 3C amplitudes at each of ``kins``, in their order.

    Every (point, block) task of the call runs on one pool of
    min(``workers``, usable CPUs, tasks) threads, ``workers`` defaulting
    to the usable CPUs; with one thread the tasks run in the caller's.
    A point's estimate depends on neither the other points nor the pool.
    """
    cfg = cfg.validated()
    n_total = int(cfg.samples)
    r_max = float(cfg.r_max)
    n_blocks = (n_total + BLOCK_SIZE - 1) // BLOCK_SIZE
    # None for coincident outgoing momenta: the repulsive correlation
    # factor suppresses the state completely and the T matrix vanishes
    points = [None if not cfg.debug_free_limit and _kab_mag(kin) == 0.0 else _canonical(kin)
              for kin in kins]
    tasks = [(kin, blk) for kin in points if kin is not None for blk in range(n_blocks)]
    local = threading.local()  # each thread's workspace, dropped with the call

    def block_sums(task):
        kin, blk = task
        ws = getattr(local, "ws", None)
        if ws is None:
            ws = local.ws = _Workspace()
        weigh = _kernel(kin, cfg)
        stream = _block_stream(np.array([cfg.seed, _stream_word(kin)], dtype=np.uint64), blk)
        n = min(BLOCK_SIZE, n_total - blk * BLOCK_SIZE)
        # rows (Re t_d, Im t_d, Re t_e, Im t_e), written slice by slice
        x = ws("block", (4, n))
        for lo in range(0, n, _SLICE):
            w = weigh(*_draw(stream, min(_SLICE, n - lo), r_max, ws), ws)
            x[0::2, lo:lo + _SLICE] = w.real
            x[1::2, lo:lo + _SLICE] = w.imag
        finite = np.isfinite(x[0], out=ws("finite", (n,), bool))
        for row in x[1:]:
            finite &= np.isfinite(row, out=ws("finite_row", (n,), bool))
        rejected = n - int(np.count_nonzero(finite))
        if rejected:
            np.copyto(x, 0.0, where=~finite)
        return x.sum(axis=1), x @ x.T, rejected

    cpus = usable_cpus()
    width = min(cpus if workers is None else workers, cpus, len(tasks))
    if width <= 1:
        sums = list(map(block_sums, tasks))
    else:
        # the pool ends with the call, and its threads and workspaces with it
        with ThreadPoolExecutor(max_workers=width, thread_name_prefix="c3mc-block") as pool:
            sums = list(pool.map(block_sums, tasks))
    blocks = iter(sums)
    return [PairEstimate(0j, 0j, np.zeros((4, 4)), n_total, 0) if kin is None
            else _estimate([next(blocks) for _ in range(n_blocks)], n_total) for kin in points]


def c3_pair(kin: Kinematics, cfg: McConfig) -> PairEstimate:
    """Estimate both 3C amplitudes on one mirror-symmetrized sample set."""
    return c3_pairs([kin], cfg)[0]
