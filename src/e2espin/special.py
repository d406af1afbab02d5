"""Complex-argument special functions for Coulomb continuum states.

Provides the complex log-gamma function, the confluent hypergeometric
function 1F1 (Kummer's M) for complex parameters and argument, and the
Coulomb continuum normalization factor exp(-pi*xi/2) * Gamma(1 - i*xi).

Accuracy notes
--------------
``ln_gamma`` uses a 15-term Lanczos approximation (g = 607/128) in the
right half plane and the reflection formula for Re z < 1/2.  The
relative error of exp(ln_gamma(z)) is a few 1e-15 away from the poles.

``kummer_1f1`` maps the left half plane to the right one through the
Kummer transformation 1F1(a,b,z) = e^z 1F1(b-a,b,-z), sums the
Maclaurin series for |z| < ``_Z_SWITCH`` (and for larger arguments
pointing along the positive real direction, where the series does not
cancel) and switches to the compound large-|z| expansion, keeping both
exponential contributions, beyond it.  In double precision the
worst-case relative error sits in a band around the switch radius,
where the cancellation noise of the series meets the optimal
truncation floor of the asymptotic sums: a few 1e-9 for |a| <= 1, a
few 1e-8 for |a| ~ 2, and 1e-10 or better elsewhere for |z| <= 50.
Arguments up to |z| ~ 500 are handled by the asymptotic branch at
essentially machine precision.  The series stops when its whole batch
has converged, so near |z| = 21 a value depends on its batch by up to
~1e-8 relative.

``Coulomb1F1Table`` tabulates the Coulomb case x -> 1F1(i*alpha; 1; i*x)
for real x in [0, x_max] in two steps.  The fit: a piecewise Chebyshev
series of degree ``_FIT_DEGREE`` (8) on segments of width at most
``_TABLE_WIDTH`` / max(1, |alpha|), the projection of one batched
``kummer_1f1`` call on twice as many Chebyshev nodes per segment as
coefficients.  Its truncation error, about 1e-11 relative, is far below
the series noise of ``kummer_1f1``, which the oversampled projection
onto the lower degree averages down (fitting degree 5 straight from
``kummer_1f1`` on pieces as narrow as the refit's gives 1.12 times its
worst error against mpmath).
The refit: each segment is split into ``_TABLE_PIECES`` (4) equal
pieces, and each piece gets the degree-``_TABLE_DEGREE`` (5) polynomial
through the segment's series at the 6 Chebyshev points cos(pi j / 5) of
the piece, both ends included, all through one constant matrix
(``_REFIT``), so a build adds one small matrix product and no
``kummer_1f1`` call.  The refit stays within 4.3e-10 relative of the
degree-8 fit.  Its source is a polynomial without noise, so it
interpolates: a projection at 2 (5 + 1) nodes per piece stays within
2.3e-10 inside a piece but misses its ends by up to 3e-11, so the table
would read 1F1(0) = 1 to 2e-11 where the degree-8 fit reads it to
2e-12.  With both ends pinned, the table is also continuous across the
pieces of a segment.  The pieces are stored in the power basis of the
piece variable t in [-1, 1] and evaluated by Horner's rule in 5 steps
(within about 1e-15 relative of Clenshaw's recurrence on the pieces'
Chebyshev coefficients), at 16 bytes per coefficient: 384 bytes per
segment where the degree-8 power basis took 144, so 18 kB for a
46-segment table.  Degree 4 on 8 pieces evaluates about 12% faster
but takes 640 bytes per segment and misses by up to 4.9e-10; with the
table scratch of a 32,768-argument chunk it raised the benchmark's
``c3_scan`` peak resident set by 8.8% against 5.8% for this choice.
Against mpmath its worst error over [0, x_max] is no worse than that of
``kummer_1f1`` at the same points: from 0.43 times it (2.7e-9 against
6.3e-9 at alpha = 0.82) to 0.80 times (2.0e-9 against 2.5e-9 at
alpha = 0.62), and 4.4e-8 against 7.2e-8 at alpha = 2, in each case at
the switch radius.  Where the error of ``kummer_1f1`` is the smooth
truncation of its asymptotic sums (alpha = -2) the table reproduces
it, and both read about 2.1e-8.  A table value depends only on its own
argument, never on its batch.

``z`` (``x`` for the table) may be a scalar or a numpy array in all
functions.  Nothing here keeps mutable state, so concurrent calls are
safe.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = ["ConvergenceError", "ln_gamma", "kummer_1f1", "Coulomb1F1Table", "coulomb_norm"]


class ConvergenceError(ArithmeticError):
    """A series evaluation exceeded its term or precision budget."""


# Lanczos coefficients for g = 607/128, n = 15 (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_LN_2PI = math.log(2.0 * math.pi)
_LN_PI = math.log(math.pi)

# Series/asymptotic switch radius for 1F1 and term budgets.
_Z_SWITCH = 21.0
_MAX_TERMS = 10_000
_ASYM_TERMS = 80

# Coulomb 1F1 table: degree of the Chebyshev fit per segment, widest
# segment, pieces per segment (a power of two, so an argument's piece lies
# in the segment the fit gives it) and their degree after the refit, and
# arguments per evaluation chunk (4 x the 3C slice of 8,192 samples, so a
# slice reads each table in one chunk)
_FIT_DEGREE = 8
_TABLE_WIDTH = 1.0
_TABLE_PIECES = 4
_TABLE_DEGREE = 5
_TABLE_CHUNK = 32768


def _is_nonpositive_integer(w: complex) -> bool:
    return w.imag == 0.0 and w.real <= 0.0 and w.real == round(w.real)


def _log_sin_pi(z: complex) -> complex:
    """log(sin(pi z)), stable for large |Im z| (branch may differ by 2*pi*i)."""
    w = math.pi * z
    if abs(w.imag) < 20.0:
        return cmath.log(cmath.sin(w))
    if w.imag > 0.0:
        # sin w = e^{-iw} (1 - e^{2iw}) * (i/2)
        return -1j * w + cmath.log(1.0 - cmath.exp(2j * w)) + complex(-math.log(2.0), 0.5 * math.pi)
    return 1j * w + cmath.log(1.0 - cmath.exp(-2j * w)) + complex(-math.log(2.0), -0.5 * math.pi)


def ln_gamma(z) -> complex:
    """Principal branch of log Gamma(z) for complex z.

    exp(ln_gamma(z)) equals Gamma(z) to machine precision everywhere.
    On the real axis the imaginary part is the principal one (0 where
    Gamma > 0, pi where Gamma < 0).  Off the real axis in the reflected
    region Re z < 1/2 the imaginary part may differ from the continuous
    continuation by a multiple of 2*pi, which no identity built on
    exp(ln_gamma) can observe.

    Raises
    ------
    ValueError
        If z is a pole of Gamma (a nonpositive integer) or non-finite.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"ln_gamma requires finite z, got {z}")
    if _is_nonpositive_integer(z):
        raise ValueError(f"ln_gamma: pole at z = {z.real:g}")
    if z.real < 0.5:
        out = _LN_PI - _log_sin_pi(z) - ln_gamma(1.0 - z)
        if z.imag == 0.0:
            # real axis: Gamma alternates sign between poles; pin the
            # principal value (imaginary part 0 or pi)
            im = math.pi if (math.floor(z.real) % 2 != 0) else 0.0
            out = complex(out.real, im)
        return out
    w = z - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return 0.5 * _LN_2PI + (w + 0.5) * cmath.log(t) - t + cmath.log(acc)


def _recip_gamma(w: complex) -> complex:
    """1/Gamma(w); zero at the poles of Gamma."""
    if _is_nonpositive_integer(w):
        return 0.0 + 0.0j
    return cmath.exp(-ln_gamma(w))


def _maclaurin_1f1(a: complex, b: complex, z: np.ndarray, max_terms: int) -> np.ndarray:
    """Maclaurin series of 1F1 on a flat complex array (|z| small)."""
    total = np.ones_like(z)
    if a == 0:
        return total
    term = np.ones_like(z)
    # converged elements keep accumulating their (negligible) terms; the
    # loop stops once every element has had two vanishing terms in a row
    streak = 0
    check_from = 4
    for n in range(max_terms):
        np.multiply(term, z, out=term)
        term *= (a + n) / ((b + n) * (n + 1.0))
        total += term
        if n >= check_from:
            if np.all(np.abs(term) <= 1e-16 * np.abs(total)):
                streak += 1
                if streak >= 2:
                    return total
                check_from = n + 1  # re-check immediately to confirm
            else:
                streak = 0
                check_from = n + 4
    raise ConvergenceError(
        f"kummer_1f1 series did not converge in {max_terms} terms "
        f"(max |z| attempted = {np.abs(z).max():.6g})"
    )


def _asym_sum(p: complex, q: complex, w: np.ndarray) -> np.ndarray:
    """sum_s (p)_s (q)_s / (s! w^s) truncated at the smallest term per element."""
    total = np.ones_like(w)
    term = np.ones_like(w)
    prev_mag = np.full(w.shape, np.inf)
    done = np.zeros(w.shape, dtype=bool)
    for s in range(_ASYM_TERMS):
        term = term * ((p + s) * (q + s)) / ((s + 1.0) * w)
        mag = np.abs(term)
        done |= mag >= prev_mag  # past the smallest term: stop before adding
        active = ~done
        if not active.any():
            break
        total[active] += term[active]
        done |= mag <= 5e-17 * np.abs(total)
        prev_mag = np.where(active, mag, prev_mag)
    return total


def _asymptotic_1f1(a: complex, b: complex, z: np.ndarray) -> np.ndarray:
    """Compound large-|z| expansion of 1F1 with both exponential contributions."""
    logz = np.log(z)
    # e^z z^{a-b} Gamma(b)/Gamma(a) branch
    c1 = _recip_gamma(a)
    # algebraic z^{-a} Gamma(b)/Gamma(b-a) branch
    c2 = _recip_gamma(b - a)
    gb = ln_gamma(b)
    out = np.zeros_like(z)
    if c1 != 0.0:
        s1 = _asym_sum(b - a, 1.0 - a, z)
        out = out + (cmath.exp(gb) * c1) * np.exp(z + (a - b) * logz) * s1
    if c2 != 0.0:
        s2 = _asym_sum(a, a - b + 1.0, -z)
        # (-z)^{-a} on the principal branch; signed zeros in Im(z) keep the
        # continuation consistent on both sides of the imaginary axis
        out = out + (cmath.exp(gb) * c2) * np.exp(-a * np.log(-z)) * s2
    return out


def kummer_1f1(a, b, z, *, max_terms: int = _MAX_TERMS):
    """Confluent hypergeometric function 1F1(a; b; z) for complex arguments.

    Parameters
    ----------
    a, b : complex
        Parameters; b must not be a nonpositive integer.
    z : complex or array_like of complex
        Argument(s).  |z| up to ~500 is supported.

    Returns
    -------
    complex or ndarray
        Matches the shape of ``z``.

    Raises
    ------
    ValueError
        If b is a nonpositive integer.
    ConvergenceError
        If the series does not converge within ``max_terms`` terms or a
        non-finite value is produced (e.g. overflow for huge Re z).
    """
    a = complex(a)
    b = complex(b)
    if _is_nonpositive_integer(b):
        raise ValueError(f"kummer_1f1: b = {b.real:g} is a nonpositive integer (pole)")
    arr = np.asarray(z, dtype=np.complex128)
    scalar = arr.ndim == 0
    flat = arr.reshape(-1).copy()
    out = np.empty_like(flat)
    # Left half plane: route through the Kummer transformation
    # 1F1(a,b,z) = e^z 1F1(b-a,b,-z) so the series never faces the
    # e^{|z| - Re z} cancellation of decaying exponentials.
    neg = flat.real < 0.0
    if neg.any():
        out[neg] = np.exp(flat[neg]) * kummer_1f1(b - a, b, -flat[neg], max_terms=max_terms)
    pos = ~neg
    zp = flat[pos]
    mag = np.abs(zp)
    # the series stays accurate to much larger |z| when z points along the
    # positive real direction, where the asymptotic sums are weakest
    small = (mag < _Z_SWITCH) | ((mag < 60.0) & (mag - zp.real < 16.0))
    sub = np.empty_like(zp)
    if small.any():
        sub[small] = _maclaurin_1f1(a, b, zp[small], max_terms)
    big = ~small
    if big.any():
        sub[big] = _asymptotic_1f1(a, b, zp[big])
    out[pos] = sub
    bad = ~np.isfinite(out.real) | ~np.isfinite(out.imag)
    if bad.any():
        raise ConvergenceError(
            f"kummer_1f1 produced a non-finite value (max |z| attempted = "
            f"{np.abs(flat[bad]).max():.6g})"
        )
    if scalar:
        return complex(out[0])
    return out.reshape(arr.shape)


def _chebyshev_to_power(degree: int) -> np.ndarray:
    """Row k holds the power-basis coefficients of T_k(t), up to t^degree.

    Built from T_{k+1} = 2t T_k - T_{k-1}; every entry is an exact integer.
    """
    m = np.zeros((degree + 1, degree + 1))
    m[0, 0] = 1.0
    m[1, 1] = 1.0
    for k in range(1, degree):
        m[k + 1, 1:] = 2.0 * m[k, :-1]
        m[k + 1] -= m[k - 1]
    return m


def _refit_matrix(fit_degree: int, pieces: int, degree: int) -> np.ndarray:
    """Chebyshev coefficients of a segment's fit -> those of its pieces.

    Row k holds, for T_k(t) on the segment t in [-1, 1], the Chebyshev
    coefficients of degree ``degree`` on each of ``pieces`` equal pieces
    (piece by piece, in the piece's own variable in [-1, 1]): the
    polynomial through its values at the degree + 1 Chebyshev points
    cos(pi j / degree) of the piece, both piece ends included.  Shape
    (fit_degree + 1, pieces * (degree + 1)).
    """
    theta = math.pi * np.arange(degree + 1) / degree
    # the piece points in the segment variable; piece j spans
    # [-1 + 2j / pieces, -1 + 2 (j + 1) / pieces]
    t = (2.0 * np.arange(pieces)[:, None] + 1.0 + np.cos(theta)) / pieces - 1.0
    values = np.cos(np.arccos(t)[:, :, None] * np.arange(fit_degree + 1))  # T_k(t): (piece, point, k)
    # discrete cosine transform of the first kind: half weight at the
    # ends, and c_0 and c_degree halved
    interpolate = (2.0 / degree) * np.cos(np.outer(theta, np.arange(degree + 1)))
    interpolate[[0, -1], :] *= 0.5
    interpolate[:, [0, -1]] *= 0.5
    return np.ascontiguousarray((values.transpose(2, 0, 1) @ interpolate).reshape(fit_degree + 1, -1))


_REFIT = _refit_matrix(_FIT_DEGREE, _TABLE_PIECES, _TABLE_DEGREE)
_CHEBYSHEV_TO_POWER = _chebyshev_to_power(_TABLE_DEGREE)


def _chebyshev_segments(alpha: float, x_max: float) -> tuple[int, np.ndarray]:
    """The segments of ``Coulomb1F1Table(alpha, x_max)``'s fit and their Chebyshev coefficients.

    Returns the segment count and an (n_seg, fit degree + 1) complex
    array: row s holds c_0 .. c_8 of sum_k c_k T_k(t) on segment s, with
    t in [-1, 1] across it.
    """
    n_seg = math.ceil(x_max * max(1.0, abs(alpha)) / _TABLE_WIDTH)
    m = 2 * (_FIT_DEGREE + 1)
    theta = math.pi * (np.arange(m) + 0.5) / m
    left = np.arange(n_seg) * (x_max / n_seg)
    x = left[:, None] + (0.5 * x_max / n_seg) * (1.0 + np.cos(theta))
    f = kummer_1f1(complex(0.0, alpha), 1.0, 1j * x.ravel()).reshape(n_seg, m)
    coef = (2.0 / m) * (f @ np.cos(np.outer(np.arange(_FIT_DEGREE + 1), theta)).T)
    coef[:, 0] *= 0.5
    return n_seg, coef


def _chebyshev_pieces(alpha: float, x_max: float) -> np.ndarray:
    """The pieces of ``Coulomb1F1Table(alpha, x_max)`` and their Chebyshev coefficients.

    Returns an (n_seg * ``_TABLE_PIECES``, ``_TABLE_DEGREE`` + 1) complex
    array: row p holds the coefficients of piece p, the (p mod pieces)-th
    piece of segment p // pieces, in its own variable t in [-1, 1].
    """
    n_seg, cheb = _chebyshev_segments(alpha, x_max)
    return (cheb @ _REFIT).reshape(n_seg * _TABLE_PIECES, _TABLE_DEGREE + 1)


def _fresh(name, shape, dtype):
    """A new array: the scratch of a table evaluated without a workspace."""
    return np.empty(shape, dtype)


class Coulomb1F1Table:
    """x -> 1F1(i*alpha; 1; i*x) on [0, x_max] as a piecewise polynomial table.

    The segments have width at most ``_TABLE_WIDTH`` / max(1, |alpha|):
    the function oscillates with unit frequency far out and varies on the
    scale 1/|alpha| near x = 0.  Each segment's degree-8 series is the
    Chebyshev projection of ``kummer_1f1`` values at 2 (8 + 1) first-kind
    nodes, all computed in one batched call.  It is then refit onto
    ``_TABLE_PIECES`` equal pieces of degree ``_TABLE_DEGREE``, each
    through the series at its Chebyshev points (ends included), within
    4.3e-10 relative of the degree-8 series, and each piece is stored in
    the power basis of t in [-1, 1] for Horner's rule: 96 bytes per
    piece.  The table is read-only after construction, so threads may
    share it.
    """

    def __init__(self, alpha: float, x_max: float):
        alpha = float(alpha)
        x_max = float(x_max)
        if not math.isfinite(alpha):
            raise ValueError(f"Coulomb1F1Table requires finite alpha, got {alpha}")
        if not (math.isfinite(x_max) and x_max > 0.0):
            raise ValueError(f"Coulomb1F1Table requires finite x_max > 0, got {x_max}")
        self.alpha = alpha
        self.x_max = x_max
        cheb = _chebyshev_pieces(alpha, x_max)
        self._n_pieces = len(cheb)
        self._inv_width = self._n_pieces / x_max
        # (power, piece): one gather of complex coefficients per Horner step
        self._coef = np.ascontiguousarray((cheb @ _CHEBYSHEV_TO_POWER).T)

    def evaluate(self, x, out=None, work=None) -> np.ndarray:
        """1F1(i*alpha; 1; i*x) at real ``x``, clamped into [0, x_max].

        Returns a complex array of the shape of ``x``, written into ``out``
        when given (a C-contiguous complex array of that shape).  Each value
        depends only on its own argument, so bitwise-equal arguments give
        bitwise-equal values; a NaN argument gives a NaN value.  ``work``,
        when given, provides the scratch arrays of up to ``_TABLE_CHUNK``
        arguments: ``work(name, shape, dtype)`` returns a C-contiguous
        array it may reuse from call to call.
        """
        flat = np.asarray(x, dtype=float).reshape(-1)
        if out is None:
            out = np.empty(np.shape(x), dtype=complex)
        elif out.shape != np.shape(x) or out.dtype != complex or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous complex array of the shape of x")
        values = out.reshape(-1)
        coef = self._coef
        size = min(len(flat), _TABLE_CHUNK)
        work = _fresh if work is None else work
        u = work("table_u", (size,), float)  # the argument, then t in [-1, 1] in its piece
        seg = work("table_seg", (size,), np.intp)
        t2 = work("table_t2", (size, 2), float)  # t for the real and the imaginary part
        ck = work("table_ck", (size,), complex)
        for start in range(0, len(flat), _TABLE_CHUNK):
            stop = min(start + _TABLE_CHUNK, len(flat))
            n = stop - start
            un, segn, ckn = u[:n], seg[:n], ck[:n]
            np.clip(flat[start:stop], 0.0, self.x_max, out=un)
            un *= self._inv_width
            with np.errstate(invalid="ignore"):  # NaN: any piece, NaN value
                np.copyto(segn, un, casting="unsafe")
            np.minimum(segn, self._n_pieces - 1, out=segn)
            # t in [-1, 1], the position inside the piece
            un -= segn
            un *= 2.0
            un -= 1.0
            t2[:n] = un[:, None]
            tn = t2[:n].reshape(-1)
            # Horner: b = b t + c_k on the real and imaginary parts
            b = values[start:stop]
            coef[_TABLE_DEGREE].take(segn, mode="clip", out=b)
            parts = b.view(float)
            for k in range(_TABLE_DEGREE - 1, -1, -1):
                parts *= tn
                coef[k].take(segn, mode="clip", out=ckn)
                parts += ckn.view(float)
        return out


def coulomb_norm(xi: float) -> complex:
    """Coulomb continuum normalization factor exp(-pi xi/2) Gamma(1 - i xi).

    Its squared modulus is the Gamow factor 2 pi xi / (e^{2 pi xi} - 1).
    Returns exactly 1 for xi = 0 (plane-wave limit); underflows cleanly
    to 0 for very large positive xi (strong repulsion).
    """
    xi = float(xi)
    if not math.isfinite(xi):
        raise ValueError(f"coulomb_norm requires finite xi, got {xi}")
    if xi == 0.0:
        return 1.0 + 0.0j
    return cmath.exp(-0.5 * math.pi * xi + ln_gamma(complex(1.0, -xi)))
