"""Self-contained special functions for the 2D Kratzer-dipole solver.

Everything here is a pure function of its arguments, in float64
unless stated.  Digamma uses an upward recurrence shift to x >= 8
followed by its asymptotic expansion; ln Gamma is the standard
library's math.lgamma.  The fractional-order Mathieu characteristic
number comes in two independent flavours: the truncated power series in
the coupling ``b`` and a symmetric tridiagonal eigenproblem that serves
as its cross-check.  ``gamma0`` evaluates the terminating
Lauricella-type coefficient that linearises even powers of Laguerre
polynomials.  Its terms overflow float64 and cancel by about q n
decimal digits, so its alternating core is summed in fixed point on
Python integers: the polynomial is raised with every coefficient
nonnegative, packed into one integer and floored slot by slot, at a
precision chosen from (q, n, lam) before the sum and confirmed after it
by a proven bound on the rounding, weighted coefficient by coefficient
(the sum is redone at a higher precision if the bound is not met).  The
result is reported in log-magnitude/sign form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "SeriesSingularError",
    "TruncationError",
    "ValidityWarning",
    "digamma",
    "laguerre",
    "log_abs_laguerre",
    "MathieuEvenSolution",
    "mathieu_char_series",
    "mathieu_char_matrix",
    "mathieu_even_solution",
    "gamma0",
    "log_gamma0",
]


class SeriesSingularError(ValueError):
    """Characteristic-number series has a vanishing denominator at this order."""


class TruncationError(RuntimeError):
    """Fourier truncation of a Mathieu solution is too small for the coupling."""


class ValidityWarning(UserWarning):
    """Characteristic-number series used outside its documented coupling range."""


@cache
def _scipy_linalg():
    """scipy.linalg, imported on the first tridiagonal eigensolve.

    Importing it takes about 0.3 s (2-vCPU x86 VM), a thousand closed-form
    answers, and the closed forms never solve an eigenproblem, so a
    process that only asks for them never loads scipy.  The Mathieu matrix route and the oracle's
    Laguerre zeros and finite-difference spectrum load it on first use.
    """
    import scipy.linalg

    return scipy.linalg


def eigh_tridiagonal(*args, **kwargs):
    """scipy.linalg.eigh_tridiagonal, loaded by ``_scipy_linalg`` on the first call."""
    return _scipy_linalg().eigh_tridiagonal(*args, **kwargs)


# B_{2j} / (2j) for j = 1..7: coefficients of y^-2j in the expansion of
# psi(y) = ln y - 1/(2y) - sum_j c_j y^-2j.
_DIGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

_ASYMPTOTIC_CUTOFF = 8.0


def digamma(x: float) -> float:
    """Digamma psi(x) for x > 0, via recurrence shift plus asymptotic series."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    y = x
    while y < _ASYMPTOTIC_CUTOFF:
        acc -= 1.0 / y
        y += 1.0
    r2 = 1.0 / (y * y)
    tail = 0.0
    for c in reversed(_DIGAMMA_COEFFS):
        tail = tail * r2 + c
    tail *= r2
    return acc + math.log(y) - 0.5 / y - tail


_RESCALE_STEPS = 8


def _laguerre_scaled(n: int, alpha: float, x):
    """(mantissa, exponent) with L_n^(alpha)(x) = mantissa * 2^exponent.

    The upward three-term recurrence
    (k + 1) L_{k+1} = (2k + 1 + alpha - x) L_k - (k + alpha) L_{k-1},
    run in place.  Every _RESCALE_STEPS steps the pair (L_k, L_{k-1}) at
    each point is divided by the power of two of L_k, which is exact, and
    that power is added to the exponent: the float 0.0 until the first
    rescale (n <= _RESCALE_STEPS never rescales), a float array from then
    on.  A step grows the pair by at most a factor of
    |x| + 3k + 2 alpha + 1, so between rescales it grows by at most that
    factor to the eighth power, far inside the double range while the
    factor stays below 1e38.  Every operation sees the plain recurrence's
    values times a power of two, so the mantissa carries that
    recurrence's rounding, bit for bit, wherever its values stay normal
    doubles.
    """
    if n < 0:
        raise ValueError(f"laguerre requires n >= 0, got {n}")
    if alpha <= -1.0:
        raise ValueError(f"laguerre requires alpha > -1, got {alpha}")
    xa = np.asarray(x, dtype=float)
    exponent = 0.0
    prev = np.ones_like(xa)
    if n == 0:
        return prev, exponent
    cur = np.subtract(1.0 + alpha, xa, out=np.empty_like(xa))
    nxt = np.empty_like(xa)
    for k in range(1, n):
        np.subtract(2.0 * k + 1.0 + alpha, xa, out=nxt)
        nxt *= cur
        prev *= k + alpha
        nxt -= prev
        nxt /= k + 1.0
        prev, cur, nxt = cur, nxt, prev
        if k % _RESCALE_STEPS == 0:
            _, e = np.frexp(cur)
            np.ldexp(cur, -e, out=cur)
            np.ldexp(prev, -e, out=prev)
            exponent = exponent + e
    return cur, exponent


def laguerre(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^(alpha)(x) by upward recurrence.

    ``x`` may be a scalar or ndarray; the return type matches.  The
    recurrence is ``_laguerre_scaled``'s, so the value is the plain
    recurrence's to the bit wherever that stays finite, and is inf only
    where |L_n| itself passes the double range.
    """
    mantissa, exponent = _laguerre_scaled(n, alpha, x)
    out = np.ldexp(mantissa, np.asarray(exponent, dtype=np.int32))
    return float(out) if np.isscalar(x) else out


def log_abs_laguerre(n: int, alpha: float, x):
    """ln |L_n^(alpha)(x)|, as ln |mantissa| + exponent ln 2 from ``_laguerre_scaled``.

    Finite wherever L_n is nonzero, at any degree the recurrence reaches,
    and -inf (without a numpy warning) at its zeros.  ``x`` may be a
    scalar or ndarray; the return type matches.
    """
    out, exponent = _laguerre_scaled(n, alpha, x)
    np.abs(out, out=out)
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    out += exponent * math.log(2.0)
    return float(out) if np.isscalar(x) else out


_SINGULAR_ORDERS = (0.5, 1.0, 1.5)
_SINGULAR_TOL = 1e-3


def mathieu_char_series(m_eff: float, b: float) -> float:
    """Even Mathieu characteristic number a_{2 m_eff}(b) from the b^6 power series.

    Sums exactly the four displayed terms (through b^6) of the small-b
    expansion with l = 4 m_eff^2 - 1.  The denominators vanish at
    m_eff in {0.5, 1.0, 1.5}; those orders are refused and callers are
    pointed at :func:`mathieu_char_matrix`.  A ValidityWarning is
    emitted outside the documented coupling range (b < 1 below order 4,
    b <= 20 at order >= 4).
    """
    m_eff = float(m_eff)
    b = float(b)
    if m_eff < 0.0:
        raise ValueError(f"mathieu_char_series requires m_eff >= 0, got {m_eff}")
    if b < 0.0:
        raise ValueError(f"mathieu_char_series requires b >= 0, got {b}")
    msq = m_eff * m_eff
    if b == 0.0:
        return 4.0 * msq
    if min(abs(m_eff - s) for s in _SINGULAR_ORDERS) < _SINGULAR_TOL:
        raise SeriesSingularError(
            f"series denominators vanish near m_eff = {m_eff}; "
            "use mathieu_char_matrix for this order"
        )
    if (m_eff < 2.0 and b >= 1.0) or (m_eff >= 2.0 and b > 20.0):
        warnings.warn(
            f"characteristic-number series outside its validity range "
            f"(m_eff = {m_eff}, b = {b}); expect degraded accuracy",
            ValidityWarning,
            stacklevel=2,
        )
    el = 4.0 * msq - 1.0
    b2 = b * b
    a = 4.0 * msq
    a += b2 / (2.0 * el)
    a += (20.0 * msq + 7.0) * b2 * b2 / (32.0 * el**3 * (el - 3.0))
    a += (
        (36.0 * msq * msq + 232.0 * msq + 29.0)
        * b2 * b2 * b2
        / (64.0 * el**5 * (el - 3.0) * (el - 8.0))
    )
    return a


@dataclass(frozen=True)
class MathieuEvenSolution:
    """Even Floquet solution of y'' + (a - 2 b cos 2z) y = 0.

    ``coeffs[i]`` multiplies cos((order + 2k) z) with k = i - truncation,
    so the angular profile is sum_k coeffs[k] cos((order + 2k) z).
    """

    order: float
    b: float
    char_number: float
    coeffs: np.ndarray
    truncation: int


def _even_seed(nu: float, size: int, K: int) -> np.ndarray:
    """Unit-norm b -> 0 limit of the even-branch eigenvector."""
    seed = np.zeros(size)
    seed[K] = 1.0
    nu_round = round(nu)
    if abs(nu - nu_round) < 1e-9 and nu_round != 0:
        # Integer order: frequencies +nu and -nu are degenerate at b = 0 and
        # the even (cosine-type) branch is their symmetric combination.
        idx = K - nu_round
        if idx < 0:
            raise TruncationError(
                f"truncation K = {K} cannot represent order nu = {nu}"
            )
        seed[idx] += 1.0
        seed /= math.sqrt(2.0)
    return seed


_TAIL_TOL = 1e-12


def mathieu_char_matrix(m_eff: float, b: float, K: int = 25) -> MathieuEvenSolution:
    """Even Mathieu characteristic number by tridiagonal diagonalisation.

    Builds the symmetric operator with diagonal (nu + 2k)^2, k = -K..K,
    nu = 2 m_eff, and off-diagonal b.  Its eigenvalues are simple for
    b > 0, so ranks cannot cross: the branch joining nu^2 at b = 0 is the
    eigenvalue of the same rank.  At integer nu, k = 0 and k = -nu tie at
    nu^2 (a_nu and b_nu, equal to rounding at small b); of that pair the
    vector with the larger overlap on the symmetric seed is kept, signed
    so the overlap is positive.  Raises TruncationError when the Fourier
    tail |c_(+-K)| has not decayed below 1e-12 of the largest coefficient.
    """
    m_eff = float(m_eff)
    b = float(b)
    if m_eff < 0.0 or b < 0.0:
        raise ValueError("mathieu_char_matrix requires m_eff >= 0 and b >= 0")
    if K < 10:
        raise ValueError(f"mathieu_char_matrix requires K >= 10, got {K}")
    nu = 2.0 * m_eff
    k = np.arange(-K, K + 1)
    diag = (nu + 2.0 * k) ** 2
    size = diag.size
    if b == 0.0:
        coeffs = np.zeros(size)
        coeffs[K] = 1.0
        return MathieuEvenSolution(nu, 0.0, nu * nu, coeffs, K)
    seed = _even_seed(nu, size, K)
    tied = np.flatnonzero(seed)
    first = int(np.count_nonzero(diag < diag[tied].min()))
    try:
        vals, vecs = eigh_tridiagonal(diag, np.full(size - 1, b), select="i",
                                      select_range=(first, first + tied.size - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise TruncationError(f"eigensolve failed for K = {K}: {exc}") from exc
    overlap = vecs.T @ seed
    best = int(np.argmax(np.abs(overlap)))
    coeffs = vecs[:, best] if overlap[best] >= 0.0 else -vecs[:, best]
    peak = np.max(np.abs(coeffs))
    tail = max(abs(coeffs[0]), abs(coeffs[-1]))
    if tail > _TAIL_TOL * peak:
        raise TruncationError(
            f"Fourier tail {tail / peak:.1e} exceeds {_TAIL_TOL:.0e} at K = {K}; "
            "increase the truncation"
        )
    return MathieuEvenSolution(nu, b, float(vals[best]), coeffs, K)


def mathieu_even_solution(m_eff: float, b: float) -> MathieuEvenSolution:
    """mathieu_char_matrix with the truncation doubled until the tail decays."""
    K = max(25, int(math.ceil(2.0 * m_eff)) + 15, int(2.0 * math.sqrt(max(b, 0.0))) + 10)
    while True:
        try:
            return mathieu_char_matrix(m_eff, b, K)
        except TruncationError:
            if K >= 3200:
                raise
            K = min(2 * K, 3200)


def _start_bits(q: int, n: int, lam: float) -> int:
    """Starting precision P, in bits, of the fixed-point gamma0 sum.

    The P that log_gamma0 accepts is about 60 bits plus the bits the sum
    cancels, which grow like q n times a factor that rises with lam / n:
    about 3.1 q n near lam = 1/2 and 5.7 q n at lam = 150, n = 30.  This
    fit, 62 + q n (3.1 + log2(1 + 2.5 lam / n)), is at or above the
    accepted P at every point of q 1-8, n 1-30, lam 0.55-150 that it was
    fitted on, by 5-10 bits on average, so the sum runs once; the check
    after the sum still decides.
    """
    return 62 + math.ceil(q * n * (3.1 + math.log2(1.0 + 2.5 * lam / n)))


def _floor_mask(size: int, bits: int, length: int) -> int:
    """Mask that clears the low ``bits`` bits of each of ``length`` slots.

    A slot is ``size`` bytes.  For slots holding nonnegative integers,
    (x & mask) >> bits floors every slot at 2^bits at once: no slot
    borrows from or carries into its neighbour.
    """
    return int.from_bytes(((1 << 8 * size) - (1 << bits)).to_bytes(size, "little") * length,
                          "little")


def _gamma0_sum(q: int, n: int, lam: float, bits: int) -> tuple[int, int, int]:
    """The alternating gamma0 core F in fixed point; see :func:`log_gamma0`.

    Returns (total, bound, scale): F is total * 2^-scale, and
    |F - total 2^-scale| is at most bound * 2^-scale.  Needs
    2^bits > 4 q - 1.
    """
    num, den = (2.0 * lam).as_integer_ratio()
    a_num = q * (num - den) + 2 * den  # a = a_num / den
    k_max = 2 * q * n
    # 2^e >= (a + K) / q for every K < k_max
    top = a_num + (k_max - 1) * den
    e = (-(-top // (q * den)) - 1).bit_length()
    # V_k = C(n, k) 2^(e k) / (2 lam)_k, floored at scale 2^-bits, with
    # (2 lam)_k = prod_{j<k} (num + j den) / den^k
    V, poch = [], 1
    for k in range(n + 1):
        V.append((math.comb(n, k) * den**k << (e * k + bits)) // poch)
        poch *= num + k * den
    # One slot per coefficient of the 2q-th power, wide enough for the
    # last product before its floor: at most sum(V)^(2q) 2^(-bits (2q - 2))
    length = k_max + 1
    size = -(-(sum(V) ** (2 * q) >> bits * (2 * q - 2)).bit_length() // 8)
    keep = _floor_mask(size, bits, length)
    base = int.from_bytes(b"".join(v.to_bytes(size, "little") for v in V), "little")
    power, exponent = None, 2 * q
    while True:
        if exponent & 1:
            power = base if power is None else (power * base & keep) >> bits
        exponent >>= 1
        if not exponent:
            break
        base = (base * base & keep) >> bits
    raw = power.to_bytes(size * length, "little")
    C = [int.from_bytes(raw[i:i + size], "little") for i in range(0, size * length, size)]
    # w_K = (a)_K (q 2^e)^-K <= 1, stepped at scale 2^-w_bits
    w_bits = max(C).bit_length() + (k_max * length).bit_length()
    w, step = 1 << w_bits, q * den << e
    even = odd = 0
    for K, c in enumerate(C):
        if K & 1:
            odd += c * w
        else:
            even += c * w
        w = w * (a_num + K * den) // step
    # each c_K is off by at most rho c*_K, rho = (4q - 1) 2^-bits, and
    # each weight by under K units; sum_K c_K K <= k_max sum(C)
    rho, weight_err = 4 * q - 1, k_max * sum(C)
    bound = -(-rho * (even + odd + weight_err) // ((1 << bits) - rho)) + weight_err
    return even - odd, bound, bits + w_bits


def log_gamma0(q: int, n: int, lam: float) -> tuple[float, float]:
    """Log-magnitude and sign of the Laguerre-power linearisation coefficient.

    gamma0 is the k = 0 coefficient when [L_n^(2 lam - 1)]^(2q) weighted
    by x^(q (2 lam - 1) + 1) e^(-q x) is expanded over plain Laguerre
    polynomials.  It equals Gamma(a) C(2 lam + n - 1, n)^(2q) F with
    a = q (2 lam - 1) + 2 and F the terminating 2q-fold hypergeometric
    sum over k_1..k_2q in [0, n]; the extra variable of the underlying
    (2q+1)-fold series only contributes its k = 0 term because its
    numerator parameter is zero.  Grouping the sum by total degree
    K = k_1 + ... + k_2q turns the inner sums into the coefficients c_K
    of the 2q-th power of the polynomial 1F1(-n; 2 lam; x), leaving
    F = sum_K (a)_K q^(-K) c_K with c_K of sign (-1)^K.

    That alternating sum cancels by about q n decimal digits, so it runs
    on Python integers at a common scale 2^-P (fixed point):

    - 2 lam = num / den exactly (den a power of two).  The variable is
      rescaled, x -> 2^e x with 2^e >= (a + K) / q for every K < 2 q n,
      so each weight w_K = (a)_K q^-K 2^(-e K) is at most 1, and each
      term c_K 2^(e K) w_K keeps its value.
    - The polynomial is taken at -x: its coefficients
      |V_k| = C(n, k) 2^(e k) / (2 lam)_k are all positive, so are those
      of its 2q-th power, |c_K|, and the sign (-1)^K goes back in at the
      weighted sum.  2^e >= 2 lam + n - 1 makes every |V_k| >= 1, and so
      every coefficient of every power >= 1.
    - The |V_k| are floored at scale 2^-P and packed into one integer,
      one slot per coefficient, each slot wide enough for the largest
      coefficient of the last product (by ||A B||_1 <= ||A||_1 ||B||_1).
      The power 2q is raised by squaring that integer; each product is
      floored slot by slot with one mask and one shift
      (:func:`_floor_mask`).  The slots never go negative, so no slot
      borrows from its neighbour, and a floor never rounds up.
    - So each computed coefficient is at most the exact one, and below
      it by at most rho_j times it for a power j: a floor loses under
      2^-P, which is at most 2^-P of a coefficient >= 1, and a product
      adds its factors' relative errors.  Induction gives
      rho_j = (2j - 1) 2^-P whatever the order of the products, so the
      2q-th power has rho = (4q - 1) 2^-P.
    - The weights are stepped in fixed point, w_(K+1) = w_K (a + K) /
      (q 2^e), at a scale 2^-P_w fine enough to resolve the largest
      coefficient.  Each step floors (under one unit) and multiplies by a
      ratio of at most 1, so weight K is off by less than K units and
      never exceeds its exact value, 1 at most.
    - The error of the sum is then at most, coefficient by coefficient,
      sum_K delta_K (w_K + K) + sum_K |c_K| K, with the per-coefficient
      error delta_K = rho |c_K| / (1 - rho) weighted by its own w_K.  The
      sum is accepted only when its magnitude is at least 2^60 times that
      bound, which fixes the sign and leaves F a relative error below
      2^-60.  Otherwise it runs again with P raised by the bits it
      lacked; no sum that failed the check is returned.  P starts from
      :func:`_start_bits` (q, n, lam), which is far above log2(4q - 1).

    The binomial C(2 lam + n - 1, n)^(2q) is a ratio of integers too, so
    it multiplies F exactly and ln (C^(2q) F) comes from one quotient and
    a binary exponent: it is rounded once and not as large logs that
    cancel (2q times a float log of the binomial would leave up to 5e-14
    at lam = 0.55).  Only ln Gamma(a) stays in float log space, from
    math.lgamma: on 3000 random (q, lam) in q 1-8, lam 0.55-150 it is
    within 1.1e-15 max(1, |ln Gamma(a)|) of 40-digit mpmath.  At large
    lam that rounding limits the accuracy instead: ln Gamma(a) is
    ~1.1e3 at q = 3, lam = 40, where one ulp is 2.3e-13 and math.lgamma
    is 1.5e-13 off.
    """
    if q < 1 or q != int(q):
        raise ValueError(f"gamma0 requires integer q >= 1, got {q}")
    if n < 0 or n != int(n):
        raise ValueError(f"gamma0 requires integer n >= 0, got {n}")
    lam = float(lam)
    if not lam > 0.5:
        raise ValueError(f"gamma0 requires lam > 1/2, got {lam}")
    q = int(q)
    n = int(n)
    log_gamma_a = math.lgamma(q * (2.0 * lam - 1.0) + 2.0)
    if n == 0:
        return log_gamma_a, 1.0
    bits = _start_bits(q, n, lam)
    while True:
        total, bound, scale = _gamma0_sum(q, n, lam, bits)
        if abs(total) >= bound << 60:
            break
        bits += (bound << 60).bit_length() - abs(total).bit_length() + 32
    # C(2 lam + n - 1, n) = prod_{j<n} (num + j den) / (den^n n!) exactly
    num, den = (2.0 * lam).as_integer_ratio()
    top = abs(total) * math.prod(num + j * den for j in range(n)) ** (2 * q)
    bottom = (den**n * math.factorial(n)) ** (2 * q)
    # top / bottom as a 54- or 55-bit quotient m times 2^shift: log(m 2^-54)
    # lies in [-ln 2, ln 2), so no large logs cancel
    shift = top.bit_length() - bottom.bit_length() - 54
    m = (top >> shift if shift >= 0 else top << -shift) // bottom
    log_f = math.log(m / (1 << 54)) + (shift + 54 - scale) * math.log(2.0)
    return log_gamma_a + log_f, 1.0 if total > 0 else -1.0


def gamma0(q: int, n: int, lam: float) -> float:
    """Laguerre-power linearisation coefficient in float64, signed inf past its range."""
    lg, sign = log_gamma0(q, n, lam)
    try:
        return sign * math.exp(lg)
    except OverflowError:
        return sign * math.inf
