"""Self-contained special functions for the 2D Kratzer-dipole solver.

Everything here is a pure function of its arguments, in float64.
Log-gamma and digamma use an upward recurrence shift to x >= 8 followed
by the asymptotic (de Moivre) expansion, so the module does not lean on
library special functions.  The fractional-order Mathieu characteristic
number comes in two independent flavours: the truncated power series in
the coupling ``b`` and a symmetric tridiagonal eigenproblem that serves
as its cross-check.  ``gamma0`` evaluates the terminating
Lauricella-type coefficient that linearises even powers of Laguerre
polynomials; its alternating rational core is accumulated exactly and
the result reported in log-magnitude/sign form, because the terms both
overflow float64 and cancel by ten or more digits in naive form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "SeriesSingularError",
    "TruncationError",
    "ValidityWarning",
    "CancellationWarning",
    "log_gamma",
    "digamma",
    "double_factorial",
    "laguerre",
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


class CancellationWarning(UserWarning):
    """An alternating sum retained almost no significant digits."""


_LN_2PI = math.log(2.0 * math.pi)

# B_{2j} / (2j*(2j-1)) for j = 1..8: coefficients of y^-(2j-1) in the
# asymptotic expansion of ln Gamma(y).  Truncation error at y = 8 is
# below 1e-15 absolute.
_LGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

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


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    Shifts upward with ln Gamma(x) = ln Gamma(x+1) - ln x until the
    argument reaches the asymptotic regime, then applies the de Moivre
    series.  Relative error stays below ~1e-14 on [0.1, 1e6].
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    shift = 0.0
    y = x
    while y < _ASYMPTOTIC_CUTOFF:
        shift += math.log(y)
        y += 1.0
    r = 1.0 / y
    r2 = r * r
    tail = 0.0
    for c in reversed(_LGAMMA_COEFFS):
        tail = tail * r2 + c
    tail *= r
    return (y - 0.5) * math.log(y) - y + 0.5 * _LN_2PI + tail - shift


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


def double_factorial(k: int) -> int:
    """k!! for odd positive k, as an exact integer."""
    if k < 1 or k % 2 != 1:
        raise ValueError(f"double_factorial requires odd k >= 1, got {k}")
    out = 1
    for i in range(1, k + 1, 2):
        out *= i
    return out


def laguerre(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^(alpha)(x) by upward recurrence.

    ``x`` may be a scalar or ndarray; the return type matches.  The
    three-term recurrence is numerically benign for the n <= O(100)
    degrees used here.
    """
    if n < 0:
        raise ValueError(f"laguerre requires n >= 0, got {n}")
    if alpha <= -1.0:
        raise ValueError(f"laguerre requires alpha > -1, got {alpha}")
    xa = np.asarray(x, dtype=float)
    prev = np.ones_like(xa)
    if n == 0:
        return float(prev) if np.isscalar(x) else prev
    cur = 1.0 + alpha - xa
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 + alpha - xa) * cur - (k + alpha) * prev) / (k + 1.0)
    return float(cur) if np.isscalar(x) else cur


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


def _hyp1f1_neg_scaled(n: int, c: Fraction) -> tuple[list[int], int]:
    """Integer-scaled coefficients of 1F1(-n; c; x), a degree-n polynomial.

    Returns (U, Q) with coefficient k equal to U[k] / Q, over the common
    denominator Q = prod_{j<n} (num + j den) for c = num/den.  Exact
    integers: these coefficients feed an alternating sum whose
    cancellation would otherwise amplify float64 rounding of each term.
    """
    num, den = c.numerator, c.denominator
    suffix = [1] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = suffix[j + 1] * (num + j * den)
    U = [(-1) ** k * math.comb(n, k) * den**k * suffix[k] for k in range(n + 1)]
    return U, suffix[0]


def _int_log(v: int) -> float:
    """Natural log of a positive integer far outside float64 range."""
    shift = v.bit_length() - 64
    if shift <= 0:
        return math.log(v)
    return math.log(v >> shift) + shift * math.log(2.0)


def log_gamma0(q: int, n: int, lam: float) -> tuple[float, float]:
    """Log-magnitude and sign of the Laguerre-power linearisation coefficient.

    gamma0 is the k = 0 coefficient when [L_n^(2 lam - 1)]^(2q) weighted
    by x^(q (2 lam - 1) + 1) e^(-q x) is expanded over plain Laguerre
    polynomials.  It equals Gamma(a) C(2 lam + n - 1, n)^(2q) F with
    a = q (2 lam - 1) + 2 and F the terminating 2q-fold hypergeometric
    sum over k_1..k_2q in [0, n]; the extra variable of the underlying
    (2q+1)-fold series only contributes its k = 0 term because its
    numerator parameter is zero.  Grouping the sum by total degree
    K = k_1 + ... + k_2q turns the inner sums into iterated polynomial
    convolutions, leaving F = sum_K (a)_K q^(-K) c_K with c_K of sign
    (-1)^K.  That alternating sum can cancel down to 1e-14 of its largest
    term, so the rational part is accumulated exactly (the coefficients
    are rational in lam and q) and only converted to log-magnitude/sign
    at the end; the smooth Gamma prefactors stay in float log space.
    Emits CancellationWarning when the sum lands below 1e-10 of its
    largest term — the result is still fully accurate, the warning
    flags that naive float64 evaluation would not be.
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
    a = q * (2.0 * lam - 1.0) + 2.0
    log_binom = log_gamma(2.0 * lam + n) - log_gamma(n + 1.0) - log_gamma(2.0 * lam)
    base = log_gamma(a) + 2.0 * q * log_binom
    if n == 0:
        return base, 1.0
    two_lam = 2 * Fraction(lam)
    U, Q = _hyp1f1_neg_scaled(n, two_lam)
    conv = [1]
    for _ in range(2 * q):
        conv = [
            sum(conv[i] * U[ki - i] for i in range(max(0, ki - n), min(ki, len(conv) - 1) + 1))
            for ki in range(len(conv) + n)
        ]
    # a = q (2 lam - 1) + 2 = (q (num - den) + 2 den) / den over 2 lam = num/den
    num, den = two_lam.numerator, two_lam.denominator
    a_num = q * (num - den) + 2 * den
    # term_K = (a)_K q^-K conv_K / Q^2q; common denominator (den q)^Kmax den^-... :
    # (a)_K = prod_{j<K} (a_num + j den) / den^K, so with weight (den q)^(Kmax-K)
    # every term is an integer over Q^2q (den q)^Kmax.
    k_max = 2 * q * n
    weight = den * q
    powers = [1] * (k_max + 1)
    for ki in range(k_max - 1, -1, -1):
        powers[ki] = powers[ki + 1] * weight
    poch = 1
    total = 0
    largest = 0
    for ki, coeff in enumerate(conv):
        term = poch * coeff * powers[ki]
        total += term
        largest = max(largest, abs(term))
        poch *= a_num + ki * den
    if total == 0:
        return -math.inf, 0.0
    if abs(total) * 10**10 < largest:
        lost = (_int_log(largest) - _int_log(abs(total))) / math.log(10.0)
        warnings.warn(
            f"gamma0 sum cancelled {lost:.0f} digits at q = {q}, n = {n}, "
            f"lam = {lam:g}; evaluated exactly",
            CancellationWarning,
            stacklevel=2,
        )
    log_f = _int_log(abs(total)) - 2 * q * _int_log(Q) - k_max * _int_log(weight)
    return base + log_f, 1.0 if total > 0 else -1.0


def gamma0(q: int, n: int, lam: float) -> float:
    """Laguerre-power linearisation coefficient in plain floating point."""
    lg, sign = log_gamma0(q, n, lam)
    if lg > 700.0:  # exp would overflow float64
        return sign * math.inf
    return sign * math.exp(lg)
