"""Special-function layer: each routine against an independent reference.

Digamma runs against scipy; the Laguerre
recurrence against scipy.special.eval_genlaguerre; the Mathieu matrix
route against scipy.special.mathieu_a at integer orders (where scipy
applies) and against its own three-term recurrence residual at
fractional orders; gamma0 against Gauss-Laguerre quadrature of its
defining integral, closed-form reductions, an exact-Fraction
brute-force sum of the terminating multi-index series, and an mpmath
expansion of the defining integral; its fixed-point core's error bound
against the exact Fraction core, its packed slot floor against
per-slot shifts, and its starting precision against a pass count.
"""

import math
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest
import scipy.special as sps

from kratzer2d.oracle import _scaled_gauss_laguerre
from kratzer2d.specfun import (
    SeriesSingularError,
    TruncationError,
    ValidityWarning,
    digamma,
    gamma0,
    laguerre,
    log_abs_laguerre,
    log_gamma0,
    mathieu_char_matrix,
    mathieu_char_series,
    mathieu_even_solution,
)

EULER_GAMMA = 0.5772156649015329


# ------------------------------------------------------------------- digamma


def test_digamma_special_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-12, abs=0)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, rel=1e-12, abs=0)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-12)


def test_digamma_matches_scipy():
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.05, 500.0, 60):
        assert digamma(float(x)) == pytest.approx(
            float(sps.digamma(x)), rel=1e-13, abs=1e-13
        )


def test_digamma_recurrence():
    # psi(x+1) = psi(x) + 1/x
    rng = np.random.default_rng(11)
    for x in rng.uniform(0.1, 50.0, 40):
        x = float(x)
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, rel=1e-12, abs=0)


def test_digamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        digamma(0.0)


# ------------------------------------------------------------------ laguerre


def test_laguerre_low_degrees():
    assert laguerre(0, 0.7, 3.1) == 1.0
    # L_1^(a)(x) = a + 1 - x
    assert laguerre(1, 0.5, 1.0) == pytest.approx(0.5, rel=1e-15, abs=0)
    # L_2^(a)(x) = (a+1)(a+2)/2 - (a+2)x + x^2/2
    assert laguerre(2, 0.5, 1.0) == pytest.approx(-0.125, rel=1e-13, abs=0)


def test_laguerre_matches_scipy():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 60.0, 50)
    for n in (1, 3, 7, 15, 40):
        for alpha in (0.0, 0.5, 2.8284271247461903, 6.573):
            ours = laguerre(n, alpha, x)
            ref = sps.eval_genlaguerre(n, alpha, x)
            assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


def test_laguerre_three_term_recurrence_residual():
    # (n+1) L_{n+1} = (2n+1+a-x) L_n - (n+a) L_{n-1}
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 40.0, 200)
    alpha = 2.8284271247461903
    for n in (1, 4, 9, 20):
        lhs = (n + 1.0) * laguerre(n + 1, alpha, x)
        rhs = (2.0 * n + 1.0 + alpha - x) * laguerre(n, alpha, x) - (
            n + alpha
        ) * laguerre(n - 1, alpha, x)
        scale = np.max(np.abs(lhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale


def _plain_laguerre(n, alpha, x):
    # The upward recurrence without rescaling, as laguerre ran it before.
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 + alpha - x) * cur - (k + alpha) * prev) / (k + 1.0)
    return cur


def test_laguerre_equals_the_plain_recurrence_to_the_bit():
    # Rescaling by powers of two is exact, so below overflow the scaled
    # recurrence returns the plain one's bits, across several rescales.
    for n in range(41):
        x = np.linspace(0.0, 4.0 * n + 40.0, 3000)
        for alpha in (0.3, 1.7, 7.3, 12.9):
            ours = laguerre(n, alpha, x)
            ref = _plain_laguerre(n, alpha, x)
            assert np.array_equal(ours.view(np.int64), ref.view(np.int64)), (n, alpha)


@pytest.mark.parametrize("n", [200, 330, 400])
@pytest.mark.parametrize("alpha", [2.9, 60.0])
def test_log_abs_laguerre_matches_mpmath_at_large_degree(n, alpha):
    # Out to x = 2500, where |L_n| reaches about 10^297 at n = 200 and
    # 10^456 at n = 400, past the double range from n = 330 on.
    # Reference: mpmath's L_n at 60 digits.
    mpmath = pytest.importorskip("mpmath")
    x = np.linspace(0.37, 2500.0, 41)
    ours = log_abs_laguerre(n, alpha, x)
    with mpmath.workdps(60):
        ref = [float(mpmath.log(abs(mpmath.laguerre(n, alpha, mpmath.mpf(float(v))))))
               for v in x]
    for got, want in zip(ours, ref):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_log_abs_laguerre_is_minus_inf_at_a_zero():
    # L_1^(a)(x) = a + 1 - x vanishes at x = a + 1 exactly.
    assert log_abs_laguerre(1, 0.5, 1.5) == -math.inf
    assert log_abs_laguerre(2, 0.5, 1.0) == pytest.approx(math.log(0.125), rel=1e-13)


def test_laguerre_scalar_in_scalar_out():
    out = laguerre(3, 1.5, 2.0)
    assert isinstance(out, float)
    arr = laguerre(3, 1.5, np.array([2.0, 3.0]))
    assert isinstance(arr, np.ndarray) and arr.shape == (2,)


def test_laguerre_rejects_bad_arguments():
    with pytest.raises(ValueError):
        laguerre(-1, 0.5, 1.0)
    with pytest.raises(ValueError):
        laguerre(2, -1.0, 1.0)


# ----------------------------------------------------- Mathieu power series


def test_mathieu_series_zero_coupling():
    for m_eff in (0.0, 0.2, 2.2, 3.7):
        assert mathieu_char_series(m_eff, 0.0) == pytest.approx(
            4.0 * m_eff * m_eff, rel=1e-15, abs=0
        )


def test_mathieu_series_frozen_values():
    # Pinned against the tridiagonal eigensolver (and, at order zero,
    # against the hand-expanded -b^2/2 + 7 b^4/128 - 29 b^6/2304).
    assert mathieu_char_series(0.0, 0.4) == pytest.approx(-0.078651555556, rel=1e-9)
    assert mathieu_char_series(0.2, 0.4) == pytest.approx(0.067330744501, rel=1e-9)
    assert mathieu_char_series(2.2, 0.4) == pytest.approx(19.364358172390, rel=1e-12)
    assert mathieu_char_series(2.2, 1.0) == pytest.approx(19.387267331661, rel=1e-12)


def test_mathieu_series_agrees_with_matrix_in_range():
    # Truncation error of the b^6 series climbs steeply in b at the
    # low orders (2e-6 at b = 0.4, 3e-4 at b = 0.6, 1.4e-2 at b = 1);
    # at order >= 2 the denominators are large and the series is tight.
    for m_eff in (0.0, 0.2):
        for b in (0.05, 0.2, 0.4):
            series = mathieu_char_series(m_eff, b)
            matrix = mathieu_even_solution(m_eff, b).char_number
            assert abs(series - matrix) <= 1e-4
    for m_eff in (2.2, 3.1):
        for b in (0.05, 0.2, 0.4, 0.8):
            series = mathieu_char_series(m_eff, b)
            matrix = mathieu_even_solution(m_eff, b).char_number
            assert abs(series - matrix) <= 1e-7


def test_mathieu_series_departs_at_unit_coupling():
    # Regression pin on the known truncation gap: the displayed terms
    # are NOT accurate to 1e-4 at b = 1 for low orders.  If this test
    # ever fails in the "too accurate" direction the series gained
    # terms and the validation-suite expectations should be revisited.
    with pytest.warns(ValidityWarning):
        series = mathieu_char_series(0.2, 1.0)
    matrix = mathieu_even_solution(0.2, 1.0).char_number
    assert abs(series - matrix) == pytest.approx(1.356e-2, rel=1e-2)


def test_mathieu_series_refuses_singular_orders():
    for m_eff in (0.5, 1.0, 1.5, 0.9995):
        with pytest.raises(SeriesSingularError):
            mathieu_char_series(m_eff, 0.4)


def test_mathieu_series_warns_outside_validity():
    with pytest.warns(ValidityWarning):
        mathieu_char_series(0.2, 1.0)
    with pytest.warns(ValidityWarning):
        mathieu_char_series(2.2, 25.0)


def test_mathieu_series_rejects_negative_arguments():
    with pytest.raises(ValueError):
        mathieu_char_series(-0.1, 0.4)
    with pytest.raises(ValueError):
        mathieu_char_series(0.2, -0.4)


# ------------------------------------------------- Mathieu matrix eigenroute


def test_mathieu_matrix_zero_coupling_exact():
    sol = mathieu_char_matrix(2.2, 0.0)
    assert sol.char_number == pytest.approx(4.0 * 2.2 * 2.2, rel=1e-15, abs=0)
    assert sol.order == pytest.approx(4.4)
    assert sol.coeffs[sol.truncation] == 1.0


@pytest.mark.parametrize(
    "m_eff,b",
    [(0.5, 0.4), (1.0, 0.4), (1.0, 1.0), (1.5, 0.4), (2.0, 0.4), (3.0, 2.0),
     (4.0, 50.0), (4.5, 20.0), (8.0, 100.0)],
)
def test_mathieu_matrix_matches_scipy_at_integer_orders(m_eff, b):
    # At integer order nu = 2 m_eff the even branch is scipy's a_nu(b),
    # the upper of the pair b_nu < a_nu that ties at nu^2 when b = 0.
    ours = mathieu_even_solution(m_eff, b).char_number
    ref = float(sps.mathieu_a(int(round(2.0 * m_eff)), b))
    assert ours == pytest.approx(ref, abs=1e-10, rel=1e-12)


def test_mathieu_matrix_truncation_stability():
    a25 = mathieu_char_matrix(2.2, 0.4, K=25).char_number
    a50 = mathieu_char_matrix(2.2, 0.4, K=50).char_number
    assert abs(a25 - a50) < 1e-12


def test_mathieu_solution_satisfies_recurrence():
    # The Fourier coefficients of y'' + (a - 2b cos 2z) y = 0 obey
    # (a - (nu + 2k)^2) c_k = b (c_{k-1} + c_{k+1}); check the residual
    # directly, independent of the eigensolver that produced them.
    sol = mathieu_even_solution(2.2, 1.5)
    K = sol.truncation
    k = np.arange(-K, K + 1)
    lhs = (sol.char_number - (sol.order + 2.0 * k) ** 2) * sol.coeffs
    rhs = np.zeros_like(sol.coeffs)
    rhs[1:] += sol.b * sol.coeffs[:-1]
    rhs[:-1] += sol.b * sol.coeffs[1:]
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(sol.coeffs))


def test_mathieu_solution_grows_truncation_for_large_coupling():
    # At (7.9, 120) the starting truncation K = 31 leaves a Fourier tail
    # above tolerance, so the solution doubles K once, to 62; its
    # characteristic number is the one a K = 124 solve settles on.
    with pytest.raises(TruncationError):
        mathieu_char_matrix(7.9, 120.0, K=31)
    sol = mathieu_even_solution(7.9, 120.0)
    assert sol.truncation == 62
    wide = mathieu_char_matrix(7.9, 120.0, K=124).char_number
    assert sol.char_number == pytest.approx(wide, rel=1e-9)
    tail = max(abs(sol.coeffs[0]), abs(sol.coeffs[-1]))
    assert tail <= 1e-12 * np.max(np.abs(sol.coeffs))


def test_mathieu_matrix_truncation_error():
    with pytest.raises(TruncationError):
        mathieu_char_matrix(0.2, 500.0, K=10)


def test_mathieu_matrix_rejects_bad_arguments():
    with pytest.raises(ValueError):
        mathieu_char_matrix(2.2, 0.4, K=5)
    with pytest.raises(ValueError):
        mathieu_char_matrix(-1.0, 0.4)


# -------------------------------------------------------------------- gamma0


def test_gamma0_n0_reduces_to_gamma():
    # With no polynomial factor every inner sum is the empty term, so
    # gamma0(q, 0, lam) = Gamma(q(2 lam - 1) + 2), here from 30-digit
    # mpmath, since log_gamma0 takes ln Gamma from math.lgamma.
    import mpmath

    for q in (1, 2, 5):
        for lam in (0.9, 1.9142135623730951, 3.7865):
            a = q * (2.0 * lam - 1.0) + 2.0
            with mpmath.workdps(30):
                ref = float(mpmath.loggamma(mpmath.mpf(a)))
            lg, sign = log_gamma0(q, 0, lam)
            assert sign == 1.0
            assert lg == pytest.approx(ref, rel=1e-13, abs=0)


def test_gamma0_q1_classical_moment():
    # q = 1 collapses to the classical diagonal Laguerre moment
    # int x^(2 lam) e^-x [L_n^(2 lam - 1)]^2 dx = 2 (n + lam) Gamma(n + 2 lam) / n!
    for lam in (0.9, 1.9142135623730951, 3.7865):
        for n in range(9):
            lg, sign = log_gamma0(1, n, lam)
            ref = (
                math.log(2.0 * (n + lam))
                + math.lgamma(n + 2.0 * lam)
                - math.lgamma(n + 1.0)
            )
            assert sign == 1.0
            assert lg == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_gamma0_against_gauss_laguerre_oracle(q):
    # gamma0 equals int u^(q(2 lam - 1) + 1) e^-u [L_n^(2 lam - 1)](u/q)^(2q) du,
    # which a (qn + 8)-point generalized Gauss-Laguerre rule integrates
    # exactly (the integrand is weight times a degree-2qn polynomial).
    # The rule is the oracle's, its unit-mass weights times Gamma(alpha + 1).
    for lam in (0.9, 1.9142136, 3.7865):
        for n in range(9 if q == 1 else 6):
            alpha = q * (2.0 * lam - 1.0) + 1.0
            nodes, weights, log_mass = _scaled_gauss_laguerre(alpha, q * n + 8)
            vals = laguerre(n, 2.0 * lam - 1.0, nodes / q) ** (2 * q)
            ref = math.log(float((weights * math.exp(log_mass)) @ vals))
            lg, sign = log_gamma0(q, n, lam)
            assert sign == 1.0
            assert math.exp(lg - ref) == pytest.approx(1.0, abs=1e-10)


def _brute_force_core(q: int, n: int, lam_frac: Fraction) -> Fraction:
    """Exact multi-index sum of the terminating 2q-fold series.

    F = sum over (k_1..k_2q) in [0, n]^2q of (a)_K q^-K prod_i c_{k_i}
    with K = k_1 + ... + k_2q, a = q(2 lam - 1) + 2 and c_k the
    coefficients of 1F1(-n; 2 lam; x).  Pure Fractions, no rounding.
    """
    two_lam = 2 * lam_frac
    a = q * (two_lam - 1) + 2
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        coeffs.append(coeffs[-1] * Fraction(-(n - k + 1)) / ((two_lam + k - 1) * k))
    total = Fraction(0)
    for ks in iproduct(range(n + 1), repeat=2 * q):
        big_k = sum(ks)
        term = Fraction(1, q**big_k)
        for j in range(big_k):
            term *= a + j
        for k in ks:
            term *= coeffs[k]
        total += term
    return total


@pytest.mark.parametrize(
    "q,n,lam_frac",
    [(2, 2, Fraction(7, 4)), (3, 1, Fraction(9, 8)), (2, 3, Fraction(5, 2))],
)
def test_gamma0_against_exact_fraction_brute_force(q, n, lam_frac):
    lam = float(lam_frac)
    core = _brute_force_core(q, n, lam_frac)
    a = q * (2.0 * lam - 1.0) + 2.0
    base = math.lgamma(a) + 2.0 * q * (
        math.lgamma(2.0 * lam + n) - math.lgamma(n + 1.0) - math.lgamma(2.0 * lam)
    )
    ref = base + math.log(abs(core))
    lg, sign = log_gamma0(q, n, lam)
    assert sign == (1.0 if core > 0 else -1.0)
    assert lg == pytest.approx(ref, abs=1e-12)


def test_gamma0_frozen_values():
    # Pinned by the Gauss-Laguerre oracle above at first evaluation.
    cases = [
        ((1, 0, 1.9142136), 2.922944433087),
        ((2, 1, 1.9142135623730951), 10.470755653743),
        ((3, 4, 2.0), 24.606744625929),
        ((2, 3, 3.5), 31.201798781205),
        ((5, 8, 1.9142135623730951), 48.579073610551),
    ]
    for (q, n, lam), expected in cases:
        lg, sign = log_gamma0(q, n, lam)
        assert sign == 1.0
        assert lg == pytest.approx(expected, abs=1e-9)
    assert gamma0(2, 1, 1.9142135623730951) == pytest.approx(3.5268858347e04, rel=1e-9)


@pytest.mark.parametrize("n", [20, 50])
def test_gamma0_log_matches_mpmath_moment_sum(n, mp_laguerre_power_moment):
    # q = 3, lam = 3.7: the last step takes one log of the exact integer
    # ratio, not three large float logs that cancel (those left 1.3e-12
    # and 1.7e-12 of error here).  gamma0 is the moment itself.
    import mpmath

    ref = float(mpmath.log(mp_laguerre_power_moment(3, n, 3.7)))
    lg, sign = log_gamma0(3, n, 3.7)
    assert sign == 1.0
    assert lg == pytest.approx(ref, rel=0, abs=2e-14)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_gamma0_fixed_point_sum_matches_mpmath_grid(q, mp_laguerre_power_moment):
    # The fixed-point sum over the closed forms' range (q n <= 100), from
    # lam near its floor of 1/2 to a deep well.
    import mpmath

    for n in (1, 4, 12, 20):
        for lam in (0.55, 1.9142135623730951, 12.0):
            ref = float(mpmath.log(mp_laguerre_power_moment(q, n, lam)))
            lg, sign = log_gamma0(q, n, lam)
            assert sign == 1.0
            assert abs(lg - ref) <= 1e-14 * max(1.0, abs(ref)), (q, n, lam)


@pytest.mark.parametrize("q, n, dps", [(5, 50, 300), (8, 50, 450)])
def test_gamma0_fixed_point_sum_at_large_q_n(q, n, dps, mp_laguerre_power_moment):
    # About q n digits cancel here, past what the reference's default 250
    # digits resolve, so it runs at q n + 50 digits.
    import mpmath

    ref = float(mpmath.log(mp_laguerre_power_moment(q, n, 3.7, dps=dps)))
    lg, sign = log_gamma0(q, n, 3.7)
    assert sign == 1.0
    assert abs(lg - ref) <= 1e-14 * max(1.0, abs(ref))


def test_gamma0_redoes_a_sum_that_fails_its_bound(monkeypatch):
    # A starting precision far too small fails the error bound; the sum
    # runs again at the precision the bound asks for, and the value is
    # the one the normal start gives.
    from kratzer2d import specfun

    args = (3, 12, 1.9142135623730951)
    normal = log_gamma0(*args)
    precisions = []
    fixed_point_sum = specfun._gamma0_sum

    def recording(q, n, lam, bits):
        precisions.append(bits)
        return fixed_point_sum(q, n, lam, bits)

    monkeypatch.setattr(specfun, "_gamma0_sum", recording)
    monkeypatch.setattr(specfun, "_start_bits", lambda q, n, lam: 8)
    assert log_gamma0(*args) == normal
    assert len(precisions) == 2 and precisions[0] == 8 < precisions[1]


@pytest.mark.parametrize("size, bits", [(1, 3), (3, 1), (3, 17), (8, 40), (8, 63)])
def test_floor_mask_floors_every_slot(size, bits):
    # (x & mask) >> bits on packed nonnegative slots equals c >> bits
    # slot by slot, with full (2^W - 1) and empty slots among them.
    from kratzer2d.specfun import _floor_mask

    rng = np.random.default_rng(size * 64 + bits)
    top = (1 << 8 * size) - 1
    for length in (1, 2, 7, 40):
        slots = [int.from_bytes(rng.bytes(size), "little") for _ in range(length)]
        slots[0] = top
        slots[-1] = 0
        slots[length // 2] = top
        packed = int.from_bytes(b"".join(c.to_bytes(size, "little") for c in slots), "little")
        floored = (packed & _floor_mask(size, bits, length)) >> bits
        raw = floored.to_bytes(size * length, "little")
        assert [int.from_bytes(raw[i:i + size], "little")
                for i in range(0, size * length, size)] == [c >> bits for c in slots]


def test_gamma0_sum_bound_covers_the_exact_error():
    # At precisions from barely enough to ample, the proven bound is at
    # least the distance of the fixed-point total from the exact core
    # F = sum_K (a)_K q^-K c_K, with c_K the coefficients of
    # 1F1(-n; 2 lam; x)^(2q) in Fractions at the same binary 2 lam.
    from kratzer2d.specfun import _gamma0_sum

    tightest = 0.0
    for q in (1, 2, 3):
        for n in range(1, 7):
            for lam in (0.55, 1.9142135623730951, 12.0):
                two_lam = Fraction(2.0 * lam)
                a = q * (two_lam - 1) + 2
                p = [Fraction(1)]
                for k in range(1, n + 1):
                    p.append(p[-1] * -(n - k + 1) / ((two_lam + k - 1) * k))
                c = [Fraction(1)]
                for _ in range(2 * q):
                    c = [sum(c[i] * p[K - i] for i in range(max(0, K - n), min(K, len(c) - 1) + 1))
                         for K in range(len(c) + n)]
                exact, poch = Fraction(0), Fraction(1)
                for K, coeff in enumerate(c):
                    exact += poch * coeff
                    poch *= (a + K) / q
                for bits in (12, 24, 48, 96):
                    total, bound, scale = _gamma0_sum(q, n, lam, bits)
                    error = abs(exact * 2**scale - total)
                    assert error <= bound, (q, n, lam, bits)
                    tightest = max(tightest, float(error / bound))
    # not vacuous either: somewhere the error reaches 1/32 of the bound
    assert tightest > 1 / 32


def test_gamma0_start_needs_one_pass():
    # The start fitted from (q, n, lam) is accepted at once on at least
    # 99 % of q 1-8 x n 1-30 (geometric steps) x lam 0.55-150.
    from kratzer2d.specfun import _gamma0_sum, _start_bits

    points = one_pass = 0
    for q in range(1, 9):
        for n in (1, 2, 3, 4, 6, 9, 13, 19, 30):
            for lam in (0.55, 1.0, 3.0, 10.0, 40.0, 150.0):
                total, bound, _ = _gamma0_sum(q, n, lam, _start_bits(q, n, lam))
                points += 1
                one_pass += abs(total) >= bound << 60
    assert one_pass >= 0.99 * points


def test_gamma0_positive_across_grid():
    # The defining integral has a nonnegative integrand, so the sign is
    # always +1 even where the alternating core cancels by many digits.
    for q in (1, 2, 3, 4):
        for n in range(7):
            for lam in (0.9, 1.75, 2.2320508075688772, 3.7865):
                _, sign = log_gamma0(q, n, lam)
                assert sign == 1.0


def test_gamma0_warns_on_heavy_cancellation():
    # 40 decimal digits cancel here, which float64 would not survive;
    # the fixed-point sum still returns the right value and sign.
    lg, sign = log_gamma0(5, 8, 1.9142135623730951)
    assert sign == 1.0
    assert lg == pytest.approx(48.579073610551, abs=1e-9)


def test_gamma0_overflow_goes_to_inf():
    assert gamma0(5, 8, 50.0) == math.inf


def test_gamma0_finite_below_the_float64_limit():
    # gamma0(5, 0, 17.3) = Gamma(170) = 169! = 4.27e304: its log, 701.44,
    # is past 700 but below ln(max float) = 709.78.
    assert gamma0(5, 0, 17.3) == pytest.approx(math.factorial(169), rel=1e-13)


def test_gamma0_rejects_bad_arguments():
    with pytest.raises(ValueError):
        log_gamma0(0, 1, 1.9)
    with pytest.raises(ValueError):
        log_gamma0(2, -1, 1.9)
    for bad_lam in (0.5, 0.3, -1.0):
        with pytest.raises(ValueError):
            log_gamma0(2, 1, bad_lam)
