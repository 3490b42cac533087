"""Numerical-oracle layer: quadrature rules, angular integrals, spectra.

The Gauss-Laguerre builder is checked against closed moments and
scipy.special.roots_genlaguerre; angular integrals against analytic
cosine values; the finite-difference eigensolver against the closed
spectrum it is meant to police (agreement here is what licenses using
it as the arbiter elsewhere).
"""

import math

import numpy as np
import pytest
import scipy.special as sps

from kratzer2d import (
    AccuracyError,
    AngularMode,
    StateSpec,
    angular_integrals_numeric,
    fisher_numeric,
    gauss_laguerre_rule,
    make_params,
    radial_fd_eigen,
    shannon_numeric,
    solve_state,
    wq_numeric,
)


# -------------------------------------------------------- quadrature rules


def test_rule_one_point():
    rule = gauss_laguerre_rule(0.7, 1)
    assert rule.nodes[0] == pytest.approx(1.7, rel=1e-13, abs=0)
    assert rule.weights[0] == pytest.approx(math.gamma(1.7), rel=1e-13, abs=0)


def test_rule_two_point_alpha_zero():
    # Roots of L_2(x) = (x^2 - 4x + 2)/2 and the classical weights.
    rule = gauss_laguerre_rule(0.0, 2)
    assert rule.nodes == pytest.approx(
        [2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)], rel=1e-13, abs=0
    )
    assert rule.weights == pytest.approx(
        [(2.0 + math.sqrt(2.0)) / 4.0, (2.0 - math.sqrt(2.0)) / 4.0], rel=1e-13, abs=0
    )


@pytest.mark.parametrize("alpha,K", [(0.0, 2), (1.5, 8), (2.8284271247461903, 12)])
def test_rule_moment_exactness(alpha, K):
    # sum w x^j = Gamma(alpha + j + 1) for j = 0 .. 2K-1.
    rule = gauss_laguerre_rule(alpha, K)
    assert np.all(np.diff(rule.nodes) > 0.0) and np.all(rule.nodes > 0.0)
    for j in range(2 * K):
        moment = float(rule.weights @ rule.nodes**j)
        assert moment == pytest.approx(math.gamma(alpha + j + 1.0), rel=1e-12)


def test_rule_frozen_first_moments():
    rule = gauss_laguerre_rule(1.5, 8)
    assert float(np.sum(rule.weights)) == pytest.approx(1.329340388179, rel=1e-12)
    assert float(rule.weights @ rule.nodes) == pytest.approx(3.323350970448, rel=1e-12)


def test_rule_matches_scipy():
    nodes_ref, weights_ref = sps.roots_genlaguerre(8, 1.5)
    rule = gauss_laguerre_rule(1.5, 8)
    assert np.allclose(rule.nodes, nodes_ref, rtol=1e-12, atol=0)
    assert np.allclose(rule.weights, weights_ref, rtol=1e-11, atol=0)


def _mp_laguerre(n, alpha, x):
    # Upward three-term recurrence in mpmath arithmetic.
    prev, cur = 0, 1
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def test_rule_weights_match_mpmath_to_relative_precision():
    # Every weight, the 1e-35 ones in the tail included, against a
    # 50-digit rule: nodes Newton-polished on L_K, weights from the
    # derivative formula Gamma(K+alpha+1) / (K! x [L_K'(x)]^2).  abs=0:
    # pytest.approx would otherwise let any weight below 1e-12 pass.
    mpmath = pytest.importorskip("mpmath")
    alpha, K = 7.3, 30
    rule = gauss_laguerre_rule(alpha, K)
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        log_c = mpmath.loggamma(K + a + 1) - mpmath.loggamma(K + 1)
        for node, weight in zip(rule.nodes, rule.weights):
            x = mpmath.mpf(float(node))
            for _ in range(8):
                x -= _mp_laguerre(K, a, x) / -_mp_laguerre(K - 1, a + 1, x)
            ref = mpmath.exp(log_c) / (x * _mp_laguerre(K - 1, a + 1, x) ** 2)
            assert node == pytest.approx(float(x), rel=1e-13, abs=0.0)
            assert weight == pytest.approx(float(ref), rel=1e-12, abs=0.0)


def test_rule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gauss_laguerre_rule(-1.0, 4)
    with pytest.raises(ValueError):
        gauss_laguerre_rule(0.5, 0)


# -------------------------------------------------------- angular integrals


def test_angular_integrals_cosine_m2(std_params):
    ints = angular_integrals_numeric(std_params, 2, AngularMode.PAPER_COSINE, q=2.0)
    assert ints.i2norm == pytest.approx(math.pi, rel=1e-12)
    assert ints.ideriv == pytest.approx(4.0 * math.pi, rel=1e-12)
    # x ln x cusps at the cosine zeros cost the trapezoid its spectral
    # rate for the entropy integrand (8192 points alone give ~1e-9); one
    # Richardson step against the half grid restores ~1e-14.
    assert ints.ilog == pytest.approx(math.pi * (1.0 - 2.0 * math.log(2.0)), rel=1e-8)
    assert ints.ipow == pytest.approx(0.75 * math.pi, rel=1e-12)


def test_angular_integrals_cosine_m0(std_params):
    # The flat m = 0 branch: constant 1/sqrt(2).  Note ipow = pi/2 and
    # ilog = -pi ln 2 differ from the cosine-power constants the closed
    # forms use at m = 0; the measures tests quantify that gap.
    ints = angular_integrals_numeric(std_params, 0, AngularMode.PAPER_COSINE, q=2.0)
    assert ints.i2norm == pytest.approx(math.pi, rel=1e-12)
    assert ints.ideriv == pytest.approx(0.0, abs=1e-15)
    assert ints.ilog == pytest.approx(-math.pi * math.log(2.0), rel=1e-12)
    assert ints.ipow == pytest.approx(0.5 * math.pi, rel=1e-12)


def test_angular_integrals_mathieu_integer_order_near_cosine():
    # At delta = 0 (integer order) the b = 0.4 coupling moves every
    # integral less than 0.05% off the analytic cosine values.
    p = make_params(De=3.0, re=1.0, Dm=0.1)
    ints = angular_integrals_numeric(p, 2, AngularMode.MATHIEU_NUMERIC, q=2.0)
    refs = (
        math.pi,
        4.0 * math.pi,
        math.pi * (1.0 - 2.0 * math.log(2.0)),
        0.75 * math.pi,
    )
    for value, ref in zip((ints.i2norm, ints.ideriv, ints.ilog, ints.ipow), refs):
        assert abs(value - ref) / abs(ref) < 5e-4
    assert ints.ideriv == pytest.approx(12.5621516289, rel=1e-9)
    assert ints.ilog == pytest.approx(-1.2130168066, rel=1e-9)
    assert ints.ipow == pytest.approx(2.3570393523, rel=1e-9)


def test_angular_integrals_mathieu_flux_shifts_baseline(dipole_params):
    # With flux the base frequency is m + delta, so the derivative
    # integral sits near (m + delta)^2-scaled values, NOT near the
    # integer-m constants (15.8% off 4 pi here); the coupling itself
    # only moves the integrals ~0.1% from their b = 0 baseline.
    ints = angular_integrals_numeric(dipole_params, 2, AngularMode.MATHIEU_NUMERIC, q=2.0)
    assert ints.i2norm == pytest.approx(math.pi, rel=1e-12)
    assert ints.ideriv == pytest.approx(14.5520025484, rel=1e-9)
    assert ints.ilog == pytest.approx(-1.2685465023, rel=1e-9)
    assert ints.ipow == pytest.approx(2.3097471846, rel=1e-9)
    assert abs(ints.ideriv - 4.0 * math.pi) / (4.0 * math.pi) > 0.1
    b0 = make_params(De=3.0, re=1.0, Dm=0.0, delta=0.2)
    ints0 = angular_integrals_numeric(b0, 2, AngularMode.MATHIEU_NUMERIC, q=2.0)
    assert ints.ideriv == pytest.approx(ints0.ideriv, rel=2e-3)


# ------------------------------------------------------------------- Fisher


def test_fisher_numeric_standard(std_params, std_state):
    # Ground state: the gradient integral reduces to 2 beta^2 / lambda.
    result = fisher_numeric(std_params, std_state)
    expected = 2.0 * std_state.beta**2 / std_state.lam
    assert result.I == pytest.approx(expected, rel=1e-11)
    assert result.I == pytest.approx(1.1405617954, rel=1e-9)
    assert result.I2 == 0.0  # m = 0: flat angular derivative


def test_fisher_numeric_cosine_matches_mpmath_definition():
    # I = int |grad rho|^2 / rho for rho = f(r) Phi(theta)^2, that is
    # int Phi^2 dtheta int f'^2 / f r dr + 4 int Phi'^2 dtheta int f / r dr,
    # by 30-digit mpmath.quad, independent of fisher_closed.  In x = 2 beta r,
    # with f = N^2 x^a e^-x L^2 (a = 2 lam - 1), the radial integrals are
    # N^2 int x^(a+1) e^-x (a L / x - L + 2 L')^2 dx and N^2 int x^(a-1) e^-x L^2 dx.
    # L and L' come from the explicit sum of L_n^(a) (DLMF 18.5.12), not from
    # the recurrence or the derivative identity the oracle uses.
    mpmath = pytest.importorskip("mpmath")
    n, m = 3, 2
    p = make_params(De=3.0, re=1.0, delta=0.2)
    state = solve_state(p, StateSpec(n, m))
    with mpmath.workdps(30):
        lam, beta = mpmath.mpf(state.lam), mpmath.mpf(state.beta)
        a = 2 * lam - 1
        norm_sq = (2 * beta**2 * mpmath.factorial(n)
                   / (mpmath.gamma(n + 2 * lam) * (n + lam) * mpmath.pi))
        coeffs = [(-1) ** k * mpmath.binomial(n + a, n - k) / mpmath.factorial(k)
                  for k in range(n + 1)]
        dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]

        def lag(x):
            return mpmath.polyval(coeffs[::-1], x)

        def dlag(x):
            return mpmath.polyval(dcoeffs[::-1], x)

        zeros = [mpmath.findroot(lag, x0) for x0 in sps.roots_genlaguerre(n, float(a))[0]]
        breaks = [0] + zeros + [mpmath.inf]
        radial_grad = norm_sq * mpmath.quad(
            lambda x: x ** (a + 1) * mpmath.exp(-x)
            * (a * lag(x) / x - lag(x) + 2 * dlag(x)) ** 2, breaks)
        radial_cent = norm_sq * mpmath.quad(
            lambda x: x ** (a - 1) * mpmath.exp(-x) * lag(x) ** 2, breaks)
        turn = [0, 2 * mpmath.pi]
        ang_sq = mpmath.quad(lambda t: mpmath.cos(m * t) ** 2, turn)
        ang_deriv = mpmath.quad(lambda t: (m * mpmath.sin(m * t)) ** 2, turn)
        ref = ang_sq * radial_grad + 4 * ang_deriv * radial_cent
    assert fisher_numeric(p, state).I == pytest.approx(float(ref), rel=1e-11, abs=0.0)


# ------------------------------------------------------------------ Shannon


def test_shannon_numeric_frozen(std_params, std_state, dipole_params, dipole_state):
    assert shannon_numeric(std_params, std_state) == pytest.approx(
        3.9648170068, rel=1e-8
    )
    assert shannon_numeric(dipole_params, dipole_state) == pytest.approx(
        5.6445713815, rel=1e-8
    )


def test_shannon_numeric_high_n_matches_mpmath():
    # De = 1, n = 20, m = 0: twenty log cusps; reference from a 30-digit
    # mpmath quadrature between the Laguerre zeros.
    p = make_params(De=1.0, re=1.0)
    state = solve_state(p, StateSpec(20, 0))
    assert shannon_numeric(p, state) == pytest.approx(13.3772744262853, rel=0, abs=1e-11)


@pytest.mark.parametrize("m,expected", [(4, 5.728826803057601), (8, 7.339887973209026)])
def test_shannon_numeric_cosine_log_cusps_match_mpmath(m, expected):
    # The angular entropy integrand has log cusps at the 2m zeros of
    # cos m theta; a plain 8192-node trapezoid sum is 2.2e-9 (m = 4) and
    # 1.8e-8 (m = 8) off.  References: 30-digit mpmath.
    p = make_params(De=3.0, re=1.0)
    state = solve_state(p, StateSpec(1, m))
    assert shannon_numeric(p, state) == pytest.approx(expected, rel=0, abs=1e-9)


def test_shannon_numeric_increases_with_n(std_params):
    values = [
        shannon_numeric(std_params, solve_state(std_params, StateSpec(n, 0)))
        for n in (0, 2, 4)
    ]
    assert values[0] < values[1] < values[2]


def test_shannon_numeric_accuracy_error(std_params, std_state):
    with pytest.raises(AccuracyError):
        shannon_numeric(std_params, std_state, target=1e-18)


# ----------------------------------------------------------------- moments


def test_wq_numeric_normalization_diagnostic(std_params, std_state, dipole_params,
                                             dipole_state):
    # The normalisation is the entropic moment W_1, in either angular mode.
    assert wq_numeric(std_params, std_state, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert wq_numeric(dipole_params, dipole_state, 1.0) == pytest.approx(1.0, abs=1e-10)
    state = solve_state(dipole_params, StateSpec(2, 2), mode=AngularMode.MATHIEU_NUMERIC)
    assert wq_numeric(dipole_params, state, 1.0) == pytest.approx(1.0, abs=1e-8)


def test_wq_numeric_frozen_w2(std_params, std_state):
    assert wq_numeric(std_params, std_state, 2.0) == pytest.approx(
        2.533281358118e-02, rel=1e-10
    )


def test_wq_numeric_euler_integral_nodeless():
    # n = 0, m = 1, q = 2: the whole moment is a single Euler integral,
    # W_2 = 3 beta^2 Gamma(4 lam) / (4 pi lam^2 Gamma(2 lam)^2 2^(4 lam)).
    p = make_params(De=1.0, re=1.0)
    state = solve_state(p, StateSpec(0, 1))
    lam, beta = state.lam, state.beta
    expected = (
        3.0
        * beta**2
        * math.exp(math.lgamma(4.0 * lam) - 2.0 * math.lgamma(2.0 * lam))
        / (4.0 * math.pi * lam * lam * 2.0 ** (4.0 * lam))
    )
    assert wq_numeric(p, state, 2.0) == pytest.approx(expected, rel=1e-10)


def test_wq_numeric_real_q_path_is_continuous(std_params, std_state):
    # Both orders run the panel rule; q = 2 is held to the integer-q
    # bound (1e-10) and q = 2 + 1e-6 to the real-q bound (1e-8), so this
    # checks continuity across that switch.  The drift S * dq ~ 4e-6
    # bounds their difference.
    w_int = wq_numeric(std_params, std_state, 2.0)
    w_real = wq_numeric(std_params, std_state, 2.000001)
    assert abs(w_real - w_int) / w_int < 1e-5


def test_renyi_orders_nonincreasing_numeric(std_params):
    state = solve_state(std_params, StateSpec(2, 1))
    renyi = [
        math.log(wq_numeric(std_params, state, float(q))) / (1.0 - q) for q in (2, 3, 4)
    ]
    assert renyi[0] >= renyi[1] >= renyi[2]


@pytest.mark.parametrize(
    "De,n,m,q", [(1.0, 4, 1, 3), (1.0, 18, 1, 8), (3.0, 35, 1, 4)]
)
def test_wq_numeric_matches_mpmath_moment_sum(De, n, m, q, mp_laguerre_power_moment):
    # Integer q on the panel rule, up to q n = 144 (the old Gauss-Laguerre
    # route raised a math domain error at the two larger states).
    # Reference: the 250-digit moment sum of the radial integral after
    # u = q x, over q^(alpha + 1), times N^2q, the cosine integral
    # 2 pi C(2q, q) / 4^q and 1 / (4 beta^2).
    import mpmath

    p = make_params(De=De, re=1.0, delta=0.0)
    state = solve_state(p, StateSpec(n, m))
    moment = mp_laguerre_power_moment(q, n, state.lam)
    with mpmath.workdps(50):
        lam, beta = mpmath.mpf(state.lam), mpmath.mpf(state.beta)
        alpha = q * (2 * lam - 1) + 1
        radial = moment / mpmath.mpf(q) ** (alpha + 1)
        norm_sq = (2 * beta**2 * mpmath.factorial(n)
                   / (mpmath.gamma(n + 2 * lam) * (n + lam) * mpmath.pi))
        angular = 2 * mpmath.pi * mpmath.binomial(2 * q, q) / mpmath.mpf(4) ** q
        ref = norm_sq**q * angular * radial / (4 * beta**2)
    numeric = wq_numeric(p, state, float(q))
    assert numeric == pytest.approx(float(ref), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("q", [1.5, 2.5])
def test_wq_numeric_real_q_matches_mpmath(q):
    # Real q: |L_n|^2q has a |x - x0|^2q kink at each Laguerre zero.
    # Reference: 30-digit mpmath.quad of the radial moment with the
    # zeros as breakpoints, times the exact cosine integral of
    # |cos theta|^2q, 2 sqrt(pi) Gamma(q + 1/2) / Gamma(q + 1).
    mpmath = pytest.importorskip("mpmath")
    n, m = 4, 1
    p = make_params(De=1.0, re=1.0)
    state = solve_state(p, StateSpec(n, m))
    with mpmath.workdps(30):
        lam, beta, qm = mpmath.mpf(state.lam), mpmath.mpf(state.beta), mpmath.mpf(q)
        a = 2 * lam - 1
        norm_sq = (2 * beta**2 * mpmath.factorial(n)
                   / (mpmath.gamma(n + 2 * lam) * (n + lam) * mpmath.pi))
        zeros = [mpmath.findroot(lambda x: mpmath.laguerre(n, a, x), x0)
                 for x0 in sps.roots_genlaguerre(n, float(a))[0]]

        def integrand(x):
            g = norm_sq * x**a * mpmath.exp(-x) * mpmath.laguerre(n, a, x) ** 2
            return g**qm * x

        radial = mpmath.quad(integrand, [0] + zeros + [mpmath.inf]) / (4 * beta**2)
        angular = 2 * mpmath.sqrt(mpmath.pi) * mpmath.gamma(qm + 0.5) / mpmath.gamma(qm + 1)
        ref = radial * angular
    assert wq_numeric(p, state, q) == pytest.approx(float(ref), rel=1e-10, abs=0.0)


def test_wq_numeric_rejects_bad_q(std_params, std_state):
    with pytest.raises(ValueError):
        wq_numeric(std_params, std_state, 0.0)


# --------------------------------------------------- finite-difference FD


def test_fd_spectrum_frozen():
    # De = 3, delta = 0.2, no dipole, m = 2: three lowest levels pinned
    # after Richardson extrapolation; they match the closed spectrum to
    # better than 1e-8 relative.
    p = make_params(De=3.0, re=1.0, delta=0.2)
    fd = radial_fd_eigen(p, 2, count=3)
    assert fd == pytest.approx(
        [-1.2515282963, -0.7837247681, -0.5364794453], rel=1e-8
    )
    for n, fd_energy in enumerate(fd):
        closed = solve_state(p, StateSpec(n, 2)).energy
        assert fd_energy == pytest.approx(closed, rel=1e-8)


def test_fd_pins_dipole_chain(dipole_params, dipole_state):
    # The arbiter test for the radial exponent with flux + dipole: the
    # FD solver consumes only E_theta and the radial operator, knowing
    # nothing of the closed-form lambda, and lands on the same E(n=2).
    fd = radial_fd_eigen(dipole_params, 2, count=3)
    assert fd[2] == pytest.approx(dipole_state.energy, rel=1e-8)
    assert fd[2] == pytest.approx(-0.5364487980, rel=1e-8)


def test_fd_rejects_bad_count(std_params):
    with pytest.raises(ValueError):
        radial_fd_eigen(std_params, 0, count=0)
    with pytest.raises(ValueError):
        radial_fd_eigen(std_params, 0, count=11)

