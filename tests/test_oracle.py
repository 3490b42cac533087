"""Numerical-oracle layer: quadrature rules, angular integrals, spectra.

The Gauss-Laguerre builder Fisher runs is checked against closed moments and
scipy.special.roots_genlaguerre; angular integrals against analytic
cosine values; the finite-difference eigensolver against the closed
spectrum it is meant to police (agreement here is what licenses using
it as the arbiter elsewhere).
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest
import scipy.special as sps

from kratzer2d import (
    AccuracyError,
    AngularMode,
    SolvedState,
    StateSpec,
    UnboundAngularError,
    angular_integrals_numeric,
    fisher_closed,
    fisher_numeric,
    make_params,
    radial_fd_eigen,
    renyi,
    shannon_numeric,
    solve_state,
    wq_numeric,
)
from kratzer2d import cli, oracle, system
from kratzer2d.validation import evaluate


# ------------------------------------------------------------- boundary


def test_every_oracle_route_takes_a_solved_state_first():
    # Only the system module solves: the oracle reaches the parameters,
    # the order and the angular profile through the state it is handed.
    routes = [getattr(oracle, name) for name in oracle.__all__
              if inspect.isfunction(getattr(oracle, name))]
    assert len(routes) == 5
    for fn in routes:
        first = next(iter(inspect.signature(fn, eval_str=True).parameters.values()))
        assert first.annotation is SolvedState, fn.__name__
    assert not hasattr(oracle, "solve_state")
    held = {name for name in system.__all__
            if getattr(oracle, name, None) is getattr(system, name)}
    assert held == {"ANGULAR_GRID", "SolvedState"}


# -------------------------------------------------------- quadrature rules


def _rule(alpha, K):
    """The oracle's K-point rule: nodes, and unit-mass weights times Gamma(alpha + 1)."""
    nodes, log_w, log_mass = oracle._log_gauss_laguerre(alpha, K)
    weights = np.exp(log_w)
    return nodes, weights / weights.sum() * math.exp(log_mass)


def test_rule_one_point():
    nodes, weights = _rule(0.7, 1)
    assert nodes[0] == pytest.approx(1.7, rel=1e-13, abs=0)
    assert weights[0] == pytest.approx(math.gamma(1.7), rel=1e-13, abs=0)


def test_rule_two_point_alpha_zero():
    # Roots of L_2(x) = (x^2 - 4x + 2)/2 and the classical weights.
    nodes, weights = _rule(0.0, 2)
    assert nodes == pytest.approx(
        [2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)], rel=1e-13, abs=0
    )
    assert weights == pytest.approx(
        [(2.0 + math.sqrt(2.0)) / 4.0, (2.0 - math.sqrt(2.0)) / 4.0], rel=1e-13, abs=0
    )


@pytest.mark.parametrize("alpha,K", [(0.0, 2), (1.5, 8), (2.8284271247461903, 12)])
def test_rule_moment_exactness(alpha, K):
    # sum w x^j = Gamma(alpha + j + 1) for j = 0 .. 2K-1.
    nodes, weights = _rule(alpha, K)
    assert np.all(np.diff(nodes) > 0.0) and np.all(nodes > 0.0)
    for j in range(2 * K):
        moment = float(weights @ nodes**j)
        assert moment == pytest.approx(math.gamma(alpha + j + 1.0), rel=1e-12)


def test_rule_frozen_first_moments():
    nodes, weights = _rule(1.5, 8)
    assert float(np.sum(weights)) == pytest.approx(1.329340388179, rel=1e-12)
    assert float(weights @ nodes) == pytest.approx(3.323350970448, rel=1e-12)


def test_rule_matches_scipy():
    nodes_ref, weights_ref = sps.roots_genlaguerre(8, 1.5)
    nodes, weights = _rule(1.5, 8)
    assert np.allclose(nodes, nodes_ref, rtol=1e-12, atol=0)
    assert np.allclose(weights, weights_ref, rtol=1e-11, atol=0)


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
    nodes, weights = _rule(alpha, K)
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        log_c = mpmath.loggamma(K + a + 1) - mpmath.loggamma(K + 1)
        for node, weight in zip(nodes, weights):
            x = mpmath.mpf(float(node))
            for _ in range(8):
                x -= _mp_laguerre(K, a, x) / -_mp_laguerre(K - 1, a + 1, x)
            ref = mpmath.exp(log_c) / (x * _mp_laguerre(K - 1, a + 1, x) ** 2)
            assert node == pytest.approx(float(x), rel=1e-13, abs=0.0)
            assert weight == pytest.approx(float(ref), rel=1e-12, abs=0.0)


# -------------------------------------------------------- angular integrals


def test_angular_integrals_cosine_m2(std_params):
    ints = angular_integrals_numeric(solve_state(std_params, StateSpec(0, 2)), q=2.0)
    assert ints.i2norm == pytest.approx(math.pi, rel=1e-12)
    assert ints.ideriv == pytest.approx(4.0 * math.pi, rel=1e-12)
    # x ln x cusps at the cosine zeros cost the trapezoid its spectral
    # rate for the entropy integrand (8192 points alone give ~1e-9); one
    # Richardson step against the half grid restores ~1e-14.
    assert ints.ilog == pytest.approx(math.pi * (1.0 - 2.0 * math.log(2.0)), rel=1e-8)
    assert ints.ipow == pytest.approx(0.75 * math.pi, rel=1e-12)


def test_angular_integrals_cosine_m0(std_state):
    # The flat m = 0 branch: constant 1/sqrt(2).  Note ipow = pi/2 and
    # ilog = -pi ln 2 differ from the cosine-power constants the closed
    # forms use at m = 0; the measures tests quantify that gap.
    ints = angular_integrals_numeric(std_state, q=2.0)
    assert ints.i2norm == pytest.approx(math.pi, rel=1e-12)
    assert ints.ideriv == pytest.approx(0.0, abs=1e-15)
    assert ints.ilog == pytest.approx(-math.pi * math.log(2.0), rel=1e-12)
    assert ints.ipow == pytest.approx(0.5 * math.pi, rel=1e-12)


def test_angular_integrals_mathieu_integer_order_near_cosine():
    # At delta = 0 (integer order) the b = 0.4 coupling moves every
    # integral less than 0.05% off the analytic cosine values.
    p = make_params(De=3.0, re=1.0, Dm=0.1)
    state = solve_state(p, StateSpec(0, 2), mode=AngularMode.MATHIEU_NUMERIC)
    ints = angular_integrals_numeric(state, q=2.0)
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
    mathieu = AngularMode.MATHIEU_NUMERIC
    # With flux the base frequency is m + delta, so the derivative
    # integral sits near (m + delta)^2-scaled values, NOT near the
    # integer-m constants (15.8% off 4 pi here); the coupling itself
    # only moves the integrals ~0.1% from their b = 0 baseline.
    ints = angular_integrals_numeric(
        solve_state(dipole_params, StateSpec(2, 2), mode=mathieu), q=2.0)
    assert ints.i2norm == pytest.approx(math.pi, rel=1e-12)
    assert ints.ideriv == pytest.approx(14.5520025484, rel=1e-9)
    assert ints.ilog == pytest.approx(-1.2685465023, rel=1e-9)
    assert ints.ipow == pytest.approx(2.3097471846, rel=1e-9)
    assert abs(ints.ideriv - 4.0 * math.pi) / (4.0 * math.pi) > 0.1
    b0 = make_params(De=3.0, re=1.0, Dm=0.0, delta=0.2)
    ints0 = angular_integrals_numeric(solve_state(b0, StateSpec(2, 2), mode=mathieu), q=2.0)
    assert ints.ideriv == pytest.approx(ints0.ideriv, rel=2e-3)


@pytest.fixture
def grids(monkeypatch):
    """The n of every profile grid sampled while the test runs."""
    sampled = []
    on_grid = system._MathieuProfile._on_grid

    def counting_grid(profile, n):
        sampled.append(n)
        return on_grid(profile, n)

    monkeypatch.setattr(system._MathieuProfile, "_on_grid", counting_grid)
    return sampled


def test_angular_integrals_are_taken_once_per_profile_and_order(dipole_params, grids,
                                                                monkeypatch):
    # Fisher (its q = 2 sums), then W_q, Tsallis and Renyi at q = 3, each
    # asked for alone: one sum per order, and one grid for both orders,
    # which also normalises the profile.
    returned = []
    integrals = oracle.angular_integrals_numeric

    def recording(*args, **kwargs):
        returned.append((args, kwargs, integrals(*args, **kwargs)))
        return returned[-1][-1]

    monkeypatch.setattr(oracle, "angular_integrals_numeric", recording)
    system.angular_profile.cache_clear()
    state = solve_state(dipole_params, StateSpec(2, 2), mode=AngularMode.MATHIEU_NUMERIC)
    for measure in ("fisher", "wq", "tsallis", "renyi"):
        evaluate(state, [measure], 3)
    assert len(returned) == 4
    assert grids == [system.ANGULAR_GRID]
    for args, kwargs, ints in returned:
        system.angular_profile.cache_clear()
        seen = len(grids)
        assert integrals(*args, **kwargs) == ints
        assert len(grids) > seen  # a cleared cache takes the grid again


@pytest.mark.parametrize("q, expected", [(2, 1), (3, 1)])
def test_mathieu_profile_samples_one_grid_per_order(dipole_params, grids, q, expected):
    # Building the profile samples no grid; Fisher's q = 2 sums fix the
    # scale from their own grid, and a further order reads the same grid.
    system.angular_profile.cache_clear()
    state = solve_state(dipole_params, StateSpec(2, 2), mode=AngularMode.MATHIEU_NUMERIC)
    assert state.profile is state.profile
    assert grids == []
    for measure in ("fisher", "wq", "tsallis", "renyi"):
        evaluate(state, [measure], q)
    assert grids == [system.ANGULAR_GRID] * expected


def test_a_profile_asked_again_after_another_samples_its_grid_again(dipole_params, grids):
    # The oracle keeps the last profile's grid only: Fisher of A, Fisher of
    # B, then W_q of A at q = 3 take three grids, and A's sums are a cold
    # run's to the bit.
    mathieu = AngularMode.MATHIEU_NUMERIC
    first = solve_state(dipole_params, StateSpec(2, 2), mode=mathieu)
    other = solve_state(dipole_params, StateSpec(1, 1), mode=mathieu)
    assert first.profile is not other.profile
    system.angular_profile.cache_clear()
    cold = {q: angular_integrals_numeric(first, q) for q in (2.0, 3.0)}
    system.angular_profile.cache_clear()
    grids.clear()
    fisher = angular_integrals_numeric(first)
    angular_integrals_numeric(other)
    wq = angular_integrals_numeric(first, q=3.0)
    assert grids == [system.ANGULAR_GRID] * 3
    assert (fisher, wq) == (cold[2.0], cold[3.0])


def test_profile_grid_is_read_only(dipole_params):
    state = solve_state(dipole_params, StateSpec(2, 2), mode=AngularMode.MATHIEU_NUMERIC)
    for row in oracle._profile_grid(state.profile):
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.0


def test_cosine_profile_is_shared_by_parameter_sets_of_equal_m(std_params, dipole_params):
    # The cosine profile depends on m alone, so its angular sums are taken
    # once per (m, q) and not once per parameter set; what a state prints
    # does not depend on which state filled them first.
    cosine = AngularMode.PAPER_COSINE
    measures = ["fisher", "shannon", "tsallis"]  # Shannon is the quadrature
    state = solve_state(dipole_params, StateSpec(2, 2), mode=cosine)
    system.angular_profile.cache_clear()
    alone = evaluate(state, measures, 3)
    system.angular_profile.cache_clear()
    std = solve_state(std_params, StateSpec(0, 2), mode=cosine)
    profile = std.profile
    assert state.profile is profile
    assert solve_state(dipole_params, StateSpec(2, 1), mode=cosine).profile is not profile
    evaluate(std, measures, 3)
    sums = dict(profile.integrals)
    assert sums
    assert evaluate(state, measures, 3) == alone
    assert profile.integrals == sums


@pytest.mark.parametrize("first", list(AngularMode))
def test_modes_share_sums_where_their_profiles_agree(first, grids):
    # At Dm = 0 and integer m + delta both modes name cos(m theta): they
    # share one profile, so one grid serves both, and each mode's Shannon
    # entropy is the same whichever mode ran first.
    params = make_params(De=3.0, re=1.0)
    states = {mode: solve_state(params, StateSpec(1, 2), mode=mode) for mode in AngularMode}
    system.angular_profile.cache_clear()
    assert states[AngularMode.PAPER_COSINE].profile is states[AngularMode.MATHIEU_NUMERIC].profile
    second = next(mode for mode in AngularMode if mode is not first)
    shared = [evaluate(states[mode], ["shannon"])[1] for mode in (first, second)]
    assert shared[0] == shared[1]
    assert grids == [system.ANGULAR_GRID]
    assert system.angular_profile.cache_info().misses == 1


def _entropy_sums(profile, n):
    """Plain and half-grid Richardson trapezoid sums of Phi^2 ln Phi^2 on n nodes."""
    phi_sq = profile._on_grid(n)[0] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(phi_sq > 1e-300, phi_sq * np.log(phi_sq), 0.0)
    h = 2.0 * math.pi / n
    plain = h * float(np.sum(plogp))
    return plain, (8.0 * plain - 2.0 * h * float(np.sum(plogp[::2]))) / 7.0


@pytest.mark.parametrize("Dm, richardson", [(0.0, True), (0.3, False)], ids=["b0", "b1.2"])
def test_richardson_step_only_for_a_single_cosine(Dm, richardson):
    # At integer m + delta = 2 the Mathieu profile is 2 pi-periodic at any
    # b, but only at b = 0 is it the single cosine whose log cusps the
    # Richardson step removes (8.8e-10 -> 1e-15 off the 2^20-node sum).  At
    # b = 1.2 the step would move the sum away from that reference (1.2e-11
    # -> 6e-10), so the entropy integral stays the plain sum there.
    state = solve_state(make_params(De=3.0, re=1.0, Dm=Dm), StateSpec(1, 2),
                        mode=AngularMode.MATHIEU_NUMERIC)
    system.angular_profile.cache_clear()
    ilog = angular_integrals_numeric(state).ilog
    plain, extrapolated = _entropy_sums(state.profile, system.ANGULAR_GRID)
    reference = _entropy_sums(state.profile, 2**20)[0]
    chosen, other = (extrapolated, plain) if richardson else (plain, extrapolated)
    assert ilog == chosen
    assert abs(chosen - reference) < abs(other - reference) / 10.0


def test_cache_clear_drops_cosine_profiles(std_params, grids):
    state = solve_state(std_params, StateSpec(1, 2), mode=AngularMode.PAPER_COSINE)
    system.angular_profile.cache_clear()
    evaluate(state, ["shannon"])
    evaluate(state, ["shannon"])
    assert grids == [system.ANGULAR_GRID]
    system.angular_profile.cache_clear()
    evaluate(state, ["shannon"])
    assert grids == [system.ANGULAR_GRID] * 2


def test_mathieu_sweep_over_de_samples_one_grid(grids, capsys):
    # A De sweep leaves m + delta and b = 4 mu Dm alone, so its 50 states
    # share one profile and that profile's q = 2 sums.
    system.angular_profile.cache_clear()
    argv = ["sweep", "--var", "De", "--from", "1", "--to", "3", "--steps", "50",
            "--D", "0.3", "--deltas", "0.2", "--n", "1", "--m", "2",
            "--mode", "mathieu", "--measure", "fisher"]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 51
    assert grids == [system.ANGULAR_GRID]


# ------------------------------------------------------------------- Fisher


def test_fisher_numeric_standard(std_state):
    # Ground state: the gradient integral reduces to 2 beta^2 / lambda.
    result = fisher_numeric(std_state)
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
    assert fisher_numeric(state).I == pytest.approx(float(ref), rel=1e-11, abs=0.0)


# ------------------------------------------------------------------ Shannon


def test_shannon_numeric_frozen(std_state, dipole_state):
    assert shannon_numeric(std_state) == pytest.approx(
        3.9648170068, rel=1e-8
    )
    assert shannon_numeric(dipole_state) == pytest.approx(
        5.6445713815, rel=1e-8
    )


def test_shannon_numeric_high_n_matches_mpmath():
    # De = 1, n = 20, m = 0: twenty log cusps; reference from a 30-digit
    # mpmath quadrature between the Laguerre zeros.
    p = make_params(De=1.0, re=1.0)
    state = solve_state(p, StateSpec(20, 0))
    assert shannon_numeric(state) == pytest.approx(13.3772744262853, rel=0, abs=1e-11)


@pytest.mark.parametrize("m,expected", [(4, 5.728826803057601), (8, 7.339887973209026)])
def test_shannon_numeric_cosine_log_cusps_match_mpmath(m, expected):
    # The angular entropy integrand has log cusps at the 2m zeros of
    # cos m theta; a plain 8192-node trapezoid sum is 2.2e-9 (m = 4) and
    # 1.8e-8 (m = 8) off.  References: 30-digit mpmath.
    p = make_params(De=3.0, re=1.0)
    state = solve_state(p, StateSpec(1, m))
    assert shannon_numeric(state) == pytest.approx(expected, rel=0, abs=1e-9)


def test_shannon_numeric_increases_with_n(std_params):
    values = [
        shannon_numeric(solve_state(std_params, StateSpec(n, 0)))
        for n in (0, 2, 4)
    ]
    assert values[0] < values[1] < values[2]


def test_shannon_numeric_accuracy_error(std_state, monkeypatch):
    monkeypatch.setattr(oracle, "_SHANNON_TARGET", 1e-18)
    with pytest.raises(AccuracyError):
        shannon_numeric(std_state)


# ----------------------------------------------------------------- moments


def test_wq_numeric_normalization_diagnostic(std_state, dipole_params, dipole_state):
    # The normalisation is the entropic moment W_1, in either angular mode.
    assert wq_numeric(std_state, 1.0).Wq == pytest.approx(1.0, abs=1e-10)
    assert wq_numeric(dipole_state, 1.0).Wq == pytest.approx(1.0, abs=1e-10)
    state = solve_state(dipole_params, StateSpec(2, 2), mode=AngularMode.MATHIEU_NUMERIC)
    assert wq_numeric(state, 1.0).Wq == pytest.approx(1.0, abs=1e-8)


def test_wq_numeric_frozen_w2(std_state):
    assert wq_numeric(std_state, 2.0).Wq == pytest.approx(
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
    assert wq_numeric(state, 2.0).Wq == pytest.approx(expected, rel=1e-10)


def test_wq_numeric_real_q_path_is_continuous(std_state):
    # Both orders run the panel rule; q = 2 is held to the integer-q
    # bound (1e-10) and q = 2 + 1e-6 to the real-q bound (1e-8), so this
    # checks continuity across that switch.  The drift S * dq ~ 4e-6
    # bounds their difference.
    w_int = wq_numeric(std_state, 2.0).Wq
    w_real = wq_numeric(std_state, 2.000001).Wq
    assert abs(w_real - w_int) / w_int < 1e-5


def test_renyi_orders_nonincreasing_numeric(std_params):
    state = solve_state(std_params, StateSpec(2, 1))
    renyi = [
        wq_numeric(state, float(q)).log_Wq / (1.0 - q) for q in (2, 3, 4)
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
    numeric = wq_numeric(state, float(q)).Wq
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
    assert wq_numeric(state, q).Wq == pytest.approx(float(ref), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("n", [330, 400])
def test_entropies_answer_at_quantum_numbers_in_the_hundreds(n):
    # L_n passes the double range at the outer panel nodes from n = 330
    # (De 3); the oracle works with ln |L_n| and must still answer, with
    # W_1 normalised and R(1.01) within criterion 9's 0.02 of S.
    p = make_params(De=3.0, re=1.0, delta=0.2)
    state = solve_state(p, StateSpec(n, 1))
    s = shannon_numeric(state)
    w1 = wq_numeric(state, 1.0).Wq
    r = renyi(wq_numeric(state, 1.01))
    assert math.isfinite(s) and math.isfinite(w1) and math.isfinite(r)
    assert abs(w1 - 1.0) <= 1e-10
    assert abs(r - s) <= 0.02


@pytest.mark.parametrize("n", [120, 200, 400])
def test_fisher_answers_at_quantum_numbers_in_the_hundreds(n):
    # L_n^2 passes the double range at the outer nodes of the doubled rule
    # from n = 120 (De 3); its power of two joins the log weights, and the
    # quadrature must meet check_fisher's 1e-8 against the closed form.
    p = make_params(De=3.0, re=1.0, delta=0.2)
    state = solve_state(p, StateSpec(n, 1))
    closed = fisher_closed(state).I
    assert abs(fisher_numeric(state).I - closed) <= 1e-8 * closed


def test_wq_numeric_rejects_bad_q(std_state):
    with pytest.raises(ValueError):
        wq_numeric(std_state, 0.0)


def test_fisher_refuses_a_doubled_rule_past_the_row_limit(monkeypatch, capsys):
    # At n = 4091 the doubled rule needs 8194 rows; it is the only rule
    # asked for, so no 4097-row eigensolve runs before the refusal.
    roots, laguerre_roots = [], oracle._laguerre_roots
    monkeypatch.setattr(oracle, "_laguerre_roots",
                        lambda n, alpha: roots.append(n) or laguerre_roots(n, alpha))
    code = cli.main(["compute", "--De", "1", "--re", "1", "--n", "4091",
                     "--mode", "mathieu", "--measure", "fisher"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: the Laguerre zeros would take a 8194-row Jacobi matrix, "
        "past its limit of 8192\n")
    assert roots == [8194]


# ---------------------------------------------------------- W_q radial cache


def _mathieu_state(De, re):
    p = make_params(De=De, re=re, Dm=0.3, delta=0.2)
    return solve_state(p, StateSpec(2, 1), mode=AngularMode.MATHIEU_NUMERIC)


def test_wq_radial_cache_is_shared_by_states_of_equal_lambda():
    # A and B have one lambda, and B's beta is half of A's: B's moment after
    # a hit from A is its cold value to the bit.
    a, b = _mathieu_state(3.0, 1.0), _mathieu_state(0.75, 2.0)
    assert a.lam == b.lam and b.beta == 0.5 * a.beta
    oracle._wq_radial.cache_clear()
    cold = wq_numeric(b, 3.0).log_Wq
    oracle._wq_radial.cache_clear()
    assert wq_numeric(a, 3.0).log_Wq != cold
    assert wq_numeric(b, 3.0).log_Wq == cold
    info = oracle._wq_radial.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (1, 1, 256)


def test_wq_raising_state_raises_on_every_call():
    # The 40/80 estimate fails here (4.5e-10 against 1e-10); a raise is
    # never cached.
    state = solve_state(make_params(De=0.492, re=1.0, delta=0.094), StateSpec(14, 1))
    oracle._wq_radial.cache_clear()
    for _ in range(3):
        with pytest.raises(AccuracyError, match="did not converge"):
            wq_numeric(state, 6.0)
    assert oracle._wq_radial.cache_info().currsize == 0


def test_wq_requests_one_at_a_time_share_one_radial_sum(capsys):
    # fisher, wq, tsallis and renyi asked for one by one run the radial
    # rule once, and print the W_3, T_3 and R_3 of one cold request.
    state = ["compute", "--De", "3", "--re", "1", "--D", "0.3", "--delta", "0.2",
             "--n", "2", "--m", "1", "--mode", "mathieu", "--q", "3", "--measure"]
    oracle._wq_radial.cache_clear()
    lines = []
    for measure in ("fisher", "wq", "tsallis", "renyi"):
        assert cli.main(state + [measure]) == 0
        lines.append(capsys.readouterr().out.splitlines()[-1])
    info = oracle._wq_radial.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    oracle._wq_radial.cache_clear()
    assert cli.main(state + ["wq,tsallis,renyi"]) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == lines[1:]


# --------------------------------------------------- finite-difference FD


def test_fd_spectrum_frozen():
    # De = 3, delta = 0.2, no dipole, m = 2: three lowest levels pinned
    # after Richardson extrapolation; they match the closed spectrum to
    # better than 1e-8 relative.
    p = make_params(De=3.0, re=1.0, delta=0.2)
    fd = radial_fd_eigen(solve_state(p, StateSpec(2, 2)))
    assert fd == pytest.approx(
        [-1.2515282963, -0.7837247681, -0.5364794453], rel=1e-8
    )
    for n, fd_energy in enumerate(fd):
        closed = solve_state(p, StateSpec(n, 2)).energy
        assert fd_energy == pytest.approx(closed, rel=1e-8)


def test_fd_pins_dipole_chain(dipole_state):
    # The arbiter test for the radial exponent with flux + dipole: the
    # FD solver takes lambda from the chain but finds its energies on its
    # own grid, knowing nothing of E = -beta^2 / 2 mu, and lands on the
    # same E(n=2).
    fd = radial_fd_eigen(dipole_state)
    assert fd[2] == pytest.approx(dipole_state.energy, rel=1e-8)
    assert fd[2] == pytest.approx(-0.5364487980, rel=1e-8)


def test_fd_rejects_bad_count():
    # Ten levels at most: the highest state asked for may be n_r = 9.
    p = make_params(De=3.0, re=1.0)
    assert len(radial_fd_eigen(solve_state(p, StateSpec(9, 0)))) == 10
    with pytest.raises(ValueError):
        radial_fd_eigen(solve_state(p, StateSpec(10, 0)))


def test_fd_spectrum_answers_a_shallow_well_at_n_r_9():
    # At De 1, m 0 the extrapolated levels sit within 7.4e-8 of the chain
    # and their estimate reads 1.8e-6; the fine grid's own error (9.4e-5)
    # does not stand in for it.
    p = make_params(De=1.0, re=1.0)
    fd = radial_fd_eigen(solve_state(p, StateSpec(9, 0)))
    for n, fd_energy in enumerate(fd):
        assert fd_energy == pytest.approx(solve_state(p, StateSpec(n, 0)).energy, rel=2e-6)


@pytest.mark.parametrize(
    "params, m",
    [(make_params(De=400.0, re=1.0, Dm=0.5, delta=0.1), 3),
     (make_params(De=400.0, re=1.0), 0), (make_params(De=1000.0, re=1.0), 2)],
    ids=["De400-dipole", "De400", "De1000"],
)
def test_fd_spectrum_box_holds_the_top_level_of_a_deep_well(params, m):
    # The wall must sit past the top level's outer turning point, which
    # grows with lambda (28-45 here); a wall inside it squeezes the upper
    # levels, and the grid estimate cannot see that.
    fd = radial_fd_eigen(solve_state(params, StateSpec(9, m)))
    for n, fd_energy in enumerate(fd):
        assert fd_energy == pytest.approx(solve_state(params, StateSpec(n, m)).energy, rel=1e-6)


def test_fd_spectrum_equals_the_eigh_tridiagonal_route_to_the_bit(dipole_state, monkeypatch):
    # dstebz called directly gives scipy.linalg.eigh_tridiagonal's values.
    from scipy.linalg import eigh_tridiagonal

    direct = radial_fd_eigen(dipole_state)
    monkeypatch.setattr(oracle, "_tridiagonal_eigh", lambda d, e, first, last, vectors: (
        eigh_tridiagonal(d, e, select="i", select_range=(first, last), eigvals_only=True)))
    assert radial_fd_eigen(dipole_state) == direct


def test_fd_spectrum_refuses_a_non_finite_matrix(dipole_state):
    # A NaN lambda leaves NaN on the FD diagonal; it is refused before LAPACK.
    with pytest.raises(ValueError, match="infs or NaNs"):
        radial_fd_eigen(dataclasses.replace(dipole_state, lam=math.nan))


def test_fd_spectrum_refuses_a_well_too_shallow_for_its_grid():
    # At De 0.3 (lambda 1.27) the extrapolated levels really are off, and
    # the estimate (2.4e-3) says so.
    with pytest.raises(AccuracyError, match="grid-converged"):
        radial_fd_eigen(solve_state(make_params(De=0.3, re=1.0), StateSpec(9, 0)))


@pytest.mark.parametrize(
    "params",
    # A strong dipole against a shallow well flips the radicand's sign;
    # at Dm = 1e300 the b^6 series overflows and the radicand is NaN.
    [make_params(De=0.01, re=1.0, Dm=0.3), make_params(De=1.0, re=1.0, Dm=1e300)],
    ids=["negative", "nan"],
)
def test_fd_spectrum_refuses_an_unbound_order_as_the_chain_does(params):
    # The spectrum takes a solved state, so an unbound order stops here,
    # before it can reach the finite-difference grid.
    with pytest.raises(UnboundAngularError):
        solve_state(params, StateSpec(0, 0))
