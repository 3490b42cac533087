"""Closed-form measures against the numerical oracle and frozen values.

Every closed form here has an independent quadrature route in the
oracle module; the tests check agreement where the conventions match
(m >= 1, cosine mode) and pin the documented divergence where they do
not (the m = 0 angular constant).
"""

import dataclasses
import math

import numpy as np
import pytest

from kratzer2d import (
    EntropicMoment,
    StateSpec,
    fisher_closed,
    fisher_numeric,
    make_params,
    renyi,
    shannon_closed,
    shannon_numeric,
    solve_state,
    tsallis,
    wq_closed,
    wq_numeric,
)


# ------------------------------------------------------------------- Fisher


def test_fisher_closed_standard(std_params, std_state):
    # Ground state: I = 2 beta^2 / lambda exactly, no angular share.
    result = fisher_closed(std_params, std_state)
    assert result.I == pytest.approx(
        2.0 * std_state.beta**2 / std_state.lam, rel=1e-14, abs=0
    )
    assert result.I == pytest.approx(1.1405617954, rel=1e-9)
    assert result.I2 == 0.0
    assert result.I == result.I1


def test_fisher_closed_dipole_frozen(dipole_params, dipole_state):
    result = fisher_closed(dipole_params, dipole_state)
    assert result.I1 == pytest.approx(1.8521926560, rel=1e-9)
    assert result.I2 == pytest.approx(0.9000562972, rel=1e-9)
    assert result.I == pytest.approx(2.7522489531, rel=1e-9)


def test_fisher_radial_identity():
    # 2 beta^2 (2n + 1)/(n + lam) == 4 beta^2 - 2 beta^2 (2 lam - 1)/(n + lam):
    # the two algebraic forms of the radial share must agree exactly.
    p = make_params(De=2.0, re=1.0, delta=0.3)
    for n in range(5):
        s = solve_state(p, StateSpec(n, 1))
        alt = 4.0 * s.beta**2 - 2.0 * s.beta**2 * (2.0 * s.lam - 1.0) / (n + s.lam)
        assert fisher_closed(p, s).I1 == pytest.approx(alt, rel=1e-14, abs=0)


def test_fisher_angular_identity():
    # I2 (n + lam)(2 lam - 1) = 8 m^2 beta^2.
    p = make_params(De=3.0, re=1.0, delta=0.2)
    for n, m in [(0, 1), (2, 2), (4, 1)]:
        s = solve_state(p, StateSpec(n, m))
        i2 = fisher_closed(p, s).I2
        assert i2 * (n + s.lam) * (2.0 * s.lam - 1.0) == pytest.approx(
            8.0 * m * m * s.beta**2, rel=1e-13, abs=0
        )


def test_fisher_m0_has_no_angular_share(std_params):
    for n in (0, 3):
        s = solve_state(std_params, StateSpec(n, 0))
        assert fisher_closed(std_params, s).I2 == 0.0


def test_fisher_closed_equals_quadrature():
    # Spot grid (the acceptance suite runs the full one): excited
    # states are where a wrong cross term would show up first.
    for De in (1.0, 3.0):
        for delta in (0.0, 0.5):
            p = make_params(De=De, re=1.0, delta=delta)
            for n in (0, 1, 3, 8):
                for m in (0, 2):
                    s = solve_state(p, StateSpec(n, m))
                    closed = fisher_closed(p, s).I
                    numeric = fisher_numeric(p, s).I
                    assert closed == pytest.approx(numeric, rel=1e-10)


def test_fisher_closed_equals_quadrature_with_dipole(dipole_params, dipole_state):
    numeric = fisher_numeric(dipole_params, dipole_state)
    closed = fisher_closed(dipole_params, dipole_state)
    assert closed.I == pytest.approx(numeric.I, rel=1e-8)


# ------------------------------------------------------------------ Shannon


def test_shannon_closed_standard(std_params, std_state):
    result = shannon_closed(std_params, std_state)
    assert result.S1 == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-14, abs=0)
    assert result.S1 == pytest.approx(0.3862943611, rel=1e-9)
    assert result.S2 == pytest.approx(1.0132089419, rel=1e-9)
    assert result.S3 == pytest.approx(0.6779706082, rel=1e-9)
    assert result.S4 == 0.0  # no polynomial entropy term at n = 0
    assert result.S == pytest.approx(2.0774739111, rel=1e-9)
    assert result.asymptotic is True


def test_shannon_closed_dipole_frozen(dipole_params, dipole_state):
    result = shannon_closed(dipole_params, dipole_state)
    assert result.S1 == pytest.approx(0.3862943611, rel=1e-9)
    assert result.S2 == pytest.approx(2.137797642, rel=1e-9)
    assert result.S3 == pytest.approx(-2.181158506, rel=1e-9)
    assert result.S4 == pytest.approx(5.550138455, rel=1e-9)
    assert result.S == pytest.approx(5.893071952, rel=1e-9)


def test_shannon_s2_is_normalization_log(std_params):
    # S2 = -ln(2 beta^2 / ((n + lam) pi)) term by term.
    for n in (0, 3):
        s = solve_state(std_params, StateSpec(n, 1))
        expected = -math.log(2.0 * s.beta**2 / ((n + s.lam) * math.pi))
        assert shannon_closed(std_params, s).S2 == pytest.approx(expected, rel=1e-13, abs=0)


def test_shannon_closed_vs_numeric_gap_is_large(std_params, std_state):
    # The asymptotic S4 drops an O(n) remainder; even at n = 0 the
    # closed form sits ~1.9 below the quadrature value.  Pinned so the
    # known direction of the discrepancy cannot silently flip.
    gap = shannon_numeric(std_params, std_state) - shannon_closed(
        std_params, std_state
    ).S
    assert gap == pytest.approx(1.8873430957, rel=1e-6)


# ---------------------------------------------------------- entropic moments


def test_wq_closed_normalization_diagnostic(std_params, std_state):
    # q = 1 must reproduce the unit norm through the gamma0 identity.
    moment = wq_closed(std_params, std_state, 1)
    assert moment.Wq == pytest.approx(1.0, rel=1e-12)


def test_wq_closed_frozen(std_params, std_state, dipole_params, dipole_state):
    assert wq_closed(std_params, std_state, 2).Wq == pytest.approx(
        3.799922037178e-02, rel=1e-9
    )
    assert wq_closed(dipole_params, dipole_state, 2).Wq == pytest.approx(
        4.704733036613e-03, rel=1e-9
    )
    assert wq_closed(dipole_params, dipole_state, 3).Wq == pytest.approx(
        2.986801838031e-05, rel=1e-9, abs=0
    )


def test_wq_closed_log_consistency(dipole_params, dipole_state):
    moment = wq_closed(dipole_params, dipole_state, 3)
    assert math.exp(moment.log_Wq) == pytest.approx(moment.Wq, rel=1e-14, abs=0)
    assert moment.q == 3



def test_entropic_moment_derives_wq_from_its_log():
    assert [f.name for f in dataclasses.fields(EntropicMoment)] == ["q", "log_Wq"]
    assert EntropicMoment(2, 1.0).Wq == math.exp(1.0)
    assert EntropicMoment(2, 800.0).Wq == math.inf
    assert EntropicMoment(2, -800.0).Wq == 0.0


@pytest.mark.parametrize(
    "kwargs,q",
    [(dict(De=0.05, re=1.0, delta=0.2), 90), (dict(De=0.05, re=1.0, delta=0.2), 100),
     (dict(De=1e6, re=7e-5, mu=1e9), 34)],
)
def test_wq_numeric_log_matches_closed_beyond_double_range(kwargs, q):
    # ln W_q of the ground m = 1 state where W_q itself underflows
    # (q = 90, 100) or exceeds exp(700) (q = 34); with m >= 1 the cosine
    # closed form is exact, so both routes must agree in the log.
    p = make_params(**kwargs)
    state = solve_state(p, StateSpec(0, 1))
    closed = wq_closed(p, state, q).log_Wq
    assert wq_numeric(p, state, float(q)).log_Wq == pytest.approx(closed, rel=1e-12, abs=0)

def test_wq_closed_euler_integral_nodeless():
    # n = 0, m = 1, q = 2 reduces to a single Euler integral.
    p = make_params(De=1.0, re=1.0)
    state = solve_state(p, StateSpec(0, 1))
    lam, beta = state.lam, state.beta
    expected = (
        3.0
        * beta**2
        * math.exp(math.lgamma(4.0 * lam) - 2.0 * math.lgamma(2.0 * lam))
        / (4.0 * math.pi * lam * lam * 2.0 ** (4.0 * lam))
    )
    assert wq_closed(p, state, 2).Wq == pytest.approx(expected, rel=1e-12, abs=0)


def test_wq_closed_equals_quadrature_m_ge_1():
    for De in (1.0, 3.0):
        p = make_params(De=De, re=1.0, delta=0.2)
        for n in (0, 2, 4):
            for m in (1, 2):
                state = solve_state(p, StateSpec(n, m))
                for q in (2, 3):
                    closed = wq_closed(p, state, q).Wq
                    numeric = wq_numeric(p, state, float(q)).Wq
                    assert closed == pytest.approx(numeric, rel=1e-10, abs=0)


@pytest.mark.parametrize("q,ratio", [(2, 1.5), (3, 2.5)])
def test_wq_m0_convention_ratio(std_params, std_state, q, ratio):
    # At m = 0 the closed forms keep the cosine-power angular constant
    # (2q-1)!! 2 pi / (2^q q!) while the true flat profile integrates
    # to 2 pi 2^-q; the ratio is exactly 3/2 at q = 2 and 5/2 at q = 3.
    closed = wq_closed(std_params, std_state, q).Wq
    numeric = wq_numeric(std_params, std_state, float(q)).Wq
    assert closed / numeric == pytest.approx(ratio, rel=1e-9)


def test_wq_closed_rejects_bad_q(std_params, std_state):
    with pytest.raises(ValueError):
        wq_closed(std_params, std_state, 0)


# ----------------------------------------------------------- Tsallis / Renyi


def test_tsallis_renyi_frozen(std_params, std_state, dipole_params, dipole_state):
    assert tsallis(wq_closed(std_params, std_state, 2)) == pytest.approx(
        0.962000779628, rel=1e-9
    )
    assert renyi(wq_closed(std_params, std_state, 2)) == pytest.approx(
        3.2701896360, rel=1e-9
    )
    assert tsallis(wq_closed(dipole_params, dipole_state, 2)) == pytest.approx(
        0.995295266963, rel=1e-9
    )
    assert renyi(wq_closed(dipole_params, dipole_state, 2)) == pytest.approx(
        5.3591862479, rel=1e-9
    )
    assert tsallis(wq_closed(dipole_params, dipole_state, 3)) == pytest.approx(
        0.499985065991, rel=1e-9
    )
    assert renyi(wq_closed(dipole_params, dipole_state, 3)) == pytest.approx(
        5.2093611347, rel=1e-9
    )


def test_tsallis_consistency_identity(dipole_params, dipole_state):
    # T_q (q - 1) + W_q = 1 by construction, and 0 < T_q < 1/(q-1)
    # whenever 0 < W_q < 1.
    for q in (2, 3, 4):
        w = wq_closed(dipole_params, dipole_state, q).Wq
        t = tsallis(wq_closed(dipole_params, dipole_state, q))
        assert t * (q - 1.0) + w == pytest.approx(1.0, rel=1e-14, abs=0)
        assert 0.0 < w < 1.0
        assert 0.0 < t < 1.0 / (q - 1.0)


def test_renyi_is_log_moment(dipole_params, dipole_state):
    w2 = wq_closed(dipole_params, dipole_state, 2).Wq
    assert renyi(wq_closed(dipole_params, dipole_state, 2)) == pytest.approx(
        -math.log(w2), rel=1e-13, abs=0
    )


def test_renyi_nonincreasing_in_q(dipole_params, dipole_state):
    values = [renyi(wq_closed(dipole_params, dipole_state, q)) for q in (2, 3, 4)]
    assert values[0] >= values[1] >= values[2]


def test_tsallis_renyi_reject_q_below_2(std_params, std_state):
    for q in (0, 1):
        with pytest.raises(ValueError):
            tsallis(wq_closed(std_params, std_state, q))
        with pytest.raises(ValueError):
            renyi(wq_closed(std_params, std_state, q))


# ---------------------------------------------------------------- trends


def test_fisher_grows_with_well_depth_and_falls_with_flux():
    # Localization: deeper well -> sharper density -> larger I; more
    # flux -> larger centrifugal barrier -> flatter density -> smaller I.
    spec = StateSpec(2, 0)
    des = np.linspace(0.5, 5.0, 10)
    for delta in (0.0, 0.3):
        values = [
            fisher_closed(p, solve_state(p, spec)).I
            for p in (make_params(De=float(De), re=1.0, delta=delta) for De in des)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
    lo = make_params(De=2.0, re=1.0, delta=0.0)
    hi = make_params(De=2.0, re=1.0, delta=0.6)
    assert (
        fisher_closed(hi, solve_state(hi, spec)).I
        < fisher_closed(lo, solve_state(lo, spec)).I
    )
