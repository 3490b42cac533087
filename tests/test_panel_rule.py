"""The radial panel rule behind shannon_numeric and wq_numeric.

Its range ends at a cut past the last Laguerre zero whose tail bound is
proven (oracle._tail_cut); the bounds are checked here against 30-digit
mpmath integrals of the tail.  The panel layout is checked against the
one np.linspace per gap that it replaces, the Laguerre zeros against
eigh_tridiagonal, and Shannon on a 200-state grid against values frozen
from the rule that ended at spread + 25 sqrt(spread) + 60.
"""

import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from kratzer2d import (
    AccuracyError,
    StateSpec,
    make_params,
    shannon_numeric,
    solve_state,
    wq_numeric,
)
from kratzer2d import oracle

GRID = Path(__file__).resolve().parent / "data" / "shannon_grid.json"


def _tail_states(count=30, seed=15):
    """Seeded (De, n, m, q): De log-uniform 0.006-800, n 0-20, m 0-3, and q
    an integer 1-8 or a real 1-8 in turn.  At seed 15 lam spans 0.64-33
    and n 0-19."""
    rng = random.Random(seed)
    states = []
    for i in range(count):
        De = math.exp(rng.uniform(math.log(0.006), math.log(800.0)))
        q = float(rng.randint(1, 8)) if i % 2 else round(rng.uniform(1.0, 8.0), 3)
        states.append((De, rng.randint(0, 20), rng.randint(0, 3), q))
    return states


TAIL_STATES = _tail_states()


def _mp_laguerre(mpmath, n, a):
    """L_n^(a) as an mpmath polynomial from its explicit sum (DLMF 18.5.12)."""
    coeffs = [(-1) ** k * mpmath.binomial(n + a, n - k) / mpmath.factorial(k)
              for k in range(n + 1)]
    return lambda x: mpmath.polyval(coeffs[::-1], x)


def _mp_tail(mpmath, f, upper):
    # Tanh-sinh to degree 5 (251 nodes) is good to ~1e-23 here; the default
    # runs on towards 1e-30 at four times the cost.
    return mpmath.quad(f, [upper, mpmath.inf], maxdegree=5)


@pytest.mark.parametrize("De, n, m, q", TAIL_STATES)
def test_shannon_tail_bounds_cover_both_rows(De, n, m, q):
    # Rows w = rho x / (4 beta^2) (unit mass) and w ln rho, from U on.
    mpmath = pytest.importorskip("mpmath")
    state = solve_state(make_params(De=De, re=1.0), StateSpec(n, m))
    zeros, upper, weight_tail, row_tail = oracle._shannon_cut(state)
    assert zeros.size == n and (n == 0 or upper > zeros[-1])
    assert weight_tail < 2.0**-50
    with mpmath.workdps(30):
        lag = _mp_laguerre(mpmath, n, 2 * mpmath.mpf(state.lam) - 1)
        log_norm_sq = mpmath.mpf(state.log_norm_sq)
        log_4b2 = mpmath.log(4 * mpmath.mpf(state.beta) ** 2)
        twol = 2 * mpmath.mpf(state.lam)

        def log_rho(x):
            return log_norm_sq + (twol - 1) * mpmath.log(x) - x + mpmath.log(lag(x) ** 2)

        def row(x):
            log_rho_x = log_rho(x)
            return mpmath.exp(log_rho_x + mpmath.log(x) - log_4b2) * abs(log_rho_x)

        w_tail = _mp_tail(mpmath, lambda x: mpmath.exp(log_rho(x) + mpmath.log(x) - log_4b2),
                          upper)
        r_tail = _mp_tail(mpmath, row, upper)
    assert 0 < w_tail <= weight_tail
    assert 0 < r_tail <= row_tail


@pytest.mark.parametrize("De, n, m, q", TAIL_STATES)
def test_wq_tail_bound_covers_and_is_tight(De, n, m, q):
    # f(u) = u^alpha e^-u |L_n(u / q)|^2q past the cut; the bound f(U) / r
    # is at most 1 / r times the tail, because ln f falls no faster than -1.
    mpmath = pytest.importorskip("mpmath")
    state = solve_state(make_params(De=De, re=1.0), StateSpec(n, m))
    a = 2.0 * state.lam - 1.0
    alpha = q * a + 1.0
    zeros = q * oracle._laguerre_roots(n, a)
    upper, log_bound, rate = oracle._tail_cut(alpha, q, q, zeros, 0.0)
    assert rate > 0.0 and (n == 0 or upper > zeros[-1])
    with mpmath.workdps(30):
        lag = _mp_laguerre(mpmath, n, mpmath.mpf(a))
        qm = mpmath.mpf(q)
        log_tail = mpmath.log(_mp_tail(mpmath, lambda u: mpmath.exp(
            alpha * mpmath.log(u) - u + qm * mpmath.log(lag(u / qm) ** 2)), upper))
    assert float(log_tail) <= log_bound + 1e-12 * abs(log_bound)
    assert log_bound <= float(log_tail) - math.log(rate) + 1e-12 * abs(log_bound)


def test_tail_cut_target_follows_the_mass():
    # A larger known mass moves the cut in; the bound tracks 2^-56 of it.
    zeros = 2.0 * oracle._laguerre_roots(6, 3.0)
    cuts = [oracle._tail_cut(9.0, 2.0, 2.0, zeros, 0.0, log_mass=mass)
            for mass in (-40.0, 0.0, 40.0)]
    assert cuts[0][0] > cuts[1][0] > cuts[2][0]
    for (upper, log_bound, rate), mass in zip(cuts, (-40.0, 0.0, 40.0)):
        assert abs(log_bound + math.log(rate) - (mass - 56.0 * math.log(2.0))) < 0.5


def test_tail_cut_stays_on_the_falling_side_when_the_target_is_out_of_reach():
    # A target above the last lobe has no crossing; the cut stops where
    # ln f still falls, and its bound still covers the tail.
    mpmath = pytest.importorskip("mpmath")
    zeros = 2.0 * oracle._laguerre_roots(6, 3.0)
    upper, log_bound, rate = oracle._tail_cut(9.0, 2.0, 2.0, zeros, 0.0, log_mass=1e3)
    assert upper > zeros[-1] and rate > 0.0
    with mpmath.workdps(30):
        lag = _mp_laguerre(mpmath, 6, mpmath.mpf(3))
        tail = _mp_tail(mpmath, lambda u: u**9 * mpmath.exp(-u) * lag(u / 2) ** 4, upper)
    assert float(mpmath.log(tail)) <= log_bound + 1e-12 * abs(log_bound)


def test_wq_widens_a_cut_whose_tail_fails_the_check(monkeypatch):
    # A first cut aimed at a mass of e^100, out of the last lobe's reach,
    # stops where ln f still falls and leaves a tail above 2^-50 of the sum;
    # the rule cuts again from the sum's own mass and lands on an ordinary
    # call's value.
    p = make_params(De=1.0, re=1.0)
    state = solve_state(p, StateSpec(4, 1))
    expected = wq_numeric(p, state, 3.0).Wq
    tail_cut, masses = oracle._tail_cut, []

    def overestimated(p_, k, c, zeros, log_scale, log_mass=None):
        masses.append(log_mass)
        return tail_cut(p_, k, c, zeros, log_scale, 100.0 if log_mass is None else log_mass)

    monkeypatch.setattr(oracle, "_tail_cut", overestimated)
    assert wq_numeric(p, state, 3.0).Wq == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert len(masses) == 2 and masses[0] is None and masses[1] is not None


def test_wq_raises_when_no_cut_passes_the_check(monkeypatch):
    # Aiming every cut at the whole mass never passes the 2^-50 check.
    p = make_params(De=1.0, re=1.0)
    monkeypatch.setattr(oracle, "_LOG_TAIL_BUDGET", 0.0)
    with pytest.raises(AccuracyError, match="tail bound"):
        wq_numeric(p, solve_state(p, StateSpec(4, 1)), 3.0)


# ------------------------------------------------------------------ layout


def _linspace_cuts(zeros, upper):
    """The layout before the fused pass: one np.linspace per gap."""
    edges = np.concatenate(([0.0], zeros[zeros < upper], [upper]))
    return np.concatenate([edges[:1]] + [
        np.linspace(a, b, max(1, math.ceil((b - a) / oracle._PANEL_WIDTH)) + 1)[1:]
        for a, b in zip(edges[:-1], edges[1:])
    ])


@pytest.mark.parametrize("n, alpha, q", [
    (0, 0.3, 1.0), (1, 2.5, 1.0), (2, 0.05, 3.0), (8, 7.3, 1.0), (20, 40.0, 2.5),
    (30, 1.2, 8.0)])
def test_fused_cuts_equal_the_linspace_cuts(n, alpha, q):
    zeros = q * oracle._laguerre_roots(n, alpha)
    upper, _, _ = oracle._tail_cut(q * alpha + 1.0, q, q, zeros, 0.0)
    cuts = oracle._panel_cuts(zeros, upper)
    assert np.array_equal(cuts, _linspace_cuts(zeros, upper))
    assert cuts[0] == 0.0 and cuts[-1] == upper
    assert np.isin(zeros, cuts).all()
    widths = np.diff(cuts)
    assert widths.max() <= oracle._PANEL_WIDTH and widths.min() > 0.0
    for a, b in zip(np.concatenate(([0.0], zeros)), np.concatenate((zeros, [upper]))):
        inside = widths[(cuts[:-1] >= a) & (cuts[1:] <= b)]
        assert inside.size == max(1, math.ceil((b - a) / oracle._PANEL_WIDTH))
        assert np.ptp(inside) <= 1e-12 * b  # an even split, up to rounding


def test_panel_integrals_sum_both_orders_of_one_node_matrix():
    # A polynomial of degree 5 in x: both orders integrate it exactly on
    # every panel, and rows stay apart.
    zeros = oracle._laguerre_roots(3, 1.5)
    nodes_seen = []

    def integrands(x):
        nodes_seen.append(x.size)
        return np.stack([x**5, np.ones_like(x)])

    low, high = oracle._panel_integrals(integrands, zeros, 17.0)
    panels = oracle._panel_cuts(zeros, 17.0).size - 1
    assert nodes_seen == [panels * (40 + 80)]
    assert low == pytest.approx([17.0**6 / 6.0, 17.0], rel=1e-13)
    assert high == pytest.approx([17.0**6 / 6.0, 17.0], rel=1e-13)


# ------------------------------------------------------------------- roots


@pytest.mark.parametrize("n", [0, 1, 2, 8, 60])
@pytest.mark.parametrize("alpha", [0.3, 7.58, 79.0])
def test_laguerre_roots_equal_eigh_tridiagonal_to_the_bit(n, alpha):
    i = np.arange(n, dtype=float)
    diag = 2.0 * i + alpha + 1.0
    off = np.sqrt(i[1:] * (i[1:] + alpha))
    ref = eigh_tridiagonal(diag, off, eigvals_only=True) if n else np.array([])
    roots = oracle._laguerre_roots(n, alpha)
    assert roots.dtype == ref.dtype and np.array_equal(roots, ref)


# ---------------------------------------------------------- frozen Shannon


def test_shannon_grid_matches_frozen_values():
    # 200 seeded states (see the file's "about"): no AccuracyError, and
    # every value within 1e-12 of the one frozen before the tail cut.
    grid = json.loads(GRID.read_text())
    assert len(grid["states"]) == 200
    worst = 0.0
    for De, delta, n, m, frozen in grid["states"]:
        p = make_params(De=De, re=1.0, delta=delta)
        worst = max(worst, abs(shannon_numeric(p, solve_state(p, StateSpec(n, m))) - frozen))
    assert worst <= 1e-12
