"""Independent numerical checks for every closed-form quantity.

Gauss-Laguerre serves Fisher only: its radial integrands are
polynomials against a generalized Laguerre weight, which the rule
integrates exactly.  The normalisation (the entropic moment W_1),
Shannon and the entropic moments W_q, at integer and real q alike, run
against one fixed panel rule: Gauss-Legendre on panels between the
Laguerre zeros, each panel smoothed by a sine substitution, laid out and
evaluated for both orders in one pass.  Its range ends at a cut past the
last zero where a proven bound on the remaining tail (concavity of the
log-integrand there) meets a budget, and that bound joins the error
estimate.  W_q's radial sum depends on (n_r, 2 lam, q) alone and is
memoised on those, as the cached profiles hold their angular sums by q.
A Gauss-Laguerre rule's nodes are the eigenvalues of the Jacobi matrix;
its weights come from the closed formula in L_{K+1}, evaluated in log
space by specfun.log_abs_laguerre, so that every weight keeps its
relative accuracy down to the smallest (eigenvector components
carry only absolute accuracy, which the doubled guard rule would then
report as drift).  Every L_n here comes from specfun's one rescaled
recurrence; Shannon and W_q take it as ln |L_n|, and Fisher as a
mantissa whose power of two joins the log weights, so all three stay
finite at degrees where L_n itself leaves the double range.  Every
accuracy gate is written ``not err <= bound``, so a NaN estimate raises.
Angular integrals, for Fisher and the entropies alike and in both
angular modes, are ANGULAR_GRID-node uniform trapezoid sums over one
turn of the one profile class (cosine mode is its b = 0 case), the
definition that the package and benchmarks/reference.py share;
angular_integrals_numeric says how far they sit from the exact
integrals.  The radial spectrum is re-derived with a finite-difference
eigensolver that never touches the closed-form quantisation: it takes
lambda and its box scale from the solved state of its highest level,
and its energies from its own grid.  Every route takes a solved state
alone; only the system module solves.  Large parameter scales are
handled by keeping normalisation prefactors in log space (ln 4 beta^2
as 2 ln 2 beta, so a subnormal beta^2 costs no digits); quadrature
weights are normalised and their Gamma(alpha+1) mass carried separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .measures import EntropicMoment, FisherResult
from .system import ANGULAR_GRID, SolvedState
from .specfun import _laguerre_scaled, _tridiagonal_eigh, log_abs_laguerre

__all__ = [
    "AccuracyError",
    "AngularIntegrals",
    "angular_integrals_numeric",
    "fisher_numeric",
    "shannon_numeric",
    "wq_numeric",
    "radial_fd_eigen",
]


class AccuracyError(RuntimeError):
    """A numerical routine could not reach its target tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved {achieved:.3e})")
        self.achieved = achieved


@dataclass(frozen=True)
class AngularIntegrals:
    """Trapezoid values of the four angular profile integrals over one turn."""

    i2norm: float   # integral of Phi^2
    ideriv: float   # integral of Phi'^2
    ilog: float     # integral of Phi^2 ln Phi^2
    ipow: float     # integral of |Phi|^2q


# Rows of the dense Jacobi matrix at most: 512 MiB.  Fisher's doubled rule
# has 2 (n + 6) rows, so it refuses past n = 4090.
_MAX_JACOBI_ROWS = 2**13


def _laguerre_roots(n: int, alpha: float) -> np.ndarray:
    """Zeros of L_n^(alpha), ascending: the eigenvalues of its Jacobi matrix.

    numpy's dense symmetric eigensolver reads the lower triangle, so only
    the diagonal and the subdiagonal (flat indices n, 2n + 1, ...) are set.
    More than _MAX_JACOBI_ROWS rows raise ValueError before any allocation.
    """
    if n > _MAX_JACOBI_ROWS:
        raise ValueError(f"the Laguerre zeros would take a {n}-row Jacobi matrix, "
                         f"past its limit of {_MAX_JACOBI_ROWS}")
    i = np.arange(n, dtype=float)
    jacobi = np.diag(2.0 * i + alpha + 1.0)
    jacobi.flat[n::n + 1] = np.sqrt(i[1:] * (i[1:] + alpha))
    return np.linalg.eigvalsh(jacobi)


def _log_gauss_laguerre(alpha: float, K: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes, ln of the weights shifted to a largest value of 0, and
    ln Gamma(alpha+1).

    The weights follow w_i = Gamma(K+alpha+1) x_i / (K! (K+1)^2
    [L_{K+1}^(alpha)(x_i)]^2) (Golub & Welsch 1969; DLMF 3.5(v)), taken
    in log space from ``log_abs_laguerre``, which does not overflow at
    large K or alpha; the shift drops the constant, which normalising to
    unit mass absorbs.
    """
    nodes = _laguerre_roots(K, alpha)
    log_w = np.log(nodes) - 2.0 * log_abs_laguerre(K + 1, alpha, nodes)
    return nodes, log_w - np.max(log_w), math.lgamma(alpha + 1.0)


@lru_cache(maxsize=1)
def _profile_grid(profile) -> tuple[np.ndarray, np.ndarray]:
    """(Phi, Phi') of ``profile`` on the ANGULAR_GRID-node grid, read-only.

    Keyed by the profile object and kept for the last profile only
    (128 KiB), so a state whose orders are asked for one after another
    samples its grid once, and a profile rebuilt after
    ``angular_profile.cache_clear()`` samples its own.  The first grid of
    a profile also fixes its pi-normalisation.
    """
    phi, dphi = profile._on_grid(ANGULAR_GRID)
    phi.flags.writeable = False
    dphi.flags.writeable = False
    return phi, dphi


def angular_integrals_numeric(solved: SolvedState, q: float = 2.0) -> AngularIntegrals:
    """Trapezoid sums of the angular integrals on a uniform grid over one turn.

    These sums define the angular integrals; benchmarks/reference.py
    uses the same definition.  They converge spectrally to the exact
    integrals only for a 2 pi-periodic profile.  The Mathieu profile at
    non-integer m + delta carries e^(i (m + delta) theta), which is not
    2 pi-periodic, and its sums sit about 1e-4 relative off the exact
    integrals.  Where the profile is the single cosine cos m theta of
    integer m, the entropy integrand Phi^2 ln Phi^2 has log cusps at its
    zeros, which leave the trapezoid sum an O(h^3) error; one Richardson
    step against the half grid (every other node) removes it.  At b > 0
    a profile of integer order keeps the plain sum, the closer one there.

    The result is stored on the cached profile under float(q) and
    returned from there on later calls, so each (profile, q) is summed
    once; Fisher and Shannon use only some of the four sums, but taking
    them apart would cost more passes than the unused sums do.  A profile
    depends on (m + delta, b) alone (on m alone in cosine mode), so states
    that differ only in De, re or mu share it and its sums, and so do the
    two modes where they name the same function.  The sums read the
    grid of ``_profile_grid``, which keeps the last profile's, so the
    orders of one state asked for in a row sample one grid; a profile
    asked for k orders samples at most k grids.
    """
    profile = solved.profile
    key = float(q)
    if key in profile.integrals:
        return profile.integrals[key]
    h = 2.0 * math.pi / ANGULAR_GRID
    phi, dphi = _profile_grid(profile)
    phi_sq = phi * phi
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(phi_sq > 1e-300, phi_sq * np.log(phi_sq), 0.0)
    ilog = h * float(np.sum(plogp))
    if profile.freqs.size == 1 and float(profile.carrier).is_integer():
        ilog = (8.0 * ilog - 2.0 * h * float(np.sum(plogp[::2]))) / 7.0
    profile.integrals[key] = AngularIntegrals(
        i2norm=h * float(np.sum(phi_sq)),
        ideriv=h * float(np.sum(dphi * dphi)),
        ilog=ilog,
        ipow=h * float(np.sum(np.abs(phi) ** (2.0 * q))),
    )
    return profile.integrals[key]


# Panel rule for the radial integrands of Shannon and W_q, which may carry
# a log cusp or a non-integer power at 0 and at each Laguerre zero.
# Panel [a, b] is mapped by x = a + (b - a) g(u), g(u) = u - sin(2 pi u)
# / (2 pi); g' and g'' vanish at both ends, so an end factor
# (x - x0)^2 ln|x - x0| or x^s becomes u^8 ln u or u^(3s + 2) and
# Gauss-Legendre converges fast.  Panels wider than _PANEL_WIDTH are split
# evenly, so e^-x stays well resolved.  Orders 40/80 are needed for
# Shannon too: on two seeded sets of 600 random states (De 0.3-40,
# n 0-30, m 0-3, delta 0-0.5) orders 24/48 raised AccuracyError 25 and
# 50 times, with error estimates up to 2.5e-9, and 40/80 never did.  For
# W_q the map turns a large power x^s into a steep u^(3s + 2), and the
# 24/48 difference overstated the real-q error past its 1e-8 gate
# (q >= 2.5, n >= 8).  At large q n the 40/80 difference still
# overstates the error: it can exceed W_q's 1e-10 integer-q bound while
# I_80 stays within 1e-13 of the exact moment.
_PANEL_WIDTH = 4.0
# U grows like 2 lam: De 1e10 (re 1) takes 71 889 panels, De 1e14 7.1e6 (7 GB of nodes).
_MAX_PANELS = 2**17


def _unit_panel_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] of Gauss-Legendre after the sine map."""
    t, w = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (t + 1.0)
    two_pi_u = 2.0 * math.pi * u
    return u - np.sin(two_pi_u) / (2.0 * math.pi), 0.5 * w * (1.0 - np.cos(two_pi_u))


# Both orders side by side: columns [0, 40) are the 40-point rule, the
# rest the 80-point rule.
_UNIT_NODES, _UNIT_WEIGHTS = (np.concatenate(parts) for parts in zip(
    _unit_panel_rule(40), _unit_panel_rule(80)))
_LOW_ORDER = 40

# A cut aims at a tail of 2^-56 of the integral it ends; W_q accepts a
# sum only when its tail bound is at most 2^-50 of it.
_LOG_TAIL_BUDGET = -56.0 * math.log(2.0)
_LOG_WQ_TAIL_CHECK = -50.0 * math.log(2.0)
# Where the last lobe is sampled for a lower bound on the integral, as
# fractions of the way from the last zero to X0 (see _tail_cut).
_LOBE_GRID = np.linspace(0.05, 0.95, 19)


def _tail_cut(p: float, k: float, c: float, zeros: np.ndarray, log_scale: float,
              log_mass: float | None = None) -> tuple[float, float, float]:
    """(U, ln T, r): a cut U beyond the last zero, T >= the integral of f
    past U, and the rate r = -s(U) > 0 of f's exponential envelope there.

    f(x) = exp(log_scale) x^p e^-x |L_n(x / c)|^2k with p > 0, k > 0,
    c > 0, and ``zeros`` the n zeros x_i of L_n(x / c), ascending.  Since
    L_n(y) = (-1)^n prod_i (y - x_i / c) / n!, f is
    exp(log_scale) x^p e^-x prod_i |x - x_i|^2k / (c^n n!)^2k in closed
    form.  Beyond the last zero x_n, ln f is concave and its
    slope s(x) = p / x - 1 + 2k sum_i 1 / (x - x_i) falls from +inf
    towards -1.  Where s(U) < 0, f(x) <= f(U) e^(s(U) (x - U)) for x >= U,
    so T = f(U) / -s(U).  Since s(x) <= p / x - 1 + 2kn / (x - x_n), s is at
    most -1/2 from the larger root X0 of x^2 - (x_n + 2p + 4kn) x + 2p x_n
    on, and there T <= 2 f(U).

    U is where f meets 2^-56 of the integral over [0, inf), whose log is
    ``log_mass`` when known.  Otherwise a proven lower bound stands in:
    s >= -1 beyond x_n, so the integral is at least f(y) for every
    y > x_n, and the largest f on _LOBE_GRID is taken.  Newton steps on
    the concave ln f start at X0; when ln f crosses the target on its
    falling side, every step after the first stays beyond that crossing.
    A step that would leave the falling side (possible only when the
    target lies above the last lobe) is not taken, so s(U) < 0 always.
    """
    n = zeros.size
    log_front = log_scale - 2.0 * k * (n * math.log(c) + math.lgamma(n + 1.0))
    x_n = float(zeros[-1]) if n else 0.0
    b = x_n + 2.0 * p + 4.0 * k * n
    x0 = 0.5 * (b + math.sqrt(b * b - 8.0 * p * x_n))
    if log_mass is None:
        y = x_n + (x0 - x_n) * _LOBE_GRID
        log_mass = float(np.max(log_front + p * np.log(y) - y
                                + 2.0 * k * np.log(y[:, None] - zeros).sum(axis=1)))
    log_target = log_mass + _LOG_TAIL_BUDGET
    listed = zeros.tolist()

    def log_f_slope(u: float) -> tuple[float, float]:
        gaps = [u - x for x in listed]
        value = log_front + p * math.log(u) - u + 2.0 * k * sum(map(math.log, gaps))
        return value, p / u - 1.0 + 2.0 * k * sum(1.0 / g for g in gaps)

    u = x0
    value, slope = log_f_slope(u)
    for _ in range(8):
        if abs(value - log_target) < 0.5:
            break
        trial = u - (value - log_target) / slope
        if trial <= x_n:
            break
        trial_value, trial_slope = log_f_slope(trial)
        if trial_slope >= 0.0:
            break
        u, value, slope = trial, trial_value, trial_slope
    return u, value - math.log(-slope), -slope


def _panel_cuts(zeros: np.ndarray, upper: float) -> np.ndarray:
    """Panel edges from 0 to ``upper``, which lies beyond the last zero.

    The edges of the gaps are 0, the ``zeros`` and ``upper``; each gap is
    split evenly into the fewest panels no wider than _PANEL_WIDTH, with
    the cuts np.linspace would place there, to the bit.  More than
    _MAX_PANELS panels (or NaN) raise ValueError before any layout.
    """
    edges = np.concatenate(([0.0], zeros, [upper]))
    gaps = edges[1:] - edges[:-1]
    counts = np.ceil(gaps / _PANEL_WIDTH)
    if not counts.sum() <= _MAX_PANELS:
        raise ValueError(f"the radial panel rule would take {counts.sum():.4g} panels, "
                         f"past its limit of {_MAX_PANELS}")
    counts = counts.astype(np.intp)
    first = np.cumsum(counts) - counts
    cuts = np.empty(first[-1] + counts[-1] + 1)
    cuts[-1] = upper
    index = np.arange(cuts.size - 1) - np.repeat(first, counts)
    cuts[:-1] = np.repeat(edges[:-1], counts) + index * np.repeat(gaps / counts, counts)
    return cuts


def _panel_integrals(
    integrands: Callable[[np.ndarray], np.ndarray], zeros: np.ndarray, upper: float
) -> tuple[np.ndarray, np.ndarray]:
    """(I_p, I_2p): integrals over [0, upper] at both panel orders.

    The panels are those of _panel_cuts.  ``integrands`` gets the node
    matrix of both rules on every panel, flattened, and returns one row
    of values per integral (or a single row); |I_p - I_2p| is the error
    estimate.
    """
    cuts = _panel_cuts(zeros, upper)
    lo, width = cuts[:-1], cuts[1:] - cuts[:-1]
    values = integrands((lo[:, None] + width[:, None] * _UNIT_NODES).ravel())
    sums = (width @ values.reshape(values.shape[:-1] + (lo.size, _UNIT_NODES.size))
            ) * _UNIT_WEIGHTS
    return sums[..., :_LOW_ORDER].sum(axis=-1), sums[..., _LOW_ORDER:].sum(axis=-1)


def fisher_numeric(solved: SolvedState) -> FisherResult:
    """Fisher information by quadrature of the density-gradient integrals.

    Radial integrands use the analytic derivative of the Laguerre
    density, leaving polynomials against the weight x^(2 lam - 2) e^-x
    that the Gauss rule integrates exactly; a doubled rule guards
    against bookkeeping errors.  The angular factors are the trapezoid
    integrals of Phi^2 and Phi'^2, in either angular mode.
    """
    n, lam = solved.spec.n_r, solved.lam
    ang = angular_integrals_numeric(solved)
    twol = 2.0 * lam

    def parts(K: int) -> tuple[float, float]:
        nodes, log_w, log_mass = _log_gauss_laguerre(twol - 2.0, K)
        # L_n = ln 2^e, L_{n-1} = lnm1 2^e (order 2 lam - 1): the squares' 2^(2e)
        # joins the unit-mass weights in log space, where neither over- nor underflows
        ln, lnm1, e = _laguerre_scaled(n, twol - 1.0, nodes)
        weights = np.exp(log_w + 2.0 * math.log(2.0) * e) / np.exp(log_w).sum()
        # x * d/dx ln(radial density) recombined into a polynomial square, with
        # x L_{n-1}^(2 lam) = (n + 2 lam - 1) L_{n-1} - n L_n (DLMF 18.9)
        poly = ((twol - 1.0 + 2.0 * n - nodes) * ln - 2.0 * (n + twol - 1.0) * lnm1) ** 2
        scale = math.exp(solved.log_norm_sq + log_mass)
        return scale * float(weights @ poly), scale * float(weights @ (ln * ln))

    # the doubled rule first: past the row limit it refuses before any rule is built
    r1b, r2b = parts(2 * (n + 6))
    r1, r2 = parts(n + 6)
    i1 = ang.i2norm * r1b
    i2 = 4.0 * ang.ideriv * r2b
    drift = abs(r1 - r1b) + abs(r2 - r2b)
    total = i1 + i2
    if not drift <= 1e-10 * max(abs(total), 1.0):
        raise AccuracyError("Fisher quadrature did not settle", drift / abs(total))
    return FisherResult(total, i1, i2)


def _shannon_cut(solved: SolvedState) -> tuple[np.ndarray, float, float, float]:
    """(zeros, U, T_w, T_r): the panel range of shannon_numeric and its tails.

    The rows are the unit-mass radial weight w = rho x / (4 beta^2) and
    w ln rho.  U is where _tail_cut puts w's tail near 2^-56; T_w bounds
    that tail.  Past U, ln rho = ln w + ln(4 beta^2 / x) falls with a slope
    between -1 - 1/x and -r - 1/x (r the rate of w's envelope), so
    |ln rho(x)| <= |ln rho(U)| + (1 + 1/U)(x - U), and against the envelope
    w(U) e^(-r (x - U)) the second row's tail is at most
    T_r = T_w (|ln rho(U)| + (1 + 1/U) / r).
    """
    twol, log_4b2 = 2.0 * solved.lam, 2.0 * math.log(2.0 * solved.beta)
    zeros = _laguerre_roots(solved.spec.n_r, twol - 1.0)
    upper, log_tail, rate = _tail_cut(twol, 1.0, 1.0, zeros,
                                      solved.log_norm_sq - log_4b2, log_mass=0.0)
    log_rho_u = log_tail + math.log(rate) + log_4b2 - math.log(upper)
    tail = math.exp(log_tail)
    return zeros, upper, tail, tail * (abs(log_rho_u) + (1.0 + 1.0 / upper) / rate)


# The absolute error estimate above which shannon_numeric raises.
_SHANNON_TARGET = 1e-9


def shannon_numeric(solved: SolvedState) -> float:
    """Shannon entropy -integral rho ln rho by the radial panel rule.

    The radial integrand has integrable log cusps at the Laguerre zeros;
    the panels end there, and Gauss-Legendre at orders 40 and 80 on the
    sine-mapped panels gives the value (order 80) and the error
    estimate (their difference).  The range ends at a cut U past the
    last zero where a proven bound puts the weight's tail near 2^-56;
    the tails of both rows, bounded from U (see _shannon_cut), join the
    error estimate.  The angular share enters through the trapezoid
    profile integrals.  Raises AccuracyError when the error estimate
    exceeds ``_SHANNON_TARGET``.
    """
    n, twol = solved.spec.n_r, 2.0 * solved.lam
    log_4b2 = 2.0 * math.log(2.0 * solved.beta)
    ang = angular_integrals_numeric(solved)

    def integrands(x: np.ndarray) -> np.ndarray:
        # rows: w ln rho and the unit-mass radial weight
        # w = rho x / (4 beta^2) = N^2 x^(2 lam) e^-x L_n^2 / (4 beta^2)
        rows = np.empty((2, x.size))
        with np.errstate(divide="ignore", invalid="ignore"):
            log_x = np.log(x)
            log_rho = 2.0 * log_abs_laguerre(n, twol - 1.0, x)
            log_rho += (twol - 1.0) * log_x - x + solved.log_norm_sq
            np.exp(log_rho + log_x - log_4b2, out=rows[1])
            np.multiply(rows[1], log_rho, out=rows[0])
        rows[0][rows[1] == 0.0] = 0.0  # 0 (-inf) where a node hits a zero
        return rows

    zeros, upper, weight_tail, row_tail = _shannon_cut(solved)
    (r_log_p, norm_p), (r_log, norm_int) = _panel_integrals(integrands, zeros, upper)
    achieved = (abs(r_log_p - r_log) + abs(norm_p - norm_int)) + weight_tail + row_tail
    if not achieved <= _SHANNON_TARGET:
        raise AccuracyError("Shannon radial quadrature did not converge", achieved)
    return -ang.i2norm * float(r_log) - ang.ilog * float(norm_int)


@lru_cache(maxsize=256)
def _wq_radial(n: int, twol: float, q: float) -> tuple[float, float]:
    """(offset, ln I): the radial half of wq_numeric, a function of
    (n_r, 2 lam, q) alone.

    After u = q x the radial integrand is u^alpha e^-u |L_n(u/q)|^2q,
    alpha = q (2 lam - 1) + 1, with e^offset pulled out; I is its panel
    rule sum.  The range ends at a cut past the last zero, from a proven
    tail bound (see _tail_cut); a sum is accepted only when that bound is
    at most 2^-50 of it, and otherwise the cut moves out and the rule runs
    again.  Raises AccuracyError when the error estimate, |I_40 - I_80|
    plus the tail bound, over I_80 exceeds 1e-10 at integer q (a smooth
    integrand) or 1e-8 at real q (kinks at the zeros).  A raise is not
    cached, so a failing state raises on every call.
    """
    alpha = q * (twol - 1.0) + 1.0
    offset = alpha * (math.log(alpha) - 1.0) if alpha > 1.0 else 0.0

    def integrand(u: np.ndarray) -> np.ndarray:
        log_lag = log_abs_laguerre(n, twol - 1.0, u / q)
        return np.exp(alpha * np.log(u) - u + 2.0 * q * log_lag - offset)

    zeros = q * _laguerre_roots(n, twol - 1.0)
    log_mass = None
    for _ in range(3):
        upper, log_tail, _ = _tail_cut(alpha, q, q, zeros, -offset, log_mass)
        rough, radial = _panel_integrals(integrand, zeros, upper)
        if not radial > 0.0:
            raise AccuracyError("W_q radial quadrature did not converge", math.inf)
        log_mass = math.log(radial)
        if log_tail <= log_mass + _LOG_WQ_TAIL_CHECK:
            break
    else:
        raise AccuracyError("W_q radial tail bound did not fall below 2^-50",
                            math.exp(log_tail - log_mass))
    err = abs(rough - radial) + math.exp(log_tail)
    tol = 1e-10 if float(q).is_integer() else 1e-8
    if not err <= tol * radial:
        raise AccuracyError("W_q radial quadrature did not converge", err / radial)
    return offset, log_mass


def wq_numeric(solved: SolvedState, q: float) -> EntropicMoment:
    """Entropic moment W_q by quadrature of rho^q, for real q > 0.

    The radial sum comes from _wq_radial, memoised on (n_r, 2 lam, q)
    (256 entries, like the angular profiles), so the W_q, T_q and R_q of
    one state, asked for together or one request at a time, run the
    panel rule once, and so do states of equal lambda.  The moment
    carries ln W_q, summed from the state's ln N^2 and beta, the angular
    sum, the scale pulled out and the log of the radial sum, so it stays
    finite where W_q itself leaves the double range.  Raises
    AccuracyError as _wq_radial does.
    """
    if not q > 0.0:
        raise ValueError(f"wq_numeric requires q > 0, got {q}")
    twol = 2.0 * solved.lam
    ang = angular_integrals_numeric(solved, q=q)
    alpha = q * (twol - 1.0) + 1.0
    log_front = (
        math.log(ang.ipow)
        + q * solved.log_norm_sq
        - 2.0 * math.log(2.0 * solved.beta)
        - (alpha + 1.0) * math.log(q)
    )
    offset, log_mass = _wq_radial(solved.spec.n_r, twol, float(q))
    return EntropicMoment(q, log_front + offset + log_mass)


def radial_fd_eigen(top: SolvedState) -> list[float]:
    """Radial eigenvalues n = 0..top.spec.n_r by second-order finite differences.

    Takes lambda, the parameters and the box scale (its beta) from
    ``top``, the solved state of the highest level asked for, at most
    n_r = 9; the energies come from the grid alone.  Discretises
    the radial operator (second derivative plus the inverse-square and
    Coulomb-like terms) on a uniform Dirichlet grid whose wall sits 40
    past the top level's outer turning point, at x = 2 beta r =
    2(n + lambda) + 2 sqrt((n + lambda)^2 - lambda(lambda - 1)) + 40, solves the
    tridiagonal eigenproblem on 2001, 4001 and 8003 interior points, and
    Richardson-extrapolates the O(h^2) error of the finer two; its
    distance from the coarser two's extrapolation is the error estimate,
    gated at 5e-5 relative.  Energies are returned in the same convention
    as SolvedState.energy (well offset excluded).
    """
    top_n, params = top.spec.n_r, top.params
    if top_n > 9:
        raise ValueError(f"radial_fd_eigen supports levels up to n_r = 9, got {top_n}")
    c2 = top.lam * (top.lam - 1.0)
    two_mu_a = 2.0 * params.mu * params.A
    nl = top_n + top.lam
    r_max = (2.0 * nl + 2.0 * math.sqrt(nl * nl - c2) + 40.0) / (2.0 * top.beta)

    def spectrum(points: int) -> np.ndarray:
        h = r_max / (points + 1)
        r = h * np.arange(1, points + 1)
        diag = 2.0 / (h * h) + c2 / (r * r) + two_mu_a / r
        off = np.full(points - 1, -1.0 / (h * h))
        return _tridiagonal_eigh(diag, off, 0, top_n, vectors=False)

    coarse, mid, fine = (spectrum(points) for points in (2001, 4001, 8003))
    extrap = (4.0 * fine - mid) / 3.0
    resid = float(np.max(np.abs(extrap - (4.0 * mid - coarse) / 3.0) / np.abs(extrap)))
    if not resid <= 5e-5:
        raise AccuracyError("finite-difference spectrum not grid-converged", resid)
    return [float(e) / (2.0 * params.mu) for e in extrap]
