"""Independent numerical checks for every closed-form quantity.

Gauss-Laguerre serves Fisher only: its radial integrands are
polynomials against a generalized Laguerre weight, which the rule
integrates exactly.  The normalisation (the entropic moment W_1),
Shannon and the entropic moments W_q, at integer and real q alike, run
against one fixed panel rule: Gauss-Legendre on panels between the
Laguerre zeros, each panel smoothed by a sine substitution.  A
Gauss-Laguerre rule's nodes are the eigenvalues of the Jacobi matrix;
its weights come from the closed formula in L_{K+1}, evaluated in log
space, so that every weight keeps its relative accuracy down to the
smallest (eigenvector components carry only absolute accuracy, which
the doubled guard rule would then report as drift).  Angular integrals,
for Fisher and the entropies alike and in both angular modes, are
ANGULAR_GRID-node uniform trapezoid sums over one turn of the one
profile class (cosine mode is its b = 0 case), the definition that the
package and benchmarks/reference.py share; angular_integrals_numeric
says how far they sit from the exact integrals.  The radial spectrum
is re-derived with a finite-difference eigensolver that never touches
the closed-form quantisation.  Large
parameter scales are handled by keeping normalisation prefactors in log
space; quadrature weights are normalised and their Gamma(alpha+1) mass
carried separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .measures import FisherResult
from .system import (
    ANGULAR_GRID,
    AngularMode,
    SolvedState,
    StateSpec,
    SystemParams,
    UnboundAngularError,
    angular_eigenvalue,
    angular_profile,
    beta_param,
    profile_key,
)
from .specfun import laguerre

__all__ = [
    "AccuracyError",
    "QuadratureRule",
    "AngularIntegrals",
    "gauss_laguerre_rule",
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
class QuadratureRule:
    """Gauss rule for the weight x^alpha e^-x on [0, inf)."""

    alpha: float
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class AngularIntegrals:
    """Trapezoid values of the four angular profile integrals over one turn."""

    i2norm: float   # integral of Phi^2
    ideriv: float   # integral of Phi'^2
    ilog: float     # integral of Phi^2 ln Phi^2
    ipow: float     # integral of |Phi|^2q


def _laguerre_roots(n: int, alpha: float) -> np.ndarray:
    """Zeros of L_n^(alpha): the eigenvalues of its Jacobi matrix."""
    if n == 0:
        return np.array([])
    i = np.arange(n, dtype=float)
    diag = 2.0 * i + alpha + 1.0
    off = np.sqrt(i[1:] * (i[1:] + alpha))
    return eigh_tridiagonal(diag, off, eigvals_only=True)


def _log_abs_monic_laguerre(K: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """ln |p_K(x)| for the monic Laguerre polynomial p_K = (-1)^K K! L_K^(alpha).

    Upward three-term recurrence, vectorised over ``x``; every few steps
    each point's pair of values is rescaled by a power of two (exact)
    and the exponent carried, so large degrees and orders cannot
    overflow.
    """
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    nxt = np.empty_like(x)
    exponent = np.zeros(x.shape, dtype=np.int64)
    for k in range(K):
        # p_{k+1} = (x - (2k + alpha + 1)) p_k - k (k + alpha) p_{k-1}
        np.subtract(x, 2.0 * k + alpha + 1.0, out=nxt)
        nxt *= cur
        prev *= k * (k + alpha)
        nxt -= prev
        prev, cur, nxt = cur, nxt, prev
        if k % 4 == 3:
            _, e = np.frexp(cur)
            np.ldexp(cur, -e, out=cur)
            np.ldexp(prev, -e, out=prev)
            exponent += e
    return np.log(np.abs(cur)) + exponent * math.log(2.0)


def _scaled_gauss_laguerre(alpha: float, K: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes, unit-mass weights, and ln Gamma(alpha+1) carried separately.

    The weights follow w_i = Gamma(K+alpha+1) x_i / (K! (K+1)^2
    [L_{K+1}^(alpha)(x_i)]^2) (Golub & Welsch 1969; DLMF 3.5(v)), taken
    in log space and normalised to unit mass, which absorbs the constant.
    """
    nodes = _laguerre_roots(K, alpha)
    log_w = np.log(nodes) - 2.0 * _log_abs_monic_laguerre(K + 1, alpha, nodes)
    weights = np.exp(log_w - np.max(log_w))
    return nodes, weights / weights.sum(), math.lgamma(alpha + 1.0)


def gauss_laguerre_rule(alpha: float, K: int) -> QuadratureRule:
    """K-point generalized Gauss-Laguerre rule for the weight x^alpha e^-x.

    Nodes are the Jacobi-matrix eigenvalues; weights come from the
    closed formula in L_{K+1}^(alpha) at the nodes, evaluated in log
    space (each weight relatively accurate, the smallest included) and
    scaled by the total mass Gamma(alpha + 1).  Exact for polynomials of
    degree <= 2K - 1.
    """
    if not alpha > -1.0:
        raise ValueError(f"gauss_laguerre_rule requires alpha > -1, got {alpha}")
    if K < 1:
        raise ValueError(f"gauss_laguerre_rule requires K >= 1, got {K}")
    nodes, weights, log_mass = _scaled_gauss_laguerre(float(alpha), int(K))
    return QuadratureRule(float(alpha), nodes, weights * math.exp(log_mass))


def angular_integrals_numeric(
    params: SystemParams,
    m: int,
    mode: AngularMode,
    q: float = 2.0,
) -> AngularIntegrals:
    """Trapezoid sums of the angular integrals on a uniform grid over one turn.

    These sums define the angular integrals; benchmarks/reference.py
    uses the same definition.  They converge spectrally to the exact
    integrals only for a 2 pi-periodic profile.  The Mathieu profile at
    non-integer m + delta carries e^(i (m + delta) theta), which is not
    2 pi-periodic, and its sums sit about 1e-4 relative off the exact
    integrals.  For the cosine profile the entropy integrand
    Phi^2 ln Phi^2 has log cusps at the zeros of cos m theta, which leave
    the trapezoid sum an O(h^3) error; one Richardson step against the
    half grid (every other node) removes it.

    The result is stored on the cached profile under float(q) and
    returned from there on later calls, so each (profile, q) takes one
    grid; Fisher and Shannon use only some of the four sums, but taking
    them apart would cost more grids than the unused sums do.  A profile
    depends on (m + delta, b) alone (on m alone in cosine mode), so states
    that differ only in De, re or mu share it and its sums.  It fixes its
    pi-normalisation from the first of these grids, so a profile asked
    for k orders samples exactly k grids.
    """
    profile = angular_profile(*profile_key(params, m, mode))
    key = float(q)
    if key in profile.integrals:
        return profile.integrals[key]
    h = 2.0 * math.pi / ANGULAR_GRID
    phi, dphi = profile._on_grid(ANGULAR_GRID)
    phi_sq = phi * phi
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(phi_sq > 1e-300, phi_sq * np.log(phi_sq), 0.0)
    ilog = h * float(np.sum(plogp))
    if mode is AngularMode.PAPER_COSINE:
        ilog = (8.0 * ilog - 2.0 * h * float(np.sum(plogp[::2]))) / 7.0
    profile.integrals[key] = AngularIntegrals(
        i2norm=h * float(np.sum(phi_sq)),
        ideriv=h * float(np.sum(dphi * dphi)),
        ilog=ilog,
        ipow=h * float(np.sum(np.abs(phi) ** (2.0 * q))),
    )
    return profile.integrals[key]


def _lag(n: int, alpha: float, x: np.ndarray) -> np.ndarray:
    if n < 0:
        return np.zeros_like(np.asarray(x, dtype=float))
    return laguerre(n, alpha, x)


# Panel rule for the radial integrands of Shannon and W_q, which may carry
# a log cusp or a non-integer power at 0 and at each Laguerre zero.
# Panel [a, b] is mapped by x = a + (b - a) g(u), g(u) = u - sin(2 pi u)
# / (2 pi); g' and g'' vanish at both ends, so an end factor
# (x - x0)^2 ln|x - x0| or x^s becomes u^8 ln u or u^(3s + 2) and
# Gauss-Legendre converges fast.  Panels wider than _PANEL_WIDTH are split
# evenly, so e^-x stays well resolved.  Orders 24/48 suffice for Shannon,
# but the map turns a large power x^s into a steep u^(3s + 2), and their
# difference then overstated the real-q W_q error past its 1e-8 gate
# (q >= 2.5, n >= 8); 40/80 keep a wide margin there.  At large q n the
# 40/80 difference still overstates the error: it can exceed W_q's 1e-10
# integer-q bound while I_80 stays within 1e-13 of the exact moment.
_PANEL_WIDTH = 4.0


def _unit_panel_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] of Gauss-Legendre after the sine map."""
    t, w = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (t + 1.0)
    two_pi_u = 2.0 * math.pi * u
    return u - np.sin(two_pi_u) / (2.0 * math.pi), 0.5 * w * (1.0 - np.cos(two_pi_u))


_UNIT_PANEL_RULES = (_unit_panel_rule(40), _unit_panel_rule(80))


def _panel_integrals(
    integrands: Callable[[np.ndarray], np.ndarray], zeros: np.ndarray, upper: float
) -> tuple[np.ndarray, np.ndarray]:
    """(I_p, I_2p): integrals over [0, upper] at both panel orders.

    Panel edges are 0, the ``zeros`` below ``upper``, and ``upper``.
    ``integrands`` gets every node of both rules in one array and
    returns one row of values per integral (or a single row);
    |I_p - I_2p| is the error estimate.
    """
    edges = np.concatenate(([0.0], zeros[zeros < upper], [upper]))
    cuts = np.concatenate([edges[:1]] + [
        np.linspace(a, b, max(1, math.ceil((b - a) / _PANEL_WIDTH)) + 1)[1:]
        for a, b in zip(edges[:-1], edges[1:])
    ])
    lo, width = cuts[:-1, None], np.diff(cuts)[:, None]
    nodes = [(lo + width * x).ravel() for x, _ in _UNIT_PANEL_RULES]
    weights = [(width * w).ravel() for _, w in _UNIT_PANEL_RULES]
    split = nodes[0].size
    values = integrands(np.concatenate(nodes))
    return values[..., :split] @ weights[0], values[..., split:] @ weights[1]


def fisher_numeric(params: SystemParams, solved: SolvedState) -> FisherResult:
    """Fisher information by quadrature of the density-gradient integrals.

    Radial integrands use the analytic derivative of the Laguerre
    density, leaving polynomials against the weight x^(2 lam - 2) e^-x
    that the Gauss rule integrates exactly; a doubled rule guards
    against bookkeeping errors.  The angular factors are the trapezoid
    integrals of Phi^2 and Phi'^2, in either angular mode.
    """
    n, lam = solved.spec.n_r, solved.lam
    ang = angular_integrals_numeric(params, solved.spec.m, solved.mode)
    twol = 2.0 * lam

    def parts(K: int) -> tuple[float, float]:
        nodes, weights, log_mass = _scaled_gauss_laguerre(twol - 2.0, K)
        ln = _lag(n, twol - 1.0, nodes)
        lnm1 = _lag(n - 1, twol, nodes)
        # x * d/dx ln(radial density) recombined into a polynomial square
        poly = ((twol - 1.0 - nodes) * ln - 2.0 * nodes * lnm1) ** 2
        scale = math.exp(solved.log_norm_sq + log_mass)
        return scale * float(weights @ poly), scale * float(weights @ (ln * ln))

    r1, r2 = parts(n + 6)
    r1b, r2b = parts(2 * (n + 6))
    i1 = ang.i2norm * r1b
    i2 = 4.0 * ang.ideriv * r2b
    drift = abs(r1 - r1b) + abs(r2 - r2b)
    total = i1 + i2
    if drift > 1e-10 * max(abs(total), 1.0):
        raise AccuracyError("Fisher quadrature did not settle", drift / abs(total))
    return FisherResult(total, i1, i2, solved.mode)


def shannon_numeric(
    params: SystemParams, solved: SolvedState, target: float = 1e-9
) -> float:
    """Shannon entropy -integral rho ln rho by the radial panel rule.

    The radial integrand has integrable log cusps at the Laguerre zeros;
    the panels end there, and Gauss-Legendre at orders 40 and 80 on the
    sine-mapped panels gives the value (order 80) and the error
    estimate (their difference).  The angular share enters through the
    trapezoid profile integrals.  Raises AccuracyError when the error
    estimate exceeds ``target``.
    """
    n, lam, beta = solved.spec.n_r, solved.lam, solved.beta
    twol = 2.0 * lam
    ang = angular_integrals_numeric(params, solved.spec.m, solved.mode)
    log_scale = solved.log_norm_sq - math.log(4.0 * beta * beta)

    def integrands(x: np.ndarray) -> np.ndarray:
        # unit-mass radial weight exp(log_scale) x^(2 lam) e^-x L_n^2, and
        # that weight times ln of the radial density factor
        with np.errstate(divide="ignore", invalid="ignore"):
            log_lag_sq = 2.0 * np.log(np.abs(_lag(n, twol - 1.0, x)))
            log_x = np.log(x)
            weight = np.exp(log_scale + twol * log_x - x + log_lag_sq)
            log_rho = solved.log_norm_sq + (twol - 1.0) * log_x - x + log_lag_sq
            return np.stack([np.where(weight > 0.0, weight * log_rho, 0.0), weight])

    spread = twol + 4.0 * n
    x_max = spread + 25.0 * math.sqrt(spread) + 60.0
    (r_log_p, norm_p), (r_log, norm_int) = _panel_integrals(
        integrands, _laguerre_roots(n, twol - 1.0), x_max)
    achieved = abs(r_log_p - r_log) + abs(norm_p - norm_int)
    if achieved > target:
        raise AccuracyError("Shannon radial quadrature did not converge", achieved)
    return -ang.i2norm * float(r_log) - ang.ilog * float(norm_int)


def wq_numeric(params: SystemParams, solved: SolvedState, q: float) -> float:
    """Entropic moment W_q by quadrature of rho^q, for real q > 0.

    After u = q x the radial integrand is u^(q (2 lam - 1) + 1) e^-u
    |L_n(u/q)|^2q, which the panel rule integrates between the rescaled
    Laguerre zeros at every q, with a floating scale pulled out.  Raises
    AccuracyError when the error estimate |I_40 - I_80| / I_80 exceeds
    1e-10 at integer q (a smooth integrand) or 1e-8 at real q (kinks at
    the zeros).
    """
    if not q > 0.0:
        raise ValueError(f"wq_numeric requires q > 0, got {q}")
    n, lam, beta = solved.spec.n_r, solved.lam, solved.beta
    twol = 2.0 * lam
    ang = angular_integrals_numeric(params, solved.spec.m, solved.mode, q=q)
    alpha = q * (twol - 1.0) + 1.0
    log_front = (
        math.log(ang.ipow)
        + q * solved.log_norm_sq
        - math.log(4.0 * beta * beta)
        - (alpha + 1.0) * math.log(q)
    )
    spread = alpha + 2.0 * q * n
    u_max = spread + 25.0 * math.sqrt(spread) + 60.0
    offset = alpha * (math.log(alpha) - 1.0) if alpha > 1.0 else 0.0

    def integrand(u: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            log_lag = np.log(np.abs(_lag(n, twol - 1.0, u / q)))
        return np.exp(alpha * np.log(u) - u + 2.0 * q * log_lag - offset)

    rough, radial = _panel_integrals(integrand, q * _laguerre_roots(n, twol - 1.0), u_max)
    err = abs(rough - radial)
    tol = 1e-10 if float(q).is_integer() else 1e-8
    if radial <= 0.0 or err > tol * radial:
        raise AccuracyError("W_q radial quadrature did not converge",
                            err / radial if radial > 0.0 else math.inf)
    return math.exp(log_front + offset + math.log(radial))


def radial_fd_eigen(
    params: SystemParams,
    m: int,
    count: int,
    method: str = "series",
) -> list[float]:
    """Lowest radial eigenvalues by second-order finite differences.

    Discretises the radial operator (second derivative plus the
    inverse-square and Coulomb-like terms) on a uniform Dirichlet grid
    sized from the closed-form length scale, solves the tridiagonal
    eigenproblem on 4001 interior points and on the half-spacing
    refinement (8003 points), and Richardson-extrapolates the O(h^2)
    error.  Energies are returned in the same convention as
    SolvedState.energy (well offset excluded).
    """
    if count < 1 or count > 10:
        raise ValueError(f"radial_fd_eigen supports 1 <= count <= 10, got {count}")
    e_theta = angular_eigenvalue(params, m, method)
    radicand = -e_theta + 2.0 * params.mu * params.B + params.delta**2
    if radicand <= 0.0:
        raise UnboundAngularError(f"no bound radial branch (radicand {radicand:.3g})")
    lam = 0.5 + math.sqrt(radicand)
    c2 = radicand - 0.25  # = lam (lam - 1)
    two_mu_a = 2.0 * params.mu * params.A
    beta_min = beta_param(params, StateSpec(count - 1, m), lam)
    r_max = (40.0 + 10.0 * (count - 1)) / (2.0 * beta_min)

    def spectrum(points: int) -> np.ndarray:
        h = r_max / (points + 1)
        r = h * np.arange(1, points + 1)
        diag = 2.0 / (h * h) + c2 / (r * r) + two_mu_a / r
        off = np.full(points - 1, -1.0 / (h * h))
        return eigh_tridiagonal(
            diag, off, select="i", select_range=(0, count - 1), eigvals_only=True
        )

    coarse = spectrum(4001)
    fine = spectrum(8003)
    extrap = (4.0 * fine - coarse) / 3.0
    resid = float(np.max(np.abs(fine - extrap) / np.abs(extrap)))
    if resid > 5e-5:
        raise AccuracyError("finite-difference spectrum not grid-converged", resid)
    return [float(e) / (2.0 * params.mu) for e in extrap]
