"""Independent numerical checks for every closed-form quantity.

Radial integrals run against generalized Gauss-Laguerre rules
(polynomial integrands are then exact), or against adaptive quadrature
with subdivision at the Laguerre nodes when logarithms or non-integer
powers appear.  A rule's nodes are the eigenvalues of the Jacobi matrix;
its weights come from the closed formula in L_{K+1}, evaluated in log
space, so that every weight keeps its relative accuracy down to the
smallest (eigenvector components carry only absolute accuracy, which
the doubled guard rules would then report as drift).  Angular integrals
use uniform trapezoid sums, spectrally accurate for these periodic
profiles.  The radial spectrum is re-derived with a finite-difference
eigensolver that never touches the closed-form quantisation.  Large
parameter scales are handled by keeping normalisation prefactors in log
space; quadrature weights are normalised and their Gamma(alpha+1) mass
carried separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from .measures import FisherResult
from .system import (
    AngularMode,
    SolvedState,
    StateSpec,
    SystemParams,
    UnboundAngularError,
    angular_eigenvalue,
    angular_profile,
    beta_param,
)
from .specfun import laguerre

__all__ = [
    "AccuracyError",
    "QuadratureRule",
    "AngularIntegrals",
    "RadialGrid",
    "gauss_laguerre_rule",
    "angular_integrals_numeric",
    "density_norm_numeric",
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


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid for the finite-difference radial eigensolver."""

    r_max: float
    points: int

    def spacing(self) -> float:
        return self.r_max / (self.points + 1)

    def radii(self) -> np.ndarray:
        return self.spacing() * np.arange(1, self.points + 1)


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
    n_theta: int = 8192,
) -> AngularIntegrals:
    """Trapezoid values of the angular integrals on a uniform periodic grid."""
    if n_theta < 4096:
        raise ValueError(f"angular grid must have >= 4096 points, got {n_theta}")
    profile = angular_profile(params, m, mode)
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    h = 2.0 * math.pi / n_theta
    phi = profile.value(theta)
    dphi = profile.derivative(theta)
    phi_sq = phi * phi
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(phi_sq > 1e-300, phi_sq * np.log(phi_sq), 0.0)
    return AngularIntegrals(
        i2norm=h * float(np.sum(phi_sq)),
        ideriv=h * float(np.sum(dphi * dphi)),
        ilog=h * float(np.sum(plogp)),
        ipow=h * float(np.sum(np.abs(phi) ** (2.0 * q))),
    )


def _angular_factors(params: SystemParams, solved: SolvedState) -> tuple[float, float]:
    """(integral of Phi^2, integral of Phi'^2); analytic for the cosine mode."""
    m = solved.spec.m
    if solved.mode is AngularMode.PAPER_COSINE:
        return math.pi, math.pi * m * m if m > 0 else 0.0
    ints = angular_integrals_numeric(params, m, solved.mode)
    return ints.i2norm, ints.ideriv


def _lag(n: int, alpha: float, x: np.ndarray) -> np.ndarray:
    if n < 0:
        return np.zeros_like(np.asarray(x, dtype=float))
    return laguerre(n, alpha, x)


def density_norm_numeric(
    params: SystemParams, solved: SolvedState, n_theta: int = 8192
) -> float:
    """Quadrature of the full density over the plane; should be 1."""
    n, lam = solved.spec.n_r, solved.lam
    ang = angular_integrals_numeric(params, solved.spec.m, solved.mode, n_theta=n_theta)
    nodes, weights, log_mass = _scaled_gauss_laguerre(2.0 * lam, n + 6)
    radial = float(weights @ _lag(n, 2.0 * lam - 1.0, nodes) ** 2)
    log_val = (
        solved.log_norm_sq
        - math.log(4.0 * solved.beta**2)
        + log_mass
        + math.log(radial)
    )
    return ang.i2norm * math.exp(log_val)


def fisher_numeric(
    params: SystemParams, solved: SolvedState, mode: AngularMode | None = None
) -> FisherResult:
    """Fisher information by quadrature of the density-gradient integrals.

    Radial integrands use the analytic derivative of the Laguerre
    density, leaving polynomials against the weight x^(2 lam - 2) e^-x
    that the Gauss rule integrates exactly; a doubled rule guards
    against bookkeeping errors.
    """
    if mode is not None and mode is not solved.mode:
        raise ValueError("mode argument disagrees with the solved state")
    n, lam, beta = solved.spec.n_r, solved.lam, solved.beta
    ang_norm, ang_deriv = _angular_factors(params, solved)
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
    i1 = ang_norm * r1b
    i2 = 4.0 * ang_deriv * r2b
    drift = abs(r1 - r1b) + abs(r2 - r2b)
    total = i1 + i2
    if drift > 1e-10 * max(abs(total), 1.0):
        raise AccuracyError("Fisher quadrature did not settle", drift / abs(total))
    return FisherResult(total, i1, i2, solved.mode)


def shannon_numeric(
    params: SystemParams, solved: SolvedState, target: float = 1e-9
) -> float:
    """Shannon entropy -integral rho ln rho by adaptive radial quadrature.

    The radial integrand has integrable log singularities at the
    Laguerre nodes, handled by subdividing there; the angular share
    enters through the trapezoid profile integrals.  Raises
    AccuracyError when the quadrature error estimate exceeds ``target``.
    """
    n, lam, beta = solved.spec.n_r, solved.lam, solved.beta
    twol = 2.0 * lam
    ang = angular_integrals_numeric(params, solved.spec.m, solved.mode)
    log_scale = solved.log_norm_sq - math.log(4.0 * beta * beta)

    # unit-mass radial weight: exp(log_scale) x^(2 lam) e^-x L_n^2
    def weight_log(x: float) -> float:
        if x <= 0.0:
            return -math.inf
        val = _lag(n, twol - 1.0, np.array([x]))[0]
        if val == 0.0:
            return -math.inf
        return log_scale + twol * math.log(x) - x + 2.0 * math.log(abs(val))

    def integrand(x: float) -> float:
        lw = weight_log(x)
        if lw == -math.inf:
            return 0.0
        # ln of the radial density factor at this x
        log_rho = lw - log_scale + solved.log_norm_sq - math.log(x)
        return math.exp(lw) * log_rho

    spread = twol + 4.0 * n
    x_max = spread + 25.0 * math.sqrt(spread) + 60.0
    roots = [r for r in _laguerre_roots(n, twol - 1.0) if 0.0 < r < x_max]
    r_log, err_log = quad(
        integrand, 0.0, x_max, points=roots or None, limit=400,
        epsabs=0.1 * target, epsrel=1e-12,
    )
    norm_int, err_norm = quad(
        lambda x: math.exp(weight_log(x)), 0.0, x_max,
        points=roots or None, limit=400, epsabs=0.1 * target, epsrel=1e-12,
    )
    achieved = err_log + abs(err_norm)
    if achieved > target:
        raise AccuracyError("Shannon radial quadrature did not converge", achieved)
    return -ang.i2norm * r_log - ang.ilog * norm_int


def wq_numeric(
    params: SystemParams, solved: SolvedState, q: float, mode: AngularMode | None = None
) -> float:
    """Entropic moment W_q by quadrature of rho^q, for real q > 0.

    After u = q x the radial weight is u^(q (2 lam - 1) + 1) e^-u; for
    integer q the remaining factor is the polynomial L_n^2q and the
    Gauss rule is exact, otherwise adaptive quadrature subdivides at the
    rescaled Laguerre nodes.
    """
    if mode is not None and mode is not solved.mode:
        raise ValueError("mode argument disagrees with the solved state")
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
    if float(q).is_integer():
        qi = int(q)

        def log_radial(K: int) -> float:
            nodes, weights, log_mass = _scaled_gauss_laguerre(alpha, K)
            vals = np.abs(_lag(n, twol - 1.0, nodes / qi))
            with np.errstate(divide="ignore"):
                logs = 2.0 * qi * np.log(vals)
            top = float(np.max(logs))
            if top == -math.inf:
                return -math.inf
            return log_mass + top + math.log(float(weights @ np.exp(logs - top)))

        lr = log_radial(qi * n + 6)
        lr2 = log_radial(2 * (qi * n + 6))
        if abs(lr - lr2) > 1e-10:
            raise AccuracyError("W_q quadrature did not settle", abs(lr - lr2))
        return math.exp(log_front + lr2)
    # real q: adaptive quadrature with a floating scale pulled out
    spread = alpha + 2.0 * q * n
    u_max = spread + 25.0 * math.sqrt(spread) + 60.0
    offset = alpha * (math.log(alpha) - 1.0) if alpha > 1.0 else 0.0

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 0.0
        val = abs(_lag(n, twol - 1.0, np.array([u / q]))[0])
        if val == 0.0:
            return 0.0
        return math.exp(alpha * math.log(u) - u + 2.0 * q * math.log(val) - offset)

    roots = [q * r for r in _laguerre_roots(n, twol - 1.0) if 0.0 < q * r < u_max]
    radial, err = quad(
        integrand, 0.0, u_max, points=roots or None, limit=400,
        epsabs=1e-13, epsrel=1e-11,
    )
    if radial <= 0.0 or err > 1e-8 * radial:
        raise AccuracyError("W_q radial quadrature did not converge",
                            err / radial if radial > 0.0 else math.inf)
    return math.exp(log_front + offset + math.log(radial))


def radial_fd_eigen(
    params: SystemParams,
    m: int,
    count: int,
    method: str = "series",
    grid: RadialGrid | None = None,
) -> list[float]:
    """Lowest radial eigenvalues by second-order finite differences.

    Discretises the radial operator (second derivative plus the
    inverse-square and Coulomb-like terms) on a uniform Dirichlet grid
    sized from the closed-form length scale, solves the tridiagonal
    eigenproblem on the grid and its half-spacing refinement, and
    Richardson-extrapolates the O(h^2) error.  Energies are returned in
    the same convention as SolvedState.energy (well offset excluded).
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
    if grid is None:
        beta_min = beta_param(params, StateSpec(count - 1, m), lam)
        grid = RadialGrid(r_max=(40.0 + 10.0 * (count - 1)) / (2.0 * beta_min), points=4001)

    def spectrum(g: RadialGrid) -> np.ndarray:
        h = g.spacing()
        r = g.radii()
        diag = 2.0 / (h * h) + c2 / (r * r) + two_mu_a / r
        off = np.full(g.points - 1, -1.0 / (h * h))
        return eigh_tridiagonal(
            diag, off, select="i", select_range=(0, count - 1), eigvals_only=True
        )

    coarse = spectrum(grid)
    fine = spectrum(RadialGrid(grid.r_max, 2 * grid.points + 1))
    extrap = (4.0 * fine - coarse) / 3.0
    resid = float(np.max(np.abs(fine - extrap) / np.abs(extrap)))
    if resid > 5e-5:
        raise AccuracyError("finite-difference spectrum not grid-converged", resid)
    return [float(e) / (2.0 * params.mu) for e in extrap]
