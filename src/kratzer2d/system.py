"""Bound states of a 2D Kratzer well with a dipole term and an AB flux.

The potential De ((r - re)/r)^2 + Dm cos(theta)/r^2 separates in polar
coordinates once the magnetic flux is folded into the angular order
m + delta.  The angular equation is an even Mathieu problem in
theta / 2; its characteristic number fixes the effective centrifugal
strength, and the radial problem is then Coulomb-like with exact
Laguerre solutions.  Everything is expressed in Hartree atomic units.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import (
    log_abs_laguerre,
    mathieu_char_series,
    mathieu_even_solution,
)

__all__ = [
    "ANGULAR_GRID",
    "UnboundAngularError",
    "SystemParams",
    "StateSpec",
    "AngularMode",
    "SolvedState",
    "make_params",
    "mathieu_coupling",
    "angular_eigenvalue",
    "beta_param",
    "solve_state",
    "profile_key",
    "angular_profile",
    "angular_function",
    "density",
]


# Points of the uniform grid over one turn on which the angular profile is
# sampled: its pi-normalisation and the oracle's angular integrals.
ANGULAR_GRID = 8192


class UnboundAngularError(ValueError):
    """The angular eigenvalue pushes the radial exponent off the bound branch."""


@dataclass(frozen=True)
class SystemParams:
    """Potential and particle parameters, all in atomic units.

    De : well depth (hartree)
    re : equilibrium radius (bohr)
    Dm : dipole strength (hartree bohr^2)
    delta : AB flux in units of the flux quantum
    mu : reduced mass (electron masses)
    """

    De: float
    re: float
    Dm: float
    delta: float
    mu: float

    @property
    def A(self) -> float:
        """Coulomb-like coefficient of the expanded well, A = -2 re De."""
        return -2.0 * self.re * self.De

    @property
    def B(self) -> float:
        """Inverse-square coefficient of the expanded well, B = re^2 De."""
        return self.re * self.re * self.De

    @property
    def C(self) -> float:
        """Constant offset of the expanded well, C = De."""
        return self.De


@dataclass(frozen=True)
class StateSpec:
    """Radial and angular quantum numbers of one bound state."""

    n_r: int
    m: int


class AngularMode(enum.Enum):
    """How the angular profile entering the density is evaluated."""

    PAPER_COSINE = "cosine"
    MATHIEU_NUMERIC = "mathieu"


@dataclass(frozen=True)
class SolvedState:
    """One solved bound state: eigenvalue chain plus normalisation.

    The radial normalisation constant N (1/bohr) is carried as
    ``log_norm_sq`` = ln N^2, which stays finite at parameter scales
    where N itself underflows.  ``energy`` excludes the constant well
    offset; ``energy_total`` includes it.
    """

    spec: StateSpec
    b: float
    e_theta: float
    lam: float
    beta: float
    energy: float
    energy_total: float
    log_norm_sq: float
    mode: AngularMode


def make_params(
    De: float, re: float, Dm: float = 0.0, delta: float = 0.0, mu: float = 1.0
) -> SystemParams:
    """Validate and build SystemParams; every value must be finite."""
    if not 0.0 < De < math.inf:
        raise ValueError(f"well depth De must be positive and finite, got {De}")
    if not 0.0 < re < math.inf:
        raise ValueError(f"equilibrium radius re must be positive and finite, got {re}")
    if not 0.0 <= Dm < math.inf:
        raise ValueError(f"dipole strength Dm must be >= 0 and finite, got {Dm}")
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"flux ratio delta must be >= 0 and finite, got {delta}")
    if not 0.0 < mu < math.inf:
        raise ValueError(f"reduced mass mu must be positive and finite, got {mu}")
    return SystemParams(float(De), float(re), float(Dm), float(delta), float(mu))


def mathieu_coupling(params: SystemParams) -> float:
    """Mathieu coupling b = 4 mu Dm of the angular equation."""
    return 4.0 * params.mu * params.Dm


def angular_eigenvalue(params: SystemParams, m: int, method: str = "series") -> float:
    """Angular separation constant E_theta = delta^2 - a_{2(m+delta)}(b) / 4.

    ``method`` picks how the even Mathieu characteristic number is
    computed: "series" (truncated power series) or "matrix"
    (tridiagonal eigensolve).  With Dm = 0 both give
    delta^2 - (m + delta)^2 exactly.
    """
    if m < 0:
        raise ValueError(f"angular order m must be >= 0, got {m}")
    b = mathieu_coupling(params)
    m_eff = m + params.delta
    if method == "series":
        a = mathieu_char_series(m_eff, b)
    elif method == "matrix":
        a = mathieu_even_solution(m_eff, b).char_number
    else:
        raise ValueError(f"unknown characteristic-number method {method!r}")
    return params.delta**2 - a / 4.0


def _lambda_from_angular(params: SystemParams, e_theta: float) -> float:
    """Radial exponent lambda = 1/2 + sqrt(-E_theta + 2 mu B + delta^2).

    Raises UnboundAngularError when the radicand is non-positive, i.e.
    when the angular eigenvalue overwhelms the centrifugal barrier and
    the inverse-square attraction has no bound branch.
    """
    radicand = -e_theta + 2.0 * params.mu * params.B + params.delta**2
    if radicand <= 0.0:
        raise UnboundAngularError(
            f"radicand {radicand:.6g} <= 0: angular eigenvalue {e_theta:.6g} "
            "leaves no bound radial branch"
        )
    return 0.5 + math.sqrt(radicand)


def beta_param(params: SystemParams, spec: StateSpec, lam: float) -> float:
    """Inverse radial length scale beta = -mu A / (n_r + lambda) (1/bohr)."""
    if spec.n_r < 0:
        raise ValueError(f"radial quantum number must be >= 0, got {spec.n_r}")
    return -params.mu * params.A / (spec.n_r + lam)


def solve_state(
    params: SystemParams,
    spec: StateSpec,
    mode: AngularMode = AngularMode.PAPER_COSINE,
    method: str = "series",
) -> SolvedState:
    """Assemble the full eigenvalue chain for one (n_r, m) state."""
    e_theta = angular_eigenvalue(params, spec.m, method)
    lam = _lambda_from_angular(params, e_theta)
    beta = beta_param(params, spec, lam)
    e = -beta * beta / (2.0 * params.mu)
    return SolvedState(
        spec=spec,
        b=mathieu_coupling(params),
        e_theta=e_theta,
        lam=lam,
        beta=beta,
        energy=e,
        energy_total=e + params.C,
        log_norm_sq=_log_norm_sq(spec.n_r, lam, beta),
        mode=mode,
    )


def _log_norm_sq(n: int, lam: float, beta: float) -> float:
    """ln N^2 with N^2 = 2 beta^2 n! / (Gamma(n + 2 lam) (n + lam) pi)."""
    return (
        math.log(2.0)
        + 2.0 * math.log(beta)
        + math.lgamma(n + 1.0)
        - math.lgamma(n + 2.0 * lam)
        - math.log(n + lam)
        - math.log(math.pi)
    )


class _MathieuProfile:
    """Even Floquet solution of order 2 m_eff, evaluated at z = theta / 2.

    Rescaled from its first grid so that the profile squared integrates
    to pi over one turn (the ANGULAR_GRID-node trapezoid sum).  At b = 0
    the solution is the single term cos(m_eff theta), so cosine mode is
    this profile at (m, 0): scale 1 for m >= 1 and the flat sqrt(1/2)
    at m = 0.  Building a profile samples no grid: the first
    ``_on_grid(ANGULAR_GRID)`` call fixes ``scale`` from the grid it
    returns, and a caller that arrives before it (``value``,
    ``derivative``, ``_on_grid`` at another n) has that grid sampled for
    the scale first.  Its frequencies are m_eff + k for integer k;
    ``value`` and ``derivative`` keep the shape of theta.  On a grid the
    profile comes from real transforms only: m_eff = M + f splits into an
    integer part, which joins each k as the integer frequency M + k of
    one real DFT per row, and a fraction f < 1, applied afterwards
    through cos(f theta) and sin(f theta).  At ANGULAR_GRID nodes every
    array a grid build takes is 64 KiB or less (n doubles, or n/2 + 1 complex
    values), half of glibc's default 128 KiB mmap threshold, so repeated
    builds reuse heap memory.  An n-node complex array is exactly 128 KiB:
    whether the allocator mapped it, and so took fresh page faults on
    every build, depended on the process's allocation history.
    """

    def __init__(self, m_eff: float, b: float):
        self.integrals: dict = {}  # oracle's angular integrals, by float(q)
        sol = mathieu_even_solution(m_eff, b)
        k = np.arange(-sol.truncation, sol.truncation + 1)
        keep = np.abs(sol.coeffs) > 1e-300
        self.carrier = sol.order / 2.0
        self.k = k[keep]
        self.freqs = self.carrier + self.k
        self.coeffs = sol.coeffs[keep]
        self._scale: float | None = None

    @property
    def scale(self) -> float:
        """sqrt(pi / (h sum raw^2)) over the ANGULAR_GRID-node grid."""
        if self._scale is None:
            self._on_grid(ANGULAR_GRID)
        return self._scale

    def value(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self.scale * np.cos(theta[..., None] * self.freqs) @ self.coeffs

    def derivative(self, theta):
        theta = np.asarray(theta, dtype=float)
        return -self.scale * (np.sin(theta[..., None] * self.freqs) * self.freqs) @ self.coeffs

    def _on_grid(self, n: int):
        """(Phi, Phi') at theta_j = 2 pi j / n, j = 0..n-1, by one real DFT per row.

        With l = M + k the integer part of each frequency f + l,
        cos((f + l) theta) = cos(f theta) cos(l theta) - sin(f theta) sin(l theta)
        and sin((f + l) theta) = sin(f theta) cos(l theta) + cos(f theta) sin(l theta),
        so both rows are the sums over l of c_l cos(l theta_j) and
        c_l sin(l theta_j) (``_cos_sin_sums``), with c_l (f + l) for Phi',
        combined with cos(f theta_j) and sin(f theta_j).  No array here is
        complex at length n, so none reaches 128 KiB at ANGULAR_GRID
        nodes.  The grid is not kept on the profile.
        """
        whole = math.floor(self.carrier)
        slots = (whole + self.k) % n
        f_theta = (self.carrier - whole) * np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        cos_f, sin_f = np.cos(f_theta), np.sin(f_theta)
        cos_sum, sin_sum = _cos_sin_sums(slots, self.coeffs, n)
        phi = cos_f * cos_sum - sin_f * sin_sum
        cos_sum, sin_sum = _cos_sin_sums(slots, self.coeffs * self.freqs, n)
        dphi = sin_f * cos_sum + cos_f * sin_sum
        if self._scale is None and n == ANGULAR_GRID:
            raw_sq = (2.0 * math.pi / ANGULAR_GRID) * float(np.sum(phi ** 2))
            self._scale = math.sqrt(math.pi / raw_sq)
        return self.scale * phi, -self.scale * dphi


def _cos_sin_sums(slots, weights, n: int):
    """Sums of w cos(l theta_j) and w sin(l theta_j), theta_j = 2 pi j / n.

    ``slots`` holds each integer frequency l mod n; bincount adds the
    weights that share a slot when there are more terms than nodes,
    where index assignment would keep only one of them.  One real DFT
    gives both sums for j <= n/2 (its real part and its negated
    imaginary part); theta_(n-j) = -theta_j mod 2 pi mirrors them to the
    rest, the cosine sum even and the sine sum odd.
    """
    spec = np.fft.rfft(np.bincount(slots, weights=weights, minlength=n))
    half = spec.size
    cos_sum, sin_sum = np.empty(n), np.empty(n)
    cos_sum[:half] = spec.real
    sin_sum[:half] = -spec.imag
    cos_sum[half:] = cos_sum[n - half:0:-1]
    sin_sum[half:] = -sin_sum[n - half:0:-1]
    return cos_sum, sin_sum


def profile_key(
    params: SystemParams, m: int, mode: AngularMode
) -> tuple[float, float, AngularMode]:
    """The ``angular_profile`` arguments for the angular factor of order m.

    Cosine mode is the b = 0 profile of order m, whatever the parameters;
    Mathieu mode is the profile of order m + delta at b = 4 mu Dm.
    """
    if m < 0:
        raise ValueError(f"angular order m must be >= 0, got {m}")
    if mode is AngularMode.PAPER_COSINE:
        return float(m), 0.0, mode
    return m + params.delta, mathieu_coupling(params), mode


@lru_cache(maxsize=256)
def angular_profile(m_eff: float, b: float, mode: AngularMode) -> _MathieuProfile:
    """Evaluatable angular profile of order m_eff at coupling b.

    Take the arguments from ``profile_key``.  ``.value`` / ``.derivative``
    take any theta; ``._on_grid(n)`` gives both on the uniform n-point
    grid over one turn.  ``.integrals`` holds the oracle's angular
    integrals of the profile by order q, which go with the profile on
    ``cache_clear()``.  ``mode`` stays in the key: the oracle's entropy
    sum takes a Richardson step in cosine mode only, so at Dm = 0 and
    integer m + delta, where both modes name the same function, they
    must not share those integrals.
    """
    return _MathieuProfile(m_eff, b)


def angular_function(params: SystemParams, m: int, mode: AngularMode, theta):
    """Angular profile Phi(theta); scalar in, scalar out."""
    out = angular_profile(*profile_key(params, m, mode)).value(theta)
    return float(out) if np.isscalar(theta) else out


def log_radial_density(solved: SolvedState, x):
    """ln of the radial density factor N^2 x^(2 lam - 1) e^-x L_n^2 at x = 2 beta r.

    Returns -inf at x = 0 and at Laguerre nodes; evaluating in logs
    keeps extreme parameter scales (huge lambda, n in the hundreds) finite.
    """
    x = np.asarray(x, dtype=float)
    n, lam = solved.spec.n_r, solved.lam
    out = np.full_like(x, -np.inf)
    pos = x > 0.0
    out[pos] = (
        solved.log_norm_sq
        + (2.0 * lam - 1.0) * np.log(x[pos])
        - x[pos]
        + 2.0 * log_abs_laguerre(n, 2.0 * lam - 1.0, x[pos])
    )
    return out


def density(params: SystemParams, solved: SolvedState, r, theta):
    """Probability density rho(r, theta) of the solved state (1/bohr^2)."""
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0 and np.ndim(theta) == 0
    x = 2.0 * solved.beta * np.atleast_1d(r)
    log_rad = log_radial_density(solved, x)
    phi = angular_function(params, solved.spec.m, solved.mode, np.atleast_1d(theta))
    rad = np.exp(np.where(np.isfinite(log_rad), log_rad, -np.inf))
    out = rad * phi**2
    return float(out[0]) if scalar else out
