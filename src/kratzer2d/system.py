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
    log_gamma,
    laguerre,
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

    ``norm`` is the radial normalisation constant N (1/bohr); it
    underflows for extreme parameter scales, so ``log_norm_sq`` = ln N^2
    is what internal formulas should consume.  ``energy`` excludes the
    constant well offset; ``energy_total`` includes it.
    """

    spec: StateSpec
    b: float
    e_theta: float
    lam: float
    beta: float
    energy: float
    energy_total: float
    norm: float
    log_norm_sq: float
    mode: AngularMode


def make_params(
    De: float, re: float, Dm: float = 0.0, delta: float = 0.0, mu: float = 1.0
) -> SystemParams:
    """Validate and build SystemParams."""
    if not De > 0.0:
        raise ValueError(f"well depth De must be positive, got {De}")
    if not re > 0.0:
        raise ValueError(f"equilibrium radius re must be positive, got {re}")
    if Dm < 0.0:
        raise ValueError(f"dipole strength Dm must be >= 0, got {Dm}")
    if delta < 0.0:
        raise ValueError(f"flux ratio delta must be >= 0, got {delta}")
    if not mu > 0.0:
        raise ValueError(f"reduced mass mu must be positive, got {mu}")
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
    log_norm_sq = _log_norm_sq(spec.n_r, lam, beta)
    return SolvedState(
        spec=spec,
        b=mathieu_coupling(params),
        e_theta=e_theta,
        lam=lam,
        beta=beta,
        energy=e,
        energy_total=e + params.C,
        norm=math.exp(0.5 * log_norm_sq) if log_norm_sq > -1400.0 else 0.0,
        log_norm_sq=log_norm_sq,
        mode=mode,
    )


def _log_norm_sq(n: int, lam: float, beta: float) -> float:
    """ln N^2 with N^2 = 2 beta^2 n! / (Gamma(n + 2 lam) (n + lam) pi)."""
    return (
        math.log(2.0)
        + 2.0 * math.log(beta)
        + log_gamma(n + 1.0)
        - log_gamma(n + 2.0 * lam)
        - math.log(n + lam)
        - math.log(math.pi)
    )


class _CosineProfile:
    """cos(m theta) for m >= 1; the flat 1/sqrt(2) branch for m = 0."""

    def __init__(self, m: int):
        self.m = m

    def value(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self.m == 0:
            return np.full_like(theta, 1.0 / math.sqrt(2.0))
        return np.cos(self.m * theta)

    def derivative(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self.m == 0:
            return np.zeros_like(theta)
        return -self.m * np.sin(self.m * theta)

    def _on_grid(self, n: int):
        """(Phi, Phi') at theta_j = 2 pi j / n, j = 0..n-1."""
        theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        return self.value(theta), self.derivative(theta)


class _MathieuProfile:
    """Even Floquet solution of order 2 (m + delta), evaluated at z = theta / 2.

    Rescaled so that the profile squared integrates to pi over one turn,
    matching the cosine convention.  Its frequencies are m + delta + k
    for integer k.
    """

    def __init__(self, m_eff: float, b: float):
        sol = mathieu_even_solution(m_eff, b)
        k = np.arange(-sol.truncation, sol.truncation + 1)
        keep = np.abs(sol.coeffs) > 1e-300
        self.carrier = sol.order / 2.0
        self.k = k[keep]
        self.freqs = self.carrier + self.k
        self.coeffs = sol.coeffs[keep]
        self.scale = 1.0
        raw_sq = (2.0 * math.pi / ANGULAR_GRID) * float(
            np.sum(self._on_grid(ANGULAR_GRID)[0] ** 2))
        self.scale = math.sqrt(math.pi / raw_sq)

    def value(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self.scale * np.cos(np.outer(theta, self.freqs)) @ self.coeffs

    def derivative(self, theta):
        theta = np.asarray(theta, dtype=float)
        return -self.scale * (np.sin(np.outer(theta, self.freqs)) * self.freqs) @ self.coeffs

    def _on_grid(self, n: int):
        """(Phi, Phi') at theta_j = 2 pi j / n, j = 0..n-1, by one inverse FFT.

        On the grid e^(i (carrier + k) theta_j) = e^(i carrier theta_j)
        e^(2 pi i k j / n), so both sums over k are length-n inverse DFTs
        with the coefficient of k at index k mod n.  The indices wrap when
        the profile has more than n terms; bincount adds the colliding
        terms, where index assignment would keep only one of them.
        """
        slots = self.k % n
        spectra = np.stack([
            np.bincount(slots, weights=self.coeffs, minlength=n),
            np.bincount(slots, weights=self.coeffs * self.freqs, minlength=n),
        ])
        theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        sums = n * np.exp(1j * self.carrier * theta) * np.fft.ifft(spectra)
        return self.scale * sums[0].real, -self.scale * sums[1].imag


@lru_cache(maxsize=256)
def angular_profile(params: SystemParams, m: int, mode: AngularMode):
    """Evaluatable angular profile for one state.

    ``.value`` / ``.derivative`` take any theta; ``._on_grid(n)`` gives
    both on the uniform n-point grid over one turn.
    """
    if m < 0:
        raise ValueError(f"angular order m must be >= 0, got {m}")
    if mode is AngularMode.PAPER_COSINE:
        return _CosineProfile(m)
    return _MathieuProfile(m + params.delta, mathieu_coupling(params))


def angular_function(params: SystemParams, m: int, mode: AngularMode, theta):
    """Angular profile Phi(theta); scalar in, scalar out."""
    profile = angular_profile(params, m, mode)
    out = profile.value(theta)
    return float(out) if np.isscalar(theta) else out


def log_radial_density(solved: SolvedState, x):
    """ln of the radial density factor N^2 x^(2 lam - 1) e^-x L_n^2 at x = 2 beta r.

    Returns -inf at x = 0 and at Laguerre nodes; evaluating in logs
    keeps extreme parameter scales (huge lambda) finite.
    """
    x = np.asarray(x, dtype=float)
    n, lam = solved.spec.n_r, solved.lam
    out = np.full_like(x, -np.inf)
    pos = x > 0.0
    lag = laguerre(n, 2.0 * lam - 1.0, x[pos])
    with np.errstate(divide="ignore"):
        out[pos] = (
            solved.log_norm_sq
            + (2.0 * lam - 1.0) * np.log(x[pos])
            - x[pos]
            + 2.0 * np.log(np.abs(lag))
        )
    return out


def density(params: SystemParams, solved: SolvedState, r, theta):
    """Probability density rho(r, theta) of the solved state (1/bohr^2)."""
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0 and np.isscalar(theta)
    x = 2.0 * solved.beta * np.atleast_1d(r)
    log_rad = log_radial_density(solved, x)
    phi = angular_profile(params, solved.spec.m, solved.mode).value(np.atleast_1d(theta))
    rad = np.exp(np.where(np.isfinite(log_rad), log_rad, -np.inf))
    out = rad * phi**2
    return float(out[0]) if scalar else out
