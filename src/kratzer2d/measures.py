"""Closed-form information measures of the solved bound states.

Fisher information is exact.  The Shannon entropy is assembled from the
four-term decomposition whose last radial piece is a large-n asymptotic
(flagged on the result).  Entropic moments W_q combine the angular
cosine-power constant with the Laguerre-power linearisation coefficient
``gamma0``; Tsallis and Renyi entropies follow from W_q.  The W_q
prefactor carries 4 beta^2 in the denominator, the value fixed by the
normalisation identity W_1 = 1 and by the numerical oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import digamma, log_gamma0
from .system import SolvedState

__all__ = [
    "FisherResult",
    "ShannonResult",
    "EntropicMoment",
    "fisher_closed",
    "shannon_closed",
    "wq_closed",
    "tsallis",
    "renyi",
]

_LN_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class FisherResult:
    """Fisher information I = I1 + I2 (radial + angular gradient parts)."""

    I: float
    I1: float
    I2: float


@dataclass(frozen=True)
class ShannonResult:
    """Shannon entropy S = S1 + S2 + S3 + S4.

    S1 is the angular profile entropy, S2 the normalisation log, S3 the
    radial weight average and S4 the Laguerre-polynomial entropy term.
    ``asymptotic`` records that S4 is a large-n approximation with its
    O(n) remainder dropped, so S is not exact at small n.
    """

    S: float
    S1: float
    S2: float
    S3: float
    S4: float
    asymptotic: bool


@dataclass(frozen=True)
class EntropicMoment:
    """Entropic moment W_q = integral of rho^q, carried as ln W_q.

    Every route hands back the log, which stays finite where W_q leaves
    the double range; ``Wq`` is derived on read and is inf only where
    exp(ln W_q) overflows (it underflows to 0.0 on its own).
    """

    q: float
    log_Wq: float

    @property
    def Wq(self) -> float:
        try:
            return math.exp(self.log_Wq)
        except OverflowError:
            return math.inf


def fisher_closed(solved: SolvedState) -> FisherResult:
    """Fisher information of the position density.

    The radial part is 2 beta^2 (2n + 1) / (n + lam), equivalently
    4 beta^2 - 2 beta^2 (2 lam - 1) / (n + lam): integrating the squared
    density gradient by parts against the Laguerre equation leaves only
    the diagonal moments, because the L_n * dL_n/dx cross term expands
    over lower-degree polynomials and integrates to zero by
    orthogonality.  (A published variant carries an extra
    8 n beta^2 / (n + lam) from that cross term; it disagrees with the
    defining integral for every n >= 1, which the quadrature oracle
    confirms.)  The angular part is
    8 m^2 beta^2 / ((n + lam) (2 lam - 1)), 0 at m = 0 where lam may be 1/2;
    both parts assume the cosine angular convention.
    """
    n, m = solved.spec.n_r, solved.spec.m
    lam, beta = solved.lam, solved.beta
    # beta, n + lam and 2 lam - 1 enter as frexp mantissas, their powers of
    # two added apart: beta^2 passes the double range from beta ~ 1.3e154
    # and (n + lam)(2 lam - 1) from lam ~ 1e154, where I need not.  Scaling
    # by a power of two is exact, so wherever the plain products stay
    # normal doubles the values are theirs to the bit.
    b, e = math.frexp(beta)
    i1 = math.ldexp(2.0 * (b * b) * (2.0 * n + 1.0) / (n + lam), 2 * e)
    i2 = 0.0
    if m:
        d1, k1 = math.frexp(n + lam)
        d2, k2 = math.frexp(2.0 * lam - 1.0)
        i2 = math.ldexp(8.0 * m * m * (b * b) / (d1 * d2), 2 * e - k1 - k2)
    return FisherResult(i1 + i2, i1, i2)


def shannon_closed(solved: SolvedState) -> ShannonResult:
    """Four-term Shannon entropy decomposition (S4 asymptotic, O(n) dropped)."""
    n, lam, beta = solved.spec.n_r, solved.lam, solved.beta
    s1 = 2.0 * math.log(2.0) - 1.0
    # 2 ln beta, not ln beta^2: beta^2 is subnormal below beta ~ 7.5e-155
    s2 = -(math.log(2.0) + 2.0 * math.log(beta) - math.log((n + lam) * math.pi))
    s3 = (
        (n + 2.0 * lam)
        * (-(2.0 * lam - 1.0) * digamma(n + 2.0 * lam + 1.0) + 2.0 * n + 2.0 * lam + 1.0)
        / (2.0 * (n + lam))
    )
    if n == 0:
        s4 = 0.0
    else:
        s4 = -(
            -6.0 * n * n
            + 4.0 * lam * n * math.log(n)
            + 2.0 * n * (_LN_2PI - 4.0 * lam - 2.0)
        ) / (2.0 * (n + lam))
    return ShannonResult(s1 + s2 + s3 + s4, s1, s2, s3, s4, True)


def _log_wq(solved: SolvedState, q: int) -> float:
    n, lam = solved.spec.n_r, solved.lam
    lg0, sign = log_gamma0(q, n, lam)
    if sign <= 0.0:
        raise RuntimeError(
            f"entropic-moment coefficient came out non-positive at q = {q}, "
            f"n = {n}, lam = {lam:g}; cancellation exhausted the working precision"
        )
    # (2q-1)!! 2 pi / (2^q q!) = C(2q, q) 2 pi / 4^q
    log_angular = math.log(math.comb(2 * q, q)) + _LN_2PI - 2 * q * math.log(2.0)
    log_wq = (
        q * solved.log_norm_sq
        - 2.0 * math.log(2.0 * solved.beta)
        + log_angular
        - (q * (2.0 * lam - 1.0) + 2.0) * math.log(q)
        + lg0
    )
    # q ln N^2 holds -q ln Gamma(n + 2 lam), lg0 ln Gamma(q (2 lam - 1) + 2): they
    # cancel and leave eps times their size, allowed up to 1e-10 max(1, |ln W_q|).
    rounding = math.ulp(1.0) * (abs(q * solved.log_norm_sq) + abs(lg0))
    if not rounding <= 1e-10 * max(1.0, abs(log_wq)):
        raise ValueError(f"entropic-moment closed form at q = {q}, lam = {lam:.6g}: "
                         f"ln W_q = {log_wq:.6g} may be off by {rounding:.2g}")
    return log_wq


def wq_closed(solved: SolvedState, q: int) -> EntropicMoment:
    """Entropic moment W_q for integer q >= 1 (q = 1 is the diagnostic W_1 = 1).

    The angular factor is the cosine-power constant
    (2q-1)!! 2 pi / (2^q q!) for every m, including m = 0 where the
    true flat-profile integral would instead be 2 pi 2^-q; the numeric
    oracle quantifies that difference.  The moment carries ln W_q as
    the closed form builds it; ValueError where that sum's cancelling
    terms may round off past 1e-10 max(1, |ln W_q|) (lam ~1e4 at re 1).
    """
    if q < 1 or q != int(q):
        raise ValueError(f"wq_closed requires integer q >= 1, got {q}")
    q = int(q)
    return EntropicMoment(q, _log_wq(solved, q))


def tsallis(moment: EntropicMoment) -> float:
    """Tsallis entropy T_q = (1 - W_q) / (q - 1) of an entropic moment, q != 1."""
    if moment.q == 1:
        raise ValueError("tsallis requires an order q != 1 (its q -> 1 limit is Shannon's)")
    return (1.0 - moment.Wq) / (moment.q - 1.0)


def renyi(moment: EntropicMoment) -> float:
    """Renyi entropy R_q = ln(W_q) / (1 - q) of an entropic moment, q != 1."""
    if moment.q == 1:
        raise ValueError("renyi requires an order q != 1 (its q -> 1 limit is Shannon's)")
    return moment.log_Wq / (1.0 - moment.q)
