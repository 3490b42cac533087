"""High-precision reference values for the benchmark's output check.

Everything here is mpmath; nothing is imported from kratzer2d, so an error
in the package's mathematics cannot hide in its own reference.  The values
are re-derived from the model's definitions, not from the package's
formulas:

* the state chain (angular characteristic number, lambda, beta, energy);
* the radial normalisation, from the condition that the density
  integrates to one;
* every measure as its defining integral of the density
  rho = g(x) Phi(theta)^2, x = 2 beta r, with
  g(x) = N^2 x^(2 lam - 1) e^-x [L_n^(2 lam - 1)(x)]^2.

Radial integrals of polynomials against x^s e^-rx are summed exactly as
Gamma moments.  The Shannon log term, which has log singularities at the
Laguerre zeros, is integrated by mpmath.quad between consecutive zeros.

Two angular conventions are modelled, as the package defines them:

* cosine: Phi = cos(m theta) (m >= 1) or 1/sqrt(2) (m = 0), with the
  angular integrals in closed form.  For W_q the closed forms use the
  cosine-power constant (2q-1)!! 2 pi / (2^q q!) for every m, m = 0
  included, and the reference follows that documented convention.
* mathieu: Phi is the even Floquet solution sum_k c_k cos((m+delta+k) theta)
  normalised so that its 8192-node periodic trapezoid sum of Phi^2 is pi.
  The angular integrals are those 8192-node trapezoid sums, as the package
  defines them.  The characteristic number is the eigenvalue of the
  tridiagonal Fourier operator whose rank equals that of (2 m_eff)^2 among
  the diagonal entries (ranks cannot cross for b > 0), found by Sturm
  bisection; the coefficients come from inverse iteration.  The trapezoid
  sums are evaluated exactly from the Fourier expansion of Phi^(2q) with
  the geometric-sum formula for sum_j exp(i w theta_j).  This needs
  2 (m + delta) to be non-integer; the mathieu workload draws no such state.

Every value is computed twice, at two working precisions, and must agree
to REFERENCE_DIGITS digits, so the reference carries its own error bar.
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpf

REFERENCE_DIGITS = 25
ANGULAR_NODES = 8192
# Fourier terms below this share of the largest are dropped: far below
# the certified digits, and it keeps the Phi^(2q) expansions small.
_PRUNE = mpf(10) ** (-REFERENCE_DIGITS - 15)


class ReferenceError(RuntimeError):
    """The reference could not certify REFERENCE_DIGITS digits."""


# --- polynomials as coefficient lists, index = power of x -----------------

def _laguerre(n: int, alpha) -> list:
    return [(-1) ** i * mpmath.binomial(n + alpha, n - i) / mpmath.factorial(i)
            for i in range(n + 1)]


def _mul(p: list, q: list) -> list:
    out = [mpf(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _power(p: list, k: int) -> list:
    out = [mpf(1)]
    for _ in range(k):
        out = _mul(out, p)
    return out


def _deriv(p: list) -> list:
    return [i * p[i] for i in range(1, len(p))] or [mpf(0)]


def _moment(p: list, s, rate=1, log_weight: bool = False):
    """Integral over (0, inf) of x^s e^(-rate x) p(x) [ln x if log_weight].

    Each power contributes Gamma(s+j+1) / rate^(s+j+1) (times the digamma
    psi(s+j+1) - ln rate for the ln x moment).
    """
    total = mpf(0)
    gam = mpmath.gamma(s + 1)
    scale = mpf(rate) ** (s + 1)
    for j, c in enumerate(p):
        if j:
            gam *= s + j
            scale *= rate
        term = c * gam / scale
        if log_weight:
            term *= mpmath.digamma(s + j + 1) - mpmath.log(rate)
        total += term
    return total


# --- angular characteristic numbers ----------------------------------------

def series_char_number(m_eff, b):
    """Even Mathieu characteristic number from the b^6 power series.

    This is the series route's own definition (four displayed terms,
    l = 4 m_eff^2 - 1); it is undefined at m_eff in {0.5, 1, 1.5}.
    """
    msq = m_eff * m_eff
    if b == 0:
        return 4 * msq
    el = 4 * msq - 1
    b2 = b * b
    return (4 * msq + b2 / (2 * el)
            + (20 * msq + 7) * b2 ** 2 / (32 * el ** 3 * (el - 3))
            + (36 * msq ** 2 + 232 * msq + 29) * b2 ** 3
            / (64 * el ** 5 * (el - 3) * (el - 8)))


def _sturm_below(diag: list, b2, x) -> int:
    """Number of eigenvalues below x of the tridiagonal (diag, off = b)."""
    count = 0
    piv = diag[0] - x
    tiny = mpf(10) ** (-2 * mp.dps)
    for i in range(len(diag)):
        if i:
            piv = diag[i] - x - b2 / piv
        if piv == 0:
            piv = tiny
        count += piv < 0
    return count


def _thomas(diag: list, b, shift, rhs: list) -> list:
    """Solve (T - shift) y = rhs for symmetric tridiagonal T (off-diagonal b)."""
    size = len(diag)
    c = [mpf(0)] * size
    d = [mpf(0)] * size
    piv = diag[0] - shift
    c[0] = b / piv
    d[0] = rhs[0] / piv
    for i in range(1, size):
        piv = diag[i] - shift - b * c[i - 1]
        c[i] = b / piv
        d[i] = (rhs[i] - b * d[i - 1]) / piv
    y = [mpf(0)] * size
    y[-1] = d[-1]
    for i in range(size - 2, -1, -1):
        y[i] = d[i] - c[i] * y[i + 1]
    return y


def matrix_char_solution(m_eff, b, K: int = 30):
    """(characteristic number, Fourier coefficients c_-K..c_K) of the even
    branch that joins (2 m_eff)^2 at b = 0, for non-integer 2 m_eff."""
    nu = 2 * m_eff
    if abs(nu - mpmath.nint(nu)) < mpf("1e-6"):
        raise ReferenceError(f"2 m_eff = {nu} is (nearly) an integer")
    diag = [(nu + 2 * k) ** 2 for k in range(-K, K + 1)]
    rank = sum(1 for d in diag if d < nu * nu)
    b2 = b * b
    lo, hi = min(diag) - 2 * b - 1, max(diag) + 2 * b + 1
    eps = mpf(10) ** (5 - mp.dps)
    while hi - lo > eps * (1 + abs(hi)):
        mid = (lo + hi) / 2
        if _sturm_below(diag, b2, mid) <= rank:
            lo = mid
        else:
            hi = mid
    a = (lo + hi) / 2
    vec = [mpf(1)] * len(diag)
    for _ in range(3):
        vec = _thomas(diag, b, a + eps * (1 + abs(a)), vec)
        norm = mpmath.sqrt(mpmath.fsum(v * v for v in vec))
        vec = [v / norm for v in vec]
    resid = max(abs((diag[i] - a) * vec[i]
                    + (b * vec[i - 1] if i else 0)
                    + (b * vec[i + 1] if i + 1 < len(vec) else 0))
                for i in range(len(vec)))
    if resid > mpf(10) ** (10 - mp.dps):
        raise ReferenceError(f"eigenvector residual {mpmath.nstr(resid, 3)}")
    return a, vec


# --- 8192-node trapezoid sums of the Mathieu profile -----------------------

def _fixed_bits() -> int:
    """Fixed-point fraction bits for the expansions: the working precision
    plus headroom for the rounding of a few hundred thousand products."""
    return mp.prec + 32


def _expansion(coeffs: list, m_eff, K: int, deriv: bool) -> dict:
    """Phi, or Psi = Phi' / i, as {(a, k): C} meaning
    sum C exp(i (a m_eff + k) theta), with C fixed-point integers.

    Phi' = -sum c f sin(f theta) = i sum (c f / 2) (e^{i f theta} - e^{-i f theta}),
    so Phi'^2 = -Psi^2 with real coefficients throughout.
    """
    bits = _fixed_bits()
    top = max(abs(c) for c in coeffs)
    out = {}
    for idx, c in enumerate(coeffs):
        if abs(c) <= top * _PRUNE:
            continue
        k = idx - K
        half = c * (m_eff + k) / 2 if deriv else c / 2
        fixed = int(mpmath.nint(mpmath.ldexp(half, bits)))
        out[(1, k)] = fixed
        out[(-1, -k)] = -fixed if deriv else fixed
    return out


def _expansion_mul(p: dict, q: dict) -> dict:
    bits = _fixed_bits()
    out: dict = {}
    for (a1, k1), c1 in p.items():
        for (a2, k2), c2 in q.items():
            key = (a1 + a2, k1 + k2)
            out[key] = out.get(key, 0) + c1 * c2
    floor = int(max(abs(c) for c in out.values()) * _PRUNE)
    return {key: c >> bits for key, c in out.items() if abs(c) > floor}


def _trapezoid(expansion: dict, m_eff, nodes: int = ANGULAR_NODES):
    """h sum_j f(theta_j), theta_j = 2 pi j / nodes, from f's expansion."""
    total = mpmath.mpc(0)
    for (a, k), c in expansion.items():
        w = a * m_eff + k
        if w == mpmath.nint(w):
            total += c * (nodes if int(mpmath.nint(w)) % nodes == 0 else 0)
        else:
            total += c * ((1 - mpmath.expjpi(2 * w)) / (1 - mpmath.expjpi(2 * w / nodes)))
    return mpmath.ldexp(2 * mpmath.pi / nodes * total.real, -_fixed_bits())


# --- one bound state --------------------------------------------------------

class State:
    """Reference solution of one bound state at the current mp precision.

    ``route`` is "cosine" (series characteristic number, cosine profile) or
    "mathieu" (matrix characteristic number, even Mathieu profile).
    """

    def __init__(self, De, re, D, delta, n: int, m: int, route: str, mu=1):
        De, re, D, delta, mu = (mpf(v) for v in (De, re, D, delta, mu))
        n, m = int(n), int(m)
        self.n, self.m, self.route = n, m, route
        b = 4 * mu * D
        self.m_eff = m + delta
        if route == "cosine":
            a = series_char_number(self.m_eff, b)
        else:
            a, self.coeffs = matrix_char_solution(self.m_eff, b)
        radicand = a / 4 + 2 * mu * re * re * De
        if radicand <= 0:
            raise ReferenceError("no bound radial branch")
        self.lam = mpf(1) / 2 + mpmath.sqrt(radicand)
        self.beta = 2 * mu * re * De / (n + self.lam)
        self.energy = -self.beta ** 2 / (2 * mu)
        self.energy_total = self.energy + De
        self.s = 2 * self.lam - 1
        self.lag = _laguerre(n, self.s)
        self.lag_sq = _mul(self.lag, self.lag)
        # int g r dr = (1 / 4 beta^2) int g x dx = 1 / pi  fixes N^2
        self.norm_sq = 4 * self.beta ** 2 / (mpmath.pi * _moment(self.lag_sq, self.s + 1))

    def angular(self, what: str, q: int = 0):
        """Angular integral over one turn of Phi^2 ("norm"), Phi'^2 ("deriv"),
        Phi^2 ln Phi^2 ("log", cosine only) or Phi^2q ("pow")."""
        pi, m = mpmath.pi, self.m
        if what == "norm":  # both profiles are normalised to pi
            return pi
        if self.route == "cosine":
            if what == "deriv":
                return pi * m * m
            if what == "log":
                return -pi * mpmath.log(2) if m == 0 else pi * (1 - 2 * mpmath.log(2))
            # cosine-power constant, every m (the closed forms' convention)
            return 2 * pi * mpmath.fac2(2 * q - 1) / (2 ** q * mpmath.factorial(q))
        K = (len(self.coeffs) - 1) // 2
        phi = _expansion(self.coeffs, self.m_eff, K, deriv=False)
        phi_sq = _expansion_mul(phi, phi)
        scale_sq = pi / _trapezoid(phi_sq, self.m_eff)
        if what == "deriv":
            dphi = _expansion(self.coeffs, self.m_eff, K, deriv=True)
            return -scale_sq * _trapezoid(_expansion_mul(dphi, dphi), self.m_eff)
        if what == "pow":
            power = phi_sq
            for _ in range(q - 1):
                power = _expansion_mul(power, phi_sq)
            return scale_sq ** q * _trapezoid(power, self.m_eff)
        raise ReferenceError(f"no mathieu reference for angular {what!r}")

    def fisher(self):
        """(I, I1, I2): int |grad rho|^2 / rho over the plane."""
        s = self.s
        lag_d = _deriv(self.lag)
        # x d/dx ln g = s - x + 2 x L'/L, squared against x^(s-1) e^-x
        inner = [mpf(0)] * (len(self.lag) + 1)
        for i, c in enumerate(self.lag):
            inner[i] += s * c
            inner[i + 1] -= c
        for i, c in enumerate(lag_d):
            inner[i + 1] += 2 * c
        radial1 = self.norm_sq * _moment(_mul(inner, inner), s - 1)
        radial2 = self.norm_sq * _moment(self.lag_sq, s - 1)
        i1 = self.angular("norm") * radial1
        i2 = 4 * self.angular("deriv") * radial2
        return i1 + i2, i1, i2

    def wq(self, q: int):
        """int rho^q over the plane."""
        s = self.s
        radial = (self.norm_sq ** q / (4 * self.beta ** 2)
                  * _moment(_power(self.lag_sq, q), q * s + 1, rate=q))
        return radial * self.angular("pow", q)

    def shannon(self):
        """-int rho ln rho over the plane."""
        s, n2 = self.s, self.norm_sq
        # int g ln g x dx, split as ln N^2 + s ln x - x + ln L^2
        total = mpmath.log(n2) * 4 * self.beta ** 2 / mpmath.pi
        total += s * n2 * _moment(self.lag_sq, s + 1, log_weight=True)
        total -= n2 * _moment(self.lag_sq, s + 2)
        if self.n > 0:
            roots = sorted(mpmath.re(r) for r in mpmath.polyroots(
                self.lag[::-1], maxsteps=200, extraprec=2 * mp.prec))

            def f(x):
                val = mpmath.polyval(self.lag[::-1], x)
                if val == 0:
                    return mpf(0)
                return x ** (s + 1) * mpmath.exp(-x) * val * val * mpmath.log(val * val)

            edges = [mpf(0)] + roots + [mpmath.inf]
            log_part, err = mpmath.quad(f, edges, error=True, maxdegree=10)
            if err > abs(log_part) * mpf(10) ** (-REFERENCE_DIGITS - 3) + mpf(10) ** (-40):
                raise ReferenceError(f"Shannon quadrature error {mpmath.nstr(err, 3)}")
            total += n2 * log_part
        radial = total / (4 * self.beta ** 2)
        return -self.angular("norm") * radial - self.angular("log") / mpmath.pi

    def measure(self, name: str, q: int) -> dict:
        """Reference values of every number the CLI prints for one measure."""
        if name == "energy":
            return {"E": self.energy, "E_total": self.energy_total}
        if name == "fisher":
            total, i1, i2 = self.fisher()
            return {"I": total, "I1": i1, "I2": i2}
        if name == "shannon":
            return {"S": self.shannon()}
        w = self.wq(q)
        if name == "wq":
            return {"W": w}
        if name == "tsallis":
            return {"T": (1 - w) / (q - 1), "W": w}
        if name == "renyi":
            return {"R": mpmath.log(w) / (1 - q), "W": w}
        raise ReferenceError(f"unknown measure {name!r}")


def reference(name: str, q: int, state_args: tuple, route: str,
              digits: int = 40) -> dict[str, float]:
    """Reference values for one measure, certified to REFERENCE_DIGITS digits.

    The whole computation runs at ``digits`` and at ``digits + 20`` working
    digits; the two must agree to REFERENCE_DIGITS digits, or the working
    precision is doubled (sums of alternating Gamma moments can cancel
    tens of digits at large n q).
    """
    for _ in range(4):
        values = []
        for dps in (digits, digits + 20):
            with mp.workdps(dps):
                values.append(State(*state_args, route=route).measure(name, q))
        low, high = values
        tol = mpf(10) ** -REFERENCE_DIGITS
        if all(abs(low[k] - high[k]) <= tol * abs(high[k]) for k in high):
            return {k: float(v) for k, v in high.items()}
        digits *= 2
    raise ReferenceError(f"{name}: no agreement to {REFERENCE_DIGITS} digits")
