"""Shared fixtures: the two states most of the suite keeps coming back to.

The "standard" state is the simplest bound configuration (unit well,
no dipole, no flux, ground state).  The "dipole" state switches
everything on at once — deep well, dipole coupling, flux, excited
state with angular momentum — so it exercises the Mathieu leg of the
angular eigenvalue chain.
"""

import pytest

from kratzer2d import StateSpec, make_params, solve_state


@pytest.fixture(scope="session")
def std_params():
    return make_params(De=1.0, re=1.0)


@pytest.fixture(scope="session")
def std_state(std_params):
    return solve_state(std_params, StateSpec(0, 0))


@pytest.fixture(scope="session")
def dipole_params():
    return make_params(De=3.0, re=1.0, Dm=0.1, delta=0.2)


@pytest.fixture(scope="session")
def dipole_state(dipole_params):
    return solve_state(dipole_params, StateSpec(2, 2))


@pytest.fixture(scope="session")
def mp_laguerre_power_moment():
    """mpmath int_0^inf u^alpha e^-u [L_n^(2 lam - 1)(u / q)]^2q du, integer q.

    alpha = q (2 lam - 1) + 1.  [L_n(u / q)]^2q is expanded as a
    polynomial in ``dps``-digit arithmetic (250 by default), raised to
    the power 2q by repeated squaring, and integrated term by term,
    int u^(alpha + j) e^-u du = Gamma(alpha + j + 1), each Gamma taken
    from the one before by Gamma(x + 1) = x Gamma(x).  The expansion
    cancels about q n digits (about 150 at q n = 150; at 150 digits the
    result is wrong in the 10th digit at q n = 144).  The default 250
    digits hold at q n = 230 and fail near q n = 250 (the log is off by
    6e-4 at q = 5, n = 50, lam = 3.7); pass a larger ``dps`` there.
    """
    mpmath = pytest.importorskip("mpmath")

    def times(x, y):
        return [mpmath.fsum(x[j] * y[k - j]
                            for j in range(max(0, k - len(y) + 1), min(k, len(x) - 1) + 1))
                for k in range(len(x) + len(y) - 1)]

    def square(x):
        # x_j x_(k-j) and x_(k-j) x_j are one product, taken once and doubled.
        out = []
        for k in range(2 * len(x) - 1):
            total = 2 * mpmath.fsum(x[j] * x[k - j]
                                    for j in range(max(0, k - len(x) + 1), (k + 1) // 2))
            out.append(total + x[k // 2] ** 2 if k % 2 == 0 else total)
        return out

    def moment(q, n, lam, dps=250):
        with mpmath.workdps(dps):
            a = 2 * mpmath.mpf(lam) - 1
            base = [(-1) ** i * mpmath.binomial(n + a, n - i) / mpmath.factorial(i)
                    for i in range(n + 1)]
            poly, power = [mpmath.mpf(1)], 2 * q
            while power:
                if power & 1:
                    poly = times(poly, base)
                power >>= 1
                if power:
                    base = square(base)
            alpha = q * a + 1
            terms, gamma = [], mpmath.gamma(alpha + 1)  # Gamma(alpha + j + 1) / q^j
            for j, c in enumerate(poly):
                terms.append(c * gamma)
                gamma = gamma * (alpha + j + 1) / q
            return mpmath.fsum(terms)

    return moment
