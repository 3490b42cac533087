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
    polynomial in 250-digit arithmetic and integrated term by term,
    int u^(alpha + j) e^-u du = Gamma(alpha + j + 1).  The expansion
    cancels heavily (about 150 digits at q n = 150; at 150 digits the
    result is wrong in the 10th digit at q n = 144).
    """
    mpmath = pytest.importorskip("mpmath")

    def moment(q, n, lam):
        with mpmath.workdps(250):
            a = 2 * mpmath.mpf(lam) - 1
            lag = [(-1) ** i * mpmath.binomial(n + a, n - i) / mpmath.factorial(i)
                   for i in range(n + 1)]
            poly = [mpmath.mpf(1)]
            for _ in range(2 * q):
                poly = [mpmath.fsum(poly[j] * lag[k - j]
                                    for j in range(max(0, k - n), min(k, len(poly) - 1) + 1))
                        for k in range(len(poly) + n)]
            alpha = q * a + 1
            return mpmath.fsum(c * mpmath.gamma(alpha + j + 1) / mpmath.mpf(q) ** j
                               for j, c in enumerate(poly))

    return moment
