"""Eigenvalue chain and densities: closed forms against frozen references.

The frozen numbers were produced once by the independent routes in the
oracle module (finite-difference spectrum, quadrature normalization)
and are pinned here at full precision so any drift in the chain
E_theta -> lambda -> beta -> E -> N is caught immediately.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest
import scipy.special as sps

import kratzer2d
from kratzer2d import (
    AngularMode,
    SolvedState,
    StateSpec,
    SystemParams,
    UnboundAngularError,
    angular_function,
    angular_integrals_numeric,
    density,
    make_params,
    solve_state,
)
from kratzer2d.specfun import mathieu_even_solution
from kratzer2d.system import (
    ANGULAR_GRID,
    _MathieuProfile,
    angular_profile,
    mathieu_coupling,
)


# ------------------------------------------------------------------- params


def test_make_params_validation():
    bad = [
        dict(De=0.0, re=1.0),
        dict(De=-1.0, re=1.0),
        dict(De=1.0, re=0.0),
        dict(De=1.0, re=1.0, Dm=-0.1),
        dict(De=1.0, re=1.0, delta=-0.2),
        dict(De=1.0, re=1.0, mu=0.0),
    ] + [
        {**dict(De=1.0, re=1.0, Dm=0.1, delta=0.2), name: value}
        for name in ("De", "re", "Dm", "delta", "mu") for value in (math.nan, math.inf)
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            make_params(**kwargs)


def test_expanded_well_coefficients():
    p = make_params(De=1.0, re=1.0)
    assert (p.A, p.B, p.C) == (-2.0, 1.0, 1.0)
    p = make_params(De=3.0, re=1.0, Dm=0.4, delta=0.2)
    assert (p.A, p.B, p.C) == (-6.0, 3.0, 3.0)
    p = make_params(De=0.5, re=2.0)
    assert (p.A, p.B, p.C) == (-2.0, 2.0, 0.5)


def test_mathieu_coupling_value(dipole_params):
    assert mathieu_coupling(dipole_params) == pytest.approx(0.4, rel=1e-15, abs=0)


# -------------------------------------------------------- angular eigenvalue


def test_angular_eigenvalue_no_dipole_exact():
    # With b = 0 both routes reduce to delta^2 - (m + delta)^2 exactly.
    for delta in (0.0, 0.2, 0.5):
        p = make_params(De=1.0, re=1.0, delta=delta)
        for m in (0, 1, 2):
            expected = delta**2 - (m + delta) ** 2
            for method in ("series", "matrix"):
                state = solve_state(p, StateSpec(0, m), method=method)
                assert state.e_theta == pytest.approx(expected, abs=1e-12)
    p = make_params(De=1.0, re=1.0)
    assert solve_state(p, StateSpec(0, 1)).e_theta == pytest.approx(-1.0, abs=1e-15)


def test_angular_eigenvalue_dipole_frozen(dipole_params):
    # delta^2 - a_{2(m+delta)}(b)/4 at m = 2, b = 0.4; matrix value
    # pinned by the tridiagonal eigensolver, series agrees to ~1e-10.
    for method in ("series", "matrix"):
        state = solve_state(dipole_params, StateSpec(0, 2), method=method)
        assert state.e_theta == pytest.approx(-4.8010895431, abs=2e-9)


def test_angular_eigenvalue_rejects_bad_input(std_params):
    with pytest.raises(ValueError, match="angular order m"):
        solve_state(std_params, StateSpec(0, -1))
    with pytest.raises(ValueError, match="unknown characteristic-number method"):
        solve_state(std_params, StateSpec(0, 1), method="magic")


# ------------------------------------------------------------ solved states


def test_standard_state_chain(std_params, std_state):
    # Ground state of the unit well: lambda = 1/2 + sqrt(2), then the
    # rest of the chain by hand; energy pinned by the finite-difference
    # eigensolver to 3e-9 relative.
    assert std_state.b == 0.0
    assert std_state.e_theta == pytest.approx(0.0, abs=1e-15)
    assert std_state.lam == pytest.approx(0.5 + math.sqrt(2.0), rel=1e-14, abs=0)
    assert std_state.beta == pytest.approx(2.0 / (0.5 + math.sqrt(2.0)), rel=1e-14, abs=0)
    assert std_state.beta == pytest.approx(1.0448154999, rel=1e-9)
    assert std_state.energy == pytest.approx(-0.5458197144, rel=1e-9)
    assert std_state.energy_total == pytest.approx(0.4541802856, rel=1e-9)
    assert math.exp(0.5 * std_state.log_norm_sq) == pytest.approx(0.2733917286, rel=1e-9)
    assert std_state.mode is AngularMode.PAPER_COSINE


def test_dipole_state_chain(dipole_params, dipole_state):
    # Full chain with dipole + flux (n = 2, m = 2).  The lambda here
    # includes the +delta^2 of the radial radicand; the whole chain is
    # pinned independently by the finite-difference spectrum (see
    # test_oracle.test_fd_pins_dipole_chain).
    assert dipole_state.b == pytest.approx(0.4, rel=1e-15, abs=0)
    assert dipole_state.e_theta == pytest.approx(-4.8010895431, rel=1e-9)
    assert dipole_state.lam == pytest.approx(3.7925809850, rel=1e-9)
    assert dipole_state.beta == pytest.approx(1.0358077022, rel=1e-9)
    assert dipole_state.energy == pytest.approx(-0.5364487980, rel=1e-9)
    assert dipole_state.energy_total == pytest.approx(2.4635512020, rel=1e-9)


def test_b_and_energy_total_follow_the_params(dipole_state, std_params):
    moved = dataclasses.replace(dipole_state, params=std_params)
    assert moved.b == mathieu_coupling(std_params)
    assert moved.energy_total == dipole_state.energy + std_params.De


def test_lambda_general_no_dipole():
    # lambda = 1/2 + sqrt((m + delta)^2 + 2 mu B) when b = 0.
    for De, delta, m, mu in [(1.0, 0.0, 0, 1.0), (3.0, 0.2, 2, 1.0), (2.0, 0.5, 1, 2.0)]:
        p = make_params(De=De, re=1.0, delta=delta, mu=mu)
        state = solve_state(p, StateSpec(0, m))
        expected = 0.5 + math.sqrt((m + delta) ** 2 + 2.0 * mu * p.B)
        assert state.lam == pytest.approx(expected, rel=1e-13, abs=0)


def test_energy_scaling_with_quantum_number(std_params):
    # E = -mu A^2 / (2 (n + lambda)^2): strictly increasing toward zero.
    energies = [solve_state(std_params, StateSpec(n, 0)).energy for n in range(6)]
    assert all(e < 0.0 for e in energies)
    assert all(b > a for a, b in zip(energies, energies[1:]))


def test_norm_identities():
    # n = 0: N^2 = 2 beta^2 / (Gamma(2 lam) lam pi).
    p = make_params(De=1.0, re=1.0)
    s = solve_state(p, StateSpec(0, 0))
    expected = 2.0 * s.beta**2 / (math.gamma(2.0 * s.lam) * s.lam * math.pi)
    assert math.exp(s.log_norm_sq) == pytest.approx(expected, rel=1e-13, abs=0)
    # lambda = 1 (Gamma ratio collapses): N^2 = 2 beta^2 / ((n+1)^2 pi).
    p1 = make_params(De=0.125, re=1.0)  # 2 mu B = 1/4 -> lambda = 1
    for n in range(4):
        s = solve_state(p1, StateSpec(n, 0))
        assert s.lam == pytest.approx(1.0, abs=1e-14)
        expected = 2.0 * s.beta**2 / ((n + 1.0) ** 2 * math.pi)
        assert math.exp(s.log_norm_sq) == pytest.approx(expected, rel=1e-13, abs=0)


def test_series_and_matrix_methods_agree_without_dipole(std_params):
    a = solve_state(std_params, StateSpec(1, 1), method="series")
    b = solve_state(std_params, StateSpec(1, 1), method="matrix")
    assert a.energy == pytest.approx(b.energy, rel=1e-12, abs=0)
    assert a.lam == pytest.approx(b.lam, rel=1e-12)


def test_solve_state_method_follows_the_mode(dipole_params):
    cosine, mathieu = AngularMode.PAPER_COSINE, AngularMode.MATHIEU_NUMERIC
    spec = StateSpec(1, 2)
    assert solve_state(dipole_params, spec).method == "series"
    assert solve_state(dipole_params, spec, mode=cosine, method="matrix").method == "matrix"
    state = solve_state(dipole_params, spec, mode=mathieu)
    assert state.method == "matrix"
    assert state.params is dipole_params
    assert state.e_theta == solve_state(dipole_params, StateSpec(0, 2), method="matrix").e_theta
    with pytest.raises(ValueError, match="Mathieu mode"):
        solve_state(dipole_params, spec, mode=mathieu, method="series")


@pytest.mark.parametrize("delta", [0.5, 1.0, 1.5])
def test_series_falls_back_to_the_matrix_where_it_is_singular(delta):
    # m + delta in {0.5, 1, 1.5}: the series refuses the order, the matrix answers.
    p = make_params(De=1.0, re=1.0, Dm=0.1, delta=delta)
    state = solve_state(p, StateSpec(0, 0))
    assert state.method == "matrix"
    assert state == solve_state(p, StateSpec(0, 0), method="matrix")
    explicit = solve_state(p, StateSpec(1, 0), method="series")
    assert (explicit.method, explicit.e_theta) == ("matrix", state.e_theta)


def test_solve_state_refuses_a_negative_radial_number_before_solving():
    # This state has no bound branch either; the quantum number is refused first.
    p = make_params(De=0.01, re=1.0, Dm=1.0)
    with pytest.raises(ValueError, match="radial quantum number"):
        solve_state(p, StateSpec(-1, 0), method="matrix")


def test_unbound_angular_error():
    # A strong dipole against a shallow well: the m = 0 characteristic
    # number goes negative enough that the radial radicand flips sign.
    p = make_params(De=0.01, re=1.0, Dm=1.0)
    with pytest.raises(UnboundAngularError):
        solve_state(p, StateSpec(0, 0), method="matrix")


# ------------------------------------------------------------ angular modes


def test_cosine_profile_values(std_state, std_params):
    # m = 0 is the flat normalized branch, m >= 1 the plain cosine.
    for theta in (0.0, 0.9, 2.4):
        assert angular_function(std_state, theta) == (
            pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15, abs=0)
        )
    m2 = solve_state(std_params, StateSpec(0, 2))
    assert angular_function(m2, 0.0) == 1.0
    theta = np.linspace(0.0, 2.0 * math.pi, 7)
    vals = angular_function(m2, theta)
    assert np.allclose(vals, np.cos(2.0 * theta), atol=1e-15)


@pytest.mark.parametrize("mode", list(AngularMode))
def test_angular_function_keeps_the_shape_of_theta(dipole_params, mode):
    state = solve_state(dipole_params, StateSpec(2, 2), mode=mode)
    theta = np.linspace(0.0, 2.0 * math.pi, 12).reshape(4, 3)
    flat = angular_function(state, theta.ravel())
    mesh = angular_function(state, theta)
    assert mesh.shape == (4, 3)
    np.testing.assert_allclose(mesh.ravel(), flat, rtol=1e-14, atol=1e-15)
    one = angular_function(state, 0.3)
    assert isinstance(one, float)
    assert one == pytest.approx(angular_function(state, np.array([0.3]))[0], rel=1e-14)


def test_mathieu_profile_zero_coupling_is_shifted_cosine():
    # At b = 0 the even solution is a pure cos((m + delta) theta), up
    # to the normalization that fixes the squared integral at pi.
    state = solve_state(make_params(De=1.0, re=1.0, delta=0.2), StateSpec(0, 1),
                        mode=AngularMode.MATHIEU_NUMERIC)
    theta = np.array([0.1, 0.7, 1.9, 3.0])
    vals = angular_function(state, theta)
    ratios = vals / np.cos(1.2 * theta)
    assert np.ptp(ratios) <= 1e-12
    assert ratios[0] == pytest.approx(0.98101038, rel=1e-6)


@pytest.mark.parametrize("Dm, delta, m, n", [
    (0.1, 0.3, 2, 8192),  # b = 0.4
    (5.0, 0.3, 2, 8192),  # b = 20
    (5.0, 0.2, 0, 4096),
    (3.0, 0.5, 2, 8192),  # half-integer order m + delta = 2.5, b = 12
    (5.0, 0.3, 2, 8191),  # odd n: the real DFT's mirror has no Nyquist node
    (0.1, 0.3, 2, 33),    # odd n, 51 terms on 33 slots
    (5.0, 0.7, 3, 32),    # 51 terms on 32 slots: the indices wrap
    (5.0, 0.7, 3, 31),    # wrapped and odd
])
def test_mathieu_profile_grid_matches_pointwise(Dm, delta, m, n):
    # Some of these orders bind no state at De 3 (m 0 at Dm 5), so the
    # profile is named by its order and coupling, not by a solved state.
    profile = angular_profile(m + delta, 4.0 * Dm)
    if n < 64:
        assert profile.k.size > n
    theta = 2.0 * math.pi * np.arange(n) / n
    phi, dphi = profile._on_grid(n)
    ref, dref = profile.value(theta), profile.derivative(theta)
    assert np.max(np.abs(phi - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(dphi - dref)) <= 1e-13 * np.max(np.abs(dref))


@pytest.mark.parametrize("m", range(6))
def test_cosine_profile_grid_is_scaled_cosine(m):
    # Cosine mode is the b = 0 profile: one coefficient at integer order,
    # so the grid is scale * cos(m theta) up to the real DFT's rounding.
    # The reference reduces m j mod n exactly before the cosine.
    profile = solve_state(make_params(De=1.0, re=1.0), StateSpec(0, m)).profile
    phi, dphi = profile._on_grid(ANGULAR_GRID)
    theta = 2.0 * math.pi * (m * np.arange(ANGULAR_GRID) % ANGULAR_GRID) / ANGULAR_GRID
    ref = profile.scale * np.cos(theta)
    dref = -profile.scale * m * np.sin(theta)
    assert np.max(np.abs(phi - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert np.max(np.abs(dphi - dref)) <= 1e-15 * np.max(np.abs(dref), initial=0.0)


@pytest.mark.parametrize("first", ["value", "derivative", "grid32"])
def test_mathieu_profile_scale_does_not_depend_on_the_first_caller(dipole_params, first):
    # A never-sampled profile takes its scale from the ANGULAR_GRID sum,
    # never from the grid or points it was first asked for, so it returns
    # exactly what it returns once the oracle's sums have fixed the scale.
    mathieu = AngularMode.MATHIEU_NUMERIC
    theta = np.array([0.0, 0.3, 1.7, 4.0])
    calls = {
        "value": lambda profile: profile.value(theta),
        "derivative": lambda profile: profile.derivative(theta),
        "grid32": lambda profile: profile._on_grid(32),
    }
    state = solve_state(dipole_params, StateSpec(2, 2), mode=mathieu)
    angular_profile.cache_clear()
    fresh = state.profile
    early = calls[first](fresh)
    angular_profile.cache_clear()
    angular_integrals_numeric(state)
    sampled = state.profile
    assert sampled is not fresh
    np.testing.assert_array_equal(calls[first](sampled), early)
    assert fresh.scale == sampled.scale
    h = 2.0 * math.pi / ANGULAR_GRID
    for profile in (fresh, sampled):
        norm = h * float(np.sum(profile._on_grid(ANGULAR_GRID)[0] ** 2))
        assert norm == pytest.approx(math.pi, rel=1e-12, abs=0)


@pytest.mark.parametrize("nu, b", [
    (9, 20.0),
    (8, 0.47),   # a_8 and b_8 agree to rounding
    (5, 0.023),  # a_5 and b_5 agree to rounding
])
def test_mathieu_profile_matches_scipy_cem_at_integer_order(nu, b):
    # At integer order the profile is ce_nu(theta / 2, b).  The package
    # writes it as sum_k c_k cos((nu + 2k) z), in which k and -nu - k give
    # the same cosine, so only the even part of c (symmetric under that
    # swap) makes the profile; the odd branch se_nu has none.
    profile = _MathieuProfile(nu / 2.0, b)
    theta = np.linspace(0.0, 2.0 * math.pi, 257)
    ours = profile.value(theta)
    ref = sps.mathieu_cem(nu, b, np.degrees(theta / 2.0))[0]
    ours, ref = ours / np.linalg.norm(ours), ref / np.linalg.norm(ref)
    ours *= math.copysign(1.0, ours @ ref)
    assert np.max(np.abs(ours - ref)) <= 1e-10

    c = mathieu_even_solution(nu / 2.0, b).coeffs
    mirror = np.zeros_like(c)
    mirror[:c.size - nu] = c[::-1][nu:]  # c_(-nu-k) at the slot of c_k
    assert np.linalg.norm(c + mirror) / 2.0 >= np.linalg.norm(c) / math.sqrt(2.0)


# ----------------------------------------------------------------- density


def test_density_scalar_and_shapes(dipole_state):
    out = density(dipole_state, 1.0, 0.0)
    assert isinstance(out, float) and out > 0.0
    r = np.linspace(0.1, 5.0, 11)
    vals = density(dipole_state, r, 0.3)
    assert vals.shape == (11,) and np.all(vals >= 0.0)


def test_density_of_zero_d_arrays_is_a_float(dipole_state):
    # A 0-d array for r or theta is a scalar point, whichever argument it is.
    ref = density(dipole_state, 1.0, 0.3)
    for r, theta in ((1.0, np.array(0.3)), (np.array(1.0), 0.3),
                     (np.array(1.0), np.array(0.3))):
        out = density(dipole_state, r, theta)
        assert isinstance(out, float) and out == ref


@pytest.mark.parametrize("mode", list(AngularMode))
def test_density_on_an_r_theta_mesh(dipole_params, mode):
    state = solve_state(dipole_params, StateSpec(1, 2), mode=mode)
    r, theta = np.meshgrid(np.linspace(0.5, 3.0, 4), np.linspace(0.1, 2.0, 3),
                           indexing="ij")
    mesh = density(state, r, theta)
    assert mesh.shape == (4, 3)
    points = [density(state, float(a), float(t))
              for a, t in zip(r.ravel(), theta.ravel())]
    np.testing.assert_allclose(mesh.ravel(), points, rtol=1e-13, atol=0)


def test_density_angular_node(dipole_state):
    # m = 2 cosine profile vanishes at theta = pi/4.
    assert density(dipole_state, 1.0, math.pi / 4.0) < 1e-12


def test_density_vanishes_at_origin_limit(std_state):
    # rho ~ r^(2 lam - 1) with lam > 1/2, so the density falls to zero
    # as r -> 0 and decays exponentially at large r.
    small = density(std_state, 1e-12, 0.0)
    large = density(std_state, 60.0, 0.0)
    peak = density(std_state, 1.0, 0.0)
    assert small < 1e-15 and large < 1e-15 and peak > 1e-3


# ----------------------------------------------------------------- exports


def test_every_exported_name_resolves():
    # A name left in __all__ after its function is deleted would break
    # `from kratzer2d.<module> import *`.
    modules = [kratzer2d] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(kratzer2d.__path__, "kratzer2d.")
    ]
    checked = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names {name}"
            checked += 1
    assert checked > 100


def test_no_public_function_takes_both_params_and_a_solved_state():
    # A solved state carries the parameters it was solved from; a function
    # that takes both lets a caller pass a pair that does not match.
    takes_state = []
    for info in pkgutil.iter_modules(kratzer2d.__path__, "kratzer2d."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name)
            if not inspect.isfunction(fn):
                continue
            params = inspect.signature(fn, eval_str=True).parameters.values()
            kinds = {p.annotation for p in params}
            assert not {SystemParams, SolvedState} <= kinds, f"{info.name}.{name}"
            if SolvedState in kinds:
                takes_state.append(name)
    assert {"fisher_closed", "shannon_numeric", "evaluate", "density",
            "angular_integrals_numeric", "angular_function", "radial_fd_eigen"
            } <= set(takes_state)
