"""Continuity solver: equilibria, positivity, finite-time convergence."""

import numpy as np
import pytest

from transportlab.continuity import (
    equilibrium_profile,
    log_state_problem,
    solve_continuity,
)
from transportlab.fields import (
    BoundarySignal,
    FieldValidationError,
    Grid,
    InitialProfile,
    VelocityField,
)

E01 = 1.1051709180756477  # exp(0.1)


def run(rho_s, rho0, b, v, grid):
    return solve_continuity(
        rho_s,
        InitialProfile.from_expression(rho0),
        BoundarySignal.from_expression(b),
        VelocityField.from_expression(v),
        grid,
    )


def test_nominal_equilibrium_is_exact():
    rho = run(1.0, "1", "0", "1", Grid(51, 2e-3, 0.5))
    assert np.all(rho.values == 1.0)
    assert rho.kind == "rho"


def test_constant_disturbed_equilibrium():
    rho = run(1.0, "exp(0.1)", "0.1", "1", Grid(51, 2e-3, 0.5))
    assert np.max(np.abs(rho.values - E01)) < 1e-12


def test_shaped_equilibrium_is_stationary():
    grid = Grid(1001, 1e-3, 1.2)
    rho = run(1.0, "1/(1 + x)", "0", "1 + x", grid)
    target = 1.0 / (1.0 + grid.xs)
    assert np.max(np.abs(rho.values - target)) < 1e-6


def test_positivity_by_construction():
    grid = Grid(101, 2e-3, 0.8)
    rho = run(1.0, "exp(sin(3*x))", "0.2*sin(t)", "1 + 0.3*cos(pi*x)", grid)
    assert np.all(rho.values > 0.0)


def test_log_state_problem_source_is_minus_velocity_slope():
    v = VelocityField.from_expression("1 + 0.5*x")
    prob = log_state_problem(
        1.0, InitialProfile.from_expression("1"),
        BoundarySignal.from_expression("0"), v)
    assert prob.coeffs.f(0.3, 0.4) == pytest.approx(-0.5, abs=1e-9)
    with pytest.raises(FieldValidationError):
        log_state_problem(0.0, InitialProfile.from_expression("1"),
                          BoundarySignal.from_expression("0"), v)


def test_equilibrium_profile_formulas():
    xs = np.linspace(0.0, 1.0, 17)
    flat = equilibrium_profile(1.0, 0.0, VelocityField.from_expression("1"))
    assert np.max(np.abs(flat(xs) - 1.0)) < 1e-14
    shaped = equilibrium_profile(1.0, 0.0, VelocityField.from_expression("1 + x"))
    assert np.max(np.abs(shaped(xs) - 1.0 / (1.0 + xs))) < 1e-14
    scaled = equilibrium_profile(2.0, np.log(3.0), VelocityField.from_expression("2 - x"))
    assert np.max(np.abs(scaled(xs) - 12.0 / (2.0 - xs))) < 1e-12


def test_equilibrium_profile_seeds_a_stationary_run():
    # the profile is an InitialProfile, so it can start a continuity run; the
    # run stays on it up to the solver's interpolation error (2.25e-5 at this
    # grid), bounded here at 5e-5
    v = VelocityField.from_expression("1 + 0.5*x")
    grid = Grid(41, 0.01, 1.0)
    profile = equilibrium_profile(1.0, 0.2, v)
    rho = solve_continuity(1.0, profile, BoundarySignal.constant(0.2), v, grid)
    assert np.array_equal(rho.values[0], profile(grid.xs))
    assert np.max(np.abs(rho.values - rho.values[0])) < 5e-5


def test_equilibrium_profile_rejects_time_varying_velocity():
    with pytest.raises(FieldValidationError):
        equilibrium_profile(1.0, 0.0, VelocityField.from_expression("1 + 0.1*t"))


def test_finite_time_convergence_to_shaped_equilibrium():
    # compatible perturbation of the shaped equilibrium: after one transit
    # time every characteristic carries boundary data, so the state locks
    # onto the profile
    grid = Grid(201, 1e-3, 1.1)
    v = VelocityField.from_expression("1 + 0.5*x")
    rho = run(1.0, "(1/(1 + 0.5*x)) * exp(0.2*(1 - cos(pi*x)))", "0", "1 + 0.5*x", grid)
    target = equilibrium_profile(1.0, 0.0, v)(grid.xs)
    settled = grid.times >= 1.0 + 2.0 * grid.dt
    err = np.max(np.abs(rho.values[settled] - target))
    assert err < 1e-6


def test_non_finite_density_rejected():
    # w = b stays finite on the wall, but rho_s e^w overflows once 1000 t > 709.8
    grid = Grid(21, 0.05, 1.0)
    with np.errstate(over="ignore"):
        with pytest.raises(FieldValidationError,
                           match=r"density is not finite at t = 0\.75, x = 0\.0"):
            run(1.0, "1", "1000*t", "1", grid)
