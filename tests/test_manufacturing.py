"""Closed-loop production-line solver: fixed point, envelope, flush."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transportlab import transport
from transportlab.bounds import INF, certify
from transportlab.fields import (BoundarySignal, FieldValidationError, Grid,
                                 InitialProfile)
from transportlab.manufacturing import (ClosedLoopRun, ManufacturingError,
                                        ProductionScenario, contraction_window,
                                        envelope_check, fixed_point_velocity,
                                        manufacturing_run, sampled_velocity,
                                        simulate_closed_loop, terminal_time)
from transportlab.norms import sup_log_norm

import reference_forms


def scenario(rho_s=1.0, rho0="1", b="0", lam="1/(1 + W)", horizon=4.0, **kw):
    return ProductionScenario(rho_s, InitialProfile.from_expression(rho0),
                              BoundarySignal.from_expression(b), lam,
                              horizon, **kw)


UNIFORM = dict(rho_s=1.0, rho0="1", b="0", lam="1/(1 + W)")


# ---------------------------------------------------------------------------
# terminal time
# ---------------------------------------------------------------------------

def test_terminal_time_constant_law():
    sc = scenario(lam="0.8")
    assert terminal_time(sc) == pytest.approx(1.25, abs=1e-12)


def test_terminal_time_slowest_speed_on_data_range():
    # load range [0.5, 1]: the slowest admissible speed is lam(1) = 1/2
    sc = scenario(rho0="0.5", compat_value_tol=math.inf,
                  compat_slope_tol=math.inf)
    assert sc.rho_min == pytest.approx(0.5)
    assert sc.rho_max == pytest.approx(1.0)
    assert terminal_time(sc) == pytest.approx(2.0, abs=1e-9)


def test_terminal_time_peaked_profile():
    # profile peaking at 2 while the inflow stays at 1: r = 1 + max(2, 1)
    sc = scenario(rho0="1 + x^2*(3 - 2*x)")
    assert sc.rho_max == pytest.approx(2.0, abs=1e-12)
    assert abs(terminal_time(sc) - 3.0) <= 1e-9


def test_scenario_rejects_bad_data():
    with pytest.raises(ManufacturingError):
        scenario(rho0="2")            # corner value mismatch
    with pytest.raises(ManufacturingError):
        scenario(rho0="1 + x")        # corner slope mismatch
    with pytest.raises(ManufacturingError):
        scenario(lam="1 - W")         # speed law hits zero on the range
    with pytest.raises(ManufacturingError):
        scenario(rho0="x - 0.5")      # not positive


# ---------------------------------------------------------------------------
# fixed point on a single window
# ---------------------------------------------------------------------------

def test_constant_law_converges_immediately():
    sc = scenario(lam="0.8")
    ts, v, rep = fixed_point_velocity(sc, (0.0, 0.5), Grid(51, 1e-2, 0.5))
    assert np.all(v == 0.8)
    assert rep.iterations == 1
    assert rep.residual == 0.0
    assert rep.contraction_observed == 0.0


def test_uniform_state_is_invariant():
    sc = scenario(**UNIFORM)
    ts, v, rep = fixed_point_velocity(sc, (0.0, 0.5), Grid(101, 5e-3, 0.5))
    assert np.all(v == 0.5)
    assert rep.iterations == 1
    assert rep.residual == 0.0
    # flat data: no state or inflow variation, so the bound degenerates to 0
    assert rep.contraction_bound == 0.0
    assert rep.window_limit == pytest.approx(1.0)
    assert rep.v_start == pytest.approx(0.5)


def test_window_longer_than_contraction_limit_raises():
    sc = scenario(rho_s=2.0, rho0="2 - 1.5*sin(pi*x/2)^2")
    assert contraction_window(sc) < 0.6
    with pytest.raises(ManufacturingError):
        fixed_point_velocity(sc, (0.0, 0.6), Grid(101, 5e-3, 1.0))


def test_interior_window_needs_a_profile():
    sc = scenario(**UNIFORM)
    with pytest.raises(ManufacturingError):
        fixed_point_velocity(sc, (0.5, 1.0), Grid(101, 5e-3, 1.0))
    ts, v, rep = fixed_point_velocity(sc, (0.5, 1.0), Grid(101, 5e-3, 1.0),
                                      rho_start=lambda x: np.ones_like(x))
    assert np.all(v == 0.5)
    assert ts[0] == pytest.approx(0.5)


def test_sampled_velocity_is_piecewise_linear_and_flat_in_space():
    times = np.array([0.0, 0.1, 0.2])
    vals = np.array([0.4, 0.6, 0.5])
    v = sampled_velocity(times, vals)
    assert v(0.05, 0.3) == pytest.approx(0.5, abs=1e-15)
    assert v(0.15, 0.9) == pytest.approx(0.55, abs=1e-15)
    row = v(0.1, np.linspace(0, 1, 7))
    assert row.shape == (7,)
    assert np.all(row == row[0])
    assert v.ddx(0.1, 0.3) == 0.0
    assert np.all(v.ddx(0.1, np.linspace(0, 1, 5)) == 0.0)


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

def test_uniform_closed_loop_is_exact():
    sc = scenario(**UNIFORM)
    run = simulate_closed_loop(sc, 2.5, Grid(201, 5e-3, 2.5))
    assert np.all(run.v_values == 0.5)
    assert np.all(run.rho.values == 1.0)
    assert np.all(run.w_trace == 1.0)
    assert np.all(run.u_trace == 0.5)
    assert run.consistency_max == 0.0
    assert len(run.windows) == 3          # limit 1.0 chained over 2.5
    assert all(w.iterations <= 3 and w.residual <= 1e-12 for w in run.windows)
    env = envelope_check(run, tol=1e-15)
    assert env.ok and env.velocity_ok
    assert env.rho_min == env.rho_max == 1.0
    certs = certify(manufacturing_run(run), "E3.6", [2, INF], [0.1, 1.0])
    assert [c.estimate_id for c in certs] == ["E3.6", "E3.6", "E3.7", "E3.7"]
    assert all(c.passed and c.all_valid for c in certs)
    assert all(abs(c.min_margin) < 1e-12 for c in certs)


def test_shaped_load_consistency_is_tight():
    # smooth bump, one window, fine grid: the inventory seen inside the fixed
    # point and the inventory of the solved field agree to quadrature depth
    sc = scenario(rho0="exp(0.1*x^2*(3 - 2*x))")
    run = simulate_closed_loop(sc, 0.6, Grid(3001, 2.5e-4, 0.6))
    assert len(run.windows) == 1
    assert run.windows[0].iterations <= 10
    assert run.consistency_max <= 1e-8
    env = envelope_check(run, tol=1e-12)
    assert env.ok and env.velocity_ok


def test_flush_after_terminal_time():
    sc = scenario(rho0="exp(0.1*x^2*(3 - 2*x))")
    r = terminal_time(sc)
    run = simulate_closed_loop(sc, 2.4, Grid(401, 2e-3, 2.4))
    sup = np.array([sup_log_norm(row, sc.rho_s) for row in run.rho.values])
    early = run.times <= 1.0
    late = run.times >= r
    assert sup[early].max() > 1e-3        # the transient is nontrivial
    assert sup[late].max() <= 1e-6        # flushed to the setpoint


def test_envelope_spans_the_data_range():
    sc = scenario(rho_s=2.0, rho0="2 - 1.5*sin(pi*x/2)^2")
    assert (sc.rho_min, sc.rho_max) == (pytest.approx(0.5), pytest.approx(2.0))
    assert terminal_time(sc) == pytest.approx(3.0, abs=1e-9)
    run = simulate_closed_loop(sc, 1.2, Grid(301, 2e-3, 1.2))
    env = envelope_check(run, tol=1e-12)
    assert env.ok and env.velocity_ok
    assert env.observed_min == pytest.approx(0.5, abs=1e-12)
    assert env.observed_max == pytest.approx(2.0, abs=1e-12)
    assert run.consistency_max <= 1e-4


def test_oscillating_inflow_respects_its_envelope():
    sc = scenario(b="0.1*sin(2*t)^3", horizon=2.5)
    assert sc.rho_min == pytest.approx(math.exp(-0.1), rel=1e-6)
    assert sc.rho_max == pytest.approx(math.exp(0.1), rel=1e-6)
    run = simulate_closed_loop(sc, 2.5, Grid(401, 2e-3, 2.5))
    assert len(run.windows) == 4
    env = envelope_check(run)
    assert env.ok and env.velocity_ok
    assert run.consistency_max <= 1e-6
    for rep in run.windows:
        assert rep.contraction_bound < 1.0
        assert rep.contraction_observed <= rep.contraction_bound + 1e-9


def test_time_varying_inflow_chained_windows():
    lam_w0 = 1.0 / 1.85
    sc = scenario(rho0="1 - 0.3*x",
                  b=f"{0.3 * lam_w0!r}*t*exp(-3*t)", horizon=3.0)
    assert sc.compat_value_residual <= 1e-10
    assert sc.compat_slope_residual <= 1e-8
    run = simulate_closed_loop(sc, 2.4, Grid(401, 2e-3, 2.4))
    assert len(run.windows) >= 3
    for rep in run.windows:
        assert rep.residual <= 1e-12
        assert rep.iterations < 20
        assert rep.contraction_observed <= rep.contraction_bound + 1e-9
    env = envelope_check(run)
    assert env.ok and env.velocity_ok
    assert run.consistency_max <= 1e-6
    # command trace wiring: inflow flux from the measured inventory
    expect = sc.rho_s * (1.0 / (1.0 + run.w_trace)) * \
        np.exp(np.asarray(sc.b(run.times), dtype=float))
    assert np.max(np.abs(run.u_trace - expect)) <= 1e-12


def test_certificates_on_a_time_varying_run():
    sc = scenario(b="0.05*sin(2*t)^3", horizon=2.0)
    run = simulate_closed_loop(sc, 2.0, Grid(201, 4e-3, 2.0))
    certs = certify(manufacturing_run(run), "E3.6", [2, 4, INF], [0.1, 1.0])
    assert len(certs) == 6
    assert all(c.passed and c.all_valid for c in certs)


def test_integral_powers_of_a_negative_inflow_agree_with_np_power():
    # sin(2t) < 0 on (pi/2, pi): the numpy function's |a|^3 rule meets
    # negative bases at the inflow feet of every fixed-point iteration there
    bc, beta, gamma = 0.05, 0.1, 2.0
    rho0 = InitialProfile.from_expression(f"{math.exp(bc)!r}*exp(0.2*x^2*(3 - 2*x))")
    runs = []
    for b in (BoundarySignal.from_expression(f"{bc!r} + {beta!r}*sin({gamma!r}*t)^3"),
              BoundarySignal(lambda t: bc + beta * np.power(np.sin(gamma * t), 3.0))):
        sc = ProductionScenario(1.0, rho0, b, "1/(1 + W)", 3.0)
        run = simulate_closed_loop(sc, 3.0, Grid(201, 5e-3, 3.0))
        certs = certify(manufacturing_run(run), "E3.6", [2, INF], [0.5])
        runs.append((run, envelope_check(run).ok, [c.passed for c in certs]))
    (got, got_env, got_passed), (want, want_env, want_passed) = runs
    assert np.mean(np.sin(gamma * got.times) < 0) > 0.4
    assert got_env == want_env and got_passed == want_passed
    for k in ("w_trace", "v_values"):
        np.testing.assert_allclose(getattr(got, k), getattr(want, k), rtol=1e-14, atol=0)
    np.testing.assert_allclose(got.rho.values, want.rho.values, rtol=1e-14, atol=0)


@pytest.mark.parametrize("nx", [101, 100])
def test_manufacturing_run_reads_the_coarse_density_of_the_simulation(monkeypatch, nx):
    sc = scenario(rho0="1 + 0.2*x^2*(3 - 2*x)", b="0.05*sin(2*t)^3", horizon=1.0)
    run = simulate_closed_loop(sc, 1.0, Grid(nx, 4e-3, 1.0))
    expected = reference_forms.manufacturing_run(run)

    def no_fan(*args):
        raise AssertionError("manufacturing_run built a fan")

    monkeypatch.setattr(transport, "_Fan", no_fan)
    got = manufacturing_run(run)
    assert got.state is run.rho and got.state_coarse is run.rho_coarse
    assert got.state_coarse.grid == run.grid.coarsened_space()
    assert np.array_equal(got.state_coarse.values, expected.state_coarse.values)
    for a, b in zip(certify(got, "E3.6", [2, INF], [0.5]),
                    certify(expected, "E3.6", [2, INF], [0.5])):
        assert all(np.array_equal(getattr(a, k), getattr(b, k), equal_nan=True)
                   for k in ("lhs", "rhs", "margin", "slack", "valid"))


def test_a_coarse_value_fails_the_certificate_not_the_simulation():
    sc = scenario(**UNIFORM, horizon=1.0)
    run = simulate_closed_loop(sc, 1.0, Grid(41, 5e-3, 1.0))
    run.rho_coarse.values[3, 2] = np.inf
    with pytest.raises(FieldValidationError, match="density is not finite at t = 0.015"):
        manufacturing_run(run)


def test_horizon_and_step_guards():
    sc = scenario(**UNIFORM, horizon=1.0)
    with pytest.raises(ManufacturingError):
        simulate_closed_loop(sc, 2.0, Grid(101, 5e-3, 2.0))
    steep = scenario(rho_s=2.0, rho0="2 - 1.5*sin(pi*x/2)^2")
    assert contraction_window(steep) < 0.5
    with pytest.raises(ManufacturingError):
        simulate_closed_loop(steep, 2.0, Grid(51, 0.5, 2.0))


@settings(max_examples=10, deadline=None)
@given(c=st.floats(-0.2, 0.2), d=st.floats(0.5, 2.0))
# residuals 2.9e-6, 8.2e-12 and then 1.1e-16, one ulp of the speed 0.5
@example(c=6.103515625e-05, d=1.0)
def test_closed_loop_invariants(c, d):
    sc = scenario(rho0=f"exp({c!r}*x^2*(3 - 2*x))", lam=f"1/({d!r} + W)")
    run = simulate_closed_loop(sc, 0.4, Grid(101, 5e-3, 0.4))
    env = envelope_check(run, tol=1e-9)
    assert env.ok and env.velocity_ok
    assert run.consistency_max <= 1e-4
    for rep in run.windows:
        assert rep.residual <= 1e-12
        assert rep.contraction_bound < 1.0
        assert rep.contraction_observed <= rep.contraction_bound + 1e-6
    assert isinstance(run, ClosedLoopRun)
