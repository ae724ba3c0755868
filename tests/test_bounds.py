"""Certificate formulas, validity rules, soundness runs, bias experiment."""

import math
import re

import numpy as np
import pytest

from transportlab.bounds import (
    BoundCertificate,
    EstimateValidityError,
    TrajectoryRun,
    bias_experiment,
    boundary_coefficient,
    certify,
    continuity_run,
    mu_is_valid,
    transport_run,
)
from transportlab.fields import (
    BoundarySignal,
    Grid,
    InitialProfile,
    SpaceTimeField,
    TransportCoefficients,
    VelocityField,
)
from transportlab.manufacturing import (ProductionScenario, manufacturing_run,
                                        simulate_closed_loop)
from transportlab.norms import Extremals, extremals, heaviside_h
from transportlab.transport import SolutionField, TransportProblem

import reference_forms
from reference_forms import Counted

INF = math.inf
ROOT_HALF_E2M1 = 1.7873242709327608  # sqrt((e^2 - 1)/2)
E = 2.718281828459045


def hand_run(kind, grid, b, phi=0.0, ext=None, r=None):
    """A run with zero state, zero source and constant b and phi, built
    without a solve; ext defaults to the extremals of v = 1."""
    zeros = np.zeros((grid.nt + 1, grid.nx))
    state = SolutionField(grid, grid.times, grid.xs, zeros, "w", "full")
    if ext is None and kind != "manufacturing":
        ext = extremals(VelocityField.from_expression("1"), grid)
    return TrajectoryRun(
        kind=kind, grid=grid, state=state, state_coarse=state, ext=ext,
        b_values=np.full(grid.nt + 1, float(b)),
        f_rows=None if kind == "manufacturing" else zeros,
        phi_row=np.full(grid.nx, float(phi)), r=r)


def make_run(rho0="1", b="0", v="1", grid=None, rho_s=1.0):
    grid = grid or Grid(101, 5e-3, 1.5)
    return continuity_run(
        rho_s,
        InitialProfile.from_expression(rho0),
        BoundarySignal.from_expression(b),
        VelocityField.from_expression(v),
        grid,
    )


# -- boundary coefficient ---------------------------------------------------

def test_boundary_coefficient_frozen_values():
    assert boundary_coefficient(2, 1.0, 0.0, 1.0) == pytest.approx(
        ROOT_HALF_E2M1, abs=1e-12)
    assert boundary_coefficient(2, 1e-4, 0.0, 1.0) == pytest.approx(
        1.0000500020835366, abs=1e-12)
    assert boundary_coefficient(4, 1e-4, 0.0, 1.0) == pytest.approx(
        1.000050002916828, abs=1e-12)
    # series check at z = 2e-6: ((e^z - 1)/z)^(1/2) = 1 + z/4 + O(z^2)
    assert boundary_coefficient(2, 1e-6, 0.0, 1.0) == pytest.approx(
        1.0000005000002083, abs=1e-12)
    assert boundary_coefficient(INF, 0.5, 0.0, 0.5) == pytest.approx(E, abs=1e-12)
    # exactly zero exponent: the certified form is exactly 1
    assert boundary_coefficient(2, 0.0, 0.0, 0.7) == 1.0


def test_boundary_coefficient_unfactored_variant():
    fact = boundary_coefficient(2, 1.0, 0.0, 0.5)
    unfact = boundary_coefficient(2, 1.0, 0.0, 0.5, factored=False)
    assert unfact == pytest.approx(fact * math.sqrt(2.0), rel=1e-12)
    # for sup norms the two coincide
    assert boundary_coefficient(INF, 0.3, 0.1, 0.8, factored=False) == \
        boundary_coefficient(INF, 0.3, 0.1, 0.8)


def test_boundary_coefficient_monotone_in_mu():
    mus = np.linspace(0.01, 3.0, 50)
    vals = [boundary_coefficient(2, m, 0.3, 0.7) for m in mus]
    assert np.all(np.diff(vals) > 0.0)


# -- admissibility ----------------------------------------------------------

def test_mu_validity_rules():
    # continuity family: strictly positive mu plus the slope-shifted floor
    assert not mu_is_valid("E2.4", 2, 0.0, vmin=1.0)
    assert mu_is_valid("E2.4", 2, 0.1, vmin=1.0)
    assert not mu_is_valid("E2.4", 2, -0.3, vmin=1.0, vmax=-0.4)
    # transport family: mu = 0 needs strictly positive running max of a
    assert not mu_is_valid("E2.10", 2, 0.0, vmin=1.0, vmax=0.0, a_max=0.0)
    assert mu_is_valid("E2.10", 2, 0.0, vmin=1.0, vmax=0.0, a_max=0.5)
    assert not mu_is_valid("E2.10", 2, 0.2, vmin=1.0, vmax=0.0, a_max=-1.0)
    # sup identifiers alias their finite-p family
    assert mu_is_valid("E2.5", INF, 0.1, vmin=1.0)
    assert not mu_is_valid("E2.11", INF, 0.0, vmin=1.0)
    # manufacturing: mu > 0 only
    assert mu_is_valid("E3.6", 2, 1e-9, vmin=0.5)
    assert not mu_is_valid("E3.7", INF, 0.0, vmin=0.5)


# -- closed-form right-hand sides ------------------------------------------

def test_rhs_transport_constant_boundary():
    grid = Grid(101, 1e-2, 1.5)
    (cert,) = certify(hand_run("transport", grid, b=0.3, phi=0.4), "E2.10", [2], [1.0])
    # past one transit time only the boundary term survives
    assert cert.times[120] == pytest.approx(1.2)
    assert cert.rhs[120] == pytest.approx(0.3 * ROOT_HALF_E2M1, abs=1e-12)
    # before it, the overshoot term rides on top
    assert cert.times[50] == pytest.approx(0.5)
    assert cert.rhs[50] == pytest.approx(0.4 + 0.3 * ROOT_HALF_E2M1, abs=1e-12)


def test_rhs_zero_data_is_zero():
    grid = Grid(101, 1e-2, 1.5)
    (cert,) = certify(hand_run("transport", grid, b=0.0), "E2.10", [2], [0.7])
    assert cert.all_valid and np.all(cert.rhs == 0.0)
    (cert,) = certify(hand_run("continuity", grid, b=0.0), "E2.4", [INF], [0.7])
    assert cert.all_valid and np.all(cert.rhs == 0.0)


def test_rhs_manufacturing_values():
    grid = Grid(11, 1e-2, 3.0)
    (cert,) = certify(hand_run("manufacturing", grid, b=0.0, phi=5.0, r=2.0),
                      "E3.6", [2], [0.5])
    assert cert.times[250] == pytest.approx(2.5)
    assert cert.rhs[250] == 0.0
    (cert,) = certify(hand_run("manufacturing", grid, b=0.2, phi=5.0, r=2.0),
                      "E3.6", [INF], [0.5])
    assert cert.times[300] == pytest.approx(3.0)
    assert cert.rhs[300] == pytest.approx(0.2 * E, abs=1e-12)
    assert cert.times[100] == pytest.approx(1.0)
    assert cert.rhs[100] == pytest.approx(5.0 + 0.2 * E, abs=1e-12)


def test_certify_reads_the_extremals_of_its_own_grid_row():
    # 19201 * dt / dt rounds more than 1e-12 above 19201 for dt = 1/300, so a
    # lookup by time would take row 19202, where vmin has already dropped
    grid = Grid(2, 1 / 300, 20001 / 300)
    n = grid.nt + 1
    vmin = np.where(np.arange(n) < 19202, 1.0, 0.5)
    ext = Extremals(vmin=vmin, dvdx_max=np.zeros(n), a_max=np.zeros(n))
    run = hand_run("transport", grid, b=1.0, ext=ext)
    (cert,) = certify(run, "E2.10", [INF], [0.5])
    rhs, valid, _, _ = reference_forms.rhs(run, "E2.10", INF, 0.5, rows=[19201])
    assert valid[19201] and cert.rhs[19201] == rhs[19201]
    assert cert.rhs[19201] == boundary_coefficient(INF, 0.5, 0.0, 1.0)
    assert cert.rhs[19202] == boundary_coefficient(INF, 0.5, 0.0, 0.5)


# -- certification ----------------------------------------------------------

def test_certify_nominal_equilibrium():
    run = make_run()
    certs = certify(run, "E2.4", [2, INF], [0.1])
    assert [c.estimate_id for c in certs] == ["E2.4", "E2.5"]
    for cert in certs:
        assert cert.passed and cert.all_valid
        assert np.max(np.abs(cert.margin)) < 1e-12
        assert np.all(cert.slack >= 1e-6)


def test_certify_smooth_compatible_scenario():
    # data chosen so value and slope match at the corner: the state is C^1
    run = make_run(rho0="exp(-0.2*pi*x)", b="0", v="1 + 0.2*sin(pi*x)",
                   grid=Grid(201, 5e-3, 1.5))
    certs = certify(run, "E2.4", [2, 4, INF], [0.1, 1.0])
    assert len(certs) == 6
    for cert in certs:
        assert cert.all_valid
        assert cert.passed, (cert.estimate_id, cert.p, cert.mu, cert.min_margin)


def test_certify_transport_run_with_reaction():
    prob = TransportProblem(
        phi=InitialProfile.from_expression("sin(pi*x)"),
        b=BoundarySignal.from_expression("0"),
        v=VelocityField.from_expression("1"),
        coeffs=TransportCoefficients(
            a=SpaceTimeField.from_expression("0.3"),
            f=SpaceTimeField.from_expression("0.1*cos(t)"),
        ),
    )
    run = transport_run(prob, Grid(201, 5e-3, 1.2))
    # positive running max of a admits mu = 0 for this family
    certs = certify(run, "E2.10", [2, INF], [0.0, 0.5])
    assert len(certs) == 4
    for cert in certs:
        assert cert.all_valid
        assert cert.passed, (cert.p, cert.mu, cert.min_margin)


def test_certify_marks_inadmissible_cells():
    run = make_run()
    (cert,) = certify(run, "E2.4", [2], [0.0])
    assert not cert.valid.any()
    assert np.isnan(cert.rhs).all() and np.isnan(cert.margin).all()
    assert cert.passed  # vacuously: nothing admissible was violated
    assert math.isnan(cert.min_margin)


def test_certify_rejects_mismatched_estimate():
    run = make_run()
    with pytest.raises(ValueError):
        certify(run, "E2.10", [2], [0.1])
    with pytest.raises(ValueError):
        certify(run, "E9.9", [2], [0.1])


def _reaction_run():
    prob = TransportProblem(
        phi=InitialProfile.from_expression("sin(pi*x)"),
        b=BoundarySignal.from_expression("0.2*cos(3*t)"),
        v=VelocityField.from_expression("1 + 0.3*sin(pi*x)*cos(t)"),
        coeffs=TransportCoefficients(
            a=SpaceTimeField.from_expression("0.3*x - 0.2"),
            f=SpaceTimeField.from_expression("0.1*cos(t)*x"),
        ),
    )
    return transport_run(prob, Grid(121, 5e-3, 1.6))


def _manufacturing_run():
    sc = ProductionScenario(1.0, InitialProfile.from_expression("1"),
                            BoundarySignal.from_expression("0.05*sin(2*t)^3"),
                            "1/(1 + W)", 2.0)
    return manufacturing_run(simulate_closed_loop(sc, 2.0, Grid(101, 4e-3, 2.0)))


@pytest.mark.parametrize("kind", ["continuity", "transport", "manufacturing",
                                  "falling_speed"])
def test_certificates_match_the_per_time_formulas(kind):
    if kind == "continuity":
        run, base = make_run(rho0="exp(-0.2*pi*x)", b="0.1*sin(2*t)",
                             v="1 + 0.2*sin(pi*x) + 0.3*t*x",
                             grid=Grid(121, 5e-3, 1.6)), "E2.4"
    elif kind == "falling_speed":
        # the speed's minimum falls on every row, and t = 1/vmin is crossed
        run, base = make_run(rho0="exp(-0.2*pi*x)", b="0.1*sin(2*t)",
                             v="1.2 + 0.2*sin(pi*x) - 0.1*t*x",
                             grid=Grid(121, 5e-3, 1.6)), "E2.4"
        states = np.stack([run.ext.vmin, run.ext.dvdx_max, run.ext.a_max], axis=1)
        assert len(np.unique(states, axis=0)) > 20
        assert run.times[0] < 1.0 / run.ext.vmin[0] and run.times[-1] > 1.0 / run.ext.vmin[-1]
    elif kind == "transport":
        run, base = _reaction_run(), "E2.10"
    else:
        run, base = _manufacturing_run(), "E3.6"
    mus = [-0.1, 0.0, 0.1, 1.0, 2.5]
    certs = certify(run, base, [1.5, 2, 4, INF], mus)
    assert len(certs) == 20
    for cert in certs:
        rhs, valid, coef_f, coef_u = reference_forms.rhs(run, base, cert.p, cert.mu)
        assert np.array_equal(cert.lhs, reference_forms.lhs(run, cert.p))
        assert np.array_equal(cert.valid, valid)
        assert np.array_equal(cert.rhs, rhs, equal_nan=True)
        assert np.array_equal(cert.coefficient_factored, coef_f, equal_nan=True)
        assert np.array_equal(cert.coefficient_unfactored, coef_u, equal_nan=True)
    assert any(c.valid.any() for c in certs) and not all(c.valid.all() for c in certs)


def test_overflowing_gain_is_an_estimate_error():
    # a slow but valid speed: exp((mu + ...)/vmin) is beyond any float
    run = make_run(v="1e-8 + 0*x", grid=Grid(21, 5e-2, 0.5))
    for p in (2, INF):
        with pytest.raises(EstimateValidityError,
                           match=r"E2\.[45] at p=.*, mu=0\.3, t=0\.0: the source gain term"):
            certify(run, "E2.4", [p], [0.3])
    # the boundary gain alone overflows once the source term vanishes
    assert boundary_coefficient(INF, 0.3, 0.0, 1e-8) == INF
    assert boundary_coefficient(2, 0.3, 0.0, 1e-8) == INF


@pytest.mark.parametrize("ps,mus,mu,row,term", [
    ([2], [1.0, 2.0], 1.0, 4, "boundary gain"),
    ([2], [2.0, 1.0], 2.0, 3, "boundary gain"),
    ([INF, 2], [1.0, 2.0], 1.0, 5, "source gain"),
])
def test_overflow_error_names_the_first_cell_in_p_mu_t_order(ps, mus, mu, row, term):
    # as vmin falls, the p = 2 boundary gain overflows at mu/vmin > 354.9 and
    # the source gain at mu/vmin > 708.8, so a larger mu overflows sooner
    grid = Grid(2, 0.1, 1.0)
    vmin = np.array([1.0, 0.1, 0.01, 0.004, 0.002, 0.001, 1e-4, 1e-4, 1e-5, 1e-5, 1e-6])
    ext = Extremals(vmin=vmin, dvdx_max=np.zeros(11), a_max=np.zeros(11))
    run = hand_run("continuity", grid, b=1.0, ext=ext)
    cert_id = "E2.5" if ps[0] == INF else "E2.4"
    message = (f"{cert_id} at p={ps[0]}, mu={mu}, t={float(grid.times[row])}: "
               f"the {term} term overflows")
    with pytest.raises(EstimateValidityError, match=f"^{re.escape(message)}$"):
        certify(run, "E2.4", ps, mus)


def test_overshoot_factor_respects_peak_bound():
    # the initial-data factor exp(vmax t / p) h(t - 1/vmin) never exceeds
    # exp(max(0, vmax) / (p vmin)) because h cuts it off at t = 1/vmin
    grid = Grid(101, 1e-2, 3.0)
    p = 2.0
    for expr in ("1 - 0.5*x", "0.5 + 0.5*x"):
        ext = extremals(VelocityField.from_expression(expr), grid)
        for t, vmin, vmax in zip(grid.times, ext.vmin, ext.dvdx_max):
            factor = math.exp(vmax / p * t) * float(heaviside_h(t - 1.0 / vmin))
            cap = math.exp(max(0.0, vmax) / (p * vmin))
            assert factor <= cap + 1e-12


# -- bias experiment ---------------------------------------------------------

GAMMA_TABLE = {
    (0.25, 2): (0.8795956047546237, 1.240523983372641),
    (0.25, 4): (1.085320940998171, 1.366416101642314),
    (0.50, 2): (0.7300756809041319, 0.8679108378090956),
    (0.50, 4): (0.8717664642030394, 0.9784349941689395),
    (0.75, 2): (0.6403079366537229, 0.6880385992237295),
    (0.75, 4): (0.7508188470349655, 0.787690194413711),
}


@pytest.mark.parametrize("theta,p", sorted(GAMMA_TABLE))
def test_bias_experiment_table(theta, p):
    report = bias_experiment(theta, p)
    g1, g2 = GAMMA_TABLE[(theta, p)]
    assert report.gamma1 == pytest.approx(g1, abs=5e-7)
    assert report.gamma2 == pytest.approx(g2, abs=5e-7)
    assert report.gamma2 > report.gamma1
    assert report.richardson1 <= 1e-6 and report.richardson2 <= 1e-6
    # the solved stationary scenarios realize the quadrature gains
    assert report.measured_gain1 == pytest.approx(report.gamma1, rel=1e-4)
    assert report.measured_gain2 == pytest.approx(report.gamma2, rel=1e-4)


def test_bias_raw_integrals_frozen():
    report = bias_experiment(0.5, 2)
    assert report.raw_integral1 == pytest.approx(0.13325262496190796, abs=5e-7)
    assert report.raw_integral2 == pytest.approx(0.18831730559662158, abs=5e-7)


def test_bias_gains_converge_as_theta_approaches_one():
    report = bias_experiment(0.99, 2)
    assert 1.0 < report.gamma2 / report.gamma1 < 1.02


def test_bias_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bias_experiment(0.0, 2)
    with pytest.raises(ValueError):
        bias_experiment(0.5, INF)


def test_transport_run_samples_the_boundary_and_source_traces_in_bulk():
    # b is called a fixed number of times whatever nt is: once per solve to
    # validate it, twice per solve by the fan, once for the trace
    for nt in (80, 200):
        grid = Grid(41, 0.8 / nt, 0.8)
        signal = Counted(BoundarySignal.from_expression("0.3*cos(2*t)"))
        problem = TransportProblem(
            phi=InitialProfile.from_expression("0.3 + x^2"),
            b=BoundarySignal(signal),
            v=VelocityField.from_expression("1 + 0.3*sin(pi*x)*cos(t)"),
            coeffs=TransportCoefficients(
                a=SpaceTimeField.from_expression("-0.1*x"),
                f=SpaceTimeField.from_expression("0.2*sin(pi*x*t)^2 + min(x, t)")))
        run = transport_run(problem, grid)
        assert signal.calls == 7
        assert np.array_equal(run.b_values, reference_forms.b_values(problem, grid))
        assert np.array_equal(run.f_rows, reference_forms.f_rows(problem, grid))
