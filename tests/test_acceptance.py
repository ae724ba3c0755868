"""Acceptance gate: the ten shipping criteria, one test per criterion.

Each test pins the tolerances the package promises.  Runtime-budgeted
criteria measure wall time and fail when over budget, so keep this file
honest rather than fast: nothing here may loosen a tolerance to pass.
"""

import math
import time

import numpy as np
import pytest

from transportlab.bounds import (INF, bias_experiment, boundary_coefficient,
                                 certify, transport_run)
from transportlab.characteristics import CharacteristicEngine
from transportlab.continuity import equilibrium_profile, solve_continuity
from transportlab.expr import parse, to_string
from transportlab.fields import (BoundarySignal, Grid, InitialProfile,
                                 VelocityField, check_compatibility_continuity)
from transportlab.manufacturing import (ProductionScenario, envelope_check,
                                        manufacturing_run, simulate_closed_loop,
                                        terminal_time)
from transportlab.norms import lp_norm, sup_log_norm
from transportlab.oracle import upwind_solve
from transportlab.scenarios import (random_continuity_scenario,
                                    random_transport_scenario, trajectory_run,
                                    transport_problem)
from transportlab.transport import TransportProblem, solve_field


def _cfl_grid(problem, nx, horizon, cfl=0.5):
    probe = Grid(nx, horizon / 50, horizon)
    vmax = max(float(np.max(np.asarray(problem.v(t, probe.xs), dtype=float)))
               for t in probe.times)
    dx = 1.0 / (nx - 1)
    steps = max(1, math.ceil(horizon * vmax / (cfl * dx)))
    return Grid(nx, horizon / steps, horizon)


def test_criterion_01_characteristic_exactness_constant_speed():
    start = time.perf_counter()
    grid = Grid(101, 1e-3, 1.0)
    t_q = 0.3
    for vs in (0.5, 1.0, 2.0):
        engine = CharacteristicEngine(VelocityField.constant(vs), grid)
        for t0, x0, until in ((0.0, 0.1, 0.6), (0.2, 0.3, 0.5),
                              (0.5, 0.0, 0.7)):
            path = engine.flow(t0, x0, until)
            exact = x0 + vs * path.s_values
            if not path.exited:
                assert np.max(np.abs(path.x_values - exact)) <= 1e-10
        r0 = vs * t_q                       # separatrix position
        above = np.array([r0 + 0.25, min(r0 + 0.45, 0.98)])
        feet = np.array([engine.backtrace_x0(t_q, x) for x in above])
        assert np.max(np.abs(feet - (above - vs * t_q))) <= 1e-10
        for foot, x in zip(feet, above):    # forward-recovery residual
            assert abs(engine.flow(0.0, foot, t_q).end_x - x) <= 1e-10
        below = np.array([0.3 * r0, 0.7 * r0])
        emitted = np.array([engine.backtrace_t0(t_q, x) for x in below])
        assert np.max(np.abs(emitted - (t_q - below / vs))) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS — constant-speed flow and backtraces exact to "
          f"1e-10 ({elapsed:.2f}s)")


def test_criterion_02_oracle_equivalence_on_random_scenarios():
    start = time.perf_counter()
    rng = np.random.default_rng(311)
    horizon = 0.25
    worst_err = 0.0
    ratios = []
    for i in range(20):
        prob = transport_problem(random_transport_scenario(rng, name=f"s{i}"))
        errs = []
        for nx in (1000, 1999):
            g = _cfl_grid(prob, nx, horizon)
            diff = np.abs(solve_field(prob, g).values
                          - upwind_solve(prob, g).values)
            errs.append(float(diff.max()))
        assert errs[0] <= 2e-2, f"scenario {i}: discrepancy {errs[0]:.3e}"
        ratio = errs[0] / errs[1]
        assert 1.5 <= ratio <= 2.5, f"scenario {i}: shrink factor {ratio:.2f}"
        worst_err = max(worst_err, errs[0])
        ratios.append(ratio)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 2: PASS — worst discrepancy {worst_err:.2e} <= 2e-2, "
          f"shrink factors in [{min(ratios):.2f}, {max(ratios):.2f}] "
          f"({elapsed:.1f}s)")


def test_criterion_03_certificates_pass_on_100_random_scenarios():
    start = time.perf_counter()
    rng = np.random.default_rng(20260816)
    scenarios = [random_continuity_scenario(rng, name=f"c{i}")
                 for i in range(50)]
    scenarios += [random_transport_scenario(rng, name=f"t{i}")
                  for i in range(50)]
    total = checked = 0
    worst = math.inf
    for sc in scenarios:
        run = trajectory_run(sc)
        for est in sc.estimates:
            for cert in certify(run, est, (2, 4, INF), (0.1, 1.0)):
                total += 1
                assert cert.passed, (sc.name, cert.estimate_id, cert.p,
                                     cert.mu, cert.min_margin)
                if cert.all_valid:
                    checked += 1
                    worst = min(worst, cert.min_margin)
    elapsed = time.perf_counter() - start
    assert total == 100 * 6
    assert checked >= total // 2        # the campaign is not vacuous
    assert elapsed < 300.0
    print(f"criterion 3: PASS — {total} certificates passed "
          f"({checked} fully admissible, worst margin {worst:+.3f}) "
          f"({elapsed:.0f}s)")


def test_criterion_04_finite_time_flush_to_setpoint():
    grid = Grid(201, 5e-3, 1.2)
    profiles = (
        "1 + 0.5*x^2*(3 - 2*x)",
        "exp(-0.4*x^2*(3 - 2*x))",
        "1 + 0.3*sin(pi*x/2)^2",
        "exp(0.2*sin(pi*x)^2)",
        "1/(1 + 0.6*x^2)",
    )
    v = VelocityField.constant(1.0)
    b = BoundarySignal.from_expression("0")
    worst = 0.0
    for text in profiles:
        rho0 = InitialProfile.from_expression(text)
        rep = check_compatibility_continuity(1.0, rho0, b, v)
        assert rep.regularity == "C1", (text, rep)
        rho = solve_continuity(1.0, rho0, b, v, grid)
        settled = rho.times >= 1.0 + 2.0 * grid.dt - 1e-12
        assert settled.any()
        dev = max(sup_log_norm(row, 1.0) for row in rho.values[settled])
        assert dev <= 1e-6, (text, dev)
        worst = max(worst, dev)
    print(f"criterion 4: PASS — five profiles flush to the setpoint, "
          f"worst residual {worst:.1e} <= 1e-6")


def test_criterion_05_boundary_gain_near_one():
    for p in (2, 4, INF):
        coef = boundary_coefficient(p, 1e-4, 0.0, 1.0)
        assert 1.0 <= coef <= 1.001, (p, coef)
    grid = Grid(201, 5e-3, 1.5)
    for c in (0.1, 0.5):
        prob = TransportProblem(
            InitialProfile.from_expression(repr(c)),
            BoundarySignal.from_expression(repr(c)),
            VelocityField.constant(1.0))
        field = solve_field(prob, grid)
        for p in (2, 4, INF):
            lhs_rows = [lp_norm(row, grid.xs, p) for row in field.values]
            assert max(abs(l - c) for l in lhs_rows) <= 1e-12
        run = transport_run(prob, grid)
        for cert in certify(run, "E2.10", (2, 4, INF), (1e-4,)):
            k = -1                      # final time is past the memory window
            assert cert.valid[k]
            ratio = cert.rhs[k] / cert.lhs[k]
            assert 1.0 <= ratio <= 1.01, (cert.p, cert.mu, ratio)
    print("criterion 5: PASS — boundary gain in [1, 1.001] at mu=1e-4 and "
          "measured RHS/LHS in [1, 1.01]")


def test_criterion_06_bias_exceeds_gain():
    worst_gap = math.inf
    for theta in (0.25, 0.5, 0.75):
        for p in (2, 4):
            rep = bias_experiment(theta, p)
            assert rep.gamma2 > rep.gamma1, (theta, p, rep)
            assert rep.richardson1 <= 1e-6, (theta, p, rep.richardson1)
            assert rep.richardson2 <= 1e-6, (theta, p, rep.richardson2)
            worst_gap = min(worst_gap, rep.gamma2 - rep.gamma1)
    print(f"criterion 6: PASS — gamma2 > gamma1 on all six cells "
          f"(smallest gap {worst_gap:.4f}), Richardson <= 1e-6")


def test_criterion_07_equilibrium_shaping():
    # the settled state is curved, so interpolation error ~ (v dt)^2/8 is
    # what the tolerance actually measures: dt = 2e-3 puts it near 5e-7
    grid = Grid(201, 2e-3, 1.2)
    v = VelocityField.from_expression("1 + x")
    target = equilibrium_profile(1.0, 0.0, v)
    b = BoundarySignal.from_expression("0")
    worst = 0.0
    for c in (0.3, -0.3):
        rho0 = InitialProfile.from_expression(
            f"1/(1 + x) * exp({c!r}*x^2*(3 - 2*x))")
        rep = check_compatibility_continuity(1.0, rho0, b, v)
        assert rep.regularity == "C1", rep
        rho = solve_continuity(1.0, rho0, b, v, grid)
        settled = rho.times >= 1.0 + 2.0 * grid.dt - 1e-12
        ref = np.asarray(target(grid.xs), dtype=float)
        dev = float(np.max(np.abs(rho.values[settled] - ref[None, :])))
        assert dev <= 1e-6, (c, dev)
        worst = max(worst, dev)
    print(f"criterion 7: PASS — density settles onto 1/(1+x), worst "
          f"distance {worst:.1e} <= 1e-6")


def test_criterion_08_manufacturing_fixed_point():
    sc = ProductionScenario(1.0, InitialProfile.from_expression("1"),
                            BoundarySignal.from_expression("0"),
                            "1/(1 + W)", 2.5)
    grid = Grid(201, 5e-3, 2.5)
    run = simulate_closed_loop(sc, 2.5, grid)
    assert np.max(np.abs(run.v_values - 0.5)) <= 1e-12
    for w in run.windows:
        assert w.iterations <= 3, w.iterations
        assert w.residual <= 1e-12, w.residual
        assert w.contraction_observed <= w.contraction_bound + 1e-15
    env = envelope_check(run, tol=1e-12)
    assert env.ok and env.velocity_ok, env
    certs = certify(manufacturing_run(run), "E3.6", (2, 4, INF), (0.1, 1.0))
    assert certs and all(c.passed for c in certs)
    assert run.terminal == pytest.approx(2.0, abs=1e-12)
    settled = run.times >= run.terminal + 2.0 * grid.dt - 1e-12
    assert settled.any()
    dev = max(sup_log_norm(row, 1.0) for row in run.rho.values[settled])
    assert dev <= 1e-6, dev
    print(f"criterion 8: PASS — v=0.5 fixed point (residual "
          f"{max(w.residual for w in run.windows):.1e}, <=3 iterations), "
          f"envelope and certificates hold, flushed by t = {run.terminal}")


def test_criterion_09_terminal_time_formula():
    sc = ProductionScenario(1.0,
                            InitialProfile.from_expression("1 + x^2*(3 - 2*x)"),
                            BoundarySignal.from_expression("0"),
                            "1/(1 + W)", 4.0)
    r = terminal_time(sc)
    assert abs(r - 3.0) <= 1e-9, r
    print(f"criterion 9: PASS — terminal time {r!r} within 1e-9 of 3")


GRAMMAR_VECTORS = [
    ("2^3^2", {}, 512.0),
    ("-2^2", {}, -4.0),
    ("1-2-3", {}, -4.0),
    ("1 + 2*x", {"x": 0.25}, 1.5),
    ("exp(-t)*sin(pi*x)", {"t": 0.0, "x": 0.5}, 1.0),
    ("min(1, 2*x)", {"x": 0.2}, 0.4),
    ("min(1, 2*x)", {"x": 0.9}, 1.0),
    ("max(0.5, x)", {"x": 0.1}, 0.5),
    ("abs(-3)", {}, 3.0),
    ("sqrt(4)", {}, 2.0),
    ("ln(e)", {}, 1.0),
    ("2.5e-1 + 1E2", {}, 100.25),
    (".5 + 5.", {}, 5.5),
    ("2*-3", {}, -6.0),
    ("2^-2", {}, 0.25),
    ("(1+2)*(3-1)", {}, 6.0),
]


def _random_source(rng, depth=0):
    if depth >= 3 or rng.random() < 0.3:
        return rng.choice(["t", "x", repr(round(float(rng.uniform(0, 9)), 4))])
    kind = int(rng.integers(0, 7))
    a = _random_source(rng, depth + 1)
    b = _random_source(rng, depth + 1)
    if kind == 0:
        return f"({a} + {b})"
    if kind == 1:
        return f"({a} - {b})"
    if kind == 2:
        return f"({a} * {b})"
    if kind == 3:
        return f"min({a}, {b})"
    if kind == 4:
        return f"max({a}, {b})"
    if kind == 5:
        return f"{rng.choice(['sin', 'cos'])}({a})"
    return f"-({a})"


def test_criterion_10_expression_grammar_and_round_trip():
    for text, env, expected in GRAMMAR_VECTORS:
        e = parse(text, allowed_vars=("t", "x"))
        assert e(**env) == pytest.approx(expected, abs=1e-14), text
    rng = np.random.default_rng(99)
    points = [(0.0, 0.0), (0.7, 0.3), (2.0, 1.0)]
    for _ in range(100):
        source = _random_source(rng)
        first = parse(source)
        again = parse(to_string(first))
        for t, x in points:
            assert abs(first(t=t, x=x) - again(t=t, x=x)) <= 1e-12, source
    print("criterion 10: PASS — 16 grammar vectors exact, 100 random "
          "expressions round-trip through print/parse")
