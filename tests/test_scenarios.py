"""Scenario file parsing, validation, and the seeded generators."""

import math

import numpy as np
import pytest

from transportlab.bounds import INF
from transportlab.fields import (BoundarySignal, InitialProfile,
                                 VelocityField, check_compatibility_continuity,
                                 check_compatibility_transport)
from transportlab.scenarios import (ScenarioError, load_scenario,
                                    parse_scenario_text,
                                    random_continuity_scenario,
                                    random_transport_scenario, simulation,
                                    trajectory_run, transport_problem)

TRANSPORT_SRC = """\
# a small transport study
problem = transport
v = "1 + 0.2*sin(pi*x)"   # speed stays positive
phi = "0.3*exp(-x)"
a = "-0.1"
f = "0.05*cos(t)"
b = "0.3*exp(-t)"
nx = 101
dt = 0.01
horizon = 0.5
estimates = E2.10, E2.11
p = 2, inf
mu = 0.5
"""

CONTINUITY_SRC = """\
problem = continuity
v = "1"
rho0 = "1 + 0.2*x"
nx = 51
dt = 0.01
horizon = 0.3
"""

MANUFACTURING_SRC = """\
problem = manufacturing
rho_s = 1.0
lambda = "1/(1 + W)"
rho0 = "1"
b = "0"
nx = 101
dt = 0.005
horizon = 2.0
estimates = E3.6, E3.7
"""


def test_parse_transport_fields():
    sc = parse_scenario_text(TRANSPORT_SRC, name="demo")
    assert sc.problem == "transport"
    assert sc.name == "demo"
    assert sc.v == "1 + 0.2*sin(pi*x)"
    assert sc.phi == "0.3*exp(-x)"
    assert sc.a == "-0.1" and sc.f == "0.05*cos(t)"
    assert sc.estimates == ("E2.10", "E2.11")
    assert sc.p == (2, INF)
    assert sc.mu == (0.5,)
    assert sc.grid().nx == 101


def test_defaults_fill_in():
    sc = parse_scenario_text(CONTINUITY_SRC)
    assert sc.rho_s == 1.0
    assert sc.b == "0"
    assert sc.estimates == ("E2.4",)       # default for the problem kind
    assert sc.p == (2, 4, INF)
    assert sc.mu == (0.1, 1.0)
    assert sc.theta == (0.25, 0.5, 0.75)
    assert sc.count == 20


def test_parse_manufacturing():
    sc = parse_scenario_text(MANUFACTURING_SRC)
    assert sc.problem == "manufacturing"
    assert sc.lam == "1/(1 + W)"
    assert sc.estimates == ("E3.6", "E3.7")


def test_load_scenario_names_after_file(tmp_path):
    path = tmp_path / "shift-study.txt"
    path.write_text(TRANSPORT_SRC)
    assert load_scenario(path).name == "shift-study"


def test_explicit_name_key_wins(tmp_path):
    path = tmp_path / "whatever.txt"
    path.write_text(CONTINUITY_SRC + 'name = "primary"\n')
    assert load_scenario(path).name == "primary"


def test_nonpositive_velocity_rejected():
    src = CONTINUITY_SRC.replace('v = "1"', 'v = "x - 2"')
    with pytest.raises(ScenarioError, match="positive"):
        parse_scenario_text(src)


def test_errors_listed_with_line_numbers():
    src = "problem = transport\nv 1\nnx = ten\ndt = 0.01\nhorizon = 0.5\n"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario_text(src)
    msgs = exc.value.errors
    assert any(m.startswith("line 2:") for m in msgs)       # missing '='
    assert any(m.startswith("line 3:") for m in msgs)       # bad int
    assert any("requires key 'phi'" in m for m in msgs)
    assert len(msgs) >= 3


def test_duplicate_and_unknown_keys():
    src = CONTINUITY_SRC + "nx = 51\nwidth = 3\n"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario_text(src)
    msgs = "\n".join(exc.value.errors)
    assert "duplicate key 'nx'" in msgs
    assert "unknown key 'width'" in msgs


def test_unquoted_expression_rejected():
    src = CONTINUITY_SRC.replace('v = "1"', "v = 1 + x")
    with pytest.raises(ScenarioError, match="quoted"):
        parse_scenario_text(src)


def test_text_after_closing_quote_rejected():
    src = CONTINUITY_SRC.replace('v = "1"', 'v = "1" + 2')
    with pytest.raises(ScenarioError, match="closing quote"):
        parse_scenario_text(src)


def test_estimate_kind_must_match_problem():
    src = CONTINUITY_SRC + "estimates = E2.10\n"
    with pytest.raises(ScenarioError, match="applies to transport"):
        parse_scenario_text(src)
    src = CONTINUITY_SRC + "estimates = E9.9\n"
    with pytest.raises(ScenarioError, match="unknown estimate"):
        parse_scenario_text(src)


def test_reaction_keys_only_for_transport():
    src = CONTINUITY_SRC + 'a = "1"\n'
    with pytest.raises(ScenarioError, match="only applies to transport"):
        parse_scenario_text(src)


def test_incompatible_manufacturing_data_rejected():
    src = MANUFACTURING_SRC.replace('rho0 = "1"', 'rho0 = "2"')
    with pytest.raises(ScenarioError, match="manufacturing data"):
        parse_scenario_text(src)


def test_simulation_dispatch():
    sim = simulation(parse_scenario_text(CONTINUITY_SRC))
    assert sim.state.kind == "rho"
    assert sim.closed_loop is None
    xs = sim.state.xs
    exact = np.where(xs >= 0.3, 1.0 + 0.2 * (xs - 0.3), 1.0)  # shifted by v=1
    assert np.allclose(sim.state.values[-1], exact, atol=1e-10)

    sim = simulation(parse_scenario_text(MANUFACTURING_SRC))
    assert sim.closed_loop is not None
    assert np.allclose(sim.closed_loop.v_values, 0.5, atol=1e-12)


def test_trajectory_run_kinds():
    assert trajectory_run(parse_scenario_text(TRANSPORT_SRC)).kind == "transport"
    assert trajectory_run(parse_scenario_text(CONTINUITY_SRC)).kind == "continuity"
    run = trajectory_run(parse_scenario_text(MANUFACTURING_SRC))
    assert run.kind == "manufacturing"
    assert run.r is not None


def test_transport_problem_requires_transport():
    with pytest.raises(ScenarioError, match="not a transport"):
        transport_problem(parse_scenario_text(CONTINUITY_SRC))


def test_random_continuity_is_compatible():
    rng = np.random.default_rng(42)
    for _ in range(5):
        sc = random_continuity_scenario(rng)
        rep = check_compatibility_continuity(
            sc.rho_s, InitialProfile.from_expression(sc.rho0),
            BoundarySignal.from_expression(sc.b),
            VelocityField.from_expression(sc.v))
        assert rep.regularity == "C1", rep
        assert rep.value_residual <= 1e-8
        assert rep.derivative_residual <= 1e-5


def test_random_transport_is_compatible():
    rng = np.random.default_rng(43)
    for _ in range(5):
        sc = random_transport_scenario(rng)
        prob = transport_problem(sc)
        rep = check_compatibility_transport(prob.phi, prob.b, prob.v,
                                            prob.coeffs)
        assert rep.regularity == "C1", rep
        assert rep.derivative_residual <= 1e-5


def test_generators_are_deterministic():
    a = random_transport_scenario(np.random.default_rng(7))
    b = random_transport_scenario(np.random.default_rng(7))
    assert a == b
    c = random_continuity_scenario(np.random.default_rng(7))
    d = random_continuity_scenario(np.random.default_rng(7))
    assert c == d
    assert a != random_transport_scenario(np.random.default_rng(8))


def test_generated_velocity_stays_in_band():
    rng = np.random.default_rng(11)
    ts = np.linspace(0.0, 1.5, 40)
    xs = np.linspace(0.0, 1.0, 101)
    for _ in range(10):
        v = VelocityField.from_expression(
            random_transport_scenario(rng).v)
        vals = np.array([np.asarray(v(t, xs), dtype=float) for t in ts])
        assert vals.min() >= 0.5 - 1e-12
        assert vals.max() <= 2.0 + 1e-12


def test_list_values_parse_inf_and_ints():
    sc = parse_scenario_text(CONTINUITY_SRC + "p = 2, 4.0, Infinity\n"
                             + "mu = 0.25\n")
    assert sc.p == (2, 4, INF)
    assert all(isinstance(p, int) for p in sc.p[:2])
    # a number past the float range reads as inf, like writing inf
    assert parse_scenario_text(CONTINUITY_SRC + "p = 1e400\n").p == (INF,)
    assert sc.mu == (0.25,)
    for bad in ("0.5", "1"):
        with pytest.raises(ScenarioError, match="exceed 1"):
            parse_scenario_text(CONTINUITY_SRC + f"p = {bad}\n")
    with pytest.raises(ScenarioError, match="finite"):
        parse_scenario_text(CONTINUITY_SRC + "mu = inf\n")
