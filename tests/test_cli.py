"""End-to-end runs of the command line: artifacts, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transportlab import cli
from transportlab.bounds import BoundCertificate, certify
from transportlab.norms import lp_log_norm
from transportlab.manufacturing import simulate_closed_loop
from transportlab.scenarios import (continuity_data, load_scenario,
                                    production_scenario, simulation,
                                    trajectory_run, transport_problem)

import reference_forms

TRANSPORT_SRC = """\
problem = transport
v = "1 + 0.2*sin(pi*x)"
phi = "0.3*exp(-x)"
a = "-0.1"
f = "0.05*cos(t)"
b = "0.3*exp(-t)"
nx = 151
dt = 0.005
horizon = 0.8
estimates = E2.10
p = 2
mu = 0.5
"""

CONTINUITY_SRC = """\
problem = continuity
v = "1 + 0.1*cos(pi*x)"
rho0 = "1.1 + 0.2*x^2*(3 - 2*x)"
b = "0.0953101798043249 + 0.05*sin(t)^3"   # ln(1.1), so the corner matches
nx = 121
dt = 0.005
horizon = 0.6
estimates = E2.4, E2.5
p = 2, inf
mu = 0.3
"""

# even nx: the coarse grid's nodes are not grid nodes, so the one fan of a
# certificate's two grids carries members of both
EVEN_CONTINUITY_SRC = """\
problem = continuity
v = "1.2 + 0.15*cos(pi*x)*cos(2*t)"
rho0 = "1.1 + 0.2*x^2*(3 - 2*x)"
b = "0.0953101798043249 + 0.05*sin(t)^3"   # ln(1.1), so the corner matches
nx = 40
dt = 0.01
horizon = 0.8
estimates = E2.4, E2.5
p = 2, inf
mu = 0.3
"""

# rho0 vanishes at x = 0.5, a node of the coarse grid (nx = 21) only
COARSE_ZERO_CONTINUITY_SRC = """\
problem = continuity
v = "1"
rho0 = "abs(x - 0.5)"
b = "-0.6931471805599453"   # ln(0.5), so the corner matches
nx = 40
dt = 0.01
horizon = 0.5
estimates = E2.4
p = 2
mu = 0.3
"""

# f = w*_t + v w*_x - a w* of the exact solution
# w* = 0.5 sin(2x - t + 0.3) + 0.2 x t exp(-t), written out, so cos(2*x - t + 0.3)
# and exp(-t) repeat
MANUFACTURED_TRANSPORT_SRC = """\
problem = transport
v = "1 + 0.2*sin(pi*x)"
phi = "0.5*sin(2*x + 0.3)"
a = "-0.1"
f = "-0.5*cos(2*x - t + 0.3) + 0.2*x*(1 - t)*exp(-t) + (1 + 0.2*sin(pi*x))*(cos(2*x - t + 0.3) + 0.2*t*exp(-t)) + 0.1*(0.5*sin(2*x - t + 0.3) + 0.2*x*t*exp(-t))"
b = "0.5*sin(0.3 - t)"
nx = 101
dt = 0.01
horizon = 0.8
estimates = E2.10
p = 2
mu = 0.5
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
estimates = E3.6
p = 2
mu = 0.25
"""


def write(tmp_path, name, src):
    path = tmp_path / name
    path.write_text(src)
    return str(path)


def read_csv(path):
    with open(path) as fh:
        header, *rows = fh.read().splitlines()
    cols = header.split(",")
    return cols, [r.split(",") for r in rows]


def test_simulate_writes_field(tmp_path):
    path = write(tmp_path, "demo.txt", TRANSPORT_SRC)
    rc = cli.main(["run", path, "--mode", "simulate", "--out", str(tmp_path)])
    assert rc == 0
    cols, rows = read_csv(tmp_path / "demo_field.csv")
    assert cols == ["t", "x", "w"]
    assert len(rows) == 161 * 151  # nt * nx
    assert float(rows[0][2]) == pytest.approx(0.3)  # phi(0) at t=0


def test_simulate_manufacturing_loop_trace(tmp_path):
    path = write(tmp_path, "line.txt", MANUFACTURING_SRC)
    rc = cli.main(["run", path, "--mode", "simulate", "--out", str(tmp_path)])
    assert rc == 0
    cols, rows = read_csv(tmp_path / "line_loop.csv")
    assert cols == ["t", "W", "v", "u"]
    arr = np.array(rows, dtype=float)
    assert np.allclose(arr[:, 1], 1.0, atol=1e-12)   # inventory stays at 1
    assert np.allclose(arr[:, 2], 0.5, atol=1e-12)   # closed-loop speed
    assert np.allclose(arr[:, 3], 0.5, atol=1e-12)   # outflow matches inflow
    cols, _ = read_csv(tmp_path / "line_field.csv")
    assert cols == ["t", "x", "rho"]


def test_certify_round_trips_field_norms(tmp_path):
    # the certificate's left side must be recomputable from the field CSV
    path = write(tmp_path, "dens.txt", CONTINUITY_SRC)
    assert cli.main(["run", path, "--mode", "simulate",
                     "--out", str(tmp_path)]) == 0
    assert cli.main(["run", path, "--mode", "certify",
                     "--out", str(tmp_path)]) == 0

    _, rows = read_csv(tmp_path / "dens_field.csv")
    arr = np.array(rows, dtype=float)
    xs = np.unique(arr[:, 1])
    nt = len(arr) // len(xs)
    rho = arr[:, 2].reshape(nt, len(xs))

    _, cert_rows = read_csv(tmp_path / "dens_cert.csv")
    two = [r for r in cert_rows if r[0] == "E2.4" and r[1] == "2"]
    assert len(two) == nt
    for k, row in enumerate(two):
        lhs = float(row[4])
        assert lhs == pytest.approx(lp_log_norm(rho[k], 1.0, xs, 2), abs=1e-12)

    report = json.loads((tmp_path / "dens_cert.json").read_text())
    assert report["scenario"] == "dens"
    assert report["passed"] is True
    assert {v["estimate"] for v in report["verdicts"]} == {"E2.4", "E2.5"}
    for v in report["verdicts"]:
        assert v["passed"] is True
        assert v["min_margin"] > 0.0
        assert len(v["mu_valid"]) == nt


def test_reruns_are_byte_identical(tmp_path):
    path = write(tmp_path, "demo.txt", TRANSPORT_SRC)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["run", path, "--mode", "simulate",
                         "--out", str(out)]) == 0
        assert cli.main(["run", path, "--mode", "certify",
                         "--out", str(out)]) == 0
    for name in ("demo_field.csv", "demo_cert.csv", "demo_cert.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_oracle_compare_grid_refinement(tmp_path):
    path = write(tmp_path, "demo.txt", TRANSPORT_SRC)
    rc = cli.main(["run", path, "--mode", "oracle-compare",
                   "--out", str(tmp_path)])
    assert rc == 0
    cols, rows = read_csv(tmp_path / "demo_oracle.csv")
    assert cols == ["t", "max_abs", "l2"]
    assert float(rows[0][1]) <= 1e-12          # identical initial data
    assert all(float(r[1]) < 0.05 for r in rows)
    cols, rows = read_csv(tmp_path / "demo_refine.csv")
    assert cols == ["nx", "max_abs", "ratio"]
    assert rows[0][2] == ""                    # no ratio for the first grid
    assert 1.2 < float(rows[1][2]) < 3.0       # first-order shrink ~ 2


def test_oracle_compare_refines_a_manufactured_solution(tmp_path):
    path = write(tmp_path, "made.txt", MANUFACTURED_TRANSPORT_SRC)
    state = simulation(load_scenario(path)).state
    t, x = state.times[:, None], state.xs[None, :]
    exact = 0.5 * np.sin(2 * x - t + 0.3) + 0.2 * x * t * np.exp(-t)
    # the fan interpolates linearly between members: dx^2 |w*_xx| / 8 is 5e-5
    assert np.abs(state.values - exact).max() < 1e-4
    rc = cli.main(["run", path, "--mode", "oracle-compare", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "made_refine.csv")
    assert 1.2 < float(rows[1][2]) < 3.0


def test_experiments_outputs(tmp_path):
    src = TRANSPORT_SRC + "theta = 0.5\n"
    path = write(tmp_path, "demo.txt", src)
    rc = cli.main(["run", path, "--mode", "experiments",
                   "--out", str(tmp_path)])
    assert rc == 0
    cols, rows = read_csv(tmp_path / "demo_bias.csv")
    assert cols[:4] == ["theta", "p", "gamma1", "gamma2"]
    assert all(float(r[3]) > float(r[2]) for r in rows)  # gamma2 > gamma1
    cols, rows = read_csv(tmp_path / "demo_gain.csv")
    assert cols == ["estimate", "p", "mu", "coefficient", "lhs", "rhs",
                    "ratio"]
    assert all(float(r[3]) >= 1.0 for r in rows)


def test_sweep_is_seed_deterministic(tmp_path):
    src = """\
problem = transport
v = "1"
phi = "0"
nx = 201
dt = 0.005
horizon = 0.8
p = 2
mu = 0.5
count = 2
"""
    path = write(tmp_path, "camp.txt", src)
    a, b = tmp_path / "a", tmp_path / "c"
    for out in (a, b):
        rc = cli.main(["run", path, "--mode", "sweep", "--seed", "5",
                       "--out", str(out)])
        assert rc == 0
    assert (a / "camp_sweep.csv").read_bytes() == (b / "camp_sweep.csv").read_bytes()
    cols, rows = read_csv(a / "camp_sweep.csv")
    assert cols == ["index", "estimate", "p", "mu", "passed", "min_margin"]
    assert len(rows) == 2  # count * |p| * |mu|
    assert all(r[4] == "1" for r in rows)

    other = tmp_path / "d"
    rc = cli.main(["run", path, "--mode", "sweep", "--seed", "6",
                   "--out", str(other)])
    assert rc == 0
    assert (a / "camp_sweep.csv").read_bytes() != \
        (other / "camp_sweep.csv").read_bytes()


def test_certify_on_an_even_grid_passes_with_field_norms(tmp_path):
    path = write(tmp_path, "even.txt", EVEN_CONTINUITY_SRC)
    for mode in ("simulate", "certify"):
        assert cli.main(["run", path, "--mode", mode, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "even_field.csv")
    rho = np.array(rows, dtype=float)[:, 2].reshape(-1, 40)
    xs = np.linspace(0.0, 1.0, 40)
    _, cert_rows = read_csv(tmp_path / "even_cert.csv")
    lhs = [float(r[4]) for r in cert_rows if r[:3] == ["E2.4", "2", "0.3"]]
    assert len(lhs) == len(rho) == 81
    assert lhs == pytest.approx([lp_log_norm(row, 1.0, xs, 2) for row in rho], abs=1e-12)
    report = json.loads((tmp_path / "even_cert.json").read_text())
    assert report["passed"] is True
    assert [v["estimate"] for v in report["verdicts"]] == ["E2.4", "E2.5"]


def test_certify_checks_the_initial_density_on_the_coarse_nodes(tmp_path, capsys):
    # oracle-compare solves on nx and 2nx - 1 nodes, and x = 0.5 is a node of the second
    path = write(tmp_path, "zero.txt", COARSE_ZERO_CONTINUITY_SRC)
    assert cli.main(["run", path, "--mode", "simulate", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for mode in ("certify", "oracle-compare"):
        assert cli.main(["run", path, "--mode", mode, "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "FieldValidationError",
            "messages": ["initial density must be positive on the grid"]}


def _two_solve_run(sc):
    grid = sc.grid()
    if sc.problem == "transport":
        return reference_forms.transport_run(transport_problem(sc), grid)
    if sc.problem == "continuity":
        return reference_forms.continuity_run(sc.rho_s, *continuity_data(sc), grid)
    return reference_forms.manufacturing_run(
        simulate_closed_loop(production_scenario(sc), sc.horizon, grid))


@pytest.mark.parametrize("src", [TRANSPORT_SRC, CONTINUITY_SRC, EVEN_CONTINUITY_SRC,
                                 MANUFACTURING_SRC],
                         ids=["transport", "continuity", "even_continuity", "manufacturing"])
def test_certificates_equal_those_of_a_solve_per_grid(tmp_path, src):
    sc = load_scenario(write(tmp_path, "s.txt", src))
    runs = trajectory_run(sc), _two_solve_run(sc)
    assert np.array_equal(runs[0].state_coarse.values, runs[1].state_coarse.values)
    for est in sc.estimates:
        got, expected = (certify(run, est, sc.p, sc.mu) for run in runs)
        assert len(got) == len(expected) == len(sc.p) * len(sc.mu)
        for a, b in zip(got, expected):
            assert (a.estimate_id, a.p, a.mu, a.passed) == (b.estimate_id, b.p, b.mu, b.passed)
            for key in ("times", "lhs", "rhs", "margin", "valid", "slack",
                        "coefficient_factored", "coefficient_unfactored"):
                assert np.array_equal(getattr(a, key), getattr(b, key), equal_nan=True)


@pytest.mark.parametrize("mode", ["simulate", "certify"])
@pytest.mark.parametrize("src", [TRANSPORT_SRC, CONTINUITY_SRC], ids=["transport", "continuity"])
def test_an_overflowing_speed_reports_json_without_warning(tmp_path, capfd, src, mode):
    # x*1e200*1e200 overflows in numpy's multiply while the file is read
    src = src.replace(src.splitlines()[1], 'v = "1 + x*1e200*1e200"')
    path = write(tmp_path, "fast.txt", src)
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        rc = cli.main(["run", path, "--mode", mode, "--out", str(tmp_path)])
    assert rc == 2
    assert [str(w.message) for w in warned] == []
    captured = capfd.readouterr()
    assert json.loads(captured.out) == {
        "error": "ScenarioError", "messages": ["v: velocity is not finite on the grid"]}
    assert captured.err == ""


def test_certify_equilibrium_margins_are_zero(tmp_path):
    # state pinned at the setpoint: both sides of every bound vanish
    src = """\
problem = continuity
rho_s = 1.0
v = "1"
b = "0"
rho0 = "1"
nx = 200
dt = 0.002
horizon = 2
p = 2, inf
mu = 0.5
"""
    path = write(tmp_path, "eq.txt", src)
    rc = cli.main(["run", path, "--mode", "certify", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "eq_cert.csv")
    assert rows and all(abs(float(r[6])) <= 1e-9 for r in rows)


def test_bad_scenario_reports_json(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "problem = continuity\nv = 3\n")
    rc = cli.main(["run", path, "--out", str(tmp_path)])
    assert rc == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "ScenarioError"
    assert any("quoted" in m for m in report["messages"])
    assert any("missing grid keys" in m for m in report["messages"])


def test_p_of_one_reports_json(tmp_path, capsys):
    # the norms need p > 1: p = 1 must stop at validation, not in certify
    path = write(tmp_path, "p1.txt", CONTINUITY_SRC.replace("p = 2, inf", "p = 1"))
    rc = cli.main(["run", path, "--mode", "certify", "--out", str(tmp_path)])
    assert rc == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "ScenarioError"
    assert any("p values must exceed 1" in m for m in report["messages"])


@pytest.mark.parametrize("p", ["2", "inf"])
def test_overflowing_gain_reports_json(tmp_path, capsys, p):
    # a slow speed above the positivity floor: the gains exp(.../vmin)
    # overflow a float, which is an input error, not an infinite bound
    src = (CONTINUITY_SRC.replace('v = "1 + 0.1*cos(pi*x)"', 'v = "1e-8 + 0*x"')
           .replace("p = 2, inf", f"p = {p}"))
    path = write(tmp_path, "slow.txt", src)
    rc = cli.main(["run", path, "--mode", "certify", "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["error"] == "EstimateValidityError"
    assert "mu=0.3" in report["messages"][0]
    assert "overflows" in report["messages"][0]
    assert "Traceback" not in captured.err
    assert not (tmp_path / "slow_cert.csv").exists()


def test_huge_p_reports_json_as_a_float(tmp_path, capsys):
    # p = 1e308 overflows the boundary gain; the report spells p as a float
    src = CONTINUITY_SRC.replace("p = 2, inf", "p = 1e308")
    path = write(tmp_path, "hugep.txt", src)
    rc = cli.main(["run", path, "--mode", "certify", "--out", str(tmp_path)])
    assert rc == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "EstimateValidityError"
    assert "p=1e+308" in report["messages"][0]


OVERFLOWING_NORM = """\
v = "1 + 0.2*x"
b = "1e300*t"
nx = 21
dt = 0.02
horizon = 0.4
p = 2
mu = 0.5
"""


@pytest.mark.parametrize("src,estimate", [
    ("problem = continuity\nrho0 = \"1\"\nrho_s = 1\nestimates = E2.4\n", "E2.4"),
    ("problem = transport\nphi = \"0\"\nestimates = E2.10\n", "E2.10"),
], ids=["continuity", "transport"])
def test_overflowing_state_norm_reports_json(tmp_path, capsys, src, estimate):
    # the state is finite (about 1e298) but its square is not: an input
    # error, not a failed certificate with an infinite left-hand side
    path = write(tmp_path, "huge.txt", src + OVERFLOWING_NORM)
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        rc = cli.main(["run", path, "--mode", "certify", "--out", str(tmp_path)])
    assert rc == 2
    assert [str(w.message) for w in warned] == []
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["error"] == "EstimateValidityError"
    assert report["messages"] == [f"{estimate} at p=2, t=0.02: the state norm overflows"]
    assert "Traceback" not in captured.err
    assert sorted(os.listdir(tmp_path)) == ["huge.txt"]


def test_overflowing_density_reports_json_without_warning(tmp_path, capfd):
    # w is finite but rho_s * exp(w) is not: the density check refuses the
    # field, with no overflow warning on stderr before the JSON error
    src = "problem = continuity\nrho0 = \"1\"\nrho_s = 1\n" + OVERFLOWING_NORM
    path = write(tmp_path, "dense.txt", src)
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        rc = cli.main(["run", path, "--mode", "simulate", "--out", str(tmp_path)])
    assert rc == 2
    assert [str(w.message) for w in warned] == []
    captured = capfd.readouterr()
    report = json.loads(captured.out)
    assert report["error"] == "FieldValidationError"
    assert report["messages"] == ["density is not finite at t = 0.02, x = 0.0"]
    assert "RuntimeWarning" not in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_sweep_count_below_one_reports_json(tmp_path, capsys, count):
    path = write(tmp_path, "none.txt", TRANSPORT_SRC + f"count = {count}\n")
    rc = cli.main(["run", path, "--mode", "sweep", "--seed", "5", "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["error"] == "ScenarioError"
    assert report["messages"] == [f"count must be at least 1; got {count}"]
    assert "Traceback" not in captured.err
    assert sorted(os.listdir(tmp_path)) == ["none.txt"]


@pytest.mark.parametrize("mode", ["simulate", "oracle-compare"])
def test_non_finite_field_reports_json(tmp_path, capsys, mode):
    # + - * overflow to inf silently: the solve must refuse, not write inf rows
    src = (TRANSPORT_SRC.replace('phi = "0.3*exp(-x)"', 'phi = "x*1e200*1e200"')
           .replace("nx = 151", "nx = 51"))
    path = write(tmp_path, "inf.txt", src)
    with np.errstate(over="ignore"):
        rc = cli.main(["run", path, "--mode", mode, "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["error"] == "FieldValidationError"
    assert report["messages"] == ["solution is not finite at t = 0.0, x = 0.02"]
    assert "Traceback" not in captured.err
    assert sorted(os.listdir(tmp_path)) == ["inf.txt"]


def test_infinite_speed_reports_json(tmp_path, capsys):
    # an infinite speed used to reach the CFL step count as inf and end in
    # an OverflowError traceback
    src = TRANSPORT_SRC.replace('v = "1 + 0.2*sin(pi*x)"', 'v = "1 + x*1e200*1e200"')
    path = write(tmp_path, "fast.txt", src)
    with np.errstate(over="ignore"):
        rc = cli.main(["run", path, "--mode", "oracle-compare", "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["error"] == "ScenarioError"
    assert report["messages"] == ["v: velocity is not finite on the grid"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("mode,src,message", [
    ("simulate", TRANSPORT_SRC.replace("horizon = 0.8", "horizon = nan"),
     "grid: dt and horizon must be finite"),
    ("simulate", TRANSPORT_SRC.replace("horizon = 0.8", "horizon = inf"),
     "grid: dt and horizon must be finite"),
    ("certify", CONTINUITY_SRC.replace("mu = 0.3", "mu = nan"),
     "mu values must be finite; got nan"),
    ("certify", CONTINUITY_SRC.replace("p = 2, inf", "p = nan"),
     "p values must exceed 1 or be inf; got nan"),
    ("experiments", TRANSPORT_SRC + "theta = 2\n",
     "theta values must lie in (0, 1); got 2"),
    ("certify", CONTINUITY_SRC.replace("mu = 0.3", "mu = -1"),
     "mu = -1 is admissible for E2.4 on no data"),
], ids=["horizon-nan", "horizon-inf", "mu-nan", "p-nan", "theta-2", "mu-negative"])
def test_out_of_range_scenario_values_report_json(tmp_path, capsys, mode, src, message):
    path = write(tmp_path, "probe.txt", src)
    rc = cli.main(["run", path, "--mode", mode, "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["error"] == "ScenarioError"
    assert message in report["messages"]
    assert "Traceback" not in captured.err
    assert sorted(os.listdir(tmp_path)) == ["probe.txt"]


def test_oracle_compare_writes_nothing_when_the_fine_grid_fails(tmp_path, capsys):
    # phi is finite on the 40 nodes but not at x = 0.5, a node of the
    # 79-node refinement grid: the error must come before any artifact
    src = ('problem = transport\nv = "1"\nphi = "1/(x - 0.5)"\nb = "-2"\n'
           "nx = 40\ndt = 0.01\nhorizon = 0.2\n")
    path = write(tmp_path, "half.txt", src)
    rc = cli.main(["run", path, "--mode", "oracle-compare", "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report == {"error": "ExpressionDomainError", "messages": ["division by zero"]}
    assert "Traceback" not in captured.err
    assert sorted(os.listdir(tmp_path)) == ["half.txt"]


def test_missing_file_reports_json(tmp_path, capsys):
    rc = cli.main(["run", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"] == "FileNotFoundError"


def test_oracle_and_sweep_reject_manufacturing(tmp_path, capsys):
    path = write(tmp_path, "line.txt", MANUFACTURING_SRC)
    for mode in ("oracle-compare", "sweep"):
        rc = cli.main(["run", path, "--mode", mode, "--out", str(tmp_path)])
        assert rc == 2
        report = json.loads(capsys.readouterr().out)
        assert mode.split("-")[0] in report["messages"][0]


def test_failed_verdict_exits_one(tmp_path, monkeypatch):
    path = write(tmp_path, "demo.txt", TRANSPORT_SRC)
    monkeypatch.setattr(cli, "_mode_certify", lambda sc, out: ([], False))
    rc = cli.main(["run", path, "--mode", "certify", "--out", str(tmp_path)])
    assert rc == 1


def test_out_env_var_is_default(tmp_path, monkeypatch):
    target = tmp_path / "artifacts"
    monkeypatch.setenv("TRANSPORTLAB_OUT", str(target))
    path = write(tmp_path, "demo.txt", TRANSPORT_SRC)
    rc = cli.main(["run", path, "--mode", "simulate"])
    assert rc == 0
    assert (target / "demo_field.csv").exists()


def test_unknown_mode_rejected(tmp_path):
    path = write(tmp_path, "demo.txt", TRANSPORT_SRC)
    with pytest.raises(SystemExit):
        cli.main(["run", path, "--mode", "bogus"])


def test_nan_and_inf_serialize_plainly(tmp_path):
    # inadmissible mu rows must print as plain 'nan', p = inf as 'inf'; a
    # reaction of -5 makes mu = 0.5 inadmissible on this data at every time
    src = (TRANSPORT_SRC.replace('a = "-0.1"', 'a = "-5"')
           .replace("estimates = E2.10", "estimates = E2.10, E2.11")
           .replace("p = 2", "p = 2, inf"))
    path = write(tmp_path, "tight.txt", src)
    rc = cli.main(["run", path, "--mode", "certify", "--out", str(tmp_path)])
    assert rc == 0  # vacuous: no admissible time, nothing violated
    _, rows = read_csv(tmp_path / "tight_cert.csv")
    assert {r[1] for r in rows} == {"2", "inf"}
    assert all(r[5] == "nan" and r[6] == "nan" for r in rows)
    report = json.loads((tmp_path / "tight_cert.json").read_text())
    for v in report["verdicts"]:
        assert v["passed"] is True
        assert v["all_valid"] is False
        assert v["min_margin"] is None
        assert not any(v["mu_valid"])


# -- artifact format ---------------------------------------------------------

@pytest.mark.parametrize("src,kind", [(CONTINUITY_SRC, "rho"), (TRANSPORT_SRC, "w")])
def test_field_csv_matches_the_per_value_form(tmp_path, src, kind):
    state = simulation(load_scenario(write(tmp_path, "s.txt", src))).state
    assert state.kind == kind
    assert "\n".join(cli._field_lines(state)) == \
        "\n".join(reference_forms.field_lines(state))


def test_certificate_csv_matches_the_per_value_form(tmp_path):
    sc = load_scenario(write(tmp_path, "dens.txt", CONTINUITY_SRC))
    certs = cli._certificates(sc)
    assert "\n".join(cli._cert_lines(certs)) == "\n".join(reference_forms.cert_lines(certs))


def test_csv_writers_format_edge_values_as_the_per_value_form():
    edge = np.array([-0.0, 5e-324, 1e-05, 1e16, 1e22])
    state = SimpleNamespace(kind="w", times=edge[[0, 2, 4]], xs=edge,
                            values=np.array([edge, -edge[::-1], edge * 3.0]))
    assert "\n".join(cli._field_lines(state)) == \
        "\n".join(reference_forms.field_lines(state))
    rhs = np.array([math.nan, 5e-324, math.nan, -0.0, 1e22])
    certs = [BoundCertificate(
        estimate_id=est, p=p, mu=mu, times=edge, lhs=edge[::-1], rhs=rhs,
        margin=rhs - edge[::-1], valid=~np.isnan(rhs), slack=edge, coefficient_factored=rhs,
        coefficient_unfactored=rhs, passed=True)
        for est, p, mu in [("E2.4", 2, 1e-05), ("E2.5", math.inf, 1e22), ("E2.4", 1.5, -0.0)]]
    assert "\n".join(cli._cert_lines(certs)) == "\n".join(reference_forms.cert_lines(certs))


# -- hostile files -----------------------------------------------------------
# Grids stay small (nx <= 21, nt <= 40) or invalid: with no node budget yet, a
# tiny dt or a huge horizon would only exhaust memory, so neither is drawn.

_HOSTILE = ["nan", "inf", "-inf", "-1", "0", "1e308"]
_DATA = {
    "continuity": CONTINUITY_SRC.splitlines()[:4],
    "transport": TRANSPORT_SRC.splitlines()[:6],
    # rho_s is one of the drawn keys
    "manufacturing": [line for line in MANUFACTURING_SRC.splitlines()[:5]
                      if not line.startswith("rho_s")],
}


# the numeric keys each mode reads: a hostile value in any other key would
# stop the draw at validation, before the mode's own work
_READS = {"simulate": ("nx", "dt", "horizon", "rho_s"),
          "oracle-compare": ("nx", "dt", "horizon", "rho_s"),
          "certify": ("nx", "dt", "horizon", "rho_s", "p", "mu"),
          "experiments": ("nx", "dt", "horizon", "rho_s", "p", "mu", "theta"),
          "sweep": ("nx", "dt", "horizon", "p", "mu", "count")}
_EXPR_VARS = {"v": ("t", "x"), "a": ("t", "x"), "f": ("t", "x"),
              "phi": ("x",), "rho0": ("x",), "b": ("t",)}
_FUNCS = ("exp", "ln", "sin", "cos", "sqrt", "abs")


def _reusing_text(variables):
    """Expression text that uses one drawn subtree more than once."""
    sub = st.recursive(
        st.sampled_from(list(variables) + ["0.5", "2", "-1", "1e300"]),
        lambda c: st.one_of(
            st.tuples(c, st.sampled_from("+-*/^"), c).map(lambda p: f"({' '.join(p)})"),
            st.tuples(st.sampled_from(_FUNCS), c).map(lambda p: f"{p[0]}({p[1]})")),
        max_leaves=4)
    return st.tuples(sub, st.sampled_from(_FUNCS), st.sampled_from("+-*/^")).map(
        lambda p: f"{p[1]}({p[0]}) {p[2]} {p[0]}")


@st.composite
def _hostile_files(draw):
    """A mode, and a valid small file in which a few numeric keys that the
    mode reads take hostile values (a hostile list key mixes them with valid
    entries); in half the draws one data expression is replaced by text that
    reuses a subtree.  A replaced speed is 1 + 0.25 sin(...), at most 1.25,
    so the oracle's CFL grid stays small."""
    mode = draw(st.sampled_from(sorted(_READS)))
    problem = draw(st.sampled_from(sorted(_DATA)))
    dt = draw(st.sampled_from([0.01, 0.02, 0.05]))
    keys = {"nx": str(draw(st.integers(2, 21))), "dt": repr(dt),
            "horizon": repr(draw(st.integers(1, 40)) * dt),
            "rho_s": draw(st.sampled_from(["1.0", "2.5"])),
            "p": draw(st.sampled_from(["2", "4", "inf", "2, inf"])),
            "mu": draw(st.sampled_from(["0.1", "0.5", "0.1, 1.0"])),
            "theta": "0.5", "count": "2"}
    reads = [k for k in _READS[mode] if not (k == "rho_s" and problem == "transport")]
    for key in draw(st.sets(st.sampled_from(reads), max_size=3)):
        if key in ("nx", "dt", "horizon"):
            keys[key] = draw(st.sampled_from(["nan", "inf", "-1", "0"]))
        elif key in ("p", "mu", "theta"):
            items = draw(st.lists(st.sampled_from(_HOSTILE), min_size=1, max_size=2))
            keys[key] = ", ".join(draw(st.permutations(items + [keys[key]])))
        else:
            keys[key] = draw(st.sampled_from(_HOSTILE))
    lines = list(_DATA[problem])
    if draw(st.booleans()):
        i = draw(st.sampled_from([i for i, line in enumerate(lines)
                                  if line.split(" =")[0] in _EXPR_VARS]))
        key = lines[i].split(" =")[0]
        text = draw(_reusing_text(_EXPR_VARS[key]))
        if key == "v":
            text = f"1 + 0.25*sin({text})"
        lines[i] = f'{key} = "{text}"'
    return mode, "\n".join(lines + [f"{k} = {v}" for k, v in keys.items()]) + "\n"


@settings(max_examples=200, deadline=None)
@given(_hostile_files())
def test_hostile_files_reach_one_defined_outcome(case):
    mode, src = case
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "hostile.txt")
        with open(path, "w") as fh:
            fh.write(src)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(["run", path, "--mode", mode, "--out", out])
        assert rc in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        if rc == 2:
            assert "error" in json.loads(stdout.getvalue().splitlines()[-1])
        if rc == 1 and mode == "sweep":
            _, rows = read_csv(os.path.join(out, "hostile_sweep.csv"))
            assert "0" in [row[4] for row in rows]
        elif rc == 1:  # else only a certificate can fail
            with open(os.path.join(out, "hostile_cert.json")) as fh:
                assert json.load(fh)["passed"] is False
        if rc == 0 and mode == "simulate":
            _, rows = read_csv(os.path.join(out, "hostile_field.csv"))
            assert np.isfinite(np.array(rows, dtype=float)).all()


def test_artifact_compare_reports_how_far_values_moved(tmp_path):
    import cli_artifacts

    base, head = tmp_path / "base", tmp_path / "head"
    files = {"s/simulate/f.csv": ("t,x,rho\n0.0,0.0,1.0\n0.0,0.5,2.0\n",
                                  "t,x,rho\n0.0,0.0,1.0000000000000002\n0.0,0.5,-0.0\n"),
             "s/sweep/w.csv": ("index,passed\n0,1\n", "index,passed\n0,0\n"),
             "s/certify/c.json": ('{"passed": true, "m": [0.5, 1]}',
                                  '{"passed": true, "m": [0.5, 1.5]}'),
             "s/certify.out": ("exit 0\nverdict: pass\n", "exit 1\nverdict: fail\n"),
             "s/same.txt": ("a\n", "a\n")}
    for name, texts in files.items():
        for root, text in zip((base, head), texts):
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
    (base / "s/gone.out").write_text("exit 0\n")
    assert cli_artifacts.compare(str(base), str(head)) == [
        "s/certify.out: 2 of 2 values differ\n  exit: 0 -> 1\n  verdict: pass -> fail",
        "s/certify/c.json: 1 of 3 values differ; largest change 0.5 absolute, 0.333 relative",
        "s/gone.out: only in base",
        "s/simulate/f.csv: 2 of 6 values differ; largest change 2 absolute, 1 relative",
        "s/sweep/w.csv: 1 of 2 values differ\n  0/passed: 1 -> 0",
    ]
    assert cli_artifacts.compare(str(base), str(base)) == ["no artifact differs"]
