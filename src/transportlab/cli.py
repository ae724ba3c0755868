"""Scenario-file runner: simulate, certify, compare to the oracle, experiment.

One verb: ``transportlab run <scenario-file> --mode <mode> [--seed N]
[--out DIR]``.  Artifacts are CSV/JSON files named after the scenario, written
to ``--out`` (default: $TRANSPORTLAB_OUT or the working directory).  Floats
are printed with ``repr``, the shortest decimal that round-trips, so reruns
are byte-identical; CSV is long-form, one sample per row.

Exit status: 0 when every verdict passed (or the mode has none), 1 when a
certificate failed, 2 on errors — with a machine-readable JSON error report
on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
from itertools import chain
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from .bounds import (EstimateValidityError, bias_experiment,
                     canonical_estimate, certify)
from .characteristics import CharacteristicsError
from .continuity import log_state_problem
from .expr import ExpressionError
from .fields import FieldValidationError, Grid, row_blocks
from .manufacturing import ManufacturingError
from .norms import lp_norm_rows
from .oracle import OracleError, upwind_solve
from .scenarios import (Scenario, ScenarioError, continuity_data, load_scenario,
                        random_continuity_scenario, random_transport_scenario,
                        simulation, trajectory_run, transport_problem)
from .transport import solve_field

__all__ = ["main", "run_mode"]

_MODES = ("simulate", "certify", "oracle-compare", "experiments", "sweep")


def _fmt(x) -> str:
    return repr(float(x))


def _fmt_p(p) -> str:
    return "inf" if p == math.inf else repr(p) if isinstance(p, int) else _fmt(p)


def _write(path: str, lines: Iterable[str]):
    """Write the lines as they come, each ended by a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _field_lines(state) -> Iterator[str]:
    """The field CSV, one string of lines per grid time."""
    yield f"t,x,{'rho' if state.kind == 'rho' else 'w'}"
    xs = [repr(x) + "," for x in state.xs.tolist()]
    # one row at a time becomes Python floats, so peak memory stays that of the field
    for t, row in zip(state.times.tolist(), state.values):
        pre = repr(t) + ","
        yield pre + ("\n" + pre).join(map(operator.add, xs, map(repr, row.tolist())))


def _mode_simulate(sc: Scenario, out: str) -> Tuple[List[str], bool]:
    sim = simulation(sc)
    files = [os.path.join(out, f"{sc.name}_field.csv")]
    _write(files[0], _field_lines(sim.state))
    if sim.closed_loop is not None:
        run = sim.closed_loop
        files.append(os.path.join(out, f"{sc.name}_loop.csv"))
        _write(files[1], chain(
            ["t,W,v,u"],
            (f"{_fmt(t)},{_fmt(w)},{_fmt(v)},{_fmt(u)}"
             for t, w, v, u in zip(run.times, run.w_trace,
                                   run.v_values, run.u_trace))))
    return files, True


def _certificates(sc: Scenario):
    run = trajectory_run(sc)
    # one family may be listed under both its finite-p and sup ids; each
    # certify call already spans all requested p, so run each family once
    families = list(dict.fromkeys(canonical_estimate(e) for e in sc.estimates))
    return [cert for est in families
            for cert in certify(run, est, sc.p, sc.mu)]


def _cert_lines(certs) -> Iterator[str]:
    yield "estimate,p,mu,t,lhs,rhs,margin"
    for c in certs:  # one string of lines per certificate
        head = f"{c.estimate_id},{_fmt_p(c.p)},{_fmt(c.mu)},"
        cols = (map(repr, a.tolist()) for a in (c.times, c.lhs, c.rhs, c.margin))
        yield head + ("\n" + head).join(map(",".join, zip(*cols)))


def _mode_certify(sc: Scenario, out: str) -> Tuple[List[str], bool]:
    certs = _certificates(sc)
    csv_path = os.path.join(out, f"{sc.name}_cert.csv")
    _write(csv_path, _cert_lines(certs))

    verdicts = []
    for c in certs:
        mm = c.min_margin
        verdicts.append({
            "estimate": c.estimate_id, "p": _fmt_p(c.p), "mu": c.mu,
            "passed": bool(c.passed),
            "min_margin": float(mm) if math.isfinite(mm) else None,
            "all_valid": bool(c.all_valid),
            "mu_valid": [bool(v) for v in c.valid],
        })
    passed = all(c.passed for c in certs)
    json_path = os.path.join(out, f"{sc.name}_cert.json")
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"scenario": sc.name, "passed": passed,
                   "verdicts": verdicts}, fh, indent=2)
        fh.write("\n")
    return [csv_path, json_path], passed


def _oracle_problem(sc: Scenario, nxs: Tuple[int, ...]):
    """The problem to solve on grids of ``nxs`` nodes; a continuity file's
    rho0 is checked on the nodes of each, as certify checks it."""
    if sc.problem == "transport":
        return transport_problem(sc)
    if sc.problem == "continuity":
        rho0, b, v = continuity_data(sc)
        problem = log_state_problem(sc.rho_s, rho0, b, v)
        for nx in nxs:
            rho0.validate_positive(np.linspace(0.0, 1.0, nx))
        return problem
    raise ScenarioError(["oracle-compare applies to transport and "
                         "continuity scenarios"])


def _cfl_grid(problem, nx: int, horizon: float, cfl: float = 0.5) -> Grid:
    probe = Grid(nx, horizon / max(2, round(horizon / 0.01)), horizon)
    vmax = max(0.0, *(float(np.max(block)) for _, block in row_blocks(problem.v, probe)))
    dx = 1.0 / (nx - 1)
    steps = max(1, math.ceil(horizon * vmax / (cfl * dx)))
    return Grid(nx, horizon / steps, horizon)


def _mode_oracle(sc: Scenario, out: str) -> Tuple[List[str], bool]:
    nx2 = 2 * sc.nx - 1
    problem = _oracle_problem(sc, (sc.nx, nx2))
    grid = _cfl_grid(problem, sc.nx, sc.horizon)
    char = solve_field(problem, grid)
    ora = upwind_solve(problem, grid)
    diff = np.abs(char.values - ora.values)
    per_time = os.path.join(out, f"{sc.name}_oracle.csv")
    _write(per_time, chain(
        ["t,max_abs,l2"],
        (f"{_fmt(t)},{_fmt(row.max())},{_fmt(l2)}"
         for t, row, l2 in zip(grid.times, diff, lp_norm_rows(diff, grid.xs, 2)))))

    err1 = float(diff[-1].max())
    grid2 = _cfl_grid(problem, nx2, sc.horizon)
    diff2 = np.abs(solve_field(problem, grid2).values
                   - upwind_solve(problem, grid2).values)
    err2 = float(diff2[-1].max())
    refine = ["nx,max_abs,ratio",
              f"{sc.nx},{_fmt(err1)},",
              f"{nx2},{_fmt(err2)},{_fmt(err1 / err2)}"]
    refine_path = os.path.join(out, f"{sc.name}_refine.csv")
    _write(refine_path, refine)
    return [per_time, refine_path], True


def _mode_experiments(sc: Scenario, out: str) -> Tuple[List[str], bool]:
    files = []
    finite_ps = [p for p in sc.p if p != math.inf and p > 1]
    if sc.theta and finite_ps:
        lines = ["theta,p,gamma1,gamma2,richardson1,richardson2,"
                 "measured_gain1,measured_gain2"]
        for theta in sc.theta:
            for p in finite_ps:
                rep = bias_experiment(theta, p)
                lines.append(
                    f"{_fmt(theta)},{_fmt_p(p)},{_fmt(rep.gamma1)},"
                    f"{_fmt(rep.gamma2)},{_fmt(rep.richardson1)},"
                    f"{_fmt(rep.richardson2)},{_fmt(rep.measured_gain1)},"
                    f"{_fmt(rep.measured_gain2)}")
        path = os.path.join(out, f"{sc.name}_bias.csv")
        _write(path, lines)
        files.append(path)

    certs = _certificates(sc)
    lines = ["estimate,p,mu,coefficient,lhs,rhs,ratio"]
    for c in certs:
        lhs, rhs = float(c.lhs[-1]), float(c.rhs[-1])
        ratio = rhs / lhs if lhs > 0 and math.isfinite(rhs) else math.nan
        lines.append(f"{c.estimate_id},{_fmt_p(c.p)},{_fmt(c.mu)},"
                     f"{_fmt(c.coefficient_factored[-1])},{_fmt(lhs)},"
                     f"{_fmt(rhs)},{_fmt(ratio)}")
    path = os.path.join(out, f"{sc.name}_gain.csv")
    _write(path, lines)
    files.append(path)
    return files, True


def _mode_sweep(sc: Scenario, out: str, seed: int) -> Tuple[List[str], bool]:
    if sc.problem == "continuity":
        gen = random_continuity_scenario
    elif sc.problem == "transport":
        gen = random_transport_scenario
    else:
        raise ScenarioError(["sweep applies to transport and continuity "
                             "scenarios"])
    rng = np.random.default_rng(seed)
    lines = ["index,estimate,p,mu,passed,min_margin"]
    all_pass = True
    for i in range(sc.count):
        draw = gen(rng, nx=sc.nx, dt=sc.dt, horizon=sc.horizon,
                   name=f"{sc.name}-{i}")
        run = trajectory_run(draw)
        for est in draw.estimates:
            for c in certify(run, est, sc.p, sc.mu):
                all_pass = all_pass and c.passed
                mm = c.min_margin
                lines.append(f"{i},{c.estimate_id},{_fmt_p(c.p)},{_fmt(c.mu)},"
                             f"{int(c.passed)},{_fmt(mm)}")
    path = os.path.join(out, f"{sc.name}_sweep.csv")
    _write(path, lines)
    return [path], all_pass


def run_mode(sc: Scenario, mode: str, out: str,
             seed: int = 0) -> Tuple[List[str], bool]:
    """Execute one mode; return (artifact paths, verdict)."""
    os.makedirs(out, exist_ok=True)
    if mode == "simulate":
        return _mode_simulate(sc, out)
    if mode == "certify":
        return _mode_certify(sc, out)
    if mode == "oracle-compare":
        return _mode_oracle(sc, out)
    if mode == "experiments":
        return _mode_experiments(sc, out)
    if mode == "sweep":
        return _mode_sweep(sc, out, seed)
    raise ScenarioError([f"unknown mode {mode!r}"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="transportlab",
        description="Scenario-driven transport/continuity simulation runner")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute one scenario file")
    runp.add_argument("file", help="scenario file (flat key = value lines)")
    runp.add_argument("--mode", choices=_MODES, default="simulate")
    runp.add_argument("--seed", type=int, default=0,
                      help="seed for randomized sweeps")
    runp.add_argument("--out", default=None,
                      help="output directory (default: $TRANSPORTLAB_OUT or .)")
    args = parser.parse_args(argv)

    out = args.out or os.environ.get("TRANSPORTLAB_OUT", ".")
    try:
        # no floating-point warnings for the run: a non-finite value that
        # matters fails a check and is reported as JSON, not on stderr
        with np.errstate(all="ignore"):
            sc = load_scenario(args.file)
            files, passed = run_mode(sc, args.mode, out, args.seed)
    except (ScenarioError, FieldValidationError, ManufacturingError,
            ExpressionError, OracleError, EstimateValidityError,
            CharacteristicsError, OSError) as e:
        messages = getattr(e, "errors", None) or [str(e)]
        print(json.dumps({"error": type(e).__name__, "messages": messages}))
        return 2
    for path in files:
        print(f"wrote {path}")
    print(f"verdict: {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
