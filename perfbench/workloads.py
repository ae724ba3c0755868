"""The three workloads: how each drives the package, and what it checks.

A workload writes its seeded inputs once (``__init__``, part of set-up),
then runs scenario ``i`` of its round on request.  ``run`` returns the
scenario's wall time, its operation counts and what the output checks need;
the checks run after the timed rounds, on the first round's outputs, and
every later round must reproduce those outputs exactly.

The program is reached only through module attributes looked up at call
time (``tl.cli.main``, ``tl.solve_point``, ...), so the tracer's wrappers see
the benchmark's calls the same way they see the program's own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Any, List

import numpy as np

import checks
import gen


@dataclass
class Outcome:
    """One scenario run: wall time, operations, and what the checks read."""

    seconds: float
    nodes: int
    attempted: int
    failed: int
    data: Any
    digest: str = ""


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str) and os.path.isfile(part):
            with open(part, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
        elif isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _failure(what: str):
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    name = ""

    def __init__(self, tl, seed: int, workdir: str):
        self.tl = tl
        self.workdir = workdir
        self.specs: List = []

    def __len__(self) -> int:
        return len(self.specs)

    def _cli(self, path: str, mode: str, out: str):
        """One in-process ``transportlab run``; its printed lines are kept apart."""
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                status = self.tl.cli.main(["run", path, "--mode", mode, "--out", out])
        except Exception:  # an operation that raised counts as failed
            _failure(f"{mode} {path}")
            status = None
        # the printed paths name the round's directory; outputs compare across rounds
        return status, buf.getvalue().replace(out, "<out>")

    def _write_inputs(self):
        self.files = []
        for spec in self.specs:
            path = os.path.join(self.workdir, f"{spec.name}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(spec.text())
            self.files.append(path)


class ContinuityCertify(Workload):
    """Continuity scenario files through ``transportlab run`` simulate + certify."""

    name = "continuity_certify"

    def __init__(self, tl, seed, workdir):
        super().__init__(tl, seed, workdir)
        self.specs = gen.continuity_specs(seed)
        self._write_inputs()

    def run(self, i: int, out: str) -> Outcome:
        spec, path = self.specs[i], self.files[i]
        t0 = perf_counter()
        sim = self._cli(path, "simulate", out)
        cert = self._cli(path, "certify", out)
        seconds = perf_counter() - t0
        failed = sum(status is None or status == 2 for status, _ in (sim, cert))
        stem = os.path.join(out, spec.name)
        files = [stem + "_field.csv", stem + "_cert.csv", stem + "_cert.json"]
        return Outcome(seconds, spec.nodes, 2, failed, (sim, cert, files),
                       _digest(sim, cert, *files))

    def check(self, i: int, outcome: Outcome):
        spec = self.specs[i]
        (sim_status, sim_out), (cert_status, cert_out), files = outcome.data
        checks.check_exit_status(sim_status, sim_out)
        checks.check_exit_status(cert_status, cert_out)
        times, xs, rho = checks.read_field(files[0])
        checks.check_positive(rho)
        checks.check_inflow(times, rho, spec.rho_s, spec.b_fn())
        checks.check_mass_balance(times, xs, rho, spec.v_fn())
        if spec.affine is not None:
            checks.check_closed_form(times, xs, rho, spec.exact)
        checks.check_cert_lhs(checks.read_cert(files[1]), times, xs, rho, spec.rho_s)
        checks.check_cert_json(files[2], len(gen.CONTINUITY_P) * len(gen.CONTINUITY_MU))


class TransportOracle(Workload):
    """Transport scenarios with a known exact solution: oracle-compare, then
    ``solve_point`` queries on the scenario's own grid."""

    name = "transport_oracle"

    def __init__(self, tl, seed, workdir):
        super().__init__(tl, seed, workdir)
        self.specs = gen.transport_specs(seed)
        self._write_inputs()

    def run(self, i: int, out: str) -> Outcome:
        spec, path, tl = self.specs[i], self.files[i], self.tl
        t0 = perf_counter()
        status, printed = self._cli(path, "oracle-compare", out)
        problem = tl.TransportProblem(
            tl.InitialProfile.from_expression(spec.phi),
            tl.BoundarySignal.from_expression(spec.b),
            tl.VelocityField.from_expression(spec.v),
            tl.TransportCoefficients(a=tl.SpaceTimeField.from_expression(spec.a),
                                     f=tl.SpaceTimeField.from_expression(spec.f)))
        grid = tl.Grid(spec.nx, spec.dt, spec.horizon)
        values, failed = [], 0
        for t, x in spec.queries:
            try:
                values.append(float(tl.solve_point(problem, grid, t, x)))
            except Exception:  # an operation that raised counts as failed
                _failure(f"solve_point({t!r}, {x!r}) on {spec.name}")
                values.append(float("nan"))
                failed += 1
        seconds = perf_counter() - t0
        failed += status is None or status == 2
        refine = os.path.join(out, f"{spec.name}_refine.csv")
        per_time = os.path.join(out, f"{spec.name}_oracle.csv")
        return Outcome(seconds, spec.nodes, 1 + len(spec.queries), failed,
                       (status, printed, refine, values),
                       _digest(status, printed, refine, per_time, values))

    def check(self, i: int, outcome: Outcome):
        spec = self.specs[i]
        status, printed, refine, values = outcome.data
        checks.check_exit_status(status, printed)
        checks.check_refine_ratio(checks.read_refine_ratio(refine))
        checks.check_points(spec.queries, values, spec.wstar_fn())


class ClosedLoop(Workload):
    """Production lines through the library API: simulate_closed_loop,
    envelope_check, manufacturing_run, certify (E3.6, finite p and inf)."""

    name = "closed_loop"

    def __init__(self, tl, seed, workdir):
        super().__init__(tl, seed, workdir)
        self.specs = gen.closed_loop_specs(seed)

    def run(self, i: int, out: str) -> Outcome:
        spec, tl = self.specs[i], self.tl
        t0 = perf_counter()
        try:
            scenario = tl.ProductionScenario(
                spec.rho_s, tl.InitialProfile.from_expression(spec.rho0),
                tl.BoundarySignal.from_expression(spec.b), spec.lam, spec.horizon)
            run = tl.simulate_closed_loop(scenario, spec.horizon,
                                          tl.Grid(spec.nx, spec.dt, spec.horizon))
            envelope = tl.envelope_check(run)
            certs = tl.certify(tl.manufacturing_run(run), "E3.6",
                               gen.CLOSED_LOOP_P, gen.CLOSED_LOOP_MU)
        except Exception:  # an operation that raised counts as failed
            _failure(f"closed loop {spec.name}")
            return Outcome(perf_counter() - t0, spec.nodes, 1, 1, None, "failed")
        seconds = perf_counter() - t0
        passed = [bool(c.passed) for c in certs]
        arrays = dict(times=run.times, xs=run.rho.xs, rho=run.rho.values,
                      v=run.v_values)
        digest = _digest(*arrays.values(), envelope.ok, passed)
        # keep only what the checks read, on disk, so it adds nothing to peak memory
        path = os.path.join(out, f"{spec.name}.npz")
        np.savez(path, **arrays)
        return Outcome(seconds, spec.nodes, 1, 0, (path, envelope.ok, passed), digest)

    def check(self, i: int, outcome: Outcome):
        spec = self.specs[i]
        path, envelope_ok, passed = outcome.data
        with np.load(path) as saved:
            times, xs, rho, v = (saved[k] for k in ("times", "xs", "rho", "v"))
        checks.check_verdicts(envelope_ok, passed)
        checks.check_loop_speed(xs, rho, v, spec.lam_fn())
        checks.check_envelope(rho, checks.data_envelope(
            spec.rho_s, spec.rho0_fn(), spec.b_fn(), spec.horizon))
        checks.check_loop_mass(times, xs, rho, v)


WORKLOADS = {w.name: w for w in (ContinuityCertify, TransportOracle, ClosedLoop)}
