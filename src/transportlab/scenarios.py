"""Scenario files: a flat, data-only description of one simulation.

A scenario is a text file of ``key = value`` lines (``#`` starts a comment).
Field definitions are expression strings in the shared grammar, kept quoted so
a file stays portable data rather than code.  ``load_scenario`` parses and
validates in one pass, reporting parse errors with their line number and all
validation failures together.

Recognized keys: ``problem`` (transport | continuity | manufacturing),
``rho_s``, the field expressions ``v``, ``b``, ``rho0``, ``phi``, ``a``,
``f``, ``lambda``, the grid ``nx``, ``dt``, ``horizon``, the certification
lists ``estimates``, ``p``, ``mu``, the experiment selector ``theta``, plus
the optional ``name`` and sweep size ``count`` (at least 1).

The module also hosts the seeded random-scenario generators used by the
sweep mode and the property-test campaigns: low-order trigonometric speeds
bounded inside [0.5, 2] and data whose corner slopes are matched against the
same one-sided differences the compatibility checker uses, so generated
scenarios classify as C1.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Tuple

from .bounds import (_KIND_OF, INF, TrajectoryRun, canonical_estimate,
                     continuity_run, mu_is_valid, transport_run)
from .continuity import solve_continuity
from .expr import ExpressionError, parse
from .fields import (FD_STEP, BoundarySignal, FieldValidationError, Grid,
                     InitialProfile, SpaceTimeField, TransportCoefficients,
                     VelocityField, _one_sided)
from .manufacturing import (ClosedLoopRun, ManufacturingError,
                            ProductionScenario, manufacturing_run,
                            simulate_closed_loop)
from .transport import SolutionField, TransportProblem, solve_field

__all__ = [
    "Scenario",
    "ScenarioError",
    "Simulation",
    "load_scenario",
    "parse_scenario_text",
    "transport_problem",
    "continuity_data",
    "production_scenario",
    "trajectory_run",
    "simulation",
    "random_continuity_scenario",
    "random_transport_scenario",
]

_PROBLEMS = ("transport", "continuity", "manufacturing")
_EXPR_KEYS = {"v": ("t", "x"), "a": ("t", "x"), "f": ("t", "x"),
              "b": ("t",), "rho0": ("x",), "phi": ("x",), "lambda": ("W",)}
_LIST_KEYS = ("estimates", "p", "mu", "theta")
_SCALAR_KEYS = {"rho_s": float, "dt": float, "horizon": float,
                "nx": int, "count": int}
_DEFAULT_ESTIMATE = {"transport": "E2.10", "continuity": "E2.4",
                     "manufacturing": "E3.6"}


class ScenarioError(ValueError):
    """All parse and validation failures of one scenario file, together."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass
class Scenario:
    """One parsed scenario: expressions stay as written, fields built on demand."""

    name: str
    problem: str
    nx: int
    dt: float
    horizon: float
    rho_s: float = 1.0
    v: Optional[str] = None
    b: str = "0"
    rho0: Optional[str] = None
    phi: Optional[str] = None
    a: Optional[str] = None
    f: Optional[str] = None
    lam: Optional[str] = None
    estimates: Tuple[str, ...] = ()
    p: Tuple[float, ...] = (2, 4, INF)
    mu: Tuple[float, ...] = (0.1, 1.0)
    theta: Tuple[float, ...] = (0.25, 0.5, 0.75)
    count: int = 20

    def grid(self) -> Grid:
        return Grid(self.nx, self.dt, self.horizon)


def _parse_value(key: str, value: str, ln: int, errors: list):
    if key in _EXPR_KEYS or key == "name":
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            return value[1:-1]
        if key == "name":
            return value
        errors.append(f"line {ln}: value for {key!r} must be a quoted "
                      "expression string")
        return None
    if key in _SCALAR_KEYS:
        caster = _SCALAR_KEYS[key]
        try:
            return caster(value) if caster is int else float(value)
        except ValueError:
            errors.append(f"line {ln}: {key!r} expects a number, got {value!r}")
            return None
    if key in _LIST_KEYS:
        items = [s.strip() for s in value.split(",") if s.strip()]
        if key == "estimates":
            return tuple(items)
        out = []
        for s in items:
            if s.lower() in ("inf", "infinity"):
                out.append(INF)
                continue
            try:
                x = float(s)
            except ValueError:
                errors.append(f"line {ln}: {key!r} expects numbers, got {s!r}")
                return None
            # an integral float reads as an int where both are exact, 2 for 2.0
            out.append(int(x) if abs(x) < 2**53 and x == int(x) else x)
        return tuple(out)
    if key == "problem":
        return value
    errors.append(f"line {ln}: unknown key {key!r}")
    return None


def parse_scenario_text(text: str, name: str = "scenario") -> Scenario:
    """Parse and validate scenario source; raise ScenarioError listing failures."""
    errors: list = []
    data: dict = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            errors.append(f"line {ln}: expected 'key = value'")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if value and value[0] not in "\"'":
            value = value.split("#", 1)[0].strip()  # trailing comment
        elif value:
            close = value.find(value[0], 1)
            if close >= 0:
                tail = value[close + 1:].strip()
                if tail and not tail.startswith("#"):
                    errors.append(f"line {ln}: unexpected text after the "
                                  f"closing quote: {tail!r}")
                value = value[:close + 1]
        if not key or not value:
            errors.append(f"line {ln}: expected 'key = value'")
            continue
        if key in data:
            errors.append(f"line {ln}: duplicate key {key!r}")
            continue
        parsed = _parse_value(key, value, ln, errors)
        if parsed is not None:
            data[key] = parsed
    return _validate(data, name, errors)


def _validate(data: dict, name: str, errors: list) -> Scenario:
    problem = data.get("problem")
    if problem is None:
        errors.append("missing key 'problem'")
    elif problem not in _PROBLEMS:
        errors.append(f"problem must be one of {', '.join(_PROBLEMS)}; "
                      f"got {problem!r}")
        problem = None

    grid = None
    missing = [k for k in ("nx", "dt", "horizon") if k not in data]
    if missing:
        errors.append("missing grid keys: " + ", ".join(missing))
    else:
        try:
            grid = Grid(data["nx"], data["dt"], data["horizon"])
        except FieldValidationError as e:
            errors.append(f"grid: {e}")

    parsed_exprs = {}
    for key, variables in _EXPR_KEYS.items():
        if key in data:
            try:
                parsed_exprs[key] = parse(data[key], allowed_vars=variables)
            except ExpressionError as e:
                errors.append(f"{key}: {e}")

    required = {"transport": ("v", "phi"), "continuity": ("v", "rho0"),
                "manufacturing": ("lambda", "rho0")}
    if problem:
        for key in required[problem]:
            if key not in data:
                errors.append(f"problem {problem!r} requires key {key!r}")
        for key in ("a", "f"):
            if key in data and problem != "transport":
                errors.append(f"key {key!r} only applies to transport scenarios")
        if problem != "manufacturing" and "lambda" in data:
            errors.append("key 'lambda' only applies to manufacturing scenarios")

        estimates = data.get("estimates", (_DEFAULT_ESTIMATE[problem],))
        for est in estimates:
            try:
                kind = _KIND_OF[canonical_estimate(est)]
            except ValueError as exc:
                errors.append(str(exc))
                continue
            if kind != problem:
                errors.append(f"estimate {est} applies to {kind} scenarios, "
                              f"not {problem}")
            # the most permissive data: mu that fails here fails on every run
            for mu in data.get("mu", ()):
                if math.isfinite(mu) and not mu_is_valid(
                        est, INF, mu, vmin=math.inf, vmax=0.0, a_max=math.inf):
                    errors.append(f"mu = {mu!r} is admissible for {est} "
                                  "on no data")
    else:
        estimates = data.get("estimates", ())

    for p in data.get("p", ()):
        if not p > 1:
            errors.append(f"p values must exceed 1 or be inf; got {p!r}")
    for mu in data.get("mu", ()):
        if not math.isfinite(mu):
            errors.append(f"mu values must be finite; got {mu!r}")
    for theta in data.get("theta", ()):
        if not 0.0 < theta < 1.0:
            errors.append(f"theta values must lie in (0, 1); got {theta!r}")
    if data.get("count", 1) < 1:
        errors.append(f"count must be at least 1; got {data['count']!r}")

    # semantic checks that need the grid
    if grid is not None and problem and not errors:
        if "v" in parsed_exprs:
            try:
                VelocityField.from_expression(parsed_exprs["v"]).validate_positive(grid)
            except FieldValidationError as e:
                errors.append(f"v: {e}")
        if problem == "continuity":
            try:
                InitialProfile.from_expression(parsed_exprs["rho0"]) \
                    .validate_positive(grid.xs)
            except FieldValidationError as e:
                errors.append(f"rho0: {e}")
        if problem == "manufacturing":
            try:
                ProductionScenario(
                    data.get("rho_s", 1.0),
                    InitialProfile.from_expression(parsed_exprs["rho0"]),
                    BoundarySignal.from_expression(parsed_exprs.get("b", "0")),
                    parsed_exprs["lambda"], data["horizon"])
            except ManufacturingError as e:
                errors.append(f"manufacturing data: {e}")

    if errors:
        raise ScenarioError(errors)
    return Scenario(
        name=data.get("name", name), problem=problem,
        nx=data["nx"], dt=data["dt"], horizon=data["horizon"],
        rho_s=data.get("rho_s", 1.0), v=data.get("v"), b=data.get("b", "0"),
        rho0=data.get("rho0"), phi=data.get("phi"), a=data.get("a"),
        f=data.get("f"), lam=data.get("lambda"), estimates=tuple(estimates),
        p=data.get("p", (2, 4, INF)), mu=data.get("mu", (0.1, 1.0)),
        theta=data.get("theta", (0.25, 0.5, 0.75)),
        count=data.get("count", 20))


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario_text(text, name=stem)


# ---------------------------------------------------------------------------
# Scenario -> solver objects
# ---------------------------------------------------------------------------

def transport_problem(sc: Scenario) -> TransportProblem:
    if sc.problem != "transport":
        raise ScenarioError([f"scenario {sc.name!r} is not a transport scenario"])
    coeffs = TransportCoefficients(
        a=SpaceTimeField.from_expression(sc.a) if sc.a else SpaceTimeField.zero(),
        f=SpaceTimeField.from_expression(sc.f) if sc.f else SpaceTimeField.zero())
    return TransportProblem(InitialProfile.from_expression(sc.phi),
                            BoundarySignal.from_expression(sc.b),
                            VelocityField.from_expression(sc.v), coeffs)


def continuity_data(sc: Scenario) -> Tuple[InitialProfile, BoundarySignal,
                                           VelocityField]:
    """The initial density, boundary signal and speed of a continuity scenario."""
    return (InitialProfile.from_expression(sc.rho0),
            BoundarySignal.from_expression(sc.b),
            VelocityField.from_expression(sc.v))


def production_scenario(sc: Scenario) -> ProductionScenario:
    if sc.problem != "manufacturing":
        raise ScenarioError(
            [f"scenario {sc.name!r} is not a manufacturing scenario"])
    return ProductionScenario(sc.rho_s, InitialProfile.from_expression(sc.rho0),
                              BoundarySignal.from_expression(sc.b), sc.lam,
                              sc.horizon)


@dataclass
class Simulation:
    """State field of one run plus, for manufacturing, the loop traces."""

    state: SolutionField
    closed_loop: Optional[ClosedLoopRun] = None


def simulation(sc: Scenario) -> Simulation:
    grid = sc.grid()
    if sc.problem == "transport":
        return Simulation(solve_field(transport_problem(sc), grid))
    if sc.problem == "continuity":
        return Simulation(solve_continuity(sc.rho_s, *continuity_data(sc), grid))
    run = simulate_closed_loop(production_scenario(sc), sc.horizon, grid)
    return Simulation(run.rho, run)


def trajectory_run(sc: Scenario) -> TrajectoryRun:
    grid = sc.grid()
    if sc.problem == "transport":
        return transport_run(transport_problem(sc), grid)
    if sc.problem == "continuity":
        return continuity_run(sc.rho_s, *continuity_data(sc), grid)
    return manufacturing_run(
        simulate_closed_loop(production_scenario(sc), sc.horizon, grid))


# ---------------------------------------------------------------------------
# Seeded random scenarios
# ---------------------------------------------------------------------------

def _random_velocity(rng) -> str:
    # two low-order trig terms around a positive mean: range stays in [0.5, 2]
    c0 = rng.uniform(0.9, 1.6)
    a1 = rng.uniform(0.05, 0.25)
    a2 = rng.uniform(0.0, 0.15)
    k1 = int(rng.integers(1, 3))
    k2 = int(rng.integers(1, 3))
    w1 = rng.uniform(0.5, 2.0)
    w2 = rng.uniform(0.5, 2.0)
    ph = rng.uniform(0.0, 2.0 * math.pi)
    return (f"{c0!r} + {a1!r}*sin({k1}*pi*x + {ph!r})*cos({w1!r}*t)"
            f" + {a2!r}*cos({k2}*pi*x)*sin({w2!r}*t)")


def random_continuity_scenario(rng, nx: int = 400, dt: float = 2.5e-3,
                               horizon: float = 1.5,
                               name: str = "random-continuity") -> Scenario:
    """A smooth density scenario whose corner data are C1-compatible.

    The initial profile's log-slope at x = 0 is solved against the same
    one-sided differences the compatibility checker uses, so the generated
    residuals sit at roundoff rather than truncation level.
    """
    v_expr = _random_velocity(rng)
    rho_s = rng.uniform(0.5, 2.0)
    bc = rng.uniform(-0.3, 0.3)
    beta = rng.uniform(0.0, 0.15)
    gamma = rng.uniform(0.5, 3.0)
    b_expr = f"{bc!r} + {beta!r}*sin({gamma!r}*t)^3"

    v = VelocityField.from_expression(v_expr)
    b = BoundarySignal.from_expression(b_expr)
    h = FD_STEP
    db = _one_sided(b, 0.0)
    dvdx = (float(v(0.0, h)) - float(v(0.0, 0.0))) / h
    s_target = -(db + dvdx) / float(v(0.0, 0.0))
    s0 = math.log1p(s_target * h) / h  # checker's forward difference hits s_target
    q = rng.uniform(-0.4, 0.4)
    rho0_expr = (f"{rho_s * math.exp(bc)!r} * "
                 f"exp({s0!r}*x + {q!r}*x^2*(3 - 2*x))")
    return Scenario(name=name, problem="continuity", nx=nx, dt=dt,
                    horizon=horizon, rho_s=rho_s, v=v_expr, b=b_expr,
                    rho0=rho0_expr, estimates=("E2.4",))


def random_transport_scenario(rng, nx: int = 400, dt: float = 2.5e-3,
                              horizon: float = 1.5,
                              name: str = "random-transport") -> Scenario:
    """A smooth transport scenario with reaction and source, C1 at the corner."""
    v_expr = _random_velocity(rng)
    c = rng.uniform(-0.5, 0.5)
    amp = rng.uniform(0.05, 0.4)
    k = int(rng.integers(1, 4))
    ph = rng.uniform(0.0, 2.0 * math.pi)
    phi_expr = f"{c!r} + {amp!r}*sin({k}*pi*x + {ph!r})"
    a_expr = (f"{rng.uniform(-0.3, 0.3)!r} + "
              f"{rng.uniform(0.0, 0.2)!r}*cos({rng.uniform(0.5, 2.0)!r}*t)"
              f"*sin(pi*x)")
    f_expr = (f"{rng.uniform(-0.3, 0.3)!r}*sin({int(rng.integers(1, 3))}*pi*x)"
              f"*cos({rng.uniform(0.5, 2.0)!r}*t)")

    v = VelocityField.from_expression(v_expr)
    phi = InitialProfile.from_expression(phi_expr)
    af = SpaceTimeField.from_expression(a_expr)
    ff = SpaceTimeField.from_expression(f_expr)
    phi0 = float(phi(0.0))
    dphi = _one_sided(phi, 0.0)
    sb = float(af(0.0, 0.0)) * phi0 + float(ff(0.0, 0.0)) \
        - float(v(0.0, 0.0)) * dphi
    beta = rng.uniform(0.0, 0.15)
    gamma = rng.uniform(0.5, 3.0)
    b_expr = f"{phi0!r} + {sb!r}*t*exp(-t) + {beta!r}*sin({gamma!r}*t)^3"
    return Scenario(name=name, problem="transport", nx=nx, dt=dt,
                    horizon=horizon, v=v_expr, b=b_expr, phi=phi_expr,
                    a=a_expr, f=f_expr, estimates=("E2.10",))
