"""Seeded inputs for the three benchmark workloads.

Everything here is the benchmark's own: expression families, corner
compatibility, closed-form solutions and query points.  The program's
random-scenario generators are deliberately not used, so a change to them
cannot silently change what the benchmark measures.

Each expression is written once as grammar text (what the program reads)
and evaluated by the benchmark through ``numpy_fn``, a direct translation of
that same text to numpy, so the output checks never call the program's
parser or evaluator.  Grid sizes, ``p`` and ``mu`` lists and query counts are
fixed; only coefficients and query positions depend on the seed, which keeps
the work per round the same for every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

# (nx, steps, horizon) of each scenario in one round.  Most scenarios of a
# round share one grid, so the median scenario time pools most samples; one
# grid with more steps and fewer nodes and one with more nodes and fewer
# steps show per-step and per-node costs.
CONTINUITY_GRIDS = ((121, 600, 1.2),) + ((241, 300, 1.2),) * 4 + ((801, 240, 1.2),)
CONTINUITY_P = ("2", "4", "inf")
CONTINUITY_MU = ("0.1", "1.0")
TRANSPORT_GRIDS = ((101, 1500, 1.0),) + ((151, 1000, 1.0),) * 4 + ((201, 600, 1.0),)
TRANSPORT_VMAX = 1.4
# solve_point query times as fractions of the horizon: (boundary side, initial side)
TRANSPORT_QUERY_TIMES = ((0.5, 0.75, 1.0), (0.2, 0.35, 0.5))
CLOSED_LOOP_GRIDS = ((161, 1600, 2.5),) + ((251, 1000, 2.5),) * 4 + ((401, 800, 2.5),)
CLOSED_LOOP_P = (2, math.inf)
CLOSED_LOOP_MU = (0.5, 2.0)

_NUMPY_NAMES = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log,
                "sqrt": np.sqrt, "abs": np.abs, "pi": math.pi, "e": math.e}


def numpy_fn(text: str, variables: Tuple[str, ...]) -> Callable:
    """Evaluate grammar text with numpy (``^`` is the power operator).

    Only text this module writes reaches it.  The grammar's precedence
    (unary minus below ``^``, ``^`` right-associative) is Python's for
    ``**``, and generated text parenthesizes every negative constant.
    """
    code = compile(text.replace("^", "**"), "<expr>", "eval")
    names = {"__builtins__": {}, **_NUMPY_NAMES}

    def fn(*args):
        return eval(code, names, dict(zip(variables, args)))

    return fn


def _n(x: float) -> str:
    """A float as grammar text, parenthesized when negative."""
    x = float(x)
    return f"({x!r})" if x < 0 else repr(x)


def _seeded(seed: int, workload: str) -> np.random.Generator:
    tag = sum(ord(c) * 31 ** i for i, c in enumerate(workload)) % (2 ** 32)
    return np.random.default_rng([seed, tag])


@dataclass
class GridSpec:
    """A scenario's name and its own grid: nx nodes, steps time steps."""

    name: str
    nx: int
    steps: int
    horizon: float

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> int:
        """(nt + 1) * nx, the scenario's share of ``nodes_per_s``."""
        return (self.steps + 1) * self.nx


# ---------------------------------------------------------------------------
# continuity_certify
# ---------------------------------------------------------------------------

@dataclass
class ContinuitySpec(GridSpec):
    """One continuity scenario file and the benchmark's view of its data."""

    rho_s: float
    v: str
    b: str
    rho0: str
    affine: Optional[Tuple[float, float]] = None  # (alpha, beta): v = alpha + beta*x

    def text(self) -> str:
        return "\n".join([
            f"# benchmark scenario {self.name}",
            "problem = continuity",
            f"rho_s = {self.rho_s!r}",
            f'v = "{self.v}"',
            f'b = "{self.b}"',
            f'rho0 = "{self.rho0}"',
            f"nx = {self.nx}",
            f"dt = {self.dt!r}",
            f"horizon = {self.horizon!r}",
            "estimates = E2.4, E2.5",
            f"p = {', '.join(CONTINUITY_P)}",
            f"mu = {', '.join(CONTINUITY_MU)}",
        ]) + "\n"

    def v_fn(self):
        return numpy_fn(self.v, ("t", "x"))

    def b_fn(self):
        return numpy_fn(self.b, ("t",))

    def rho0_fn(self):
        return numpy_fn(self.rho0, ("x",))

    def exact(self, t: float, xs: np.ndarray) -> np.ndarray:
        """Closed-form density for the affine time-invariant speed.

        rho v is constant along a characteristic: rho(t, X) v(X) equals
        rho0(x0) v(x0) for a foot x0 >= 0, and rho_s e^{b(t0)} v(0) for a
        characteristic emitted from the wall at time t0.
        """
        alpha, beta = self.affine
        xs = np.asarray(xs, dtype=float)
        vx = alpha + beta * xs
        x0 = xs * math.exp(-beta * t) + alpha * math.expm1(-beta * t) / beta
        out = np.empty_like(xs)
        inner = x0 >= 0.0
        rho0 = self.rho0_fn()
        out[inner] = rho0(x0[inner]) * (alpha + beta * x0[inner]) / vx[inner]
        t0 = t - np.log1p(beta * xs[~inner] / alpha) / beta
        out[~inner] = self.rho_s * np.exp(self.b_fn()(t0)) * alpha / vx[~inner]
        return out


def _boundary_signal(rng) -> Tuple[str, float]:
    """b(t) = bc + beta sin(gamma t)^3: b'(0) = 0, so only v fixes the slope."""
    bc = rng.uniform(-0.3, 0.3)
    amp = rng.uniform(0.03, 0.15)
    gamma = rng.uniform(0.8, 3.0)
    return f"{_n(bc)} + {amp!r}*sin({gamma!r}*t)^3", bc


def _continuity_spec(rng, name: str, grid, affine: bool) -> ContinuitySpec:
    nx, steps, horizon = grid
    rho_s = rng.uniform(0.6, 1.8)
    b, bc = _boundary_signal(rng)
    if affine:
        alpha = rng.uniform(0.9, 1.4)
        beta = float(rng.choice((-1.0, 1.0))) * rng.uniform(0.15, 0.4)
        v = f"{alpha!r} + {_n(beta)}*x"
        v00, dvdx00 = alpha, beta
    else:
        c0 = rng.uniform(1.0, 1.5)
        a1 = rng.uniform(0.05, 0.25)
        a2 = rng.uniform(0.0, 0.12)
        k1, k2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        w1, w2 = rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5)
        ph = rng.uniform(0.0, 2.0 * math.pi)
        v = (f"{c0!r} + {a1!r}*sin({k1}*pi*x + {ph!r})*cos({w1!r}*t)"
             f" + {a2!r}*cos({k2}*pi*x)*sin({w2!r}*t)")
        v00 = c0 + a1 * math.sin(ph)
        dvdx00 = a1 * k1 * math.pi * math.cos(ph)
    # corner compatibility: rho0(0) = rho_s e^{b(0)} and, since b'(0) = 0,
    # (ln rho0)'(0) = -v_x(0, 0) / v(0, 0)
    s0 = -dvdx00 / v00
    q = rng.uniform(-0.4, 0.4)
    rho0 = (f"{rho_s * math.exp(bc)!r}*exp({_n(s0)}*x"
            f" + {_n(q)}*x^2*(3 - 2*x))")
    return ContinuitySpec(name, nx, steps, horizon, rho_s, v, b, rho0,
                          (alpha, beta) if affine else None)


def continuity_specs(seed: int) -> List[ContinuitySpec]:
    """One round: the grids of CONTINUITY_GRIDS, the first with affine speed."""
    rng = _seeded(seed, "continuity_certify")
    return [_continuity_spec(rng, f"cc{i}", g, affine=(i == 0))
            for i, g in enumerate(CONTINUITY_GRIDS)]


# ---------------------------------------------------------------------------
# transport_oracle
# ---------------------------------------------------------------------------

@dataclass
class TransportSpec(GridSpec):
    """A transport scenario built around a chosen exact solution w*."""

    v: str
    a: str
    f: str
    b: str
    phi: str
    wstar: str
    queries: List[Tuple[float, float]] = field(default_factory=list)

    def text(self) -> str:
        return "\n".join([
            f"# benchmark scenario {self.name}",
            "problem = transport",
            f'v = "{self.v}"',
            f'a = "{self.a}"',
            f'f = "{self.f}"',
            f'b = "{self.b}"',
            f'phi = "{self.phi}"',
            f"nx = {self.nx}",
            f"dt = {self.dt!r}",
            f"horizon = {self.horizon!r}",
        ]) + "\n"

    def wstar_fn(self):
        return numpy_fn(self.wstar, ("t", "x"))


def _transport_spec(rng, name: str, grid) -> TransportSpec:
    nx, steps, horizon = grid
    # v in [c0 - a1, c0 + a1] with c0 + a1 fixed: the oracle's CFL grid, whose
    # step count follows max v, is then the same for every seed; the bounds
    # also place the queries off the separatrix
    a1 = rng.uniform(0.05, 0.25)
    c0 = TRANSPORT_VMAX - a1
    k1, w1 = int(rng.integers(1, 3)), rng.uniform(0.5, 2.0)
    ph = rng.uniform(0.0, 2.0 * math.pi)
    v = f"{c0!r} + {a1!r}*sin({k1}*pi*x + {ph!r})*cos({w1!r}*t)"
    a0, a_amp, a_w = rng.uniform(-0.4, 0.2), rng.uniform(0.0, 0.3), rng.uniform(0.5, 2.0)
    a = f"{_n(a0)} + {a_amp!r}*cos({a_w!r}*t)*sin(pi*x)"
    # w* = c + A sin(k x - om t + ps) + B x t exp(-t)
    c, amp = rng.uniform(-0.5, 0.5), rng.uniform(0.2, 0.8)
    k, om = rng.uniform(1.0, 4.0), rng.uniform(0.5, 3.0)
    ps, bb = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-0.5, 0.5)
    arg = f"({k!r}*x - {om!r}*t + {ps!r})"
    wstar = f"{_n(c)} + {amp!r}*sin{arg} + {_n(bb)}*x*t*exp(-t)"
    w_t = f"(-{amp * om!r})*cos{arg} + {_n(bb)}*x*(1 - t)*exp(-t)"
    w_x = f"{amp * k!r}*cos{arg} + {_n(bb)}*t*exp(-t)"
    f = f"{w_t} + ({v})*({w_x}) - ({a})*({wstar})"
    b = f"{_n(c)} + {amp!r}*sin({ps!r} - {om!r}*t)"        # w*(t, 0)
    phi = f"{_n(c)} + {amp!r}*sin({k!r}*x + {ps!r})"        # w*(0, x)
    spec = TransportSpec(name, nx, steps, horizon, v, a, f, b, phi, wstar)
    vlo, vhi = c0 - a1, c0 + a1
    dt, dx = horizon / steps, 1.0 / (nx - 1)
    # query times are fixed (a query's cost grows with t); positions are seeded
    # nodes on the boundary side (x < vlo t) and the initial side (x > vhi t)
    for frac in TRANSPORT_QUERY_TIMES[0]:
        k = round(frac * steps)
        jmax = int(0.8 * min(1.0, vlo * k * dt) / dx)
        spec.queries.append((k * dt, int(rng.integers(1, jmax + 1)) * dx))
    for frac in TRANSPORT_QUERY_TIMES[1]:
        k = round(frac * steps)
        jmin = int(math.ceil((vhi * k * dt + 0.05) / dx))
        spec.queries.append((k * dt, int(rng.integers(jmin, nx)) * dx))
    return spec


def transport_specs(seed: int) -> List[TransportSpec]:
    rng = _seeded(seed, "transport_oracle")
    return [_transport_spec(rng, f"to{i}", g)
            for i, g in enumerate(TRANSPORT_GRIDS)]


# ---------------------------------------------------------------------------
# closed_loop
# ---------------------------------------------------------------------------

@dataclass
class ClosedLoopSpec(GridSpec):
    """A production line with speed law c/(1 + kW)."""

    rho_s: float
    c: float
    k: float
    rho0: str
    b: str

    @property
    def lam(self) -> str:
        return f"{self.c!r}/(1 + {self.k!r}*W)"

    def lam_fn(self):
        return numpy_fn(self.lam, ("W",))

    def rho0_fn(self):
        return numpy_fn(self.rho0, ("x",))

    def b_fn(self):
        return numpy_fn(self.b, ("t",))


def closed_loop_specs(seed: int) -> List[ClosedLoopSpec]:
    rng = _seeded(seed, "closed_loop")
    out = []
    for i, (nx, steps, horizon) in enumerate(CLOSED_LOOP_GRIDS):
        rho_s = rng.uniform(0.6, 1.4)
        k = rng.uniform(0.3, 1.0)
        c = rng.uniform(1.2, 2.0)
        b, bc = _boundary_signal(rng)
        # rho0'(0) = 0 and b'(0) = 0 make the corner slopes compatible for any lambda
        q = rng.uniform(-0.4, 0.4)
        rho0 = f"{rho_s * math.exp(bc)!r}*exp({_n(q)}*x^2*(3 - 2*x))"
        out.append(ClosedLoopSpec(f"cl{i}", nx, steps, horizon, rho_s, c, k,
                                  rho0, b))
    return out
