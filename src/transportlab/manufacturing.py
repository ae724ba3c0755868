"""Closed-loop production line with an inventory-dependent belt speed.

The line carries a density of work in progress on [0, 1].  A controller
measures the total inventory W(t) = integral of the density and sets the belt
speed v(t) = lam(W(t)), which makes the continuity equation non-local.  On a
short enough time window the induced speed is the unique fixed point of a
contraction G built from the data alone: transporting the window's starting
profile rigidly with a candidate speed, reading the inflow history where the
profile has already run off, and mapping the resulting inventory through lam.
Once v(t) is known the density itself follows from the ordinary continuity
solve with that sampled, spatially uniform speed.

Window length is limited by the contraction bound; longer horizons are
covered by chaining windows, each consuming the exact transported state of
the previous one (no resampling: the state is kept as a composition of the
original data callables).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bounds import TrajectoryRun
from .continuity import density, log_states
from .expr import Expression, parse
from .fields import (FD_STEP, BoundarySignal, Grid, InitialProfile,
                     VelocityField, _filled)
from .norms import cumulative_trapezoid
from .transport import SolutionField

__all__ = [
    "ManufacturingError",
    "ProductionScenario",
    "FixedPointReport",
    "ClosedLoopRun",
    "EnvelopeReport",
    "terminal_time",
    "contraction_window",
    "fixed_point_velocity",
    "simulate_closed_loop",
    "envelope_check",
    "sampled_velocity",
    "manufacturing_run",
]

_RESIDUAL_TOL = 1e-12
_MAX_ITERATIONS = 200
_SAFETY = 1.1  # finite sampling can under-estimate a Lipschitz constant
_ROUNDING_ULPS = 16


class ManufacturingError(ValueError):
    """Scenario data or fixed-point preconditions violated."""


def _samples(fn, pts: np.ndarray) -> np.ndarray:
    return np.asarray(fn(pts), dtype=float) * np.ones_like(pts)


def _fd_max(values: np.ndarray, pts: np.ndarray) -> float:
    if len(pts) < 2:
        return 0.0
    return float(np.max(np.abs(np.diff(values) / np.diff(pts))))


def _one_sided_slope(fn, at: float) -> float:
    # second-order forward difference; stays inside the domain
    h = FD_STEP
    return float(-3.0 * fn(at) + 4.0 * fn(at + h) - fn(at + 2 * h)) / (2 * h)


@dataclass
class ProductionScenario:
    """A production line: setpoint, initial load, inflow uncertainty, speed law.

    ``lam`` maps the inventory W to the belt speed and must stay positive on
    the whole range the state can visit; that range, the speed range it
    induces, and the Lipschitz constants that size the fixed-point window are
    all sampled here once, over ``horizon``, so every later operation works
    from the same recorded envelope.  Construction rejects data that are not
    finite on their range, the inflow density rho_s exp(b) included, and data
    that are incompatible at the inflow corner (value or slope), since the
    closed loop would otherwise start from an inconsistent state.
    """

    rho_s: float
    rho0: InitialProfile
    b: BoundarySignal
    lam: Union[str, Expression]
    horizon: float
    compat_value_tol: float = 1e-8
    compat_slope_tol: float = 1e-6

    def __post_init__(self):
        self.rho_s = float(self.rho_s)
        if not (math.isfinite(self.rho_s) and self.rho_s > 0):
            raise ManufacturingError("setpoint density must be positive and finite")
        self.horizon = float(self.horizon)
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ManufacturingError("horizon must be positive and finite")
        if not isinstance(self.lam, Expression):
            self.lam = parse(self.lam, allowed_vars=("W",))

        xs = np.linspace(0.0, 1.0, 4001)
        r0 = _samples(self.rho0, xs)
        if not np.all(np.isfinite(r0)):
            raise ManufacturingError("initial load is not finite on [0, 1]")
        if not np.all(r0 > 0):
            raise ManufacturingError("initial load must be positive")

        ts = np.linspace(0.0, self.horizon, 20001)
        bv = _samples(self.b, ts)
        if not np.all(np.isfinite(bv)):
            raise ManufacturingError("inflow signal is not finite on the horizon")
        self.b_inf = float(bv.min())
        self.b_sup = float(bv.max())

        inflow = self.rho_s * np.exp(bv)
        if not np.all(np.isfinite(inflow)):
            raise ManufacturingError("inflow density is not finite on the horizon")

        self.l_rho0 = _SAFETY * _fd_max(r0, xs)
        self.l_btilde = _SAFETY * _fd_max(inflow, ts)

        self.rho_min = min(float(r0.min()), self.rho_s * math.exp(self.b_inf))
        self.rho_max = max(float(r0.max()), self.rho_s * math.exp(self.b_sup))

        ss = np.linspace(self.rho_min, self.rho_max, 10000)
        lam_s = self.lam_values(ss)
        if not np.all(np.isfinite(lam_s)):
            raise ManufacturingError("speed law is not finite on the load range")
        if not np.all(lam_s > 0):
            raise ManufacturingError(
                f"speed law must stay positive on [{self.rho_min:.6g}, "
                f"{self.rho_max:.6g}]")
        self.vmin = float(lam_s.min())
        self.vmax = float(lam_s.max())

        # Lipschitz probe on a hair-wider interval so a degenerate (single
        # point) load range still yields a usable slope estimate.
        pad = 1e-3 * max(1.0, self.rho_max - self.rho_min)
        ps = np.linspace(self.rho_min - pad, self.rho_max + pad, 10000)
        lam_p = self.lam_values(ps)
        if not np.all(np.isfinite(lam_p)):
            ps, lam_p = ss, lam_s
        self.l_lambda = _SAFETY * _fd_max(lam_p, ps)

        self.w_start = float(np.trapezoid(r0, xs))
        b0 = float(np.asarray(self.b(0.0), dtype=float))
        rho00 = float(np.asarray(self.rho0(0.0), dtype=float))
        self.compat_value_residual = abs(self.rho_s * math.exp(b0) - rho00)
        bdot0 = _one_sided_slope(lambda t: float(np.asarray(self.b(t))), 0.0)
        rdot0 = _one_sided_slope(lambda x: float(np.asarray(self.rho0(x))), 0.0)
        self.compat_slope_residual = abs(
            bdot0 + float(self.lam_values(self.w_start)) * rdot0 / rho00)
        if self.compat_value_residual > self.compat_value_tol:
            raise ManufacturingError(
                "incompatible corner data: setpoint times exp(b(0)) differs "
                f"from rho0(0) by {self.compat_value_residual:.3e}")
        if self.compat_slope_residual > self.compat_slope_tol:
            raise ManufacturingError(
                "incompatible corner slopes: db/dt(0) differs from "
                "-lam(W(0)) * rho0'(0)/rho0(0) by "
                f"{self.compat_slope_residual:.3e}")

    def lam_values(self, w):
        """Evaluate the speed law, broadcasting over an inventory array."""
        w = np.asarray(w, dtype=float)
        out = np.asarray(self.lam(W=w), dtype=float)
        if out.shape != w.shape:
            out = out * np.ones_like(w)
        return out if out.ndim else float(out)

    def btilde(self, t):
        """Density carried in at x = 0: setpoint modulated by the inflow signal."""
        return self.rho_s * np.exp(np.asarray(self.b(t), dtype=float))


def terminal_time(scenario: ProductionScenario) -> float:
    """Worst-case time for the slowest admissible speed to traverse the line."""
    return 1.0 / scenario.vmin


def _state_factor(scenario: ProductionScenario) -> float:
    """l_state + l_btilde/vmin, with l_state = max(l_rho0, l_btilde/vmin):
    the factor of l_lambda in the contraction bound per unit window length."""
    l_state = max(scenario.l_rho0, scenario.l_btilde / scenario.vmin)
    return l_state + scenario.l_btilde / scenario.vmin


def contraction_window(scenario: ProductionScenario) -> float:
    """Longest window on which the induced-speed map is a guaranteed contraction."""
    return 1.0 / (1.0 + scenario.l_lambda * _state_factor(scenario))


@dataclass
class FixedPointReport:
    """Convergence record of one window's induced-speed iteration; the
    constants of its bound are the scenario's."""

    window: Tuple[float, float]
    window_limit: float          # contraction_window(scenario)
    iterations: int
    residual: float              # last sup-distance between successive iterates
    contraction_observed: float  # max ratio of successive residuals above rounding
    contraction_bound: float     # window length * l_lambda * _state_factor(scenario)
    v_start: float


def _state_at(rho_fn: Callable, btilde: Callable, win_times: np.ndarray,
              V: np.ndarray, feet: np.ndarray) -> np.ndarray:
    """Density at points whose characteristic feet are ``feet`` (x minus the
    distance V travelled): rigid transport of the window's starting profile
    where the foot has not yet run off, inflow history elsewhere (a foot
    sitting exactly on the split takes the inflow side)."""
    out = np.empty(feet.shape)
    interior = feet > 0.0
    if interior.any():
        out[interior] = rho_fn(feet[interior])
    inflow = ~interior
    if inflow.any():
        # entry times: invert the piecewise-linear travelled distance
        out[inflow] = btilde(np.interp(-feet[inflow], V, win_times))
    return out


def _inventory_rows(rho_fn: Callable, btilde: Callable, win_times: np.ndarray,
                    V: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Density rows induced by a candidate speed, one per window time."""
    return _state_at(rho_fn, btilde, win_times, V, xs[None, :] - V[:, None])


def _advanced_profile(rho_fn: Callable, btilde: Callable,
                      win_times: np.ndarray, V: np.ndarray) -> Callable:
    """State at the window's end, as an exact composition of the data callables."""
    v_end = float(V[-1])

    def profile(x):
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        out = _state_at(rho_fn, btilde, win_times, V, xa - v_end)
        return out if np.ndim(x) else float(out[0])

    return profile


def _solve_window(scenario: ProductionScenario, rho_fn: Callable,
                  win_times: np.ndarray, xs: np.ndarray):
    t_a, t_b = float(win_times[0]), float(win_times[-1])
    length = t_b - t_a
    limit = contraction_window(scenario)
    if length > limit + 1e-12:
        raise ManufacturingError(
            f"window of length {length:.6g} exceeds the contraction limit "
            f"{limit:.6g}")

    w_now = float(np.trapezoid(np.asarray(rho_fn(xs), dtype=float) *
                               np.ones_like(xs), xs))
    v_start = float(scenario.lam_values(w_now))
    v = np.full(len(win_times), v_start)
    residuals: List[float] = []
    for _ in range(_MAX_ITERATIONS):
        V = cumulative_trapezoid(v, win_times)
        rows = _inventory_rows(rho_fn, scenario.btilde, win_times, V, xs)
        w_trace = np.trapezoid(rows, xs, axis=1)
        v_new = np.asarray(scenario.lam_values(w_trace), dtype=float)
        res = float(np.max(np.abs(v_new - v)))
        residuals.append(res)
        v = v_new
        if res <= _RESIDUAL_TOL:
            break
    else:
        raise ManufacturingError(
            f"induced speed did not settle in {_MAX_ITERATIONS} iterations "
            f"(last residual {residuals[-1]:.3e}, observed factor "
            f"{_observed_factor(residuals, scenario.vmax):.3f})")

    # one clean pass with the converged speed, so the returned travelled
    # distance and inventory match the speed they are reported with
    V = cumulative_trapezoid(v, win_times)
    rows = _inventory_rows(rho_fn, scenario.btilde, win_times, V, xs)
    w_trace = np.trapezoid(rows, xs, axis=1)

    report = FixedPointReport(
        window=(t_a, t_b), window_limit=limit,
        iterations=len(residuals), residual=residuals[-1],
        contraction_observed=_observed_factor(residuals, scenario.vmax),
        contraction_bound=length * scenario.l_lambda * _state_factor(scenario),
        v_start=v_start)
    return v, V, w_trace, report


def _observed_factor(residuals: Sequence[float], vmax: float) -> float:
    """Largest ratio of successive residuals.  A residual within
    _ROUNDING_ULPS ulps of vmax is rounding in the speed, not contraction,
    and ends no ratio."""
    floor = _ROUNDING_ULPS * float(np.spacing(vmax))
    ratios = [residuals[i + 1] / residuals[i]
              for i in range(len(residuals) - 1)
              if residuals[i] > 0.0 and residuals[i + 1] > floor]
    return max(ratios) if ratios else 0.0


def _window_times(t_a: float, t_b: float, dt: float) -> np.ndarray:
    n = round((t_b - t_a) / dt)
    if n < 1 or abs(n * dt - (t_b - t_a)) > 1e-9:
        raise ManufacturingError(
            "window endpoints must be a positive whole number of time steps apart")
    return t_a + dt * np.arange(n + 1)


def fixed_point_velocity(scenario: ProductionScenario,
                         window: Tuple[float, float], grid: Grid,
                         rho_start: Optional[Callable] = None):
    """Induced belt speed on one window, with its convergence report.

    ``rho_start`` is the load profile at the window's opening time; it may be
    omitted only for a window starting at t = 0, where the scenario's initial
    load applies.  Returns ``(times, v, report)`` with ``times`` spaced by the
    grid's dt.
    """
    t_a, t_b = float(window[0]), float(window[1])
    win_times = _window_times(t_a, t_b, grid.dt)
    if rho_start is None:
        if abs(t_a) > 1e-12:
            raise ManufacturingError(
                "an interior window needs the load profile at its start")
        rho_start = scenario.rho0
    v, _, _, report = _solve_window(scenario, rho_start, win_times, grid.xs)
    return win_times, v, report


def sampled_velocity(times: np.ndarray, values: np.ndarray) -> VelocityField:
    """Wrap per-time speed samples as a spatially uniform velocity field.

    The wrapped speed is piecewise linear in time, which the characteristic
    integrator reproduces exactly (its stage average collapses to the
    trapezoid rule), so characteristics computed from the wrapper land on the
    same feet as the trapezoid-based fixed point.  The spatial slope is
    identically zero, making the induced log-state source vanish exactly,
    and ``rk4_step`` reads the speed once per stage time.
    """
    ts = np.asarray(times, dtype=float)
    vs = np.asarray(values, dtype=float)

    def fn(t, x):
        if isinstance(t, float) and isinstance(x, float):
            return float(np.interp(t, ts, vs))
        val = np.interp(t, ts, vs)
        shape = np.broadcast(np.asarray(t), np.asarray(x)).shape
        return val * np.ones(shape) if shape else float(val)

    return _SampledVelocity(fn, _filled(0.0))


class _SampledVelocity(VelocityField):
    """A speed of t alone."""

    _uniform_in_x = True


@dataclass
class ClosedLoopRun:
    """What one closed-loop simulation produced; the window limit and the
    speed range are the scenario's (``contraction_window``, ``vmin``, ``vmax``)."""

    scenario: ProductionScenario
    grid: Grid
    rho: SolutionField
    rho_coarse: SolutionField    # density on grid.coarsened_space(), unchecked
    w_trace: np.ndarray          # inventory of the solved density
    u_trace: np.ndarray          # inflow flux the controller commands
    v_values: np.ndarray         # belt speed at each of ``times``
    velocity: VelocityField
    windows: List[FixedPointReport]
    consistency_max: float       # sup |inventory inside the fixed point - w_trace|
    terminal: float              # flush deadline from the slowest speed

    @property
    def times(self) -> np.ndarray:
        return self.rho.times


def simulate_closed_loop(scenario: ProductionScenario, horizon: float,
                         grid: Grid) -> ClosedLoopRun:
    """Run the loop to ``horizon``: chained fixed points, then one continuity solve.

    ``grid`` supplies the resolution (nx, dt); its own horizon is replaced by
    the requested one.  Each window consumes the exact transported state of
    the previous window, and the chained speed samples are wrapped as one
    global piecewise-linear velocity for the density solve.  That solve's fan
    also gives the density on ``grid.coarsened_space()``, which
    ``manufacturing_run`` checks and reads for the certificate slack.
    """
    horizon = float(horizon)
    if horizon > scenario.horizon + 1e-9:
        raise ManufacturingError(
            "simulation horizon exceeds the range the scenario was recorded over")
    run_grid = grid if abs(grid.horizon - horizon) <= 1e-12 else \
        Grid(grid.nx, grid.dt, horizon)
    times = run_grid.times
    xs = run_grid.xs
    nt = run_grid.nt

    limit = contraction_window(scenario)
    steps = int(math.floor(limit / run_grid.dt + 1e-12))
    if steps < 1:
        raise ManufacturingError(
            f"dt={run_grid.dt:.6g} exceeds the contraction window {limit:.6g}")

    v_values = np.empty(nt + 1)
    w_internal = np.empty(nt + 1)
    windows: List[FixedPointReport] = []
    rho_fn: Callable = scenario.rho0
    i = 0
    while i < nt:
        j = min(i + steps, nt)
        win_times = times[i:j + 1]
        v_win, V_win, w_win, report = _solve_window(
            scenario, rho_fn, win_times, xs)
        v_values[i:j + 1] = v_win
        w_internal[i:j + 1] = w_win
        windows.append(report)
        rho_fn = _advanced_profile(rho_fn, scenario.btilde, win_times, V_win)
        i = j

    velocity = sampled_velocity(times, v_values)
    w, w_coarse = log_states(scenario.rho_s, scenario.rho0, scenario.b,
                             velocity, [run_grid, run_grid.coarsened_space()])
    rho = density(scenario.rho_s, w.check_finite()).check_finite()
    rho_coarse = density(scenario.rho_s, w_coarse)
    w_trace = np.trapezoid(rho.values, xs, axis=1)
    b_row = np.asarray(scenario.b(times), dtype=float) * np.ones_like(times)
    u_trace = scenario.rho_s * \
        np.asarray(scenario.lam_values(w_trace), dtype=float) * np.exp(b_row)
    consistency = float(np.max(np.abs(w_internal - w_trace)))

    return ClosedLoopRun(
        scenario=scenario, grid=run_grid, rho=rho, rho_coarse=rho_coarse,
        w_trace=w_trace, u_trace=u_trace, v_values=v_values, velocity=velocity,
        windows=windows, consistency_max=consistency,
        terminal=terminal_time(scenario))


@dataclass
class EnvelopeReport:
    """Node-wise containment of the density and speed in their data envelopes."""

    ok: bool
    rho_min: float
    rho_max: float
    observed_min: float
    observed_max: float
    velocity_ok: bool
    v_observed_min: float
    v_observed_max: float
    vmin: float
    vmax: float
    tol: float
    worst: float  # most negative slack across the four inequalities


def envelope_check(run: ClosedLoopRun, tol: float = 1e-6) -> EnvelopeReport:
    """Verify the density stays within the recorded data envelope at every node.

    The default tolerance covers only the sampling resolution of the recorded
    envelope itself (extrema of the data between sample points); genuine
    excursions are orders of magnitude larger.
    """
    sc = run.scenario
    omin = float(run.rho.values.min())
    omax = float(run.rho.values.max())
    v_omin = float(run.v_values.min())
    v_omax = float(run.v_values.max())
    slacks = (omin - sc.rho_min, sc.rho_max - omax,
              v_omin - sc.vmin, sc.vmax - v_omax)
    ok = slacks[0] >= -tol and slacks[1] >= -tol
    velocity_ok = slacks[2] >= -tol and slacks[3] >= -tol
    return EnvelopeReport(
        ok=ok, rho_min=sc.rho_min, rho_max=sc.rho_max,
        observed_min=omin, observed_max=omax,
        velocity_ok=velocity_ok, v_observed_min=v_omin, v_observed_max=v_omax,
        vmin=sc.vmin, vmax=sc.vmax, tol=tol, worst=float(min(slacks)))


def manufacturing_run(run: ClosedLoopRun) -> TrajectoryRun:
    """Package a closed-loop run for certification against the flush bound.

    The coarse density is the run's.  It is checked here, not in the
    simulation, so a simulation never fails on it: rho0 on its nodes first,
    as a solve of its own did, then its values."""
    sc = run.scenario
    grid = run.grid
    sc.rho0.validate_positive(run.rho_coarse.xs)
    coarse = run.rho_coarse.check_finite()
    ones = np.ones_like(grid.xs)
    phi_row = np.log(np.asarray(sc.rho0(grid.xs), dtype=float) * ones / sc.rho_s)
    b_vals = np.asarray(sc.b(grid.times), dtype=float) * np.ones_like(grid.times)
    return TrajectoryRun(
        kind="manufacturing", grid=grid, state=run.rho, state_coarse=coarse,
        ext=None, b_values=b_vals, f_rows=None, phi_row=phi_row,
        rho_s=sc.rho_s, r=run.terminal)
