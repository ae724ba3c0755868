"""Problem data containers: velocity fields, boundary/initial data, grids.

Scenario inputs arrive as parsed expressions or plain callables; one class
holds each kind of data and adds its validation: ``BoundarySignal`` b(t),
``InitialProfile`` phi(x) or rho0(x) with its jump points, ``SpaceTimeField``
a(t, x) and f(t, x), and its subclass ``VelocityField`` v(t, x).  A (t, x)
field's ``ddx`` is a central difference of step ``FD_STEP`` unless given;
the corner compatibility checks use one-sided differences of the same step.
A speed below ``SPEED_FLOOR`` anywhere on the grid is rejected.  v's range
on a grid (``VelocityField.range_on``) is the one reduction of v over a grid.

Data are sampled on a grid a block of grid times per call (``row_blocks``),
and the transport fan reads a and f a block of ``ROW_BLOCK`` steps per call:
a field callable must broadcast a column of times against a row of nodes or
a block of positions, one row per time, and a time signal must accept an
array of times.  The expression, constant, sampled and slope fields all do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .expr import Expression, parse

__all__ = [
    "FD_STEP",
    "SPEED_FLOOR",
    "FieldValidationError",
    "SpaceTimeField",
    "VelocityField",
    "SpeedRange",
    "BoundarySignal",
    "InitialProfile",
    "TransportCoefficients",
    "Grid",
    "row_blocks",
    "sample_grid",
    "CompatibilityReport",
    "check_compatibility_continuity",
    "check_compatibility_transport",
]

FD_STEP = 1e-6  # finite-difference step of ddx and of the corner checks
SPEED_FLOOR = 1e-9  # least speed v may take on a grid


class FieldValidationError(ValueError):
    """Problem data violates a structural requirement (positivity, ordering, ...)."""


def _as_expression(source: Union[str, Expression], allowed_vars) -> Expression:
    if isinstance(source, Expression):
        return source
    return parse(source, allowed_vars=allowed_vars)


class _ScalarData:
    """A function of the one variable ``variable``, held as a callable."""

    variable: str  # "t" or "x", set by each subclass

    def __init__(self, fn: Callable):
        self._fn = fn

    @classmethod
    def from_expression(cls, source: Union[str, Expression], *args, **kwargs):
        """Parse ``source`` in ``cls.variable``; the other arguments go to the
        constructor."""
        name = cls.variable
        e = _as_expression(source, (name,))
        return cls(lambda s: e(**{name: s}), *args, **kwargs)

    @classmethod
    def constant(cls, value: float):
        v = float(value)
        return cls(lambda s: v * np.ones_like(np.asarray(s, dtype=float)) if np.ndim(s) else v)

    def __call__(self, s):
        return self._fn(s)


def _filled(v: float) -> Callable:
    """(t, x) -> v: a float for scalar arguments, else an array of the
    broadcast shape of t and x."""

    def fn(t, x):
        if isinstance(t, (float, int)) and isinstance(x, (float, int)):
            return v
        shape = np.broadcast_shapes(np.shape(t), np.shape(x))
        return np.full(shape, v) if shape else v

    return fn


class SpaceTimeField:
    """A function of (t, x); ``ddx`` is a central difference unless given.

    ``on_floats`` is the function to read at Python floats t and x: the
    expression's float function for a field built from one, else ``fn``.
    """

    _expression: Optional[Expression] = None  # set by from_expression only

    def __init__(self, fn: Callable, ddx_fn: Optional[Callable] = None):
        self._fn = fn
        self._ddx = ddx_fn

    @classmethod
    def from_expression(cls, source: Union[str, Expression]) -> "SpaceTimeField":
        e = _as_expression(source, ("t", "x"))
        out = cls(lambda t, x: e(t=t, x=x))
        out._expression = e
        return out

    @property
    def on_floats(self) -> Callable:
        e = self._expression
        return self._fn if e is None else e.float_function()

    @classmethod
    def constant(cls, value: float) -> "SpaceTimeField":
        return cls(_filled(float(value)), ddx_fn=_filled(0.0))

    @classmethod
    def zero(cls) -> "SpaceTimeField":
        return cls.constant(0.0)

    def __call__(self, t, x):
        return self._fn(t, x)

    def ddx(self, t, x):
        if self._ddx is not None:
            return self._ddx(t, x)
        h = FD_STEP
        return (self._fn(t, x + h) - self._fn(t, x - h)) / (2 * h)


@dataclass(frozen=True)
class SpeedRange:
    """v's range on one grid: ``vmin[k]`` is the least v over grid times 0 to
    k (nt + 1 floats, read-only, NaN from the first NaN on), ``vmax`` the
    grid maximum."""

    vmin: np.ndarray
    vmax: float


class VelocityField(SpaceTimeField):
    """Transport speed v(t, x); must stay at or above ``SPEED_FLOOR`` on the grid.

    ``fn`` must be a pure function of (t, x): v's range on a grid is
    worked out once and kept for the latest grid asked for (see
    ``range_on``); v's rows themselves are not kept.  ``_uniform_in_x`` is a
    class constant, true only for the speeds of t alone that
    ``manufacturing.sampled_velocity`` makes; see ``rk4_step``.
    """

    _uniform_in_x = False
    _range: Optional[tuple] = None  # (grid, range) of the latest range_on call

    def range_on(self, grid: "Grid") -> SpeedRange:
        """v's range on the grid, from one ``row_blocks`` pass; reused until
        another grid is asked for."""
        if self._range is None or self._range[0] != grid:
            lo, hi = np.empty((2, grid.nt + 1))
            for rows, block in row_blocks(self._fn, grid):
                lo[rows], hi[rows] = np.min(block, axis=1), np.max(block, axis=1)
            vmin = np.minimum.accumulate(lo)
            vmin.flags.writeable = False
            self._range = (grid, SpeedRange(vmin, float(np.max(hi))))
        return self._range[1]

    def validate_positive(self, grid: "Grid") -> float:
        """Return the grid minimum of v; raise if it drops below the floor or
        is not finite."""
        speeds = self.range_on(grid)
        vmin = float(speeds.vmin[-1])
        if not vmin >= SPEED_FLOOR:
            raise FieldValidationError(
                f"velocity must be positive on the grid (min {vmin:.3e} < floor {SPEED_FLOOR:.1e})")
        if not speeds.vmax < math.inf:
            raise FieldValidationError("velocity is not finite on the grid")
        return vmin


class BoundarySignal(_ScalarData):
    """Boundary data b(t) at x = 0."""

    variable = "t"

    def validate_finite(self, times: np.ndarray):
        if not np.all(np.isfinite(self._fn(np.asarray(times, dtype=float)))):
            raise FieldValidationError("boundary signal is not finite on the grid")


class InitialProfile(_ScalarData):
    """Initial data on [0, 1] with optional interior points where it leaves C^1."""

    variable = "x"

    def __init__(self, fn: Callable, jump_points: Sequence[float] = ()):
        super().__init__(fn)
        pts = tuple(float(p) for p in jump_points)
        if list(pts) != sorted(set(pts)):
            raise FieldValidationError("jump points must be sorted and distinct")
        if any(not (0.0 < p < 1.0) for p in pts):
            raise FieldValidationError("jump points must lie strictly inside (0, 1)")
        self.jump_points = pts

    def validate_positive(self, xs: np.ndarray):
        vals = np.asarray(self._fn(np.asarray(xs, dtype=float)), dtype=float)
        if not np.all(vals > 0):
            raise FieldValidationError("initial density must be positive on the grid")


@dataclass
class TransportCoefficients:
    """Reaction coefficient a(t, x) and source f(t, x); default both zero."""

    a: SpaceTimeField = field(default_factory=SpaceTimeField.zero)
    f: SpaceTimeField = field(default_factory=SpaceTimeField.zero)


@dataclass(frozen=True)
class Grid:
    """Uniform space-time sampling of [0, 1] x [0, horizon].

    ``nx`` samples include both endpoints; ``horizon`` must be an integer
    multiple of ``dt`` (within rounding).  The characteristics solver is
    unconditionally stable on any grid; the upwind oracle additionally
    requires its CFL number to stay at or below one.
    """

    nx: int
    dt: float
    horizon: float

    def __post_init__(self):
        if self.nx < 2:
            raise FieldValidationError("nx must be at least 2")
        if not self.dt > 0:
            raise FieldValidationError("dt must be positive")
        if not (math.isfinite(self.dt) and math.isfinite(self.horizon)):
            raise FieldValidationError("dt and horizon must be finite")
        if self.horizon < self.dt:
            raise FieldValidationError("horizon must be at least dt")
        k = round(self.horizon / self.dt)
        if abs(k * self.dt - self.horizon) > 1e-9 + 1e-6 * self.dt:
            raise FieldValidationError("horizon must be an integer multiple of dt")

    @property
    def nt(self) -> int:
        """Number of time steps (rows = nt + 1)."""
        return round(self.horizon / self.dt)

    @property
    def dx(self) -> float:
        return 1.0 / (self.nx - 1)

    @cached_property
    def xs(self) -> np.ndarray:
        """The ``nx`` node positions; built once per grid and read-only."""
        xs = np.linspace(0.0, 1.0, self.nx)
        xs.flags.writeable = False
        return xs

    @cached_property
    def times(self) -> np.ndarray:
        """The ``nt + 1`` row times; built once per grid and read-only."""
        times = np.arange(self.nt + 1) * self.dt
        times.flags.writeable = False
        return times

    def cfl_number(self, vmax: float) -> float:
        return self.dt * vmax / self.dx

    def coarsened_space(self) -> "Grid":
        """Same time stepping, roughly half the spatial resolution."""
        return Grid(max(2, self.nx // 2 + 1), self.dt, self.horizon)


ROW_BLOCK = 32  # grid times per sampler call; rows or times per norms block


def row_blocks(fn: Callable, grid: Grid) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (rows, fn on those grid rows): one call per ``ROW_BLOCK`` grid
    times, each value as a call on its row alone gives it."""
    for k in range(0, grid.nt + 1, ROW_BLOCK):
        times = grid.times[k:k + ROW_BLOCK, None]
        values = np.empty((len(times), grid.nx))
        values[:] = fn(times, grid.xs)
        yield slice(k, k + len(times)), values


def sample_grid(fn: Callable, grid: Grid) -> np.ndarray:
    """fn at every grid node, shape (nt + 1, nx), filled a block at a time."""
    out = np.empty((grid.nt + 1, grid.nx))
    for rows, values in row_blocks(fn, grid):
        out[rows] = values
    return out


# ---------------------------------------------------------------------------
# Corner compatibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompatibilityReport:
    value_residual: float
    derivative_residual: float
    value_ok: bool
    derivative_ok: bool
    regularity: str  # "C1", "C0", or "PC1"
    tol: float

    @property
    def compatible(self) -> bool:
        return self.value_ok


def _classified(value_residual, derivative_residual, jump_points, tol):
    """C1: value and slope match, no interior jump; C0: the value matches."""
    value_ok = value_residual <= tol
    derivative_ok = derivative_residual <= tol
    regularity = ("C1" if derivative_ok and not jump_points else "C0") if value_ok else "PC1"
    return CompatibilityReport(value_residual, derivative_residual,
                               value_ok, derivative_ok, regularity, tol)


def _one_sided(fn: Callable, at: float) -> float:
    """Forward difference of step ``FD_STEP``."""
    return (float(fn(at + FD_STEP)) - float(fn(at))) / FD_STEP


def check_compatibility_continuity(rho_s: float, rho0: InitialProfile,
                                   b: BoundarySignal, v: VelocityField,
                                   tol: float = 1e-5) -> CompatibilityReport:
    """Corner conditions for the density problem at (t, x) = (0, 0).

    Value: rho_s * exp(b(0)) = rho0(0).  Slope: the boundary flux matches the
    initial flux, i.e. db/dt(0) + d(v)/dx(0,0) + v(0,0) * rho0'(0)/rho0(0) = 0.
    One-sided differences of step ``FD_STEP``; the default tol sits
    above their O(step) truncation error so exact data classifies as C1.
    """
    rho00 = float(rho0(0.0))
    value_residual = abs(rho_s * math.exp(float(b(0.0))) - rho00)
    db = _one_sided(b, 0.0)
    drho = _one_sided(rho0, 0.0)
    dvdx = (float(v(0.0, FD_STEP)) - float(v(0.0, 0.0))) / FD_STEP
    derivative_residual = abs(db + dvdx + float(v(0.0, 0.0)) * drho / rho00)
    return _classified(value_residual, derivative_residual, rho0.jump_points, tol)


def check_compatibility_transport(phi: InitialProfile, b: BoundarySignal,
                                  v: VelocityField,
                                  coeffs: Optional[TransportCoefficients] = None,
                                  tol: float = 1e-5) -> CompatibilityReport:
    """Corner conditions for the general transport problem at (0, 0).

    Value: b(0) = phi(0).  Slope: db/dt(0) + v(0,0) phi'(0) = a(0,0) b(0) + f(0,0).
    """
    coeffs = coeffs or TransportCoefficients()
    b0 = float(b(0.0))
    phi0 = float(phi(0.0))
    value_residual = abs(b0 - phi0)
    db = _one_sided(b, 0.0)
    dphi = _one_sided(phi, 0.0)
    derivative_residual = abs(
        db + float(v(0.0, 0.0)) * dphi
        - float(coeffs.a(0.0, 0.0)) * b0 - float(coeffs.f(0.0, 0.0)))
    return _classified(value_residual, derivative_residual, phi.jump_points, tol)
