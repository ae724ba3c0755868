"""Problem data containers: velocity fields, boundary/initial data, grids.

Scenario inputs arrive as parsed expressions; everything downstream consumes
them through the thin wrappers here, which add validation and, for fields
of (t, x), a central-difference ``ddx`` (step ``fd_step``, default 1e-6).
Corner compatibility checks use one-sided differences with the same step.

Data are sampled on a grid a block of grid times per call (``row_blocks``):
a field callable must broadcast a column of times against the row of
nodes, and a time signal must accept an array of times.  The expression,
constant, sampled and slope fields all do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .expr import Expression, parse

__all__ = [
    "FieldValidationError",
    "ScalarSignal",
    "ScalarProfile",
    "SpaceTimeField",
    "VelocityField",
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

DEFAULT_FD_STEP = 1e-6


class FieldValidationError(ValueError):
    """Problem data violates a structural requirement (positivity, ordering, ...)."""


def _as_expression(source: Union[str, Expression], allowed_vars) -> Expression:
    if isinstance(source, Expression):
        return source
    return parse(source, allowed_vars=allowed_vars)


class ScalarSignal:
    """A function of time, expression- or callable-backed."""

    variable = "t"

    def __init__(self, fn: Callable, fd_step: float = DEFAULT_FD_STEP,
                 expression: Optional[Expression] = None):
        self._fn = fn
        self.fd_step = fd_step
        self.expression = expression

    @classmethod
    def from_expression(cls, source: Union[str, Expression],
                        fd_step: float = DEFAULT_FD_STEP) -> "ScalarSignal":
        name = cls.variable
        e = _as_expression(source, (name,))
        return cls(lambda s: e(**{name: s}), fd_step, e)

    @classmethod
    def constant(cls, value: float) -> "ScalarSignal":
        v = float(value)
        return cls(lambda s: v * np.ones_like(np.asarray(s, dtype=float)) if np.ndim(s) else v,
                   DEFAULT_FD_STEP)

    def __call__(self, s):
        return self._fn(s)


class ScalarProfile(ScalarSignal):
    """A function of position on [0, 1]; the same wrapper as ScalarSignal."""

    variable = "x"


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
    """A function of (t, x); ``ddx`` is a central difference unless overridden."""

    def __init__(self, fn: Callable, fd_step: float = DEFAULT_FD_STEP,
                 expression: Optional[Expression] = None,
                 ddx_fn: Optional[Callable] = None):
        self._fn = fn
        self.fd_step = fd_step
        self.expression = expression
        self._ddx = ddx_fn

    @classmethod
    def from_expression(cls, source: Union[str, Expression],
                        fd_step: float = DEFAULT_FD_STEP) -> "SpaceTimeField":
        e = _as_expression(source, ("t", "x"))
        return cls(lambda t, x: e(t=t, x=x), fd_step, e)

    @classmethod
    def constant(cls, value: float) -> "SpaceTimeField":
        return cls(_filled(float(value)), DEFAULT_FD_STEP, ddx_fn=_filled(0.0))

    @classmethod
    def zero(cls) -> "SpaceTimeField":
        return cls.constant(0.0)

    def __call__(self, t, x):
        return self._fn(t, x)

    def ddx(self, t, x):
        if self._ddx is not None:
            return self._ddx(t, x)
        h = self.fd_step
        return (self._fn(t, x + h) - self._fn(t, x - h)) / (2 * h)


@dataclass
class VelocityField:
    """Transport speed v(t, x); must stay above ``floor`` on the grid.

    ``field`` must be a pure function of (t, x): the rows of v on a grid are
    evaluated once and kept, read-only, for the latest grid asked for (see
    ``grid_rows``).
    """

    field: SpaceTimeField
    floor: float = 1e-9

    def __post_init__(self):
        if not self.floor > 0:
            raise FieldValidationError("positivity floor must be > 0")
        self._rows = None  # (grid, rows) of the latest grid_rows call

    @classmethod
    def from_expression(cls, source, fd_step: float = DEFAULT_FD_STEP,
                        floor: float = 1e-9) -> "VelocityField":
        return cls(SpaceTimeField.from_expression(source, fd_step), floor)

    @classmethod
    def constant(cls, value: float) -> "VelocityField":
        return cls(SpaceTimeField.constant(value))

    def __call__(self, t, x):
        return self.field(t, x)

    def ddx(self, t, x):
        return self.field.ddx(t, x)

    def grid_rows(self, grid: "Grid") -> np.ndarray:
        """v at every grid node, shape (nt + 1, nx), one row per grid time.

        Read-only; evaluated once and reused until another grid is asked for.
        """
        if self._rows is None or self._rows[0] != grid:
            rows = sample_grid(self.field, grid)
            rows.flags.writeable = False
            self._rows = (grid, rows)
        return self._rows[1]

    def validate_positive(self, grid: "Grid") -> float:
        """Return the grid minimum of v; raise if it drops below the floor or
        is not finite."""
        rows = self.grid_rows(grid)
        vmin = float(np.min(rows))
        if not vmin >= self.floor:
            raise FieldValidationError(
                f"velocity must be positive on the grid (min {vmin:.3e} < floor {self.floor:.1e})")
        if not np.max(rows) < math.inf:
            raise FieldValidationError("velocity is not finite on the grid")
        return vmin


@dataclass
class BoundarySignal:
    """Boundary data at x = 0."""

    signal: ScalarSignal

    @classmethod
    def from_expression(cls, source, fd_step: float = DEFAULT_FD_STEP) -> "BoundarySignal":
        return cls(ScalarSignal.from_expression(source, fd_step))

    @classmethod
    def constant(cls, value: float) -> "BoundarySignal":
        return cls(ScalarSignal.constant(value))

    def __call__(self, t):
        return self.signal(t)

    def validate_finite(self, times: np.ndarray):
        if not np.all(np.isfinite(self.signal(np.asarray(times, dtype=float)))):
            raise FieldValidationError("boundary signal is not finite on the grid")


@dataclass
class InitialProfile:
    """Initial data with optional interior points where it leaves C^1."""

    profile: ScalarProfile
    jump_points: tuple = ()

    def __post_init__(self):
        pts = tuple(float(p) for p in self.jump_points)
        if list(pts) != sorted(set(pts)):
            raise FieldValidationError("jump points must be sorted and distinct")
        if any(not (0.0 < p < 1.0) for p in pts):
            raise FieldValidationError("jump points must lie strictly inside (0, 1)")
        self.jump_points = pts

    @classmethod
    def from_expression(cls, source, jump_points: Sequence[float] = (),
                        fd_step: float = DEFAULT_FD_STEP) -> "InitialProfile":
        return cls(ScalarProfile.from_expression(source, fd_step), tuple(jump_points))

    @classmethod
    def constant(cls, value: float) -> "InitialProfile":
        return cls(ScalarProfile.constant(value))

    def __call__(self, x):
        return self.profile(x)

    def validate_positive(self, xs: np.ndarray):
        vals = np.asarray(self.profile(np.asarray(xs, dtype=float)), dtype=float)
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


def _one_sided(fn: Callable, at: float, h: float) -> float:
    return (float(fn(at + h)) - float(fn(at))) / h


def check_compatibility_continuity(rho_s: float, rho0: InitialProfile,
                                   b: BoundarySignal, v: VelocityField,
                                   tol: float = 1e-5) -> CompatibilityReport:
    """Corner conditions for the density problem at (t, x) = (0, 0).

    Value: rho_s * exp(b(0)) = rho0(0).  Slope: the boundary flux matches the
    initial flux, i.e. db/dt(0) + d(v)/dx(0,0) + v(0,0) * rho0'(0)/rho0(0) = 0.
    One-sided differences, step = each field's fd_step; the default tol sits
    above their O(step) truncation error so exact data classifies as C1.
    """
    rho00 = float(rho0(0.0))
    value_residual = abs(rho_s * math.exp(float(b(0.0))) - rho00)
    db = _one_sided(b.signal, 0.0, b.signal.fd_step)
    drho = _one_sided(rho0.profile, 0.0, rho0.profile.fd_step)
    h = v.field.fd_step
    dvdx = (float(v(0.0, h)) - float(v(0.0, 0.0))) / h
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
    db = _one_sided(b.signal, 0.0, b.signal.fd_step)
    dphi = _one_sided(phi.profile, 0.0, phi.profile.fd_step)
    derivative_residual = abs(
        db + float(v(0.0, 0.0)) * dphi
        - float(coeffs.a(0.0, 0.0)) * b0 - float(coeffs.f(0.0, 0.0)))
    return _classified(value_residual, derivative_residual, phi.jump_points, tol)
