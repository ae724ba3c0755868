"""Density transport rho_t + (rho v)_x = 0 through the logarithmic state.

Writing w = ln(rho/rho_s) turns the conservation law into linear transport
w_t + v w_x = -dv/dx with boundary trace w(t, 0) = b(t), so the
characteristic solver applies verbatim and rho = rho_s e^w stays positive
by construction.  The velocity slope feeding the source term is the same
finite-difference derivative the stability certificates sample, so solver
and bounds never disagree about what dv/dx means.
"""

from __future__ import annotations

import numpy as np

from .fields import (
    BoundarySignal,
    FieldValidationError,
    Grid,
    InitialProfile,
    SpaceTimeField,
    TransportCoefficients,
    VelocityField,
)
from .transport import SolutionField, TransportProblem, solve_fields

__all__ = ["log_state_problem", "solve_continuity", "log_states", "density",
           "equilibrium_profile"]


def log_state_problem(rho_s: float, rho0: InitialProfile, b: BoundarySignal,
                      v: VelocityField) -> TransportProblem:
    """The linear transport problem satisfied by w = ln(rho/rho_s)."""
    if not (np.isfinite(rho_s) and rho_s > 0.0):
        raise FieldValidationError(f"setpoint density must be positive, got {rho_s}")
    phi = InitialProfile(lambda x: np.log(np.asarray(rho0(x), dtype=float) / rho_s),
                         rho0.jump_points)
    slope_source = SpaceTimeField(lambda t, x: -v.ddx(t, x))
    return TransportProblem(phi=phi, b=b, v=v,
                            coeffs=TransportCoefficients(f=slope_source))


def solve_continuity(rho_s: float, rho0: InitialProfile, b: BoundarySignal,
                     v: VelocityField, grid: Grid) -> SolutionField:
    """Solve the continuity equation; returns densities (kind "rho").

    Raises FieldValidationError when a density is not finite.
    """
    (w,) = log_states(rho_s, rho0, b, v, [grid])
    return density(rho_s, w.check_finite()).check_finite()


def log_states(rho_s: float, rho0: InitialProfile, b: BoundarySignal,
               v: VelocityField, grids: list) -> list[SolutionField]:
    """The log states w = ln(rho/rho_s) on grids that share their times, from
    one fan and unchecked (see ``solve_fields``).  rho0 is validated on the
    first grid's nodes; a caller that reads another grid's state checks
    rho0 on its nodes first, as that grid's own solve would."""
    rho0.validate_positive(grids[0].xs)
    return solve_fields(log_state_problem(rho_s, rho0, b, v), grids)


def density(rho_s: float, w: SolutionField) -> SolutionField:
    """The density rho_s e^w of a log state, unchecked.  It is computed in
    w's own array, so a solve holds one field, not two: w is spent."""
    with np.errstate(over="ignore"):  # check_finite rejects an overflow
        rho = np.exp(w.values, out=w.values)
        rho *= rho_s
    return SolutionField(grid=w.grid, values=rho, kind="rho")


def equilibrium_profile(rho_s: float, b_const: float,
                        v: VelocityField) -> InitialProfile:
    """Stationary density rho(x) = rho_s e^b v(0) / v(x) for time-invariant v.

    A time-varying velocity admits no such profile; sampling v at two times
    guards against passing one in by accident.
    """
    xs = np.linspace(0.0, 1.0, 257)
    ones = np.ones_like(xs)
    early = np.asarray(v(0.0, xs), dtype=float) * ones
    late = np.asarray(v(1.0, xs), dtype=float) * ones
    if np.max(np.abs(early - late)) > 1e-12:
        raise FieldValidationError(
            "equilibrium profile requires a time-invariant velocity")
    v0 = float(v(0.0, 0.0))
    scale = rho_s * float(np.exp(b_const)) * v0
    return InitialProfile(lambda x: scale / np.asarray(v(0.0, x), dtype=float))
