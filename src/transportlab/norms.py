"""State norms and running extremals used by the stability estimates.

Densities are measured relative to the setpoint through ln(rho/rho_s), in
L^p over [0, 1] (composite trapezoid) or in the sup norm; p = inf is a
distinct selector, never a large float stand-in.  The same rule, run as
``cumulative_trapezoid``, gives the package's line integrals.  The decay
estimates also need three running extremals of the data - the minimum
transport speed, the maximum spatial slope of the speed, and the maximum
reaction coefficient - plus a fading-memory maximum over a receding horizon
window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .fields import Grid, SpaceTimeField, VelocityField

__all__ = [
    "cumulative_trapezoid",
    "lp_norm",
    "lp_log_norm",
    "sup_log_norm",
    "Extremals",
    "extremals",
    "fading_memory_max",
    "heaviside_h",
    "NormTrace",
]

PNorm = Union[float, int]


def _check_p(p: PNorm) -> float:
    if p == math.inf:
        return math.inf
    p = float(p)
    if not p > 1.0:
        raise ValueError(f"p must exceed 1 (or be inf), got {p}")
    return p


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x: entry i integrates [x[0], x[i]]."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def lp_norm(values: np.ndarray, xs: np.ndarray, p: PNorm) -> float:
    """L^p norm of a sampled profile on [0, 1]; p = inf gives the sup norm."""
    values = np.asarray(values, dtype=float)
    p = _check_p(p)
    if p == math.inf:
        return float(np.max(np.abs(values)))
    return float(np.trapezoid(np.abs(values) ** p, np.asarray(xs, dtype=float)) ** (1.0 / p))


def lp_log_norm(rho_row: np.ndarray, rho_s: float, xs: np.ndarray, p: PNorm) -> float:
    """L^p norm of ln(rho / rho_s) for a sampled density row."""
    rho_row = np.asarray(rho_row, dtype=float)
    if np.any(rho_row <= 0):
        raise ValueError("density must be positive to take the logarithmic norm")
    return lp_norm(np.log(rho_row / rho_s), xs, p)


def sup_log_norm(rho_row: np.ndarray, rho_s: float) -> float:
    return lp_log_norm(rho_row, rho_s, np.zeros(len(np.atleast_1d(rho_row))), math.inf)


@dataclass(frozen=True)
class Extremals:
    """Running data extremals over [0, t] x [0, 1], sampled on grid times.

    vmin: running minimum of v (nonincreasing);
    dvdx_max: running maximum of dv/dx (nondecreasing);
    a_max: running maximum of the reaction coefficient (nondecreasing, 0 when absent).
    """

    times: np.ndarray
    vmin: np.ndarray
    dvdx_max: np.ndarray
    a_max: np.ndarray

    def index_for(self, t: float) -> int:
        dt = float(self.times[1] - self.times[0]) if len(self.times) > 1 else 1.0
        return min(len(self.times) - 1, max(0, int(np.ceil(t / dt - 1e-12))))

    def at(self, t: float) -> tuple[float, float, float]:
        k = self.index_for(t)
        return float(self.vmin[k]), float(self.dvdx_max[k]), float(self.a_max[k])


def extremals(v: VelocityField, grid: Grid,
              a: Optional[SpaceTimeField] = None) -> Extremals:
    """Sample v, dv/dx, and a on the grid and accumulate their running extremals."""
    xs = grid.xs
    vmin_rows = np.empty(grid.nt + 1)
    slope_rows = np.empty(grid.nt + 1)
    a_rows = np.zeros(grid.nt + 1)
    for k, t in enumerate(grid.times):
        vrow = np.asarray(v(t, xs), dtype=float)
        vmin_rows[k] = np.min(vrow)
        srow = np.asarray(v.ddx(t, xs), dtype=float)
        slope_rows[k] = np.max(srow)
        if a is not None:
            a_rows[k] = np.max(np.asarray(a(t, xs), dtype=float))
    return Extremals(
        times=grid.times,
        vmin=np.minimum.accumulate(vmin_rows),
        dvdx_max=np.maximum.accumulate(slope_rows),
        a_max=np.maximum.accumulate(a_rows),
    )


def heaviside_h(s) -> np.ndarray:
    """Memory indicator: 1 while s < 0, 0 once s >= 0 (no 1/2 convention)."""
    arr = np.asarray(s, dtype=float)
    out = np.where(arr < 0.0, 1.0, 0.0)
    return out if out.ndim else float(out)


def fading_memory_max(times: np.ndarray, values: np.ndarray, t: float,
                      mu: float, vmin: float) -> float:
    """max of g(s) exp(-mu (t - s)) over the window [max(0, t - 1/vmin), t].

    The signal is given by samples; the window edge is inclusive up to
    rounding.  An exponentially weighted maximum, not an integral.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if not vmin > 0:
        raise ValueError("vmin must be positive")
    start = max(0.0, t - 1.0 / vmin)
    mask = (times >= start - 1e-12) & (times <= t + 1e-12)
    if not np.any(mask):
        raise ValueError("no samples fall inside the fading-memory window")
    return float(np.max(values[mask] * np.exp(-mu * (t - times[mask]))))


@dataclass(frozen=True)
class NormTrace:
    """A per-time trace of one norm of the state."""

    times: np.ndarray
    values: np.ndarray
    p: PNorm
    label: str = ""
