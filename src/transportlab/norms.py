"""State norms and running extremals used by the stability estimates.

Densities are measured relative to the setpoint through ln(rho/rho_s), in
L^p over [0, 1] (composite trapezoid) or in the sup norm; p = inf is a
distinct selector, never a large float stand-in.  The same rule, run as
``cumulative_trapezoid``, gives the package's line integrals.  The decay
estimates also need three running extremals of the data - the minimum
transport speed, the maximum spatial slope of the speed, and the maximum
reaction coefficient - plus a fading-memory maximum over a receding horizon
window.  The running extremals hold one row per grid time, and a certificate
reads row k at grid time k.

Norms and fading-memory maxima are computed for all rows or query times at
once, a block at a time, each bitwise as for its row or time alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .fields import (ROW_BLOCK, Grid, SpaceTimeField, SpeedRange, VelocityField,
                     row_blocks)

__all__ = [
    "cumulative_trapezoid",
    "lp_norm",
    "lp_norm_rows",
    "lp_log_norm",
    "lp_log_norm_rows",
    "sup_log_norm",
    "Extremals",
    "extremals",
    "fading_memory_max",
    "fading_memory_maxima",
    "heaviside_h",
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


def lp_norm_rows(rows: np.ndarray, xs: np.ndarray, p: PNorm) -> np.ndarray:
    """L^p norm of each row of a sampled field on [0, 1]; p = inf gives sup norms.
    The root is taken per row, as a scalar."""
    rows = np.asarray(rows, dtype=float)
    p = _check_p(p)
    out = np.empty(len(rows))
    for i in range(0, len(rows), ROW_BLOCK):
        block = np.abs(rows[i:i + ROW_BLOCK])
        if p == math.inf:
            out[i:i + ROW_BLOCK] = np.max(block, axis=1)
        else:
            with np.errstate(over="ignore"):  # a power past the float range reads inf
                powers = block ** p
            out[i:i + ROW_BLOCK] = [s ** (1.0 / p)
                                    for s in np.trapezoid(powers, xs, axis=1)]
    return out


def lp_norm(values: np.ndarray, xs: np.ndarray, p: PNorm) -> float:
    """L^p norm of a sampled profile on [0, 1]; p = inf gives the sup norm."""
    return float(lp_norm_rows(np.reshape(values, (1, -1)), xs, p)[0])


def lp_log_norm_rows(rho_rows: np.ndarray, rho_s: float, xs: np.ndarray,
                     p: PNorm) -> np.ndarray:
    """L^p norm of ln(rho / rho_s) for each row of a sampled density field."""
    rho_rows = np.asarray(rho_rows, dtype=float)
    if np.fmin.reduce(rho_rows, axis=None) <= 0:  # a minimum that skips NaN
        raise ValueError("density must be positive to take the logarithmic norm")
    return np.concatenate([lp_norm_rows(np.log(rho_rows[i:i + ROW_BLOCK] / rho_s), xs, p)
                           for i in range(0, len(rho_rows), ROW_BLOCK)])


def lp_log_norm(rho_row: np.ndarray, rho_s: float, xs: np.ndarray, p: PNorm) -> float:
    """L^p norm of ln(rho / rho_s) for a sampled density row."""
    return float(lp_log_norm_rows(np.reshape(rho_row, (1, -1)), rho_s, xs, p)[0])


def sup_log_norm(rho_row: np.ndarray, rho_s: float) -> float:
    return lp_log_norm(rho_row, rho_s, np.zeros(len(np.atleast_1d(rho_row))), math.inf)


@dataclass(frozen=True)
class Extremals:
    """Running data extremals over [0, t_k] x [0, 1], one row k per grid time.

    vmin: running minimum of v (nonincreasing), ``VelocityField.range_on``'s
    own read-only array;
    dvdx_max: running maximum of dv/dx (nondecreasing);
    a_max: running maximum of the reaction coefficient (nondecreasing, 0 when absent).
    """

    vmin: np.ndarray
    dvdx_max: np.ndarray
    a_max: np.ndarray


def extremals(v: VelocityField, grid: Grid, a: Optional[SpaceTimeField] = None,
              speeds: Optional[SpeedRange] = None) -> Extremals:
    """The running minimum of v from ``speeds``, v's range on the grid
    (``v.range_on(grid)`` when not given); dv/dx and a sampled on the grid,
    and their running maxima accumulated."""
    slope_rows = np.empty(grid.nt + 1)
    a_rows = np.zeros(grid.nt + 1)
    for rows, block in row_blocks(v.ddx, grid):
        slope_rows[rows] = np.max(block, axis=1)
    if a is not None:
        for rows, block in row_blocks(a, grid):
            a_rows[rows] = np.max(block, axis=1)
    return Extremals(
        vmin=(v.range_on(grid) if speeds is None else speeds).vmin,
        dvdx_max=np.maximum.accumulate(slope_rows),
        a_max=np.maximum.accumulate(a_rows),
    )


def heaviside_h(s) -> np.ndarray:
    """Memory indicator: 1 while s < 0, 0 once s >= 0 (no 1/2 convention)."""
    arr = np.asarray(s, dtype=float)
    out = np.where(arr < 0.0, 1.0, 0.0)
    return out if out.ndim else float(out)


def fading_memory_maxima(times: np.ndarray, values: np.ndarray, ts,
                         mu: float, vmins) -> np.ndarray:
    """max of g(s) exp(-mu (t - s)) over [max(0, t - 1/vmin), t] for each t in ts:
    g sampled at ascending times, one vmin per t or one for all, window edges
    inclusive to 1e-12.  A weighted maximum, not an integral."""
    times, values, ts = (np.asarray(a, dtype=float) for a in (times, values, ts))
    vmins = np.broadcast_to(np.asarray(vmins, dtype=float), ts.shape)
    if not np.all(vmins > 0):
        raise ValueError("vmin must be positive")
    lo = np.searchsorted(times, np.maximum(0.0, ts - 1.0 / vmins) - 1e-12, side="left")
    hi = np.searchsorted(times, ts + 1e-12, side="right")
    if np.any(hi <= lo):
        raise ValueError("no samples fall inside the fading-memory window")
    out = np.empty(len(ts))
    for i in range(0, len(ts), ROW_BLOCK):
        q = slice(i, i + ROW_BLOCK)
        cols = np.arange(lo[q].min(), hi[q].max())
        weighted = values[cols] * np.exp(-mu * (ts[q, None] - times[cols]))
        inside = (cols >= lo[q, None]) & (cols < hi[q, None])
        out[q] = np.max(np.where(inside, weighted, -np.inf), axis=1)
    return out


def fading_memory_max(times: np.ndarray, values: np.ndarray, t: float,
                      mu: float, vmin: float) -> float:
    """``fading_memory_maxima`` at the single time t."""
    return float(fading_memory_maxima(times, values, [t], mu, vmin)[0])
