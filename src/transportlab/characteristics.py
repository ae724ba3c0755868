"""Characteristic curves of the transport speed field.

The flow X(s; t0, x0) solves dX/ds = v(t0 + s, X) with X(0) = x0, integrated
by classical RK4 with the grid's time step (sub-stepped at the x = 1 exit so
the crossing sample lands on the wall to 1e-10).  Inverse queries - which
initial point or boundary instant feeds a given space-time node - start
from a reverse RK4 sweep out of the query point.  The seed is checked
first: its memoized forward flow is the curve a caller integrates along
next, and a seed whose flow ends within the 1e-10 tolerance of the query is
returned as it is, which on smooth speeds is nearly every query.  Only the
seeds that miss are bracketed and bisected to the 1e-10 residual, valid
because the flow map is strictly increasing in x0 and the boundary emission
map is strictly decreasing in the emission time.  Flows, inverses, and the
separatrix are memoized per engine, i.e. per (velocity, grid) pair.

Evaluation of v is clamped to x in [0, 1] so that intermediate RK4 stages
and bracket endpoints slightly outside the strip remain well-defined; this
is the usual Lipschitz extension of the velocity off the domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import Grid, VelocityField

__all__ = [
    "CharacteristicsError",
    "CharacteristicPath",
    "Separatrix",
    "JumpLocus",
    "CharacteristicEngine",
]

EXIT_TOL = 1e-10
BACKTRACE_TOL = 1e-10


class CharacteristicsError(ValueError):
    """Precondition or convergence failure in a characteristics query."""


@dataclass(frozen=True)
class CharacteristicPath:
    """Sampled characteristic: s_values are elapsed times since t0."""

    t0: float
    x0: float
    s_values: np.ndarray
    x_values: np.ndarray
    exited: bool
    s_exit: Optional[float]

    @property
    def end_s(self) -> float:
        return float(self.s_values[-1])

    @property
    def end_x(self) -> float:
        return float(self.x_values[-1])


@dataclass(frozen=True)
class Separatrix:
    """The characteristic released from (0, 0); splits the two data regions."""

    times: np.ndarray
    positions: np.ndarray  # clamped to 1 after exit
    exited: bool
    s_exit: Optional[float]

    def at(self, t) -> float:
        return np.interp(t, self.times, self.positions)


@dataclass(frozen=True)
class JumpLocus:
    """Trace of a regularity-breaking initial point; clamped to 1 after exit."""

    start: float
    times: np.ndarray
    positions: np.ndarray
    s_exit: Optional[float]


class CharacteristicEngine:
    """Flow, inverses, and loci for one velocity field on one grid."""

    def __init__(self, v: VelocityField, grid: Grid):
        self.v = v
        self.grid = grid
        self.dt = grid.dt
        self._flow_cache: dict = {}
        self._x0_cache: dict = {}
        self._t0_cache: dict = {}
        self._separatrix: Optional[Separatrix] = None
        self._vmin_running: Optional[np.ndarray] = None

    # -- velocity with the off-domain extension ---------------------------

    def _speed(self, t, x):
        if isinstance(x, float):
            return self.v(t, min(max(x, 0.0), 1.0))
        return self.v(t, np.clip(x, 0.0, 1.0))

    def _rk4(self, t, x, h):
        f = self._speed
        k1 = f(t, x)
        k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = f(t + h, x + h * k3)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    # -- forward flow ------------------------------------------------------

    def flow(self, t0: float, x0: float, until: float) -> CharacteristicPath:
        """Integrate from (t0, x0) up to absolute time ``until`` or the exit."""
        if not 0.0 <= x0 <= 1.0:
            raise CharacteristicsError(f"x0 must lie in [0, 1], got {x0}")
        if until < t0:
            raise CharacteristicsError("until must not precede t0")
        key = (float(t0), float(x0), float(until))
        hit = self._flow_cache.get(key)
        if hit is not None:
            return hit

        s_end = until - t0
        ss = [0.0]
        xs = [float(x0)]
        exited = x0 >= 1.0
        s_exit = 0.0 if exited else None
        s, x = 0.0, float(x0)
        while not exited and s < s_end - 1e-15:
            h = min(self.dt, s_end - s)
            xn = float(self._rk4(t0 + s, x, h))
            if xn >= 1.0:
                h_exit = self._bisect_exit(t0 + s, x, h, xn)
                x_exit = float(self._rk4(t0 + s, x, h_exit))
                s = s + h_exit
                ss.append(s)
                xs.append(x_exit)
                exited, s_exit = True, s
                break
            s += h
            x = xn
            ss.append(s)
            xs.append(x)
        path = CharacteristicPath(t0, x0, np.asarray(ss), np.asarray(xs), exited, s_exit)
        self._flow_cache[key] = path
        return path

    def _bisect_exit(self, t_at: float, x_at: float, h: float, x_full: float) -> float:
        """Sub-step length at which the characteristic meets x = 1."""
        if abs(x_full - 1.0) <= EXIT_TOL:
            return h
        lo, hi = 0.0, h
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            xm = float(self._rk4(t_at, x_at, mid))
            if abs(xm - 1.0) <= EXIT_TOL:
                return mid
            if xm > 1.0:
                hi = mid
            else:
                lo = mid
        raise CharacteristicsError("exit sub-stepping did not converge")

    def forget_paths(self) -> None:
        """Drop the memoized flows and inverses; keep the separatrix and min v."""
        self._flow_cache.clear()
        self._x0_cache.clear()
        self._t0_cache.clear()

    # -- separatrix and loci ----------------------------------------------

    def separatrix(self) -> Separatrix:
        if self._separatrix is None:
            times = self.grid.times
            path = self.flow(0.0, 0.0, float(times[-1]))
            pos = np.interp(times, path.s_values, path.x_values)
            if path.exited:
                pos[times >= path.s_exit - 1e-15] = 1.0
            self._separatrix = Separatrix(times, pos, path.exited, path.s_exit)
        return self._separatrix

    def jump_loci(self, starts: Sequence[float]) -> list[JumpLocus]:
        """Trace each regularity-breaking point; positions clamp to 1 after exit."""
        times = self.grid.times
        out = []
        for xi in starts:
            path = self.flow(0.0, float(xi), float(times[-1]))
            pos = np.interp(times, path.s_values, path.x_values)
            if path.exited:
                pos[times >= path.s_exit - 1e-15] = 1.0
            out.append(JumpLocus(float(xi), times, pos, path.s_exit))
        return out

    # -- running minimum of v (bracket widths) -----------------------------

    def vmin_up_to(self, t: float) -> float:
        if self._vmin_running is None:
            rows = np.min(self.v.grid_rows(self.grid), axis=1)
            self._vmin_running = np.minimum.accumulate(rows)
        idx = min(len(self._vmin_running) - 1,
                  max(0, int(np.ceil(t / self.dt - 1e-12))))
        return float(self._vmin_running[idx])

    # -- vectorized propagation helpers ------------------------------------

    def _propagate_from_zero_time(self, t: float, x0s: np.ndarray) -> np.ndarray:
        """X(t; 0, x0) for an array of starting points (clamped speed)."""
        x = np.array(x0s, dtype=float)
        s = 0.0
        while s < t - 1e-15:
            h = min(self.dt, t - s)
            x = self._rk4(s, x, h)
            s += h
        return x

    def _propagate_from_boundary(self, t: float, t0s: np.ndarray) -> np.ndarray:
        """X(t - t0; t0, 0) for an array of emission times t0 <= t."""
        t0s = np.asarray(t0s, dtype=float)
        x = np.zeros_like(t0s)
        s = t0s.copy()
        for _ in range(self.grid.nt + len(t0s) + 4):
            h = np.minimum(self.dt, t - s)
            active = h > 1e-15
            if not np.any(active):
                break
            ha = np.where(active, h, 0.0)
            x = self._rk4(s, x, ha)
            s = s + ha
        return x

    def _reverse_sweep(self, t: float, x: float) -> float:
        """Backward RK4 from (t, x) to time 0; seed for the x0 inverse."""
        pos = float(x)
        s = float(t)
        while s > 1e-15:
            h = min(self.dt, s)
            pos = float(self._rk4(s, pos, -h))
            s -= h
        return pos

    # -- inverse queries ----------------------------------------------------

    def backtrace_x0(self, t: float, x: float) -> float:
        key = (float(t), float(x))
        hit = self._x0_cache.get(key)
        if hit is not None:
            return hit
        out = float(self.backtrace_x0_batch(t, np.array([x]))[0])
        self._x0_cache[key] = out
        return out

    def backtrace_x0_batch(self, t: float, xs: np.ndarray) -> np.ndarray:
        """Feet of the characteristics through (t, x) for initial-data points."""
        xs = np.asarray(xs, dtype=float)
        r0 = self.separatrix().at(t)
        if np.any(xs <= r0 - 1e-13) or np.any(xs <= 0.0) and t > 0:
            raise CharacteristicsError(
                "point lies on the boundary-determined side (x <= separatrix)")
        if np.any(xs > 1.0 + 1e-12):
            raise CharacteristicsError("x must lie in (r0(t), 1]")
        if t == 0.0:
            return xs.copy()

        seeds = np.array([self._reverse_sweep(t, float(xq)) for xq in xs])
        # a flow starts inside the strip only: a seed past x = 1 is a miss
        return self._invert(seeds, xs, 0.0, xs,
                            lambda q: self.flow(0.0, q, t).end_x if q <= 1.0 else np.inf,
                            lambda q: self._propagate_from_zero_time(t, q),
                            increasing=True, what="x0")

    def backtrace_t0(self, t: float, x: float) -> float:
        key = (float(t), float(x))
        hit = self._t0_cache.get(key)
        if hit is not None:
            return hit
        out = float(self.backtrace_t0_batch(t, np.array([x]))[0])
        self._t0_cache[key] = out
        return out

    def backtrace_t0_batch(self, t: float, xs: np.ndarray) -> np.ndarray:
        """Boundary emission times for points on the boundary-determined side."""
        xs = np.asarray(xs, dtype=float)
        r0 = self.separatrix().at(t)
        if np.any(xs > r0 + 1e-13):
            raise CharacteristicsError(
                "point lies on the initial-data side (x > separatrix)")
        if np.any(xs < 0.0):
            raise CharacteristicsError("x must lie in [0, r0(t)]")

        vmin = self.vmin_up_to(t)
        lower = max(0.0, t - float(np.max(xs)) / vmin)
        lowers = np.maximum(0.0, t - xs / vmin)

        seeds = np.array([self._reverse_seed_t0(t, float(xq), lower) for xq in xs])
        # g(t0) = X(t - t0; t0, 0) - x is decreasing in t0
        return self._invert(seeds, xs, lowers, t,
                            lambda q: self.flow(q, 0.0, t).end_x,
                            lambda q: self._propagate_from_boundary(t, q),
                            increasing=False, what="t0")

    @staticmethod
    def _invert(seeds, xs, lo_full, hi_full, flow_end, propagate, increasing, what):
        """Solve propagate(q) = xs for q, elementwise, starting from seeds.

        q lies in [lo_full, hi_full]; g(q) = propagate(q) - xs is increasing
        or decreasing in q as stated.  A seed inside those bounds whose
        forward flow ends within BACKTRACE_TOL of its target is returned as
        it is: flow_end(q) reads that end from the memoized flow, so the
        caller's next integration along the curve is a cache hit.  The
        misses are bisected in the bracket seed -+ 1e-7; where an endpoint
        lies on the wrong side of the root it falls back to lo_full or
        hi_full.  Bracket endpoints already within BACKTRACE_TOL are
        accepted as they are.  Residuals are carried along with the
        bracket, so the closing secant step costs one propagation.
        """
        lo_full = np.broadcast_to(lo_full, xs.shape)
        hi_full = np.broadcast_to(hi_full, xs.shape)
        g_seed = np.array([flow_end(q) - x if lo <= q <= hi else np.inf
                           for q, x, lo, hi in zip(seeds, xs, lo_full, hi_full)])
        miss = ~(np.abs(g_seed) <= BACKTRACE_TOL)
        if not np.any(miss):
            return seeds
        xs, lo_full, hi_full = xs[miss], lo_full[miss], hi_full[miss]
        lo = np.clip(seeds[miss] - 1e-7, lo_full, hi_full)
        hi = np.clip(seeds[miss] + 1e-7, lo_full, hi_full)

        sign = 1.0 if increasing else -1.0
        n = len(xs)
        g = propagate(np.concatenate([lo, hi])) - np.concatenate([xs, xs])
        g_lo, g_hi = g[:n], g[n:]
        lo_miss = sign * g_lo > 0.0
        hi_miss = sign * g_hi < 0.0
        if np.any(lo_miss) or np.any(hi_miss):
            lo = np.where(lo_miss, lo_full, lo)
            hi = np.where(hi_miss, hi_full, hi)
            k = np.count_nonzero(lo_miss)
            g = propagate(np.concatenate([lo[lo_miss], hi[hi_miss]])) \
                - np.concatenate([xs[lo_miss], xs[hi_miss]])
            g_lo[lo_miss] = g[:k]
            g_hi[hi_miss] = g[k:]

        result = np.full_like(xs, np.nan)
        g_res = np.full_like(xs, np.nan)
        open_mask = np.ones(xs.shape, dtype=bool)
        for end, g_end in ((lo, g_lo), (hi, g_hi)):
            done = (np.abs(g_end) <= BACKTRACE_TOL) & open_mask
            result[done] = end[done]
            g_res[done] = g_end[done]
            open_mask &= ~done
        for _ in range(120):
            if not np.any(open_mask):
                break
            mid = 0.5 * (lo + hi)
            g = propagate(mid) - xs
            done = (np.abs(g) <= BACKTRACE_TOL) & open_mask
            result[done] = mid[done]
            g_res[done] = g[done]
            open_mask &= ~done
            if np.any(open_mask):
                to_hi = g > 0.0 if increasing else g <= 0.0
                lo, g_lo = np.where(to_hi, lo, mid), np.where(to_hi, g_lo, g)
                hi, g_hi = np.where(to_hi, mid, hi), np.where(to_hi, g, g_hi)
        if np.any(open_mask):
            raise CharacteristicsError(f"{what} bisection did not reach tolerance")
        seeds[miss] = CharacteristicEngine._secant_polish(
            result, g_res, lo, g_lo, hi, g_hi, xs, propagate)
        return seeds

    @staticmethod
    def _secant_polish(result, g_res, lo, g_lo, hi, g_hi, xs, propagate):
        """One secant step through the final bracket endpoints.

        The bisection exits on a small propagation residual, which still
        leaves the root off by residual / |g'| when the local slope is below
        one (slow characteristics, compressive flows).  A single secant
        update is exact for affine g; the residuals of the bracket and of
        the bisection result are already known, so it costs one batch
        propagation.
        """
        denom = g_hi - g_lo
        safe = np.abs(denom) > 0.0
        sec = np.where(safe, lo - g_lo * (hi - lo) / np.where(safe, denom, 1.0),
                       result)
        sec = np.clip(sec, np.minimum(lo, hi), np.maximum(lo, hi))
        g_sec = np.abs(propagate(sec) - xs)
        return np.where(g_sec <= np.abs(g_res), sec, result)

    def _reverse_seed_t0(self, t: float, x: float, lower: float) -> float:
        """Backward sweep from (t, x) until the wall x = 0; seed for t0."""
        if x <= 1e-15:
            return t
        pos = float(x)
        s = float(t)
        while s > lower - self.dt:
            h = min(self.dt, s)
            if h <= 1e-15:
                break
            nxt = float(self._rk4(s, pos, -h))
            if nxt <= 0.0:
                lo_f, hi_f = 0.0, h  # fraction of the backward step to reach 0
                for _ in range(80):
                    mid = 0.5 * (lo_f + hi_f)
                    xm = float(self._rk4(s, pos, -mid))
                    if xm > 0.0:
                        lo_f = mid
                    else:
                        hi_f = mid
                return s - 0.5 * (lo_f + hi_f)
            pos = nxt
            s -= h
        return max(lower, 0.0)

    # -- sensitivity ---------------------------------------------------------

    def flow_sensitivity(self, t0: float, x0: float, s: float) -> float:
        """dX/dx0 at elapsed time s: exp of the integral of dv/dx along the path."""
        path = self.flow(t0, x0, t0 + s)
        if path.end_s < s - 1e-12:
            raise CharacteristicsError("characteristic exits before the requested time")
        mask = path.s_values <= s + 1e-15
        ss = path.s_values[mask]
        xs = path.x_values[mask]
        if len(ss) < 2:
            return 1.0
        slopes = np.array([float(self.v.ddx(t0 + si, min(max(xi, 0.0), 1.0)))
                           for si, xi in zip(ss, xs)])
        return float(np.exp(np.trapezoid(slopes, ss)))
