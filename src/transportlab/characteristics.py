"""Characteristic curves of the transport speed field.

The flow X(s; t0, x0) solves dX/ds = v(t0 + s, X) with X(0) = x0, integrated
by classical RK4 with the grid's time step.  Every scalar propagation is one
march, the same RK4 stepping to a given time in either direction, and one
wall cut: a march that may stop at a wall (x = 1 forward, x = 0 back) cuts
the step that reaches it onto the wall by a fixed number of halvings.  A
flow is the forward march with the x = 1 wall, sampled at every step.
Inverse queries - which initial point or boundary instant feeds a given
space-time node - start from a reverse seed out of the query point: the
march back to time 0 for the foot, the march back to the wall x = 0 for
the emission time.  The seed is checked first: its forward flow is the
curve a caller integrates along next, and a seed whose flow ends within
the 1e-10 tolerance of the query is returned as it is, which on smooth
speeds is nearly every query.  Only the seeds that miss are bracketed and
bisected on the march to the 1e-10 residual, valid because the flow map is
strictly increasing in x0 and the boundary emission map is strictly
decreasing in the emission time.  An engine, i.e. one (velocity, grid)
pair, memoizes its separatrix and its latest flow only, so it holds
bounded memory; inverses are not memoized.

Every propagation, here and in the field solver's fan, takes steps of the
one function ``rk4_step``.  It evaluates v at x clamped to [0, 1] so that
intermediate RK4 stages and bracket endpoints slightly outside the strip
remain well-defined; this is the usual Lipschitz extension of the velocity
off the domain, and a speed of t alone moves every position alike.  The
scalar steps of this module read v on Python floats: an expression speed
through its float function (``SpaceTimeField.on_floats``), so a flow, march
or inverse makes no numpy call per stage.  The fan's array steps read v
through its numpy function, as every field does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import Grid, VelocityField

__all__ = [
    "CharacteristicsError",
    "CharacteristicPath",
    "Locus",
    "CharacteristicEngine",
    "rk4_step",
]

BACKTRACE_TOL = 1e-10
WALL_HALVINGS = 80  # a step of dt halved 80 times is far below one ulp of t


class CharacteristicsError(ValueError):
    """Precondition or convergence failure in a characteristics query."""


def rk4_step(v: VelocityField, t, x, h):
    """One classical RK4 step of dX/ds = v(s, X) from X(t) = x to time t + h;
    h < 0 steps back in time; x is a float or an array.  A speed of t alone
    (``_uniform_in_x``) is read once per stage time, at x = 0: each position
    moves by the displacement the array form gives it, bit for bit.  Any
    other speed is read at positions clamped to [0, 1], through
    ``v.on_floats`` when x is a float."""
    if v._uniform_in_x:
        k1 = v(t, 0.0)
        k2 = k3 = v(t + 0.5 * h, 0.0)
        k4 = v(t + h, 0.0)
    elif isinstance(x, float):
        f = v.on_floats
        k1 = f(t, min(max(x, 0.0), 1.0))
        k2 = f(t + 0.5 * h, min(max(x + 0.5 * h * k1, 0.0), 1.0))
        k3 = f(t + 0.5 * h, min(max(x + 0.5 * h * k2, 0.0), 1.0))
        k4 = f(t + h, min(max(x + h * k3, 0.0), 1.0))
    else:
        k1 = v(t, x.clip(0.0, 1.0))
        k2 = v(t + 0.5 * h, (x + 0.5 * h * k1).clip(0.0, 1.0))
        k3 = v(t + 0.5 * h, (x + 0.5 * h * k2).clip(0.0, 1.0))
        k4 = v(t + h, (x + h * k3).clip(0.0, 1.0))
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
class Locus:
    """The characteristic released from (0, start) at the grid times.

    Positions clamp to 1 from the exit on.  The locus of 0 is the
    separatrix, which splits the boundary-fed region from the initial-data
    region; the loci of jump points bound the smooth regions.
    """

    start: float
    times: np.ndarray
    positions: np.ndarray
    s_exit: Optional[float]

    def at(self, t) -> float:
        return np.interp(t, self.times, self.positions)


class CharacteristicEngine:
    """Flow, inverses, and loci for one velocity field on one grid."""

    def __init__(self, v: VelocityField, grid: Grid):
        self.v = v
        self.grid = grid
        self.dt = grid.dt
        self._last: Optional[tuple] = None  # (t0, x0, until) and its path
        self._separatrix: Optional[Locus] = None

    # -- forward flow ------------------------------------------------------

    def flow(self, t0: float, x0: float, until: float) -> CharacteristicPath:
        """The forward march from (t0, x0) to absolute time ``until`` or x = 1.

        The latest flow is memoized: a backtrace's seed check builds the
        flow its caller integrates along next.
        """
        if not 0.0 <= x0 <= 1.0:
            raise CharacteristicsError(f"x0 must lie in [0, 1], got {x0}")
        if until < t0:
            raise CharacteristicsError("until must not precede t0")
        key = (float(t0), float(x0), float(until))
        if self._last is not None and self._last[0] == key:
            return self._last[1]

        ts, xs = [float(t0)], [float(x0)]
        if x0 < 1.0:
            self._march(t0, x0, until, 1.0, (ts, xs))
        exited = xs[-1] >= 1.0  # only the wall cut ends a march at x >= 1
        path = CharacteristicPath(t0, x0, np.asarray(ts) - t0, np.asarray(xs), exited,
                                  ts[-1] - t0 if exited else None)
        self._last = key, path
        return path

    # -- separatrix and loci ----------------------------------------------

    def separatrix(self) -> Locus:
        """The locus of 0, traced once per engine."""
        if self._separatrix is None:
            (self._separatrix,) = self.jump_loci([0.0])
        return self._separatrix

    def jump_loci(self, starts: Sequence[float]) -> list[Locus]:
        """The locus of each initial point."""
        times = self.grid.times
        out = []
        for xi in starts:
            path = self.flow(0.0, float(xi), float(times[-1]))
            pos = np.interp(times, path.s_values, path.x_values)
            if path.exited:
                pos[times >= path.s_exit - 1e-15] = 1.0
            out.append(Locus(float(xi), times, pos, path.s_exit))
        return out

    # -- running minimum of v (bracket widths), from v's record -------------

    def vmin_up_to(self, t: float) -> float:
        vmin = self.v.range_on(self.grid).vmin
        idx = min(len(vmin) - 1, max(0, int(np.ceil(t / self.dt - 1e-12))))
        return float(vmin[idx])

    # -- the scalar march ---------------------------------------------------

    def _march(self, t: float, x: float, until: float,
               wall: Optional[float] = None, samples: Optional[tuple] = None) -> float:
        """RK4 from (t, x) to absolute time ``until``, either way; the end position.

        With a wall (1 forward, 0 back) the march stops on the step that
        reaches it: WALL_HALVINGS halvings of that step bracket the crossing,
        the bracket midpoint is the time of the last sample and the wall its
        position.  ``samples``, a pair of lists, gets the time and position
        after every step.
        """
        sign = 1.0 if until >= t else -1.0
        s, pos = float(t), float(x)
        left = sign * (until - s)
        while left > 1e-15:
            h = min(self.dt, left)
            nxt = float(rk4_step(self.v, s, pos, sign * h))
            if wall is not None and sign * (nxt - wall) >= 0.0:
                lo, hi = 0.0, h  # length of the step that reaches the wall
                for _ in range(WALL_HALVINGS):
                    mid = 0.5 * (lo + hi)
                    if sign * (float(rk4_step(self.v, s, pos, sign * mid)) - wall) >= 0.0:
                        hi = mid
                    else:
                        lo = mid
                s, pos, left = s + sign * (0.5 * (lo + hi)), wall, 0.0
            else:
                s += sign * h
                pos = nxt
                left = sign * (until - s)
            if samples is not None:
                samples[0].append(s)
                samples[1].append(pos)
        return pos

    # -- inverse queries ----------------------------------------------------

    def backtrace_x0(self, t: float, x: float) -> float:
        """Foot of the characteristic through (t, x) on the initial-data side."""
        r0 = self.separatrix().at(t)
        if x <= r0 - 1e-13 or x <= 0.0 and t > 0:
            raise CharacteristicsError(
                "point lies on the boundary-determined side (x <= separatrix)")
        if x > 1.0 + 1e-12:
            raise CharacteristicsError("x must lie in (r0(t), 1]")
        if t == 0.0:
            return float(x)
        # a flow starts inside the strip only: a seed past x = 1 is a miss
        return float(self._invert(
            self._march(t, x, 0.0), x, 0.0, x,
            lambda q: self.flow(0.0, q, t).end_x if q <= 1.0 else np.inf,
            lambda q: self._march(0.0, q, t), increasing=True, what="x0"))

    def backtrace_t0(self, t: float, x: float) -> float:
        """Boundary emission time of the point (t, x) on the boundary-determined side."""
        r0 = self.separatrix().at(t)
        if x > r0 + 1e-13:
            raise CharacteristicsError(
                "point lies on the initial-data side (x > separatrix)")
        if x < 0.0:
            raise CharacteristicsError("x must lie in [0, r0(t)]")
        lower = max(0.0, t - x / self.vmin_up_to(t))
        # g(t0) = X(t - t0; t0, 0) - x is decreasing in t0
        return float(self._invert(
            self._reverse_seed_t0(t, x, lower), x, lower, t,
            lambda q: self.flow(q, 0.0, t).end_x,
            lambda q: self._march(q, 0.0, t), increasing=False, what="t0"))

    @staticmethod
    def _invert(seed, x, lo_full, hi_full, flow_end, propagate, increasing, what):
        """Solve propagate(q) = x for q in [lo_full, hi_full], from a seed.

        g(q) = propagate(q) - x is increasing or decreasing in q as stated.
        A seed inside the bounds whose forward flow ends within
        BACKTRACE_TOL of x is returned as it is: flow_end(q) reads that end
        from the memoized flow, so the caller's next integration along the
        curve is a cache hit.  A miss is bisected in the bracket seed -+
        1e-7; an endpoint on the wrong side of the root falls back to
        lo_full or hi_full, and an endpoint already within BACKTRACE_TOL is
        accepted as it is.  The bisection exits on a small residual, which
        still leaves the root off by residual / |g'| where the slope is
        below one (slow characteristics, compressive flows), so one secant
        step through the final bracket, exact for affine g, closes it.
        """
        g_seed = flow_end(seed) - x if lo_full <= seed <= hi_full else np.inf
        if abs(g_seed) <= BACKTRACE_TOL:
            return seed
        sign = 1.0 if increasing else -1.0
        lo = min(max(seed - 1e-7, lo_full), hi_full)
        hi = min(max(seed + 1e-7, lo_full), hi_full)
        g_lo = propagate(lo) - x
        g_hi = propagate(hi) - x
        if sign * g_lo > 0.0:
            lo = lo_full
            g_lo = propagate(lo) - x
        if sign * g_hi < 0.0:
            hi = hi_full
            g_hi = propagate(hi) - x

        if abs(g_lo) <= BACKTRACE_TOL:
            result, g_res = lo, g_lo
        elif abs(g_hi) <= BACKTRACE_TOL:
            result, g_res = hi, g_hi
        else:
            for _ in range(120):
                mid = 0.5 * (lo + hi)
                g = propagate(mid) - x
                if abs(g) <= BACKTRACE_TOL:
                    result, g_res = mid, g
                    break
                if g > 0.0 if increasing else g <= 0.0:
                    hi, g_hi = mid, g
                else:
                    lo, g_lo = mid, g
            else:
                raise CharacteristicsError(f"{what} bisection did not reach tolerance")

        denom = g_hi - g_lo
        if not abs(denom) > 0.0:
            return result
        sec = min(max(lo - g_lo * (hi - lo) / denom, min(lo, hi)), max(lo, hi))
        return sec if abs(propagate(sec) - x) <= abs(g_res) else result

    def _reverse_seed_t0(self, t: float, x: float, lower: float) -> float:
        """Backward march from (t, x) to the wall x = 0; seed for t0."""
        if x <= 1e-15:
            return t
        ts, xs = [], []
        if self._march(t, x, 0.0, 0.0, (ts, xs)) <= 0.0:
            return ts[-1]
        return max(lower, 0.0)

