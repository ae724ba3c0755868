"""Linear transport equation w_t + v w_x = a w + f on the unit strip.

Solutions are evaluated on characteristics.  For a query point fed by the
initial data the state is

    w(t, x) = exp(I_a(0, t)) phi(x0) + int_0^t exp(I_a(tau, t)) f(tau, X(tau)) dtau

with x0 the characteristic foot and I_a the integral of a along the curve;
points fed by the boundary use the matching formula with b(t0) in place of
phi(x0) and integrals starting at the emission time t0.  All line integrals
are composite trapezoid sums along the stored RK4 path samples.

``solve_point`` evaluates the formulas literally.  The problem's kept
characteristics engine backtraces the query point to its foot or emission
time: a reverse RK4 seed, returned once its forward flow lands within 1e-10
of the point and bisected only otherwise; the integrals then run along that
same flow, the one the engine memoizes.  ``solve_field`` evaluates the same
formulas along a fan of characteristics - one per initial grid node, one
per boundary grid time, plus every declared jump point - and lands on grid
nodes by piecewise-linear interpolation within the smooth region between
adjacent jump loci, never across one.  Linear interpolation is deliberate:
it is linear in the member values, so superposition splits recombine
exactly, and it cannot overshoot, so solution envelopes survive the
transfer to the grid.  Both routes share one RK4 step,
``characteristics.rk4_step``, and one quadrature rule; a field solve builds
no engine, and the fan costs O(rows x members) instead of O(nodes) root
finds, which keeps full space-time fields tractable.  Of the members that
left the strip, only the first one past the wall is kept, as the right
bracket of the nodes near x = 1.  The fan evaluates a and f once per block
of ``ROW_BLOCK`` steps, with the sums of single steps, term for term, and
interpolates the block's rows in one pass, bitwise as np.interp per row.
``solve_fields`` runs one fan for grids that share their times, such as a
certificate's grid and its coarsened grid: the fan's initial members sit at
the union of their nodes, and each grid interpolates from its own members,
so each field is bit for bit the one a solve of its own gives.
``decompose`` splits a solution into its responses to b, phi and f: each
part solves a copy of the problem whose other two data are zero, so the
solver has no switch for leaving a datum out.

Nodes lying exactly on a jump locus (the separatrix included) take the
left-limit value, matching the left-continuity convention for piecewise
C^1 data.  A field solve returns the values only: the separatrix and the
jump loci are not integrated for it, and ``CharacteristicEngine.separatrix``
and ``jump_loci`` provide them.  A solve whose field holds a value that is
not finite raises ``FieldValidationError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .characteristics import CharacteristicEngine, rk4_step
from .fields import (
    ROW_BLOCK,
    BoundarySignal,
    FieldValidationError,
    Grid,
    InitialProfile,
    SpaceTimeField,
    TransportCoefficients,
    VelocityField,
)
from .norms import cumulative_trapezoid

__all__ = [
    "TransportProblem",
    "SolutionField",
    "solve_point",
    "solve_field",
    "solve_fields",
    "decompose",
]


@dataclass
class TransportProblem:
    """Data for one transport run: initial phi, boundary b, speed v, and (a, f).

    The problem keeps the characteristic engine of its latest (v, grid)
    pair for ``solve_point``, so the separatrix is integrated once and serves
    every query on that grid; the running minimum of v is v's ``range_on``.
    The engine memoizes only its latest flow, so a long-lived problem holds
    one path.  Asking for another grid, or replacing ``v``, starts a new engine.
    """

    phi: InitialProfile
    b: BoundarySignal
    v: VelocityField
    coeffs: TransportCoefficients = field(default_factory=TransportCoefficients)
    _engine: Optional[CharacteristicEngine] = field(
        default=None, init=False, repr=False, compare=False)

    def validate(self, grid: Grid):
        self.v.validate_positive(grid)
        self.b.validate_finite(grid.times)

    def engine_for(self, grid: Grid) -> CharacteristicEngine:
        """The engine of (v, grid), kept for the latest pair."""
        kept = self._engine
        if kept is None or kept.v is not self.v or kept.grid != grid:
            self._engine = CharacteristicEngine(self.v, grid)
        return self._engine


@dataclass
class SolutionField:
    """State sampled on the full space-time grid: ``values[k, i]`` is the
    state at ``grid.times[k]`` and ``grid.xs[i]``.

    ``kind`` is "w" for transport state or "rho" for densities.  It holds no
    separatrix or jump loci; ``CharacteristicEngine(v, grid)`` provides them.
    """

    grid: Grid
    values: np.ndarray  # shape (nt + 1, nx)
    kind: str

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    @property
    def xs(self) -> np.ndarray:
        return self.grid.xs

    def check_finite(self) -> "SolutionField":
        """Raise FieldValidationError naming the first node, row by row, whose
        value is not finite; return the field otherwise."""
        finite = np.isfinite(self.values)
        if not finite.all():
            k, i = np.unravel_index(np.argmin(finite), finite.shape)
            raise FieldValidationError(
                f"{'density' if self.kind == 'rho' else 'solution'} is not finite "
                f"at t = {float(self.times[k])!r}, x = {float(self.xs[i])!r}")
        return self

    @property
    def final_row(self) -> np.ndarray:
        return self.values[-1]


# ---------------------------------------------------------------------------
# Pointwise evaluation via certified backtraces
# ---------------------------------------------------------------------------

def _integrals_along(path_s, path_x, t_offset, problem):
    """Cumulative reaction integral and source convolution along a path."""
    ts = t_offset + path_s
    xs = np.clip(path_x, 0.0, 1.0)
    ones = np.ones_like(ts)
    a_vals = np.asarray(problem.coeffs.a(ts, xs), dtype=float) * ones
    f_vals = np.asarray(problem.coeffs.f(ts, xs), dtype=float) * ones
    if len(path_s) == 1:
        return 0.0, 0.0
    a_cum = cumulative_trapezoid(a_vals, path_s)
    conv = np.trapezoid(np.exp(-a_cum) * f_vals, path_s)
    return float(a_cum[-1]), float(conv)


def solve_point(problem: TransportProblem, grid: Grid, t: float, x: float) -> float:
    """w(t, x) by the explicit characteristic formulas (certified backtraces)."""
    engine = problem.engine_for(grid)
    r0 = engine.separatrix().at(t)
    if x > r0:
        x0 = engine.backtrace_x0(t, x)
        path = engine.flow(0.0, x0, t)
        a_total, conv = _integrals_along(path.s_values, path.x_values, 0.0, problem)
        return float(np.exp(a_total) * (problem.phi(x0) + conv))
    t0 = engine.backtrace_t0(t, x)
    path = engine.flow(t0, 0.0, t)
    a_total, conv = _integrals_along(path.s_values, path.x_values, t0, problem)
    return float(np.exp(a_total) * (problem.b(t0) + conv))


# ---------------------------------------------------------------------------
# Field evaluation along a characteristic fan
# ---------------------------------------------------------------------------

class _Members:
    """One grid's members of a fan: the boundary members and the grid's own
    feet, numbered in position order as a fan of that grid alone numbers
    them.  ``cols`` holds the fan's column of each (None when the grid has
    all of them), ``fences`` and ``seg_end`` its segments, and ``stop`` - 1
    its first member past the wall.
    """

    def __init__(self, grid: Grid, K: int, jumps: tuple, fan_feet: np.ndarray):
        feet = np.unique(np.concatenate([grid.xs, jumps]))
        self.grid = grid
        self.stop = K + 1 + len(feet)
        self.cols = None if len(feet) == len(fan_feet) else np.concatenate(
            [np.arange(K + 1), K + 1 + np.searchsorted(fan_feet, feet)])
        # segment 0 runs from a row's latest boundary member to the
        # separatrix K, segment s >= 1 from locus s - 1 (of x = 0, then of
        # each jump point) to locus s or the last member, both included
        loci = [K + 1 + int(np.searchsorted(feet, xi)) for xi in (0.0,) + jumps]
        self.fences = np.array([K] + loci[1:])  # segment s ends at fence s
        self.seg_end = np.append(self.fences + 1, self.stop)
        self.his = []  # stop after each step of the block being advanced

    def retire(self, past: int) -> int:
        """Keep the members up to the first one at or after fan column
        ``past``, note the new ``stop`` in ``his``, and return the fan column
        after the last member kept."""
        full = self.cols is None
        first_past = past if full else int(np.searchsorted(self.cols, past))
        self.stop = min(self.stop, first_past + 1)
        self.his.append(self.stop)
        return self.stop if full else int(self.cols[self.stop - 1]) + 1

    def own(self, X: np.ndarray, w: np.ndarray, L: int, S: int):
        """This grid's columns of the fan's positions X and of w, the values
        of the fan's members from L on; w keeps this grid's members L to S."""
        if self.cols is None:
            return X, w[:, :S - L]
        return X[:, self.cols], w[:, self.cols[L:S] - L]


class _Fan:
    """One characteristic per data sample, advanced in lockstep over the
    times that one or more grids share.

    Member layout (positions ascending): boundary members in reverse
    injection order (the t = 0 injection is the separatrix, carrying the
    boundary-limit value), then the initial member released at x = 0
    (carrying the initial-data limit), then initial members at every node of
    every grid and at every declared jump point.  Each grid reads its own
    members (``_Members``): the boundary members and its own feet.  Its
    jump-point members double as segment fences: interpolation runs inside
    segments only.  Members step over the window [first, stop), from the
    latest boundary member to the last of the grids' first members past the
    wall: the flow keeps order, so that member is a grid's right bracket for
    nodes near x = 1, and the ones after it are never read again.

    A member's positions, its a and f values and its running sums depend on
    that member alone, so each grid's field is bit for bit the one a fan of
    its own gives.  For odd nx every node of ``grid.coarsened_space()`` is a
    node of the grid, so the two grids' fan is the grid's own; for even nx
    it adds at most nx/2 + 1 members.

    Positions depend on v alone, so a block of ``ROW_BLOCK`` RK4 steps runs
    first, then one call of a and one of f cover the block's rows on the
    union of their windows.  The union adds members not yet injected, at
    x = 0, and members past the wall, clamped to x = 1, where each row
    evaluates anyway; their increments are zero.  One pass of ``_to_nodes``
    per grid then interpolates all the block's rows: a search of the nodes
    per row, the rest on (rows, nodes) arrays.
    """

    def __init__(self, problem: TransportProblem, grids: list):
        self.problem = problem
        self.times, self.h = grids[0].times, grids[0].dt
        K = len(self.times) - 1
        self.K = K

        jumps = problem.phi.jump_points
        feet = np.unique(np.concatenate([g.xs for g in grids] + [np.asarray(jumps)]))
        self.members = [_Members(g, K, jumps, feet) for g in grids]
        M = (K + 1) + len(feet)

        self.X = np.zeros(M)
        self.A = np.zeros(M)
        self.Fq = np.zeros(M)
        self.w0 = np.zeros(M)
        # before the first step: the separatrix and the initial members
        self.first = K
        self.stop = M

        # initial members
        self.X[K + 1:] = feet
        self.w0[K + 1:] = np.asarray(problem.phi(feet), dtype=float)
        # boundary member injected at t = 0, and the data of the one injected
        # by each step k, member K - 1 - k, at the step's end time
        self.w0[K] = float(problem.b(0.0))
        self.w0[K - 1::-1] = problem.b(self.times[:-1] + self.h)

        self._latest = np.zeros((2, M))  # a and f of the latest row, by member
        x = np.clip(self.X[K:], 0.0, 1.0)
        self._latest[0, K:] = problem.coeffs.a(0.0, x)
        self._latest[1, K:] = problem.coeffs.f(0.0, x)

    def first_row(self, outs: list):
        """Interpolate the member values at t = 0 onto each grid's nodes."""
        lo, hi = self.first, self.stop
        w = np.exp(self.A[lo:hi]) * (self.w0[lo:hi] + self.Fq[lo:hi])
        for m, out in zip(self.members, outs):
            X, wm = m.own(self.X[None], w[None], lo, m.stop)
            self._to_nodes(m, out[None], X, wm, lo, np.array([lo]), np.array([m.stop]))

    def advance(self, k0: int, outs: list):
        """Step rows k0 .. k0 + B, injecting a boundary member at the wall on
        each step, and interpolate rows k0 + 1 .. k0 + B into each grid's
        ``out`` (B rows)."""
        h = self.h
        B = len(outs[0])
        L, S = self.K - (k0 + B), self.stop  # the union window [L, S)
        starts = [m.stop for m in self.members]
        for m in self.members:
            m.his = []
        X = np.empty((B, len(self.X)))
        ends = []  # the end of the window each step integrates
        for j in range(B):
            lo = self.first
            self.X[lo:self.stop] = rk4_step(
                self.problem.v, float(self.times[k0 + j]), self.X[lo:self.stop], h)
            past = lo + int(np.searchsorted(self.X[lo:self.stop], 1.0, side="right"))
            self.stop = max([m.retire(past) for m in self.members])
            ends.append(self.stop)
            self.first = lo - 1  # the member injected at x = 0
            X[j] = self.X

        times = self.times[k0:k0 + B, None] + h
        x = np.clip(X[:, L:S], 0.0, 1.0)
        rows = np.empty((2, B + 1, S - L))  # a and f, after the latest row
        rows[:, 0] = self._latest[:, L:S]
        rows[0, 1:] = self.problem.coeffs.a(times, x)
        rows[1, 1:] = self.problem.coeffs.f(times, x)
        self._latest[:, L:S] = rows[:, -1]
        a, f = rows
        del x
        cols = np.arange(L, S)  # step j integrates from L + B - j
        idle = (cols < np.arange(L + B, L, -1)[:, None]) | (cols >= np.array(ends)[:, None])

        A = self._integrated(self.A[L:S], a, h, idle)
        self.A[L:S] = A[-1]
        f *= np.exp(-A)
        Fq = self._integrated(self.Fq[L:S], f, h, idle)[1:]
        self.Fq[L:S] = Fq[-1]
        del rows, a, f
        w = np.exp(A[1:])
        w *= self.w0[L:S] + Fq
        lo = L + np.arange(B - 1, -1, -1)
        for m, out, start in zip(self.members, outs, starts):
            Xm, wm = m.own(X, w, L, start)
            self._to_nodes(m, out, Xm, wm, L, lo, np.array(m.his))
            del Xm, wm  # one grid's temporaries at a time

    @staticmethod
    def _integrated(start, g, h, idle):
        """Running trapezoid sums over the block's steps: row 0 is ``start``,
        and row j + 1 adds 0.5 h (g[j] + g[j + 1]) where the member steps.
        Sums run row after row, as the += of single steps would."""
        out = np.empty_like(g)
        out[0] = start
        np.add(g[:-1], g[1:], out=out[1:])
        out[1:] *= 0.5 * h
        out[1:][idle] = 0.0
        return np.cumsum(out, axis=0, out=out)

    def _to_nodes(self, m: _Members, out, X, w, L, lo, hi):
        """Interpolate onto the nodes of m's grid, one row of ``out`` per row
        of X, which holds all of m's positions; row r reads its window
        [lo[r], hi[r]) and w[r] the values of m's members from L on.  A node
        takes np.interp's value within the segment of the first fence at or
        right of it.  A member within 1e-13 of the one before it is dropped,
        but where it starts a segment; the rare rows with such a pair remap
        their brackets to the head of each cluster.
        """
        xs = m.grid.xs
        rows = np.arange(len(out))[:, None]
        seg = np.zeros(out.shape, dtype=np.intp)
        for fence in np.minimum(X[:, m.fences], 1.0).T:
            seg += fence[:, None] < xs
        end = np.minimum(m.seg_end[seg], hi[:, None]) - 1
        j = np.array([np.searchsorted(X[r, a:b], xs, side="right") + (a - 1)
                      for r, (a, b) in enumerate(zip(lo, hi))])
        np.minimum(j, end, out=j)
        nxt = j + 1

        # gap[r, c] leads to member L + 1 + c; a pair across a row's window
        # edge, or the separatrix and the member released with it, is no pair
        gap = np.diff(X[:, L:L + w.shape[1]])
        c = np.arange(L + 1, L + w.shape[1])
        gap[(c <= lo[:, None]) | (c >= hi[:, None]) | (c == self.K + 1)] = np.inf
        for r in np.flatnonzero((~(gap > 1e-13)).any(axis=1)):
            l0, idx = lo[r], np.arange(lo[r], hi[r])
            keep = np.concatenate([[True], gap[r, l0 - L:hi[r] - L - 1] > 1e-13])
            kept = keep | np.isin(idx, m.fences[1:])  # a jump locus starts one
            head = np.maximum.accumulate(np.where(kept, idx, l0))
            after = np.minimum.accumulate(np.where(kept, idx, hi[r])[::-1])[::-1]
            e = end[r]
            end[r] = np.where(keep[e - l0], e, head[np.maximum(e - 1 - l0, 0)])
            j[r] = np.minimum(head[j[r] - l0], end[r])
            nxt[r] = after[np.minimum(j[r] + 1, e) - l0]

        np.minimum(nxt, end, out=nxt)
        xj, fj = X[rows, j], w[rows, j - L]
        with np.errstate(divide="ignore", invalid="ignore"):  # at the ends, 0 / 0
            out[:] = (w[rows, nxt - L] - fj) / (X[rows, nxt] - xj) * (xs - xj) + fj
        np.copyto(out, fj, where=(j == end) | (xs == xj))


def solve_field(problem: TransportProblem, grid: Grid) -> SolutionField:
    """Solve on the whole grid; see the module docstring for the method."""
    (w,) = solve_fields(problem, [grid])
    return w.check_finite()


def solve_fields(problem: TransportProblem, grids: list) -> list[SolutionField]:
    """``solve_field`` on each of ``grids``, which share their times, from
    one fan.  Each grid is validated, in order, before the fan starts.  Each
    field is bit for bit the one ``solve_field`` gives on its grid, but
    unchecked: the caller runs ``check_finite`` on the ones it reads.
    """
    times = grids[0].times
    if any(not np.array_equal(g.times, times) for g in grids):
        raise ValueError("the grids of one fan must share their times")
    for g in grids:
        problem.validate(g)
    fan = _Fan(problem, grids)
    values = [np.empty((len(times), g.nx)) for g in grids]
    fan.first_row([v[0] for v in values])
    for k in range(0, len(times) - 1, ROW_BLOCK):
        fan.advance(k, [v[k + 1:k + 1 + ROW_BLOCK] for v in values])
    return [SolutionField(grid=g, values=v, kind="w") for g, v in zip(grids, values)]


def decompose(problem: TransportProblem, grid: Grid
              ) -> tuple[SolutionField, SolutionField, SolutionField]:
    """The responses to the boundary data, the initial data and the source,
    returned in that order.

    Each part solves a copy of the problem with the other two data set to
    zero; the zero phi keeps its jump points, so all three parts ride the
    same characteristic fan and their pointwise sum reproduces the full
    solution to rounding.
    """
    zero_phi = InitialProfile(np.zeros_like, problem.phi.jump_points)
    zero_b, zero_f = BoundarySignal.constant(0.0), SpaceTimeField.zero()
    parts = [(zero_phi, problem.b, zero_f),
             (problem.phi, zero_b, zero_f),
             (zero_phi, zero_b, problem.coeffs.f)]
    return tuple(solve_field(replace(problem, phi=phi, b=b,
                                     coeffs=replace(problem.coeffs, f=f)), grid)
                 for phi, b, f in parts)
