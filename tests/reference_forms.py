"""Per-time and per-row formulas the array forms of the package must match bitwise.

Each evaluates one time or one row on its own, the way the certifier did
before it computed norms and fading-memory maxima for all times at once,
and the way the problem data were sampled before the blocked sampler.
``fan_values`` is the characteristic fan as it ran before it evaluated a
and f a block of steps at a time, and before it interpolated a block of
rows in one pass: one ``np.interp`` per segment of each row.  ``Counted``
counts the calls a field or signal receives.  ``numpy_speed`` reads an
expression speed through its numpy function at Python floats too, as the
scalar RK4 steps did before they read its float function.  ``field_lines``
and ``cert_lines`` are the CLI's CSV writers as they formatted one value at
a time, before they formatted a row or a certificate at a time.
"""

import math

import numpy as np

from transportlab.bounds import boundary_coefficient, mu_is_valid
from transportlab.characteristics import rk4_step
from transportlab.cli import _fmt_p
from transportlab.fields import VelocityField
from transportlab.norms import heaviside_h

INF = math.inf


class Counted:
    """A field or signal callable that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def numpy_speed(e):
    """A speed that calls the expression ``e`` at every read, floats included."""
    return VelocityField(lambda t, x: e(t=t, x=x))


def field_lines(state):
    """The field CSV, one line per node."""
    yield f"t,x,{'rho' if state.kind == 'rho' else 'w'}"
    for t, row in zip(state.times, state.values):
        for x, v in zip(state.xs, row):
            yield f"{repr(float(t))},{repr(float(x))},{repr(float(v))}"


def cert_lines(certs):
    """The certificate CSV, one line per time, each value formatted alone."""
    yield "estimate,p,mu,t,lhs,rhs,margin"
    for c in certs:
        head = f"{c.estimate_id},{_fmt_p(c.p)},{repr(float(c.mu))}"
        yield from (f"{head},{repr(float(t))},{repr(float(l))},{repr(float(r))},"
                    f"{repr(float(m))}"
                    for t, l, r, m in zip(c.times, c.lhs, c.rhs, c.margin))


def fading_memory_max(times, values, t, mu, vmin):
    """One window mask over every sample."""
    start = max(0.0, t - 1.0 / vmin)
    mask = (times >= start - 1e-12) & (times <= t + 1e-12)
    return float(np.max(values[mask] * np.exp(-mu * (t - times[mask]))))


def lp_norm(values, xs, p):
    """The root taken on the row's own integral."""
    if p == INF:
        return float(np.max(np.abs(values)))
    return float(np.trapezoid(np.abs(values) ** p, xs) ** (1.0 / p))


def lhs(run, p):
    fld = run.state
    if fld.kind == "rho":
        return np.array([lp_norm(np.log(row / run.rho_s), fld.xs, p)
                         for row in fld.values])
    return np.array([lp_norm(row, fld.xs, p) for row in fld.values])


def rhs(run, base, p, mu, rows=None):
    """(rhs, valid, factored gain, unfactored gain) at every time of the run,
    or at the given rows only (the rest stay NaN and invalid)."""
    times = run.times
    n = len(times)
    out = np.full(n, math.nan)
    valid = np.zeros(n, dtype=bool)
    coef_f = np.full(n, math.nan)
    coef_u = np.full(n, math.nan)
    pinv = 0.0 if p == INF else 1.0 / p
    phi_n = lp_norm(run.phi_row, run.grid.xs, p)
    b_abs = np.abs(run.b_values)
    if base != "E3.6":
        f_abs = np.abs([lp_norm(row, run.grid.xs, p) for row in run.f_rows])
    for k in range(n) if rows is None else rows:
        t = float(times[k])
        if base == "E3.6":
            vmin = 1.0 / run.r
            if not mu_is_valid(base, p, mu, vmin):
                continue
            b_max = fading_memory_max(times, b_abs, t, mu, vmin)
            coef_f[k] = boundary_coefficient(p, mu, 0.0, vmin)
            coef_u[k] = boundary_coefficient(p, mu, 0.0, vmin, factored=False)
            out[k] = float(heaviside_h(t - run.r)) * phi_n + coef_f[k] * b_max
        else:
            vmin, vmax, a_max = (float(run.ext.vmin[k]), float(run.ext.dvdx_max[k]),
                                 float(run.ext.a_max[k]))
            a = a_max if base == "E2.10" else 0.0
            if not mu_is_valid(base, p, mu, vmin, vmax, a_max):
                continue
            h = float(heaviside_h(t - 1.0 / vmin))
            term1 = math.exp((a + pinv * vmax) * t) * h * phi_n if h else 0.0
            f_max = fading_memory_max(times, f_abs, t, mu, vmin)
            term2 = (1.0 / vmin) * math.exp(1.0 + (mu + pinv * vmax + a) / vmin) * f_max
            b_max = fading_memory_max(times, b_abs, t, mu, vmin)
            coef_f[k] = boundary_coefficient(p, mu, a, vmin)
            coef_u[k] = boundary_coefficient(p, mu, a, vmin, factored=False)
            out[k] = term1 + term2 + coef_f[k] * b_max
        valid[k] = True
    return out, valid, coef_f, coef_u


def grid_rows(fn, grid):
    """fn on the grid, one call per grid time."""
    ones = np.ones(grid.nx)
    return np.array([np.asarray(fn(t, grid.xs), dtype=float) * ones
                     for t in grid.times])


def extremals(v, grid, a=None):
    """(vmin, dvdx_max, a_max) of each grid row, before the running extremals."""
    vmin = np.array([np.min(np.asarray(v(t, grid.xs), dtype=float)) for t in grid.times])
    slope = np.array([np.max(np.asarray(v.ddx(t, grid.xs), dtype=float))
                      for t in grid.times])
    a_max = (np.zeros(len(grid.times)) if a is None else
             np.array([np.max(np.asarray(a(t, grid.xs), dtype=float)) for t in grid.times]))
    return (np.minimum.accumulate(vmin), np.maximum.accumulate(slope),
            np.maximum.accumulate(a_max))


def b_values(problem, grid):
    """The boundary signal at each grid time, one scalar call per time."""
    return np.array([float(problem.b(t)) for t in grid.times])


def f_rows(problem, grid):
    """The source on each grid row, one call per time."""
    ones = np.ones_like(grid.xs)
    return np.array([np.asarray(problem.coeffs.f(float(t), grid.xs), dtype=float) * ones
                     for t in grid.times])


def upwind_solve(problem, grid):
    """The upwind march with a and f evaluated on each row as it is reached."""
    xs, times, lam = grid.xs, grid.times, grid.dt / grid.dx
    v_rows = grid_rows(problem.v, grid)
    w = np.empty((grid.nt + 1, grid.nx))
    w[0] = np.asarray(problem.phi(xs), dtype=float)
    w[0, 0] = float(problem.b(0.0))
    for n in range(grid.nt):
        t = float(times[n])
        row = w[n]
        a_row = np.asarray(problem.coeffs.a(t, xs), dtype=float) * np.ones(grid.nx)
        f_row = np.asarray(problem.coeffs.f(t, xs), dtype=float) * np.ones(grid.nx)
        nxt = w[n + 1]
        nxt[1:] = (row[1:]
                   - lam * v_rows[n, 1:] * (row[1:] - row[:-1])
                   + grid.dt * (a_row[1:] * row[1:] + f_row[1:]))
        nxt[0] = float(problem.b(float(times[n + 1])))
    return w


def fan_values(problem, grid, include_phi=True, include_b=True, include_f=True):
    """The fan field, one step and one row of a and f at a time.

    Members: boundary members K - 1 .. 0 injected at x = 0 by steps 0 .. K - 1,
    the separatrix K, then the initial members at the grid nodes and jump
    points; each step integrates [first, stop), from the latest injection to
    the first member past the wall.
    """
    K, h, xs = grid.nt, grid.dt, grid.xs
    a_fn, f_fn = problem.coeffs.a, problem.coeffs.f
    feet = np.unique(np.concatenate([xs, np.asarray(problem.phi.jump_points)]))
    M = K + 1 + len(feet)
    X, A, Fq, w0 = np.zeros(M), np.zeros(M), np.zeros(M), np.zeros(M)
    X[K + 1:] = feet
    if include_phi:
        w0[K + 1:] = np.asarray(problem.phi(feet), dtype=float)
    if include_b:
        w0[K] = float(problem.b(0.0))
        b_ends = np.asarray(problem.b(grid.times[:-1] + h), dtype=float) * np.ones(K)
    loci = [K + 1 + int(np.searchsorted(feet, p))
            for p in (0.0,) + problem.phi.jump_points]
    segments = list(zip(loci, loci[1:] + [M - 1]))

    def row(fn, t, lo, hi):
        out = np.empty(hi - lo)
        out[:] = fn(t, np.clip(X[lo:hi], 0.0, 1.0))
        return out

    def fill(out, mask, pos, vals):
        if not np.any(mask):
            return
        keep = np.concatenate([[True], np.diff(pos) > 1e-13])
        pos, vals = pos[keep], vals[keep]
        out[mask] = vals[0] if len(pos) == 1 else np.interp(xs[mask], pos, vals)

    def eval_row(out, lo, hi):
        w = np.exp(A[lo:hi]) * (w0[lo:hi] + Fq[lo:hi])
        fences = np.minimum(X[loci], 1.0)
        fences[0] = min(X[K], 1.0)
        seg = np.searchsorted(fences, xs, side="left")
        end = min(K + 1, hi)
        fill(out, seg == 0, X[lo:end], w[:end - lo])
        for j, (i0, i1) in enumerate(segments, start=1):
            end = min(i1 + 1, hi)
            fill(out, seg == j, X[i0:end], w[i0 - lo:end - lo])

    values = np.empty((K + 1, grid.nx))
    first, stop = K, M
    a_cur, f_cur = row(a_fn, 0.0, first, stop), row(f_fn, 0.0, first, stop)
    eval_row(values[0], first, stop)
    for k in range(K):
        t1 = float(grid.times[k]) + h
        lo = first
        X[lo:stop] = rk4_step(problem.v, float(grid.times[k]), X[lo:stop], h)
        past = lo + int(np.searchsorted(X[lo:stop], 1.0, side="right"))
        stop = hi = min(stop, past + 1)
        first = K - (k + 1)
        if include_b:
            w0[first] = b_ends[k]
        a_new, f_new = row(a_fn, t1, first, hi), row(f_fn, t1, first, hi)
        n = hi - lo
        a_old = A[lo:hi].copy()
        a_step = 0.5 * h * (a_cur[:n] + a_new[1:])
        if include_f:
            Fq[lo:hi] += 0.5 * h * (np.exp(-a_old) * f_cur[:n]
                                    + np.exp(-(a_old + a_step)) * f_new[1:])
        A[lo:hi] += a_step
        a_cur, f_cur = a_new, f_new
        eval_row(values[k + 1], first, hi)
    return values
