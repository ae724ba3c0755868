"""Per-time and per-row formulas the array forms of the package must match bitwise.

Each evaluates one time or one row on its own, the way the certifier did
before it computed norms and fading-memory maxima for all times at once.
"""

import math

import numpy as np

from transportlab.bounds import boundary_coefficient, mu_is_valid
from transportlab.norms import heaviside_h

INF = math.inf


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


def rhs(run, base, p, mu):
    """(rhs, valid, factored gain, unfactored gain) at every time of the run."""
    times = run.times
    n = len(times)
    out = np.full(n, math.nan)
    valid = np.zeros(n, dtype=bool)
    coef_f = np.full(n, math.nan)
    coef_u = np.full(n, math.nan)
    pinv = 0.0 if p == INF else 1.0 / p
    phi_n = lp_norm(run.phi_row, run.grid.xs, p)
    b_abs = np.abs(run.b_trace.values)
    if base != "E3.6":
        f_abs = np.abs([lp_norm(row, run.grid.xs, p) for row in run.f_rows])
    for k, t in enumerate(times):
        t = float(t)
        if base == "E3.6":
            vmin = 1.0 / run.r
            if not mu_is_valid(base, p, mu, vmin):
                continue
            b_max = fading_memory_max(times, b_abs, t, mu, vmin)
            coef_f[k] = boundary_coefficient(p, mu, 0.0, vmin)
            coef_u[k] = boundary_coefficient(p, mu, 0.0, vmin, factored=False)
            out[k] = float(heaviside_h(t - run.r)) * phi_n + coef_f[k] * b_max
        else:
            vmin, vmax, a_max = run.ext.at(t)
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
