"""Output checks, computed with the benchmark's own numpy code.

Nothing here calls the program: data functions come from ``gen.numpy_fn``
over the generated text, and norms, quadratures and closed forms are
written out below.  Each check raises ``CheckError`` naming what differed;
tolerances sit at least five times above the largest error measured on
correct output (see the README), and well below the effect of the tampered
inputs in ``tests/test_checks.py``.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

INFLOW_RTOL = 1e-12
MASS_RTOL = 1e-4
CLOSED_FORM_RTOL = 1e-4
LHS_RTOL = 1e-9
POINT_ATOL = 1e-4
RATIO_RANGE = (1.75, 2.25)
LOOP_SPEED_RTOL = 1e-4
ENVELOPE_RTOL = 1e-7
LOOP_MASS_RTOL = 1e-4


class CheckError(AssertionError):
    """An output disagrees with the benchmark's own computation."""


def _trapz(y: np.ndarray, x: np.ndarray, axis: int = -1) -> np.ndarray:
    y = np.moveaxis(np.asarray(y, dtype=float), axis, -1)
    dx = np.diff(np.asarray(x, dtype=float))
    return np.sum(0.5 * (y[..., 1:] + y[..., :-1]) * dx, axis=-1)


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    return np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))))


def _worst(err: np.ndarray) -> Tuple[float, int]:
    k = int(np.argmax(err))
    return float(np.ravel(err)[k]), k


# ---------------------------------------------------------------------------
# artifact readers
# ---------------------------------------------------------------------------

def read_field(path: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """times, xs and the (times x xs) value matrix of a ``_field.csv``."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    times = np.unique(data[:, 0])
    nx = len(data) // len(times)
    if nx * len(times) != len(data):
        raise CheckError(f"{path}: rows do not form a full grid")
    return times, data[:nx, 1], data[:, 2].reshape(len(times), nx)


def read_cert(path: str) -> List[Tuple[str, float, float, float, float]]:
    """(estimate, p, mu, t, lhs) of every row of a ``_cert.csv``."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            est, p, mu, t, lhs = line.split(",")[:5]
            rows.append((est, float(p), float(mu), float(t), float(lhs)))
    return rows


def read_refine_ratio(path: str) -> float:
    with open(path, encoding="utf-8") as fh:
        last = fh.read().strip().splitlines()[-1]
    return float(last.split(",")[2])


# ---------------------------------------------------------------------------
# continuity_certify
# ---------------------------------------------------------------------------

def check_positive(rho: np.ndarray):
    if not np.all(rho > 0.0):
        raise CheckError(f"density not positive: min {float(rho.min())!r}")


def check_inflow(times, rho, rho_s: float, b_fn):
    """rho(t, 0) = rho_s e^{b(t)}."""
    want = rho_s * np.exp(b_fn(times))
    err = np.abs(rho[:, 0] - want) / want
    worst, k = _worst(err)
    if worst > INFLOW_RTOL:
        raise CheckError(f"inflow density off by {worst:.3e} (relative) at t={times[k]!r}")


def check_mass_balance(times, xs, rho, v_fn):
    """M(t) - M(0) equals the integrated flux (rho v)(t, 0) - (rho v)(t, 1)."""
    mass = _trapz(rho, xs, axis=1)
    flux = rho[:, 0] * v_fn(times, 0.0) - rho[:, -1] * v_fn(times, 1.0)
    err = np.abs((mass - mass[0]) - _cumtrapz(flux, times)) / mass[0]
    worst, k = _worst(err)
    if worst > MASS_RTOL:
        raise CheckError(f"mass balance off by {worst:.3e} of M(0) at t={times[k]!r}")


def check_closed_form(times, xs, rho, exact_fn):
    """Node-by-node agreement with the closed-form density."""
    want = np.array([exact_fn(float(t), xs) for t in times])
    err = np.abs(rho - want) / want
    worst, k = _worst(err)
    if worst > CLOSED_FORM_RTOL:
        row, col = divmod(k, rho.shape[1])
        raise CheckError(f"closed form off by {worst:.3e} (relative) at "
                         f"t={times[row]!r}, x={xs[col]!r}")


def _log_norm(w_row: np.ndarray, xs: np.ndarray, p: float) -> float:
    if p == math.inf:
        return float(np.max(np.abs(w_row)))
    return float(_trapz(np.abs(w_row) ** p, xs) ** (1.0 / p))


def check_cert_lhs(cert_rows, times, xs, rho, rho_s: float):
    """Each lhs is the L^p / sup norm of ln(rho/rho_s) on the simulated field."""
    if not cert_rows:
        raise CheckError("certificate table is empty")
    w = np.log(rho / rho_s)
    index = {float(t): k for k, t in enumerate(times)}
    cache: Dict[Tuple[int, float], float] = {}
    for est, p, mu, t, lhs in cert_rows:
        k = index.get(t)
        if k is None:
            raise CheckError(f"{est} row at t={t!r} matches no simulated time")
        want = cache.get((k, p))
        if want is None:
            want = cache[(k, p)] = _log_norm(w[k], xs, p)
        if abs(lhs - want) > LHS_RTOL * max(abs(want), 1e-3):
            raise CheckError(f"{est} p={p!r} mu={mu!r} t={t!r}: lhs {lhs!r} "
                             f"but the field gives {want!r}")


def check_cert_json(path: str, expected_cells: int):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    failed = [v for v in report["verdicts"] if not v["passed"]]
    if not report["passed"] or failed:
        raise CheckError(f"{path}: certificates failed: {failed}")
    if len(report["verdicts"]) != expected_cells:
        raise CheckError(f"{path}: {len(report['verdicts'])} verdicts, "
                         f"expected {expected_cells}")


def check_exit_status(status: int, printed: str):
    if status != 0 or "verdict: pass" not in printed:
        raise CheckError(f"exit status {status}, output {printed!r}")


# ---------------------------------------------------------------------------
# transport_oracle
# ---------------------------------------------------------------------------

def check_points(queries: Sequence[Tuple[float, float]], values, wstar_fn):
    """solve_point matches the exact solution w*."""
    for (t, x), got in zip(queries, values):
        want = float(wstar_fn(t, x))
        if not abs(got - want) <= POINT_ATOL:
            raise CheckError(f"solve_point({t!r}, {x!r}) = {got!r}, w* = {want!r}")


def check_refine_ratio(ratio: float):
    """First-order oracle: the discrepancy halves when nx doubles."""
    lo, hi = RATIO_RANGE
    if not lo <= ratio <= hi:
        raise CheckError(f"refinement ratio {ratio!r} outside [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# closed_loop
# ---------------------------------------------------------------------------

def check_loop_speed(xs, rho, v, lam_fn):
    """v(t) = lambda(W(t)), W integrated from the density rows."""
    want = lam_fn(_trapz(rho, xs, axis=1))
    err = np.abs(v - want) / want
    worst, k = _worst(err)
    if worst > LOOP_SPEED_RTOL:
        raise CheckError(f"speed off lambda(W) by {worst:.3e} (relative) at row {k}")


def data_envelope(rho_s: float, rho0_fn, b_fn, horizon: float) -> Tuple[float, float]:
    """[min, max] of the initial load and of the inflow density rho_s e^b."""
    r0 = rho0_fn(np.linspace(0.0, 1.0, 20001))
    inflow = rho_s * np.exp(b_fn(np.linspace(0.0, horizon, 200001)))
    return (min(float(r0.min()), float(inflow.min())),
            max(float(r0.max()), float(inflow.max())))


def check_envelope(rho, envelope: Tuple[float, float]):
    lo, hi = envelope
    below = float(rho.min()) < lo * (1.0 - ENVELOPE_RTOL)
    above = float(rho.max()) > hi * (1.0 + ENVELOPE_RTOL)
    if below or above:
        raise CheckError(f"density range [{float(rho.min())!r}, {float(rho.max())!r}] "
                         f"leaves the data envelope [{lo!r}, {hi!r}]")


def check_loop_mass(times, xs, rho, v):
    """W(t) - W(0) equals the integrated inflow minus outflow."""
    w = _trapz(rho, xs, axis=1)
    net = _cumtrapz(v * (rho[:, 0] - rho[:, -1]), times)
    err = np.abs((w - w[0]) - net) / w[0]
    worst, k = _worst(err)
    if worst > LOOP_MASS_RTOL:
        raise CheckError(f"inventory balance off by {worst:.3e} of W(0) at row {k}")


def check_verdicts(envelope_ok: bool, passed: Sequence[bool]):
    if not envelope_ok:
        raise CheckError("envelope_check reported a violation")
    if not passed or not all(passed):
        raise CheckError(f"certificate verdicts {list(passed)}")
