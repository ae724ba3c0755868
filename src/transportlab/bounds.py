"""Stability certificates: norm bounds checked along simulated trajectories.

Each estimate bounds a state norm by a decaying overshoot term plus gain
terms over fading-memory maxima of the inputs.  ``certify`` is the one place
a bound is evaluated: it computes left- and right-hand sides at every grid
time of a run and reports margins.  Norms and fading-memory maxima come from
the array forms in ``norms``, and the running extremals at grid time k are
row k of the run's ``Extremals``.  Every term but the overshoot depends on
the time only through them, so it is evaluated once per extremal state.  A
term that overflows a float is an ``EstimateValidityError`` at the first
such (p, mu, t) cell.  The pass/fail slack couples a fixed 1e-6 with a
measured discretization indicator (ten times the change in the LHS when the
spatial grid is coarsened 2x), so exact statements about exact solutions are
not failed for grid error, yet a genuine violation cannot hide behind it.

A note on the boundary-input coefficient: two algebraically different
displays of it circulate, one carrying a leading vmin factor inside the
p-th root and one without.  Substituting z = p(mu + A)/vmin collapses the
factored form to ((e^z - 1)/z)^{1/p}, whose mu -> 0+ limit is exactly 1 -
the unit-gain property that constant-input scenarios realize numerically -
while the unfactored form limits to vmin^{-1/p} instead.  Certificates
therefore evaluate the factored form, and record both values side by side
so the discrepancy stays visible in reports.

Estimate identifiers: E2.4/E2.5 are the continuity-equation bounds (L^p and
sup), E2.10/E2.11 the general transport bounds, E3.6/E3.7 the closed-loop
manufacturing bounds.  Passing a family's finite-p identifier with p = inf
certifies the sup twin and records its identifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .continuity import log_state_problem, solve_continuity
from .fields import (
    BoundarySignal,
    Grid,
    InitialProfile,
    VelocityField,
    sample_grid,
)
from .norms import (
    Extremals,
    extremals,
    fading_memory_maxima,
    lp_log_norm,
    lp_log_norm_rows,
    lp_norm,
    lp_norm_rows,
)
from .transport import SolutionField, TransportProblem, solve_fields

__all__ = [
    "EstimateValidityError",
    "BoundCertificate",
    "TrajectoryRun",
    "BiasReport",
    "canonical_estimate",
    "mu_is_valid",
    "boundary_coefficient",
    "transport_run",
    "continuity_run",
    "certify",
    "bias_experiment",
]

INF = math.inf
_EXP_MAX = 709.782712893384  # ln of the largest float

# sup-norm twin of each finite-p estimate and the trajectory kind it applies to
_SUP_TWIN = {"E2.4": "E2.5", "E2.10": "E2.11", "E3.6": "E3.7"}
_FINITE_OF = {v: k for k, v in _SUP_TWIN.items()}
_KIND_OF = {"E2.4": "continuity", "E2.10": "transport", "E3.6": "manufacturing"}
_TERMS = ("overshoot term", "source gain term", "boundary gain term", "sum of the terms")


def canonical_estimate(estimate_id: str) -> str:
    """Finite-p representative of an estimate family (its sup twin folds in)."""
    base = _FINITE_OF.get(estimate_id, estimate_id)
    if base not in _KIND_OF:
        raise ValueError(f"unknown estimate id {estimate_id!r}")
    return base


class EstimateValidityError(ValueError):
    """Raised when (p, mu) is inadmissible for an estimate, or a term overflows."""


def _pinv(p: Union[float, int]) -> float:
    return 0.0 if p == INF else 1.0 / float(p)


def mu_is_valid(estimate_id: str, p, mu: float, vmin: float,
                vmax: float = 0.0, a_max: float = 0.0) -> bool:
    """Admissibility of the decay rate mu for one estimate at one time.

    vmax is the running max of dv/dx and a_max that of the reaction
    coefficient; both enter only the families that use them.
    """
    base = _FINITE_OF.get(estimate_id, estimate_id)
    if base == "E3.6":
        return mu > 0.0
    if base == "E2.4":
        return mu > 0.0 and mu > -_pinv(p) * vmax - vmin
    if base == "E2.10":
        return mu >= 0.0 and mu > -a_max and mu > -_pinv(p) * vmax - a_max - vmin
    raise ValueError(f"unknown estimate id {estimate_id!r}")


def boundary_coefficient(p, mu: float, a_max: float, vmin: float,
                         factored: bool = True) -> float:
    """Gain on the fading-memory max of |b|.

    factored=True is the form whose mu -> 0+ limit is 1 (the certified one);
    factored=False the variant without the vmin factor, kept for reporting.
    For p = inf both reduce to exp((mu + a_max)/vmin); inf on overflow.
    """
    if not vmin > 0:
        raise ValueError("vmin must be positive")
    if p == INF:
        z = (mu + a_max) / vmin
        return float(np.exp(z)) if z <= _EXP_MAX else INF
    p = float(p)
    z = p * (mu + a_max) / vmin
    base = (math.expm1(z) if z <= _EXP_MAX else INF) / z if z != 0.0 else 1.0
    if not factored:
        base /= vmin
    if base < 0:
        raise EstimateValidityError(
            f"boundary coefficient undefined at mu={mu}, a_max={a_max}")
    return float(base ** (1.0 / p))


def _exp(x: float) -> float:
    return math.exp(x) if x <= _EXP_MAX else INF


def _state_gains(base, p, mu, vmin, vmax, a_max, a_eff):
    """(valid, source gain factor, factored and unfactored boundary gains) at
    one extremal state; the gains are NaN where mu is inadmissible."""
    if not mu_is_valid(base, p, mu, vmin, vmax, a_max):
        return False, math.nan, math.nan, math.nan
    source = (1.0 / vmin) * _exp(1.0 + (mu + _pinv(p) * vmax + a_eff) / vmin)
    return (True, source, boundary_coefficient(p, mu, a_eff, vmin),
            boundary_coefficient(p, mu, a_eff, vmin, factored=False))


# ---------------------------------------------------------------------------
# Trajectory runs: everything a certificate needs, at two resolutions
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryRun:
    """A solved scenario packaged for certification.

    state_coarse is the same problem on ``grid.coarsened_space()``, about
    half the spatial nodes and the same dt, read from the fine solve's fan;
    its LHS disagreement with the fine field calibrates the certificate
    slack.
    """

    kind: str  # "transport" | "continuity" | "manufacturing"
    grid: Grid
    state: SolutionField
    state_coarse: SolutionField
    ext: Optional[Extremals]      # running extremals, one row per grid time
    b_values: np.ndarray          # boundary signal at each grid time
    f_rows: Optional[np.ndarray]  # rows of the source whose L^p feeds the gain
    phi_row: np.ndarray           # data profile on grid.xs, already on the w scale
    rho_s: float = 1.0
    r: Optional[float] = None     # terminal time, manufacturing only

    @property
    def times(self) -> np.ndarray:
        return self.state.times

    def lhs_trace(self, p, coarse: bool = False) -> np.ndarray:
        fld = self.state_coarse if coarse else self.state
        if fld.kind == "rho":
            return lp_log_norm_rows(fld.values, self.rho_s, fld.xs, p)
        return lp_norm_rows(fld.values, fld.xs, p)

    def phi_norm(self, p) -> float:
        return lp_norm(self.phi_row, self.grid.xs, p)


def transport_run(problem: TransportProblem, grid: Grid) -> TrajectoryRun:
    # v keeps the range of its latest grid only: take the fine grid's before
    # the coarse grid's validation; the fine grid's starts with this call
    speeds = problem.v.range_on(grid)
    fine, coarse = (w.check_finite() for w in
                    solve_fields(problem, [grid, grid.coarsened_space()]))
    b_values = np.asarray(problem.b(grid.times), dtype=float) * np.ones_like(grid.times)
    return TrajectoryRun(
        kind="transport", grid=grid, state=fine, state_coarse=coarse,
        ext=extremals(problem.v, grid, problem.coeffs.a, speeds),
        b_values=b_values,
        f_rows=sample_grid(problem.coeffs.f, grid),
        phi_row=np.asarray(problem.phi(grid.xs), dtype=float) * np.ones_like(grid.xs),
    )


def continuity_run(rho_s: float, rho0: InitialProfile, b: BoundarySignal,
                   v: VelocityField, grid: Grid) -> TrajectoryRun:
    """The transport run of the log state; its source -dv/dx drives the gain.
    rho0 is checked on the nodes of both grids, as a solve of each would."""
    problem = log_state_problem(rho_s, rho0, b, v)
    for g in (grid, grid.coarsened_space()):
        rho0.validate_positive(g.xs)
    run = transport_run(problem, grid)
    run.kind, run.rho_s = "continuity", rho_s
    return run


@dataclass
class BoundCertificate:
    """Per-time margins of one estimate at one (p, mu)."""

    estimate_id: str
    p: Union[float, int]
    mu: float
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray              # NaN where mu is inadmissible at that time
    margin: np.ndarray           # rhs - lhs, NaN where inadmissible
    valid: np.ndarray            # admissibility of mu, per time
    slack: np.ndarray            # tolerated negative margin, per time
    coefficient_factored: np.ndarray    # boundary gain actually certified
    coefficient_unfactored: np.ndarray  # the variant without the vmin factor
    passed: bool

    @property
    def min_margin(self) -> float:
        vals = self.margin[self.valid]
        return float(np.min(vals)) if len(vals) else math.nan

    @property
    def all_valid(self) -> bool:
        return bool(np.all(self.valid))


def certify(run: TrajectoryRun, estimate_id: str, ps: Sequence,
            mus: Sequence[float]) -> list[BoundCertificate]:
    """Evaluate one estimate family over (p, mu) pairs along a run.

    Inadmissible mu at a given time marks that cell not-applicable (NaN RHS,
    valid=False); the verdict covers admissible cells only and is vacuously
    true when there are none.
    """
    base = canonical_estimate(estimate_id)
    if _KIND_OF[base] != run.kind:
        raise ValueError(
            f"estimate {estimate_id} applies to {_KIND_OF[base]} runs, "
            f"got a {run.kind} run")
    if base == "E3.6" and run.r is None:
        raise ValueError("manufacturing certification needs the run's terminal time")

    times = run.times
    n = len(times)
    flush = base == "E3.6"
    zeros = np.zeros(n)
    if flush:  # the speed floor 1/r, no slope or reaction terms
        vmins, vmaxs, a_maxs = np.full(n, 1.0 / run.r), zeros, zeros
    else:
        # the run's times are its grid's, so time k reads extremals row k
        vmins, vmaxs, a_maxs = run.ext.vmin, run.ext.dvdx_max, run.ext.a_max
    # one extremal state per run of equal rows: (vmin, vmax, a_max, a_eff)
    keys = np.stack([vmins, vmaxs, a_maxs, a_maxs if base == "E2.10" else zeros])
    starts = np.flatnonzero(np.r_[True, (keys[:, 1:] != keys[:, :-1]).any(axis=0)])
    lengths = np.diff(starts, append=n)
    states = keys[:, starts].T.tolist()

    def maxima(values, mu):
        # at times where mu is inadmissible they may overflow, and are not used
        with np.errstate(over="ignore", invalid="ignore"):
            return fading_memory_maxima(times, np.abs(values), times, mu, vmins)

    b_maxima = {mu: maxima(run.b_values, mu) for mu in dict.fromkeys(mus)}
    # vmin > 0 is checked by now; the overshoot lasts until 1/vmin, or r itself
    overshoot_rows = np.flatnonzero(times < (run.r if flush else 1.0 / vmins))
    certs = []
    for p in ps:
        cert_id = _SUP_TWIN[base] if p == INF else base
        lhs, lhs_coarse = run.lhs_trace(p), run.lhs_trace(p, coarse=True)
        bad = ~(np.isfinite(lhs) & np.isfinite(lhs_coarse))
        if bad.any():
            raise EstimateValidityError(
                f"{cert_id} at p={p}, t={float(times[np.argmax(bad)])}: the state norm overflows")
        slack = 1e-6 + 10.0 * np.abs(lhs - lhs_coarse)
        phi_n = run.phi_norm(p)
        f_norms = None if flush else lp_norm_rows(run.f_rows, run.grid.xs, p)
        pinv = _pinv(p)
        rates = np.repeat([a_eff + pinv * vmax for _, vmax, _, a_eff in states], lengths)
        term1 = np.zeros(n)
        term1[overshoot_rows] = [_exp(x) * phi_n for x in
                                 (rates[overshoot_rows] * times[overshoot_rows]).tolist()]
        for mu in mus:
            valid, source, coef_f, coef_u = (
                np.repeat(col, lengths) for col in
                zip(*(_state_gains(base, p, mu, *state) for state in states)))
            with np.errstate(over="ignore", invalid="ignore"):
                term2 = zeros if flush else source * maxima(f_norms, mu)
                term3 = coef_f * b_maxima[mu]
                rhs = (term1 + term2) + term3
            bad = valid & ~np.isfinite(rhs)
            if bad.any():
                k = int(np.argmax(bad))
                terms = (term1[k], term2[k], term3[k], rhs[k])
                name = next(lb for lb, x in zip(_TERMS, terms) if not math.isfinite(x))
                raise EstimateValidityError(
                    f"{cert_id} at p={p}, mu={mu}, t={float(times[k])}: the {name} overflows")
            rhs[~valid] = math.nan
            margin = rhs - lhs
            ok_cells = margin[valid] + slack[valid]
            passed = bool(np.all(ok_cells >= 0.0)) if valid.any() else True
            certs.append(BoundCertificate(
                estimate_id=cert_id,
                p=p, mu=mu, times=times, lhs=lhs, rhs=rhs, margin=margin,
                valid=valid, slack=slack,
                coefficient_factored=coef_f, coefficient_unfactored=coef_u,
                passed=passed,
            ))
    return certs


# ---------------------------------------------------------------------------
# Gain-versus-bias experiment for the two affine velocity profiles
# ---------------------------------------------------------------------------

@dataclass
class BiasReport:
    """Quadrature gains for the two affine stationary profiles.

    gamma1 belongs to the opening profile (slope theta - 1 < 0), gamma2 to
    the closing one (slope 1 - theta > 0); both use the L^p-gain reading
    (p-th root applied to the displayed integral), with the raw integrals
    reported alongside.  measured_gain* are realized LHS/||dv/dx|| ratios
    from actually solving the two stationary scenarios.
    """

    theta: float
    p: float
    gamma1: float
    gamma2: float
    raw_integral1: float
    raw_integral2: float
    richardson1: float
    richardson2: float
    measured_gain1: float
    measured_gain2: float


def _bias_integrals(theta: float, p: float, n: int) -> tuple[float, float]:
    xs = np.linspace(0.0, 1.0, n)
    g1 = (-np.log1p((theta - 1.0) * xs)) ** p
    g2 = (np.log1p((1.0 / theta - 1.0) * xs)) ** p
    return float(np.trapezoid(g1, xs)), float(np.trapezoid(g2, xs))


def _measured_gain(v_expr: str, rho0_expr: str, theta: float, p: float) -> float:
    grid = Grid(401, 2e-3, 0.3)
    rho = solve_continuity(1.0,
                           InitialProfile.from_expression(rho0_expr),
                           BoundarySignal.from_expression("0"),
                           VelocityField.from_expression(v_expr), grid)
    return lp_log_norm(rho.values[-1], 1.0, grid.xs, p) / (1.0 - theta)


def bias_experiment(theta: float, p: float, n: int = 10001) -> BiasReport:
    """Compare the gains the two affine velocity profiles realize.

    Quadrature at n nodes with a half-resolution Richardson indicator;
    also solves both stationary scenarios and reports the measured ratios.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    p = float(p)
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"the bias gains need finite p > 1, got {p}")
    i1, i2 = _bias_integrals(theta, p, n)
    c1, c2 = _bias_integrals(theta, p, n // 2 + 1)
    scale = 1.0 / (1.0 - theta)
    t = repr(theta)
    report = BiasReport(
        theta=theta, p=p,
        gamma1=scale * i1 ** (1.0 / p),
        gamma2=scale * i2 ** (1.0 / p),
        raw_integral1=i1, raw_integral2=i2,
        richardson1=abs(i1 - c1) / 3.0, richardson2=abs(i2 - c2) / 3.0,
        measured_gain1=_measured_gain(
            f"1 + ({t} - 1)*x", f"1/(1 + ({t} - 1)*x)", theta, p),
        measured_gain2=_measured_gain(
            f"{t} + (1 - {t})*x", f"{t}/({t} + (1 - {t})*x)", theta, p),
    )
    return report
