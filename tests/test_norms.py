import math
import os
import subprocess
import sys

import numpy as np
import pytest

from transportlab.fields import ROW_BLOCK, Grid, SpaceTimeField, VelocityField
from transportlab.norms import (
    Extremals,
    cumulative_trapezoid,
    extremals,
    fading_memory_max,
    fading_memory_maxima,
    heaviside_h,
    lp_log_norm,
    lp_log_norm_rows,
    lp_norm,
    lp_norm_rows,
    sup_log_norm,
)

import reference_forms
from reference_forms import Counted

FINE_XS = np.linspace(0.0, 1.0, 20001)


def test_lp_log_norm_quadratic_oracle():
    # rho = e^x, rho_s = 1, p = 2: (integral of x^2)^(1/2) = 1/sqrt(3)
    rho = np.exp(FINE_XS)
    assert lp_log_norm(rho, 1.0, FINE_XS, 2) == pytest.approx(1 / math.sqrt(3), abs=1e-6)


def test_sup_log_norm_examples():
    rho = np.exp(FINE_XS)
    assert lp_log_norm(rho, 1.0, FINE_XS, math.inf) == pytest.approx(1.0, abs=0)
    xs = np.linspace(0.0, 1.0, 101)
    rho2 = 1.0 + 0.5 * np.sin(math.pi * xs)
    assert sup_log_norm(rho2, 1.0) == pytest.approx(math.log(1.5), abs=1e-12)


def test_norm_of_setpoint_is_zero():
    assert lp_log_norm(np.full(11, 2.0), 2.0, np.linspace(0, 1, 11), 4) == 0.0
    assert sup_log_norm(np.full(11, 2.0), 2.0) == 0.0


def test_nonpositive_density_rejected():
    with pytest.raises(ValueError, match="positive"):
        lp_log_norm(np.array([1.0, -1.0, 1.0]), 1.0, np.linspace(0, 1, 3), 2)


def test_p_must_exceed_one():
    with pytest.raises(ValueError, match="exceed 1"):
        lp_norm(np.ones(5), np.linspace(0, 1, 5), 1.0)


def test_lp_norms_increase_to_sup():
    # flat-topped profile keeps the p = 128 norm within 2% of the sup
    rho = np.exp(1.0 - 0.2 * FINE_XS**2)
    sup = sup_log_norm(rho, 1.0)
    vals = [lp_log_norm(rho, 1.0, FINE_XS, p) for p in (2, 8, 32, 128)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] >= 0.98 * sup
    assert vals[-1] <= sup + 1e-12


def test_quadrature_second_order():
    norms = {}
    for n in (65, 129, 257):
        xs = np.linspace(0.0, 1.0, n)
        norms[n] = lp_log_norm(np.exp(xs**3), 1.0, xs, 2)
    d1 = abs(norms[129] - norms[65])
    d2 = abs(norms[257] - norms[129])
    assert d1 / d2 >= 3.2  # trapezoid halving: ratio approaches 4


# --- extremals ---------------------------------------------------------------

def test_extremals_affine_profiles():
    grid = Grid(nx=201, dt=0.01, horizon=0.5)
    theta = 0.5
    dec = extremals(VelocityField.from_expression(f"1 + ({theta} - 1)*x"), grid)
    assert dec.vmin[-1] == pytest.approx(theta, abs=1e-12)
    assert dec.dvdx_max[-1] == pytest.approx(theta - 1.0, abs=1e-8)
    inc = extremals(VelocityField.from_expression(f"{theta} + (1 - {theta})*x"), grid)
    assert inc.vmin[-1] == pytest.approx(theta, abs=1e-12)
    assert inc.dvdx_max[-1] == pytest.approx(1.0 - theta, abs=1e-8)


def test_extremals_with_reaction_coefficient():
    grid = Grid(nx=51, dt=0.05, horizon=0.5)
    ext = extremals(VelocityField.constant(1.0), grid,
                    a=SpaceTimeField.constant(-0.3))
    assert np.all(ext.a_max == pytest.approx(-0.3))
    assert np.all(ext.vmin == 1.0)


def test_extremals_are_running():
    # v dips in time: vmin must stay at its lowest past value
    grid = Grid(nx=51, dt=0.05, horizon=2.0)
    ext = extremals(VelocityField.from_expression("1 + 0.5*sin(pi*t)"), grid)
    assert np.all(np.diff(ext.vmin) <= 1e-14)
    assert np.all(np.diff(ext.dvdx_max) >= -1e-14)
    assert np.all(np.diff(ext.a_max) >= -1e-14)
    assert grid.times[34] == pytest.approx(1.7)
    assert ext.vmin[34] == pytest.approx(0.5, abs=1e-4)  # the dip at t = 1.5 persists


# --- fading memory and the cutoff indicator ---------------------------------

def test_heaviside_h():
    assert heaviside_h(-1e-12) == 1.0
    assert heaviside_h(0.0) == 0.0
    assert heaviside_h(3.0) == 0.0
    np.testing.assert_array_equal(heaviside_h(np.array([-1.0, 0.0, 2.0])),
                                  np.array([1.0, 0.0, 0.0]))


def test_fading_memory_linear_signal():
    ts = np.linspace(0.0, 1.0, 1001)
    # g(s) = s, mu = 1, vmin = 1, t = 1: max of s e^{-(1-s)} is 1 at s = t
    assert fading_memory_max(ts, ts, 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    # mu = 0 reduces to the plain window max
    assert fading_memory_max(ts, ts, 1.0, 0.0, 1.0) == pytest.approx(1.0)


def test_fading_memory_window_clips_history():
    ts = np.linspace(0.0, 2.0, 2001)
    g = np.where(ts < 0.5, 100.0, 1.0)  # a large early burst
    # vmin = 1 so the window at t = 2 is [1, 2]: the burst is forgotten
    assert fading_memory_max(ts, g, 2.0, 0.0, 1.0) == pytest.approx(1.0)
    # a wider window (smaller vmin) still sees it
    assert fading_memory_max(ts, g, 2.0, 0.0, 0.5) == pytest.approx(100.0)


def test_fading_memory_discounts_old_samples():
    ts = np.linspace(0.0, 1.0, 101)
    g = np.where(ts < 0.1, 2.0, 1.0)
    # with mu large the early spike is discounted below the recent level
    got = fading_memory_max(ts, g, 1.0, 10.0, 0.5)
    assert got == pytest.approx(1.0)


def test_fading_memory_requires_positive_vmin():
    with pytest.raises(ValueError):
        fading_memory_max(np.array([0.0]), np.array([1.0]), 0.0, 1.0, 0.0)


# --- the array forms against the per-time and per-row formulas --------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fading_memory_maxima_match_the_per_time_formula(seed):
    rng = np.random.default_rng(seed)
    times = np.arange(301) * 0.01
    values = np.abs(rng.normal(size=len(times))) * np.exp(rng.normal(size=len(times)))
    # a non-monotone vmin, from windows clipped at 0 up to short ones
    vmins = rng.uniform(0.2, 5.0, size=len(times))
    for mu in (0.0, 0.3, 2.0, -0.4):
        got = fading_memory_maxima(times, values, times, mu, vmins)
        want = [reference_forms.fading_memory_max(times, values, float(t), mu, float(vm))
                for t, vm in zip(times, vmins)]
        assert np.array_equal(got, want)
    # off-grid query times and one vmin for all
    ts = np.sort(rng.uniform(0.0, 3.0, size=77))
    got = fading_memory_maxima(times, values, ts, 0.7, 1.3)
    want = [reference_forms.fading_memory_max(times, values, float(t), 0.7, 1.3) for t in ts]
    assert np.array_equal(got, want)
    assert fading_memory_max(times, values, float(ts[5]), 0.7, 1.3) == want[5]


def test_fading_memory_window_edges_within_rounding_of_a_sample():
    times = np.arange(201) * 0.01
    values = np.linspace(3.0, 1.0, len(times))  # the oldest sample is the largest
    for shift in (-9e-13, -1e-13, 0.0, 1e-13, 9e-13, 1.1e-12, -1.1e-12):
        # the window's left edge t - 1/vmin lands `shift` away from times[50]
        t = float(times[150])
        vmin = 1.0 / (t - (float(times[50]) + shift))
        got = fading_memory_maxima(times, values, [t], 0.2, vmin)[0]
        assert got == reference_forms.fading_memory_max(times, values, t, 0.2, vmin)
        # the right edge: a query time just before or after a sample
        tq = float(times[120]) + shift
        got = fading_memory_maxima(times, values, [tq], 0.2, 0.6)[0]
        assert got == reference_forms.fading_memory_max(times, values, tq, 0.2, 0.6)
    # samples exactly on the inclusive edges start - 1e-12 and t + 1e-12
    t, vmin = 0.75, 2.0
    times = np.array([0.0, (t - 1.0 / vmin) - 1e-12, 0.5, t + 1e-12])
    for hot in (1, 3):
        values = np.ones(4)
        values[hot] = 5.0
        assert fading_memory_maxima(times, values, [t], 0.0, vmin)[0] == 5.0
        assert reference_forms.fading_memory_max(times, values, t, 0.0, vmin) == 5.0


@pytest.mark.parametrize("p", [1.5, 2, 4, math.inf])
def test_lp_norm_rows_match_each_row_alone(p):
    rng = np.random.default_rng(7)
    xs = np.linspace(0.0, 1.0, 121)
    rows = rng.normal(size=(75, len(xs))) * np.exp(rng.normal(size=(75, 1)))
    got = lp_norm_rows(rows, xs, p)
    assert np.array_equal(got, [reference_forms.lp_norm(row, xs, p) for row in rows])
    assert np.array_equal(got, [lp_norm(row, xs, p) for row in rows])
    rho = np.exp(rows)
    got = lp_log_norm_rows(rho, 1.3, xs, p)
    assert np.array_equal(got, [reference_forms.lp_norm(np.log(row / 1.3), xs, p)
                                for row in rho])
    assert np.array_equal(got, [lp_log_norm(row, 1.3, xs, p) for row in rho])


def test_lp_log_norm_rows_reject_a_nonpositive_density():
    rho = np.ones((40, 5))
    rho[37, 2] = 0.0
    with pytest.raises(ValueError, match="positive"):
        lp_log_norm_rows(rho, 1.0, np.linspace(0, 1, 5), 2)


def test_package_import_loads_no_scipy():
    # numpy is the only runtime dependency: importing the package and its CLI
    # must not pull in any scipy module
    code = ("import sys, transportlab, transportlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cumulative_trapezoid_exact_on_piecewise_linear():
    # y = |x - 0.3| sampled with a node at the kink: the rule is exact, and the
    # running integral reaches the one-shot trapezoid sum
    x = np.array([0.0, 0.1, 0.3, 0.45, 0.7, 1.0])
    y = np.abs(x - 0.3)
    exact = np.where(x <= 0.3, 0.09 - (0.3 - x) ** 2, 0.09 + (x - 0.3) ** 2) / 2.0
    cum = cumulative_trapezoid(y, x)
    assert cum.shape == x.shape and cum[0] == 0.0
    np.testing.assert_allclose(cum, exact, rtol=0, atol=1e-15)
    assert cum[-1] == np.trapezoid(y, x)
    rng = np.random.default_rng(7)
    xr = np.sort(rng.uniform(0.0, 2.0, 501))
    yr = rng.normal(size=501)
    assert cumulative_trapezoid(yr, xr)[-1] == pytest.approx(np.trapezoid(yr, xr), rel=1e-12)


def test_extremals_sample_a_block_of_rows_per_call():
    grid = Grid(nx=41, dt=0.01, horizon=0.8)  # 81 rows: not a multiple of the block
    v = VelocityField.from_expression("1 + 0.3*sin(pi*x)*cos(3*t)")
    a = SpaceTimeField.from_expression("0.2*sin(t) - 0.1*x^2")
    v_calls, a_calls = Counted(v), Counted(a)
    ext = extremals(VelocityField(v_calls), grid, SpaceTimeField(a_calls))
    blocks = math.ceil((grid.nt + 1) / ROW_BLOCK)
    assert (v_calls.calls, a_calls.calls) == (3 * blocks, blocks)  # v, and v twice for dv/dx
    vmin, dvdx_max, a_max = reference_forms.extremals(v, grid, a)
    assert np.array_equal(ext.vmin, vmin)
    assert np.array_equal(ext.dvdx_max, dvdx_max)
    assert np.array_equal(ext.a_max, a_max)
