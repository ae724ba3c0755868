import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transportlab.characteristics import CharacteristicEngine, CharacteristicsError, rk4_step
from transportlab.fields import Grid, VelocityField
from transportlab.manufacturing import sampled_velocity

import reference_forms

# Closed-form oracles for v = 1 + x (solved by separation of variables):
#   X(s; 0, x0) = (1 + x0) e^s - 1,   exit of x0=0 at s = ln 2
X0_AFFINE = 1.6 * math.exp(-0.2) - 1.0          # foot of (t=0.2, x=0.6)
T0_AFFINE = 1.0 - math.log(1.5)                 # emission time of (t=1, x=0.5)

GRID = Grid(nx=101, dt=1e-3, horizon=1.5)


@pytest.fixture(scope="module")
def unit_engine():
    return CharacteristicEngine(VelocityField.constant(1.0), GRID)


@pytest.fixture(scope="module")
def affine_engine():
    return CharacteristicEngine(VelocityField.from_expression("1 + x"), GRID)


def test_flow_constant_speed(unit_engine):
    path = unit_engine.flow(0.0, 0.25, 0.5)
    assert path.end_s == pytest.approx(0.5, abs=1e-12)
    assert path.end_x == pytest.approx(0.75, abs=1e-10)
    assert not path.exited


def test_flow_exit_detection():
    engine = CharacteristicEngine(VelocityField.constant(2.0), GRID)
    path = engine.flow(0.0, 0.9, 1.0)
    assert path.exited
    assert path.s_exit == pytest.approx(0.05, abs=1e-10)
    assert abs(path.end_x - 1.0) <= 1e-10
    # crossing strictly inside a step exercises the sub-step bisection
    path2 = engine.flow(0.0, 0.9005, 1.0)
    assert path2.exited
    assert path2.s_exit == pytest.approx(0.04975, abs=1e-9)
    assert abs(path2.end_x - 1.0) <= 1e-10


def test_flow_affine_speed_matches_closed_form(affine_engine):
    path = affine_engine.flow(0.0, 0.0, 1.5)
    ref = np.exp(path.s_values) - 1.0
    assert np.max(np.abs(path.x_values - np.minimum(ref, 1.0))) <= 1e-9
    assert path.exited
    assert path.s_exit == pytest.approx(math.log(2.0), abs=1e-9)


def test_flow_rejects_bad_arguments(unit_engine):
    with pytest.raises(CharacteristicsError):
        unit_engine.flow(0.0, 1.5, 1.0)
    with pytest.raises(CharacteristicsError):
        unit_engine.flow(0.5, 0.2, 0.1)


def test_backtrace_x0_affine(affine_engine):
    x0 = affine_engine.backtrace_x0(0.2, 0.6)
    assert x0 == pytest.approx(X0_AFFINE, abs=1e-8)
    # certified residual: pushing the foot forward recovers the query point
    again = affine_engine._march(0.0, x0, 0.2)
    assert abs(again - 0.6) <= 1e-10


def test_backtrace_x0_at_time_zero(unit_engine):
    assert unit_engine.backtrace_x0(0.0, 0.37) == pytest.approx(0.37, abs=0)


def test_backtrace_x0_monotone_in_x(affine_engine):
    xs = np.array([0.5, 0.6, 0.7, 0.85, 1.0])
    feet = np.array([affine_engine.backtrace_x0(0.2, x) for x in xs])
    assert np.all(np.diff(feet) > 0)


def test_backtrace_x0_wrong_side_rejected(unit_engine):
    with pytest.raises(CharacteristicsError, match="boundary-determined"):
        unit_engine.backtrace_x0(0.5, 0.25)


def test_backtrace_t0_constant_speed(unit_engine):
    assert unit_engine.backtrace_t0(1.0, 0.3) == pytest.approx(0.7, abs=1e-10)


def test_backtrace_t0_affine(affine_engine):
    t0 = affine_engine.backtrace_t0(1.0, 0.5)
    assert t0 == pytest.approx(T0_AFFINE, abs=1e-8)
    again = affine_engine._march(t0, 0.0, 1.0)
    assert abs(again - 0.5) <= 1e-10


def test_backtrace_t0_wrong_side_rejected(unit_engine):
    with pytest.raises(CharacteristicsError, match="initial-data side"):
        unit_engine.backtrace_t0(0.2, 0.9)


def test_separatrix_constant_speed(unit_engine):
    sep = unit_engine.separatrix()
    assert sep.at(0.0) == 0.0
    assert sep.at(0.25) == pytest.approx(0.25, abs=1e-10)
    assert sep.at(1.2) == 1.0  # clamped after the exit
    assert np.all(np.diff(sep.positions) >= -1e-14)


def test_separatrix_dominates_vmin_line(affine_engine):
    sep = affine_engine.separatrix()
    vmin = 1.0  # v = 1 + x >= 1
    mask = sep.times <= (sep.s_exit or np.inf)
    assert np.all(sep.positions[mask] >= vmin * sep.times[mask] - 1e-9)


def test_jump_loci_clamp(unit_engine):
    (locus,) = unit_engine.jump_loci([0.5])
    t = unit_engine.grid.times
    assert locus.positions[np.searchsorted(t, 0.2)] == pytest.approx(0.7, abs=1e-10)
    assert locus.positions[np.searchsorted(t, 0.6)] == 1.0
    assert locus.s_exit == pytest.approx(0.5, abs=1e-9)
    assert np.all(np.diff(locus.positions) >= -1e-14)


def test_memoization_returns_identical_objects(affine_engine):
    p1 = affine_engine.flow(0.0, 0.2, 0.7)
    p2 = affine_engine.flow(0.0, 0.2, 0.7)
    assert p1 is p2


# --- inversion round trip on smoother, wigglier fields ----------------------

ROUND_TRIP_GRID = Grid(nx=51, dt=5e-3, horizon=1.0)
ROUND_TRIP_ENGINES = [
    CharacteristicEngine(VelocityField.from_expression(s), ROUND_TRIP_GRID)
    for s in ("1 + 0.25*sin(pi*x)", "1.2 + 0.2*cos(2*t)*cos(pi*x)")
]


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(ROUND_TRIP_ENGINES),
    st.floats(0.05, 0.8),
    st.floats(0.05, 0.95),
)
def test_backtrace_round_trip(engine, t, x):
    r0 = engine.separatrix().at(t)
    if x > r0 + 1e-6:
        x0 = engine.backtrace_x0(t, x)
        forward = engine._march(0.0, x0, t)
        assert abs(forward - x) <= 1e-8
        assert 0.0 <= x0 <= x
    elif x < r0 - 1e-6:
        t0 = engine.backtrace_t0(t, x)
        forward = engine._march(t0, 0.0, t)
        assert abs(forward - x) <= 1e-8
        assert 0.0 <= t0 <= t


@pytest.mark.parametrize("engine", ROUND_TRIP_ENGINES)
def test_boundary_flow_ends_where_the_march_does(engine):
    # solve_point integrates along the flow whose end the backtrace certified
    # on the march, so the two must be one curve, bit for bit
    t = 0.9
    probed = 0
    for t0 in np.linspace(0.013, 0.5, 40):
        path = engine.flow(t0, 0.0, t)
        if not path.exited:
            probed += 1
            assert path.end_x == engine._march(t0, 0.0, t)
    assert probed >= 20


# --- seed certification --------------------------------------------------------

SMOOTH_SPEED = "1 + 0.25*sin(pi*x)"


def _spy_marches(monkeypatch, engine, seed_shift=0.0):
    """Record the (from, to, wall) of each march; shift the x0 seeds."""
    calls = []
    march = engine._march

    def spied(t, x, until, wall=None, samples=None):
        calls.append((t, until, wall))
        seed = until == 0.0 and t > 0.0 and wall is None
        return march(t, x, until, wall, samples) + (seed_shift if seed else 0.0)

    monkeypatch.setattr(engine, "_march", spied)
    return calls


def _forward(calls):
    """The bracket and bisection marches: forward, with no wall (a flow has one)."""
    return [c for c in calls if c[1] > c[0] and c[2] is None]


def test_smooth_query_returns_its_seed_without_bisection(monkeypatch):
    engine = CharacteristicEngine(VelocityField.from_expression(SMOOTH_SPEED), GRID)
    t = 0.6
    r0 = engine.separatrix().at(t)
    x_init, x_bnd = 0.5 * (r0 + 1.0), 0.5 * r0
    seed_x0 = engine._march(t, x_init, 0.0)
    lower = max(0.0, t - x_bnd / engine.vmin_up_to(t))
    seed_t0 = engine._reverse_seed_t0(t, x_bnd, lower)
    calls = _spy_marches(monkeypatch, engine)
    assert engine.backtrace_x0(t, x_init) == seed_x0
    assert engine.backtrace_t0(t, x_bnd) == seed_t0
    # per query its seed march and its seed-check flow, and no other march
    assert calls == [(t, 0.0, None), (0.0, t, 1.0), (t, 0.0, 0.0), (seed_t0, t, 1.0)]


def test_seed_off_tolerance_is_bisected_to_certified_root(monkeypatch):
    engine = CharacteristicEngine(VelocityField.from_expression(SMOOTH_SPEED), GRID)
    march, seed_t0 = engine._march, engine._reverse_seed_t0
    monkeypatch.setattr(engine, "_reverse_seed_t0",
                        lambda t, x, lower: seed_t0(t, x, lower) - 1e-6)
    calls = _spy_marches(monkeypatch, engine, seed_shift=1e-6)
    t = 0.6
    r0 = engine.separatrix().at(t)
    x_init, x_bnd = 0.5 * (r0 + 1.0), 0.5 * r0

    x0 = engine.backtrace_x0(t, x_init)
    assert _forward(calls)
    assert abs(engine.flow(0.0, x0, t).end_x - x_init) <= 1e-10
    assert abs(march(0.0, x0, t) - x_init) <= 1e-10
    calls.clear()
    t0 = engine.backtrace_t0(t, x_bnd)
    assert _forward(calls)
    assert abs(engine.flow(t0, 0.0, t).end_x - x_bnd) <= 1e-10
    assert abs(march(t0, 0.0, t) - x_bnd) <= 1e-10


def test_seed_past_the_wall_is_bisected(monkeypatch):
    # x up to 1 + 1e-12 is accepted; at a tiny t the reverse seed stays past
    # x = 1, where no flow can start, so it must go to the bisection instead
    engine = CharacteristicEngine(VelocityField.from_expression(SMOOTH_SPEED), GRID)
    t, x = 1e-13, 1.0 + 1e-12
    march = engine._march
    assert march(t, x, 0.0) > 1.0
    calls = _spy_marches(monkeypatch, engine)
    x0 = engine.backtrace_x0(t, x)
    assert _forward(calls)
    assert abs(march(0.0, x0, t) - x) <= 1e-10


# --- a speed of t alone ----------------------------------------------------------

SAMPLE_TIMES = np.linspace(0.0, 2.0, 21)
SAMPLED = sampled_velocity(SAMPLE_TIMES, 1.0 + 0.4 * np.sin(3.0 * SAMPLE_TIMES))


def test_only_sampled_speeds_are_read_once_per_stage_time():
    assert SAMPLED._uniform_in_x
    assert not any(v._uniform_in_x for v in (
        VelocityField(lambda t, x: 1.0 + 0.0 * x), VelocityField.constant(1.3),
        VelocityField.from_expression("1 + 0.5*sin(3*t)")))


@pytest.mark.parametrize("h", [0.01, -0.013])
def test_uniform_step_equals_the_array_step_bitwise(h):
    # the plain wrapper reads the same speed at every stage and position
    plain = VelocityField(SAMPLED)
    xs = np.linspace(0.0, 1.0, 37)
    for t in (0.0, 0.37, 1.2):
        assert np.array_equal(rk4_step(SAMPLED, t, xs, h), rk4_step(plain, t, xs, h))
        for x in (0.0, 0.3, 1.0):
            assert rk4_step(SAMPLED, t, x, h).hex() == rk4_step(plain, t, x, h).hex()


def test_float_steps_give_the_bits_of_the_reference_step():
    # the inline sin and cos and the comparison clamps keep every bit of the
    # step that called the float runtime's helpers and clamped by min(max)
    text = "1.3 + 0.1*sin(2*pi*x + 4.5)*cos(1.6*t) - 0.05*cos(3*x)*cos(3*x)"
    v = VelocityField.from_expression(text)
    rng = np.random.default_rng(2024)
    cases = [(t, x, h) for t, x, h in zip(rng.uniform(0.0, 1.0, 20_000).tolist(),
                                          rng.uniform(-0.1, 1.1, 20_000).tolist(),
                                          rng.choice([5e-3, -5e-3, 1e-3], 20_000).tolist())]
    cases += [(0.4, x, h) for x in (-0.0, math.nan, -0.1, 1.1) for h in (5e-3, -5e-3)]
    for t, x, h in cases:
        got = rk4_step(v, t, x, h)
        assert struct.pack("<d", got) == struct.pack(
            "<d", reference_forms.float_rk4_step(v._expression, t, x, h)), (t, x, h)
