import math
import tracemalloc

import numpy as np
import pytest

from transportlab.continuity import log_state_problem
from transportlab.fields import (
    ROW_BLOCK,
    SPEED_FLOOR,
    BoundarySignal,
    FieldValidationError,
    Grid,
    InitialProfile,
    SpaceTimeField,
    TransportCoefficients,
    VelocityField,
    check_compatibility_continuity,
    check_compatibility_transport,
)
from transportlab.manufacturing import sampled_velocity

import reference_forms
from reference_forms import Counted


def test_grid_basics():
    g = Grid(nx=11, dt=0.1, horizon=1.0)
    assert g.nt == 10
    assert g.dx == pytest.approx(0.1)
    assert g.times[-1] == pytest.approx(1.0)
    assert g.xs[0] == 0.0 and g.xs[-1] == 1.0
    assert g.cfl_number(vmax=2.0) == pytest.approx(2.0)
    # node positions and row times are built once per grid and read-only
    for arr in (g.xs, g.times):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.5
    assert g.xs is g.xs and g.times is g.times
    assert np.array_equal(g.times, np.arange(11) * 0.1)


@pytest.mark.parametrize("nx,dt,horizon", [(1, 0.1, 1.0), (5, 0.0, 1.0), (5, 0.1, 0.05), (5, 0.3, 1.0),
                                           (5, 0.1, math.nan), (5, 0.1, math.inf)])
def test_grid_rejects_bad_parameters(nx, dt, horizon):
    with pytest.raises(FieldValidationError):
        Grid(nx=nx, dt=dt, horizon=horizon)


def test_velocity_positivity_enforced():
    g = Grid(nx=21, dt=0.1, horizon=0.5)
    VelocityField.from_expression("1 + 0.5*x").validate_positive(g)
    with pytest.raises(FieldValidationError, match="positive"):
        VelocityField.from_expression("x - 0.5").validate_positive(g)
    with np.errstate(over="ignore"):
        with pytest.raises(FieldValidationError, match="not finite"):
            VelocityField.from_expression("1 + x*1e200*1e200").validate_positive(g)
    # a NaN speed is below no floor, yet it is not positive either
    nan_speed = VelocityField(lambda t, x: np.where(x < 0.5, 1.0, math.nan) + 0.0 * t)
    with pytest.raises(FieldValidationError, match="positive"):
        nan_speed.validate_positive(g)


def test_velocity_floor_is_the_least_speed_allowed():
    g = Grid(nx=21, dt=0.1, horizon=0.5)
    assert VelocityField.constant(SPEED_FLOOR).validate_positive(g) == SPEED_FLOOR
    with pytest.raises(FieldValidationError, match=r"< floor 1\.0e-09"):
        VelocityField.constant(SPEED_FLOOR / 2).validate_positive(g)


def test_jump_point_validation():
    InitialProfile.from_expression("x", jump_points=(0.25, 0.5))
    with pytest.raises(FieldValidationError):
        InitialProfile.from_expression("x", jump_points=(0.5, 0.25))
    with pytest.raises(FieldValidationError):
        InitialProfile.from_expression("x", jump_points=(0.0,))


def test_initial_density_positivity():
    g = Grid(nx=11, dt=0.1, horizon=0.5)
    InitialProfile.from_expression("1 + x").validate_positive(g.xs)
    with pytest.raises(FieldValidationError):
        InitialProfile.from_expression("x - 0.5").validate_positive(g.xs)


def test_space_time_field_derivative():
    f = SpaceTimeField.from_expression("sin(2*x) + t")
    got = f.ddx(0.3, 0.4)
    assert got == pytest.approx(2 * math.cos(0.8), abs=1e-8)
    assert SpaceTimeField.zero().ddx(0.1, 0.2) == 0.0


# --- compatibility: continuity problem ------------------------------------

def test_continuity_compatible_constant_state():
    # rho_s=1, b=0.1, rho0 = e^0.1, v constant: all residuals vanish
    rep = check_compatibility_continuity(
        1.0,
        InitialProfile.constant(math.exp(0.1)),
        BoundarySignal.constant(0.1),
        VelocityField.constant(1.0),
    )
    assert rep.value_ok and rep.derivative_ok
    assert rep.regularity == "C1"
    assert rep.value_residual <= 1e-12


def test_continuity_equilibrium_is_c1_compatible():
    # v = 1 + x, rho0 = 1/(1+x), b = 0: the stationary profile
    rep = check_compatibility_continuity(
        1.0,
        InitialProfile.from_expression("1/(1+x)"),
        BoundarySignal.constant(0.0),
        VelocityField.from_expression("1 + x"),
    )
    assert rep.regularity == "C1"
    assert rep.derivative_residual <= 1e-6


def test_continuity_value_mismatch_detected():
    rep = check_compatibility_continuity(
        1.0,
        InitialProfile.constant(2.0),
        BoundarySignal.constant(0.0),
        VelocityField.constant(1.0),
    )
    assert not rep.value_ok
    assert rep.value_residual == pytest.approx(1.0)
    assert rep.regularity == "PC1"


# --- compatibility: transport problem --------------------------------------

def test_transport_compatible_zero_corner():
    rep = check_compatibility_transport(
        InitialProfile.from_expression("sin(pi*x)"),
        BoundarySignal.constant(0.0),
        VelocityField.constant(1.0),
    )
    # value matches; slope residual is v * phi'(0) = pi
    assert rep.value_ok
    assert not rep.derivative_ok
    assert rep.derivative_residual == pytest.approx(math.pi, rel=1e-5)
    assert rep.regularity == "C0"


def test_transport_full_c1_compatibility():
    # b(t) = -pi * t has db/dt(0) = -pi = -(v phi')(0,0)
    rep = check_compatibility_transport(
        InitialProfile.from_expression("sin(pi*x)"),
        BoundarySignal.from_expression("-pi*t"),
        VelocityField.constant(1.0),
        TransportCoefficients(),
    )
    assert rep.regularity == "C1"


def test_transport_source_enters_slope_condition():
    # f = 1 at the corner shifts the required slope: db/dt(0) = 1
    rep = check_compatibility_transport(
        InitialProfile.constant(0.0),
        BoundarySignal.from_expression("t"),
        VelocityField.constant(1.0),
        TransportCoefficients(f=SpaceTimeField.constant(1.0)),
    )
    assert rep.regularity == "C1"
    rep2 = check_compatibility_transport(
        InitialProfile.constant(0.0),
        BoundarySignal.constant(0.0),
        VelocityField.constant(1.0),
        TransportCoefficients(f=SpaceTimeField.constant(1.0)),
    )
    assert rep2.value_ok and not rep2.derivative_ok


def test_jump_points_downgrade_regularity():
    # slope condition: db/dt(0) = -v(0,0) * phi'(0) = -2
    rep = check_compatibility_transport(
        InitialProfile.from_expression("min(1, 2*x)", jump_points=(0.5,)),
        BoundarySignal.from_expression("-2*t"),
        VelocityField.constant(1.0),
    )
    # corner is fine but the declared kink caps regularity at C0
    assert rep.value_ok and rep.derivative_ok
    assert rep.regularity == "C0"


# --- sampling on the grid ----------------------------------------------------

# 81 rows: not a multiple of the block
SAMPLED_GRID = Grid(nx=41, dt=0.01, horizon=0.8)


def test_validate_finite_calls_the_signal_once_per_grid():
    signal = Counted(BoundarySignal.from_expression("cos(3*t)"))
    BoundarySignal(signal).validate_finite(SAMPLED_GRID.times)
    assert signal.calls == 1
    blowup = Counted(BoundarySignal.from_expression("t*1e200*1e200"))
    with np.errstate(over="ignore"):
        with pytest.raises(FieldValidationError, match="not finite"):
            BoundarySignal(blowup).validate_finite(SAMPLED_GRID.times)
    assert blowup.calls == 1


def _fields_to_sample():
    times = np.linspace(0.0, 0.8, 17)
    sampled = sampled_velocity(times, 1.0 + 0.2 * np.sin(5.0 * times))
    slope = log_state_problem(1.0, InitialProfile.from_expression("1 + x"),
                              BoundarySignal.from_expression("0"),
                              VelocityField.from_expression("1 + 0.3*sin(pi*x)*cos(t)"))
    return {
        "expression": SpaceTimeField.from_expression(
            "1 + 0.2*sin(pi*x*t)^2*exp(-t) + min(x, t)^3"),
        "constant": SpaceTimeField.constant(1.5),
        "sampled": sampled,
        "slope": slope.coeffs.f,
    }


@pytest.mark.parametrize("kind", ["expression", "constant", "sampled", "slope"])
def test_grid_rows_sample_a_block_of_rows_per_call(kind):
    # v's range on a grid reduces its grid rows, sampled a block at a time
    base = _fields_to_sample()[kind]
    counted = Counted(base)
    v = VelocityField(counted)
    speeds = v.range_on(SAMPLED_GRID)
    assert counted.calls == math.ceil((SAMPLED_GRID.nt + 1) / ROW_BLOCK)
    rows = reference_forms.grid_rows(base, SAMPLED_GRID)
    assert np.array_equal(speeds.vmin, np.minimum.accumulate(rows.min(axis=1)))
    assert speeds.vmax == rows.max()
    assert not speeds.vmin.flags.writeable
    # kept for the latest grid only
    assert v.range_on(SAMPLED_GRID) is speeds
    v.range_on(Grid(nx=21, dt=0.01, horizon=0.8))
    assert v.range_on(SAMPLED_GRID) is not speeds


def test_a_validated_speed_keeps_its_range_not_its_rows():
    grid = Grid(nx=240, dt=1e-3, horizon=0.8)  # 801 rows
    v = VelocityField.from_expression("1 + 0.3*sin(pi*x)*cos(3*t)")
    v(grid.times[:2, None], grid.xs)  # the expression's code and the grid's nodes are built
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        v.validate_positive(grid)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < (grid.nt + 1) * grid.nx * 8 / 10
