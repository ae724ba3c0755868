"""Upwind scheme sanity: exactness at unit CFL, stability, convergence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transportlab.characteristics import CharacteristicEngine
from transportlab.fields import (ROW_BLOCK, BoundarySignal, Grid, SpaceTimeField,
                                 TransportCoefficients)
from transportlab.oracle import OracleError, upwind_solve
from transportlab.transport import solve_field

import reference_forms
from reference_forms import Counted
from test_transport import SMOOTH, problem_of


def test_unit_cfl_advects_exactly():
    grid = Grid(101, 1e-2, 0.5)  # dt == dx, v == 1: pure shift per step
    prob = problem_of(v="1", phi="sin(2*pi*x)")
    w = upwind_solve(prob, grid)
    xs = grid.xs
    exact = np.where(xs >= 0.5, np.sin(2.0 * np.pi * (xs - 0.5)), 0.0)
    assert np.max(np.abs(w.final_row - exact)) < 1e-12


def test_unit_cfl_source_is_min_t_x():
    grid = Grid(101, 1e-2, 1.0)
    prob = problem_of(v="1", f="1")
    w = upwind_solve(prob, grid)
    exact = np.minimum(1.0, grid.xs)
    assert np.max(np.abs(w.final_row - exact)) < 1e-12


def test_zero_data_stays_zero():
    grid = Grid(51, 5e-3, 0.3)
    w = upwind_solve(problem_of(v="1 + 0.3*x"), grid)
    assert np.all(w.values == 0.0)


def test_cfl_violation_raises():
    grid = Grid(101, 2e-2, 0.2)  # dt = 2 dx with v = 1
    with pytest.raises(OracleError):
        upwind_solve(problem_of(v="1", phi="x"), grid)


@settings(max_examples=25, deadline=None)
@given(
    speed=st.floats(0.5, 1.5),
    amp=st.floats(-2.0, 2.0),
    k=st.integers(1, 3),
    off=st.floats(-1.0, 1.0),
)
def test_discrete_max_principle(speed, amp, k, off):
    # without reaction or source the scheme takes convex combinations, so
    # the state never leaves the envelope of the data
    grid = Grid(51, 1e-2, 0.2)
    prob = problem_of(v=repr(speed), phi=f"{off!r} + {amp!r}*sin({k}*pi*x)",
                      b=repr(off))
    w = upwind_solve(prob, grid)
    data = np.concatenate([w.values[0], [off]])
    assert w.values.max() <= data.max() + 1e-12
    assert w.values.min() >= data.min() - 1e-12


def test_first_order_convergence_against_closed_form():
    prob = problem_of(v="1", phi="sin(pi*x)")
    errs = []
    for nx, dt in ((101, 2.5e-3), (201, 1.25e-3)):
        grid = Grid(nx, dt, 0.5)
        w = upwind_solve(prob, grid)
        xs = grid.xs
        smooth = xs >= 0.6  # stay away from the C^0 kink the wall emits
        exact = np.sin(np.pi * (xs[smooth] - 0.5))
        errs.append(np.max(np.abs(w.final_row[smooth] - exact)))
    ratio = errs[0] / errs[1]
    assert 1.6 < ratio < 2.5


def test_agrees_with_characteristic_solver():
    grid = Grid(201, 1.25e-3, 0.4)
    prob = problem_of(
        v="1 + 0.2*sin(pi*x)", phi="exp(-x)", b="exp(-0.5*t)",
        a="0.1", f="0.2*cos(t)",
    )
    fine = upwind_solve(prob, grid)
    ref = solve_field(prob, grid)
    # the data meet the wall compatibly only at zeroth order, so compare
    # away from the separatrix kink
    r0 = CharacteristicEngine(prob.v, grid).separatrix().at(0.4)
    mask = np.abs(grid.xs - r0) > 0.05
    err = np.max(np.abs(fine.final_row[mask] - ref.final_row[mask]))
    assert err < 5e-3


def test_march_samples_the_data_in_bulk():
    grid = Grid(41, 1e-2, 0.8)  # 81 rows: not a multiple of the block
    prob = problem_of(**SMOOTH)
    a, f = Counted(prob.coeffs.a), Counted(prob.coeffs.f)
    b = Counted(prob.b)
    counted = problem_of(**SMOOTH)
    counted.coeffs = TransportCoefficients(a=SpaceTimeField(a), f=SpaceTimeField(f))
    counted.b = BoundarySignal(b)
    w = upwind_solve(counted, grid)
    blocks = math.ceil((grid.nt + 1) / ROW_BLOCK)
    assert (a.calls, f.calls) == (blocks, blocks)
    assert b.calls == 2  # validation, then the inflow column
    assert np.array_equal(w.values, reference_forms.upwind_solve(prob, grid))
