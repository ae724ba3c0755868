"""Characteristic transport solver against closed forms and itself."""

import math

import numpy as np
import pytest

from transportlab.characteristics import CharacteristicEngine
from transportlab.expr import Expression, parse
from transportlab.fields import (
    ROW_BLOCK,
    BoundarySignal,
    FieldValidationError,
    Grid,
    InitialProfile,
    SpaceTimeField,
    TransportCoefficients,
    VelocityField,
)
from transportlab.manufacturing import sampled_velocity
from transportlab.transport import (
    TransportProblem,
    decompose,
    solve_field,
    solve_fields,
    solve_point,
)
from transportlab import transport
from transportlab.bounds import transport_run

import reference_forms
from reference_forms import Counted

E02 = 1.2214027581601699  # exp(0.2)


def problem_of(v="1", phi="0", b="0", a=None, f=None, jumps=()):
    coeffs = TransportCoefficients(
        a=SpaceTimeField.from_expression(a) if a else SpaceTimeField.zero(),
        f=SpaceTimeField.from_expression(f) if f else SpaceTimeField.zero(),
    )
    return TransportProblem(
        phi=InitialProfile.from_expression(phi, jump_points=tuple(jumps)),
        b=BoundarySignal.from_expression(b),
        v=VelocityField.from_expression(v),
        coeffs=coeffs,
    )


def test_pure_advection_profile_shift():
    grid = Grid(201, 2e-3, 0.5)
    prob = problem_of(v="1", phi="sin(pi*x)")
    w = solve_field(prob, grid)
    xs = grid.xs
    fed_by_data = xs > 0.5
    exact = np.sin(np.pi * (xs[fed_by_data] - 0.5))
    assert np.max(np.abs(w.final_row[fed_by_data] - exact)) < 1e-4
    # everything the boundary feeds is exactly zero, not merely small
    assert np.max(np.abs(w.final_row[xs <= 0.4999])) < 1e-14


def test_constant_reaction_growth():
    grid = Grid(101, 1e-3, 1.0)
    prob = problem_of(v="1", phi="1", b="exp(0.2*t)", a="0.2")
    w = solve_field(prob, grid)
    assert np.max(np.abs(w.final_row - E02)) < 1e-12


def test_source_accumulation_is_min_t_x():
    grid = Grid(101, 5e-3, 1.0)
    prob = problem_of(v="1", f="1")
    w = solve_field(prob, grid)
    for k in (0, 40, 120, 200):
        t = grid.times[k]
        exact = np.minimum(t, grid.xs)
        assert np.max(np.abs(w.values[k] - exact)) < 1e-10


def test_initial_row_and_corner():
    grid = Grid(51, 1e-2, 0.1)
    prob = problem_of(v="1", phi="1 + x", b="5")
    w = solve_field(prob, grid)
    assert w.values[0, 0] == pytest.approx(5.0, abs=1e-14)
    assert np.max(np.abs(w.values[0, 1:] - (1.0 + grid.xs[1:]))) < 1e-14
    assert w.kind == "w"
    assert w.times is grid.times and w.xs is grid.xs
    assert w.values.shape == (grid.nt + 1, grid.nx)
    assert CharacteristicEngine(prob.v, grid).separatrix() is not None


SMOOTH = dict(
    v="1 + 0.25*sin(pi*x)*exp(-0.3*t)",
    phi="1 + x^2",
    b="cos(t)",
    a="0.3*sin(t) - 0.1*x",
    f="sin(pi*x)*cos(t)",
)


def test_superposition_identity():
    grid = Grid(101, 2e-3, 0.8)
    prob = problem_of(**SMOOTH)
    full = solve_field(prob, grid)
    w_b, w_i, w_s = decompose(prob, grid)
    recombined = w_b.values + w_i.values + w_s.values
    assert np.max(np.abs(full.values - recombined)) < 1e-9


def test_decompose_parts_solve_their_own_data():
    # boundary part: same problem with phi = f = 0, so it vanishes ahead of
    # the separatrix; initial part vanishes behind it
    grid = Grid(101, 2e-3, 0.4)
    prob = problem_of(**SMOOTH)
    w_b, w_i, _ = decompose(prob, grid)
    r0 = CharacteristicEngine(prob.v, grid).separatrix().at(0.4)
    ahead = grid.xs > r0 + 0.02
    behind = grid.xs < r0 - 0.02
    assert np.max(np.abs(w_b.final_row[ahead])) < 1e-14
    assert np.max(np.abs(w_i.final_row[behind])) < 1e-14


@pytest.mark.parametrize("data", [dict(phi="1", b="1", a="-800"), dict(v="x - 0.5")],
                         ids=["overflowing-a", "negative-v"])
def test_decompose_raises_the_error_of_the_full_solve(data):
    # the boundary part, solved first, keeps the problem's b, v and a
    grid = Grid(41, 0.01, 1.0)
    with np.errstate(all="ignore"), pytest.raises(FieldValidationError) as full:
        solve_field(problem_of(**data), grid)
    with np.errstate(all="ignore"), pytest.raises(FieldValidationError) as parts:
        decompose(problem_of(**data), grid)
    assert str(parts.value) == str(full.value)


def test_solve_point_matches_field():
    grid = Grid(201, 2e-3, 0.8)
    prob = problem_of(**SMOOTH)
    w = solve_field(prob, grid)
    for x in (0.2, 0.55, 0.9):
        j = int(round(x / grid.dx))
        pointwise = solve_point(prob, grid, 0.8, float(grid.xs[j]))
        assert pointwise == pytest.approx(w.final_row[j], abs=2e-4)


def test_solve_point_closed_forms_affine_speed():
    # with v = 1 + x the characteristic through (t, x) has foot
    # x0 = (1 + x) e^{-t} - 1 when it starts on the initial line, and
    # emission time t0 = t - ln(1 + x) when it starts on the wall
    grid = Grid(101, 1e-3, 1.0)
    prob = problem_of(v="1 + x", phi="sin(2*x)", b="cos(t)")
    x0 = 1.9 * np.exp(-0.4) - 1.0
    got = solve_point(prob, grid, 0.4, 0.9)
    assert got == pytest.approx(np.sin(2.0 * x0), abs=1e-9)
    t0 = 1.0 - np.log(1.5)
    got = solve_point(prob, grid, 1.0, 0.5)
    assert got == pytest.approx(np.cos(t0), abs=1e-9)


def test_kink_propagates_without_smearing():
    # piecewise-linear data with a declared kink stays exact at the nodes
    # because interpolation never crosses the moving locus
    grid = Grid(101, 1e-3, 0.2)
    prob = problem_of(v="1", phi="min(1, 2*x)", b="-2*t", jumps=(0.5,))
    w = solve_field(prob, grid)
    xs = grid.xs
    exact = np.where(xs >= 0.2, np.minimum(1.0, 2.0 * (xs - 0.2)), -2.0 * (0.2 - xs))
    assert np.max(np.abs(w.final_row - exact)) < 1e-12
    loci = CharacteristicEngine(prob.v, grid).jump_loci(prob.phi.jump_points)
    assert len(loci) == 1
    assert loci[0].start == pytest.approx(0.5)


def test_reaction_integral_uses_path_samples():
    # v = 1, a = x: along the characteristic from x0, a(s) = x0 + s, so
    # w(t, x) = phi(x - t) exp(t x - t^2 / 2 + ... ) evaluated here at a
    # point fed by the initial line: integral of (x0 + s) ds = x0 t + t^2/2
    grid = Grid(101, 1e-3, 0.5)
    prob = problem_of(v="1", phi="1", a="x")
    got = solve_point(prob, grid, 0.5, 0.8)
    x0 = 0.3
    assert got == pytest.approx(np.exp(x0 * 0.5 + 0.125), rel=1e-8)


def test_vanishing_speed_rejected():
    grid = Grid(51, 1e-2, 0.2)
    prob = problem_of(v="x")
    with pytest.raises(FieldValidationError):
        solve_field(prob, grid)


def test_non_finite_solution_rejected():
    grid = Grid(51, 1e-2, 0.2)
    prob = problem_of(v="1", phi="x*1e200*1e200")
    with np.errstate(over="ignore"):
        with pytest.raises(FieldValidationError,
                           match=r"solution is not finite at t = 0\.0, x = 0\.02"):
            solve_field(prob, grid)


def test_solve_field_integrates_no_characteristic_flow(monkeypatch):
    grid = Grid(101, 2e-3, 0.4)
    prob = problem_of(**SMOOTH)
    calls = []
    init, flow = CharacteristicEngine.__init__, CharacteristicEngine.flow

    def spied_init(self, *args):
        calls.append("__init__")
        init(self, *args)

    def spied_flow(self, *args):
        calls.append("flow")
        return flow(self, *args)

    monkeypatch.setattr(CharacteristicEngine, "__init__", spied_init)
    monkeypatch.setattr(CharacteristicEngine, "flow", spied_flow)
    solve_field(prob, grid)
    decompose(prob, grid)
    assert calls == []


# --- the engine kept by a problem --------------------------------------------

def test_solve_point_integrates_the_separatrix_once_per_problem(monkeypatch):
    grid = Grid(101, 1e-3, 1.0)
    prob = problem_of(v="1 + x", phi="sin(2*x)", b="cos(t)")
    separatrix_flows = []
    flow = CharacteristicEngine.flow

    def counted(self, t0, x0, until):
        if (t0, x0, until) == (0.0, 0.0, grid.horizon):
            separatrix_flows.append(self)
        return flow(self, t0, x0, until)

    monkeypatch.setattr(CharacteristicEngine, "flow", counted)
    for t, x in ((0.4, 0.9), (1.0, 0.5), (0.7, 0.95), (0.3, 0.1)):
        solve_point(prob, grid, t, x)
    assert len(separatrix_flows) == 1


def test_problem_engine_follows_grid_and_velocity():
    grid = Grid(101, 1e-3, 1.0)
    prob = problem_of(v="1", phi="x")
    engine = prob.engine_for(grid)
    assert prob.engine_for(Grid(101, 1e-3, 1.0)) is engine
    other = prob.engine_for(Grid(51, 1e-3, 1.0))
    assert other is not engine and other.grid == Grid(51, 1e-3, 1.0)
    assert solve_point(prob, grid, 0.2, 0.7) == pytest.approx(0.5, abs=1e-12)
    prob.v = VelocityField.constant(2.0)
    assert prob.engine_for(grid).v is prob.v
    # a stale engine would still carry the old speed
    assert solve_point(prob, grid, 0.2, 0.7) == pytest.approx(0.3, abs=1e-12)


def test_distinct_queries_leave_a_bounded_number_of_stored_paths():
    grid = Grid(101, 1e-3, 1.0)
    prob = problem_of(v="1 + x", phi="sin(2*x)", b="cos(t)")
    for k in range(40):
        solve_point(prob, grid, 0.2 + 0.02 * k, 0.05 + 0.02 * k)
    engine = prob._engine
    # the last query's flow is the one path kept; the separatrix is kept apart
    (t0, x0, _), path = engine._last
    assert (path.t0, path.x0) == (t0, x0)
    assert not [v for v in vars(engine).values() if isinstance(v, (dict, list))]
    assert engine._separatrix is not None


# --- scalar steps read the float function -------------------------------------

SCALAR_SPEED = "1 + 0.2*sin(3.14159*x)*cos(t) + 0.1*exp(-x)"
# two initial-data points, two boundary-fed points
SCALAR_QUERIES = ((0.4, 0.9), (0.7, 0.95), (0.6, 0.2), (0.9, 0.05))


def scalar_problem(v):
    return TransportProblem(
        phi=InitialProfile.from_expression("sin(2*x)"),
        b=BoundarySignal.from_expression("cos(t)"), v=v,
        coeffs=TransportCoefficients(a=SpaceTimeField.from_expression("-0.1"),
                                     f=SpaceTimeField.from_expression("0.05*cos(t)")))


def expression_calls(monkeypatch, prob, grid):
    """Expression calls made by the queries, once the engine has its grid
    rows and separatrix."""
    for t, x in SCALAR_QUERIES:
        solve_point(prob, grid, t, x)
    calls = []
    call = Expression.__call__

    def counted(self, **bindings):
        calls.append(self)
        return call(self, **bindings)

    with monkeypatch.context() as patched:
        patched.setattr(Expression, "__call__", counted)
        for t, x in SCALAR_QUERIES:
            solve_point(prob, grid, t, x)
    return len(calls)


def test_scalar_steps_make_no_expression_call(monkeypatch):
    e = parse(SCALAR_SPEED)
    counts = {}
    for dt in (1e-2, 2.5e-3):
        grid = Grid(101, dt, 1.0)
        counts[dt] = (
            expression_calls(monkeypatch, scalar_problem(VelocityField.from_expression(e)), grid),
            expression_calls(monkeypatch, scalar_problem(reference_forms.numpy_speed(e)), grid))
    # a and f along each path, then phi or b at the foot: none per RK4 step
    assert counts[1e-2][0] == counts[2.5e-3][0] == 3 * len(SCALAR_QUERIES)
    # the reference reads v through the expression at every stage
    assert counts[2.5e-3][1] > counts[1e-2][1] > counts[1e-2][0]


def test_float_steps_match_numpy_steps():
    e = parse(SCALAR_SPEED)
    grid = Grid(101, 2.5e-3, 1.0)
    prob = scalar_problem(VelocityField.from_expression(e))
    ref = scalar_problem(reference_forms.numpy_speed(e))
    for t, x in SCALAR_QUERIES:
        assert abs(solve_point(prob, grid, t, x) - solve_point(ref, grid, t, x)) <= 1e-12


# --- the fan's work -----------------------------------------------------------

def test_members_past_the_wall_stop_being_stepped():
    # at speed 4 the whole initial fan has left the strip by t = 0.25
    grid = Grid(101, 1e-2, 1.0)
    stepped = []

    def speed(t, x):
        if isinstance(x, np.ndarray):
            stepped.append(x.size)
            return np.full(x.shape, 4.0)
        return 4.0

    v = VelocityField(speed)
    v.range_on(grid)  # validation reads this kept record; what follows is the fan's RK4
    stepped.clear()
    prob = TransportProblem(phi=InitialProfile.from_expression("x"),
                            b=BoundarySignal.from_expression("-t"), v=v)
    field = solve_field(prob, grid)
    member_steps = sum(stepped) / 4  # four RK4 stages per step
    members = grid.nt + 1 + grid.nx
    assert member_steps < 0.5 * grid.nt * members
    # still the exact solution: phi(x - 4t) ahead of the separatrix, b behind
    t, x = np.meshgrid(grid.times, grid.xs, indexing="ij")
    exact = np.where(x > 4.0 * t, x - 4.0 * t, -(t - x / 4.0))
    np.testing.assert_allclose(field.values, exact, rtol=0, atol=1e-12)


class CountingBoundary(BoundarySignal):
    calls = 0

    def __call__(self, t):
        CountingBoundary.calls += 1
        return super().__call__(t)


@pytest.mark.parametrize("nt", [50, 400])
def test_solve_field_evaluates_the_boundary_signal_a_fixed_number_of_times(nt):
    grid = Grid(51, 1.0 / nt, 1.0)
    b = CountingBoundary.from_expression("cos(3*t)")
    prob = problem_of(v="1 + 0.5*x", phi="1")
    prob.b = b
    CountingBoundary.calls = 0
    field = solve_field(prob, grid)
    assert CountingBoundary.calls == 2  # b(0) and one call on every step's end time
    assert field.values[-1, 0] == pytest.approx(np.cos(3.0), abs=1e-12)


# --- a and f a block of steps at a time ----------------------------------------

BLOCKED = dict(
    v="2 + 0.5*sin(pi*x)*cos(3*t)",
    phi="1 + x^2",
    b="cos(t)",
    a="0.3*sin(t) - 0.4*x",
    f="sin(pi*x)*cos(t) + x*t",
    jumps=(0.45,),
)


NODES_41 = np.linspace(0.0, 1.0, 41)  # the nodes of the fan grids below


@pytest.mark.parametrize("grid,data", [
    # at speed 2 to 2.5 members leave the strip on most steps, inside blocks
    *(pytest.param(Grid(41, 0.02, nt * 0.02), BLOCKED, id=str(nt))
      for nt in (1, 31, 32, 33, 70)),
    # speed dx/dt: the separatrix and the locus of 0.5 land exactly on grid
    # nodes, which take the left limit
    pytest.param(Grid(41, 0.025, 1.0), dict(BLOCKED, v="1", jumps=(0.5,)),
                 id="node-on-locus"),
    # jump points 5e-14 before one grid node and after another, so two pairs
    # stay within 1e-13 on every row: the node member after the first locus
    # is dropped inside its segment, and the second locus is dropped as the
    # end of one segment but starts the next
    pytest.param(Grid(41, 0.02, 0.4),
                 dict(BLOCKED, v="1 + 0.1*x",
                      jumps=(NODES_41[12] - 5e-14, NODES_41[18] + 5e-14)),
                 id="near-coincident"),
    # a node between two loci 1e-13 apart: their segment keeps one member
    pytest.param(Grid(41, 0.02, 0.4),
                 dict(BLOCKED, jumps=(NODES_41[30] - 5e-14, NODES_41[30] + 5e-14)),
                 id="single-member-segment"),
])
def test_blocked_fan_equals_the_step_by_step_fan(grid, data):
    # row 0 is interpolated on its own, the other rows a block at a time
    prob = problem_of(**data)
    assert np.array_equal(solve_field(prob, grid).values, reference_forms.fan_values(prob, grid))
    parts = decompose(prob, grid)
    flags = [(False, True, False), (True, False, False), (False, False, True)]
    for part, (phi, b, f) in zip(parts, flags):
        expected = reference_forms.fan_values(prob, grid, include_phi=phi, include_b=b, include_f=f)
        assert np.array_equal(part.values, expected)


@pytest.mark.parametrize("nt", [1, 32, 33, 400])
def test_solve_field_evaluates_a_and_f_once_per_block(nt):
    grid = Grid(51, 1.0 / nt, 1.0)
    prob = problem_of(v="1 + 0.5*x", phi="1", b="cos(t)")
    a = Counted(SpaceTimeField.from_expression("0.2*x - t"))
    f = Counted(SpaceTimeField.from_expression("sin(x + t)"))
    prob.coeffs = TransportCoefficients(a=a, f=f)
    solve_field(prob, grid)
    assert a.calls == f.calls == 1 + math.ceil(nt / ROW_BLOCK)


# --- a speed of t alone ----------------------------------------------------------

FAN_TIMES = np.linspace(0.0, 1.0, 41)


def _sampled_problem():
    prob = problem_of(**dict(BLOCKED, v="1"))
    prob.v = sampled_velocity(FAN_TIMES, 1.2 + 0.3 * np.cos(4.0 * FAN_TIMES))
    return prob


def test_sampled_speed_is_read_three_times_per_fan_step_at_a_scalar_x(monkeypatch):
    prob, grid = _sampled_problem(), Grid(41, 0.02, 1.0)
    dims, read = [], type(prob.v).__call__

    def spy(self, t, x):
        dims.append(np.ndim(x))
        return read(self, t, x)

    monkeypatch.setattr(type(prob.v), "__call__", spy)
    solve_field(prob, grid)
    assert len(dims) == 3 * grid.nt
    assert set(dims) == {0}


def test_sampled_speed_leaves_fields_and_points_bitwise_unchanged():
    grid = Grid(41, 0.02, 1.0)
    probs = [_sampled_problem() for _ in range(2)]
    probs[1].v = VelocityField(probs[1].v)  # read at every stage and position
    fields = [solve_field(prob, grid).values for prob in probs]
    assert np.array_equal(fields[0], fields[1])
    for t, x in [(0.6, 0.2), (0.3, 0.9)]:
        a, b = (solve_point(prob, grid, t, x) for prob in probs)
        assert a.hex() == b.hex()


# --- one fan for a grid and its coarsened grid ---------------------------------

# members leave the strip on different steps at speeds from about 1.1 to 2.2
PAIR = dict(BLOCKED, v="1.5 + 0.4*sin(pi*x)*cos(3*t) + 0.3*exp(-2*x*t)",
            jumps=(0.45, 0.8))
FLAGS = [(True, True, True), (False, True, False), (True, False, False),
         (False, False, True)]  # the full solve and the parts of decompose


@pytest.mark.parametrize("speed", ["expression", "sampled"])
@pytest.mark.parametrize("nx", [101, 241, 20, 400])
def test_one_fan_gives_each_grid_the_field_of_its_own_solve(nx, speed):
    # odd nx: the coarse nodes are grid nodes; even nx: the fan adds members
    grid = Grid(nx, 0.01, 0.6)
    prob = problem_of(**PAIR)
    if speed == "sampled":
        prob.v = sampled_velocity(FAN_TIMES, 1.2 + 0.3 * np.cos(4.0 * FAN_TIMES))
    grids = [grid, grid.coarsened_space()]
    for flags in FLAGS:
        part = reference_forms.zeroed(prob, *flags)
        shared = solve_fields(part, grids)
        for field, alone, g in zip(shared, reference_forms.two_solves(part, grid), grids):
            assert field.grid == g and field.times is g.times and field.xs is g.xs
            assert np.array_equal(field.values, alone.values)


def test_grids_of_one_fan_share_their_times():
    prob = problem_of(**PAIR)
    with pytest.raises(ValueError, match="share their times"):
        solve_fields(prob, [Grid(41, 0.02, 0.4), Grid(21, 0.01, 0.4)])


def _member_steps(monkeypatch, solve):
    """The members the fan's RK4 steps move while ``solve()`` runs."""
    sizes, step = [], transport.rk4_step

    def counted(v, t, x, h):
        sizes.append(x.size)
        return step(v, t, x, h)

    with monkeypatch.context() as patch:
        patch.setattr(transport, "rk4_step", counted)
        solve()
    return sum(sizes)


@pytest.mark.parametrize("nx", [41, 101, 121])
def test_the_coarse_grid_adds_at_most_its_own_wall_bracket(monkeypatch, nx):
    # for odd nx the coarse members are fine members; the fan steps one more
    # only on steps where the coarse grid's first member past the wall lies
    # after the fine grid's
    grid = Grid(nx, 0.01, 1.0)
    coarse = grid.coarsened_space()
    prob = problem_of(v="1.3 + 0.3*sin(3*x)*cos(t)", phi="x", b="-t")
    fine = _member_steps(monkeypatch, lambda: solve_field(prob, grid))
    shared = _member_steps(monkeypatch, lambda: solve_fields(prob, [grid, coarse]))
    assert fine <= shared <= fine + grid.nt
    alone = _member_steps(monkeypatch, lambda: solve_field(prob, coarse))
    assert shared < fine + 0.05 * alone  # not the coarse grid's fan again


def test_transport_run_steps_one_fan_for_both_grids(monkeypatch):
    fans = []

    class Spied(transport._Fan):
        def __init__(self, *args):
            super().__init__(*args)
            fans.append(self)

    monkeypatch.setattr(transport, "_Fan", Spied)
    grid = Grid(101, 0.01, 1.0)
    run = transport_run(problem_of(v="1.3 + 0.3*sin(3*x)*cos(t)", phi="x", b="-t"), grid)
    assert [[m.grid for m in fan.members] for fan in fans] == [[grid, grid.coarsened_space()]]
    assert run.state_coarse.grid == grid.coarsened_space()
