import copy
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from transportlab import expr
from transportlab.expr import (
    ExpressionDomainError,
    ExpressionSyntaxError,
    parse,
    to_string,
)

import reference_forms

ROUNDTRIP_TOL = 1e-12


@pytest.mark.parametrize(
    "text,env,expected",
    [
        ("2^3^2", {}, 512.0),
        ("-2^2", {}, -4.0),
        ("1-2-3", {}, -4.0),
        ("1 + 2*x", {"x": 0.25}, 1.5),
        ("exp(-t)*sin(pi*x)", {"t": 0.0, "x": 0.5}, 1.0),
        ("min(1, 2*x)", {"x": 0.2}, 0.4),
        ("min(1, 2*x)", {"x": 0.9}, 1.0),
        ("max(0.5, x)", {"x": 0.1}, 0.5),
        ("abs(-3)", {}, 3.0),
        ("sqrt(4)", {}, 2.0),
        ("ln(e)", {}, 1.0),
        ("2.5e-1 + 1E2", {}, 100.25),
        (".5 + 5.", {}, 5.5),
        ("2*-3", {}, -6.0),
        ("2^-2", {}, 0.25),
        ("(1+2)*(3-1)", {}, 6.0),
    ],
)
def test_evaluation_vectors(text, env, expected):
    e = parse(text, allowed_vars=("t", "x"))
    assert e(**env) == pytest.approx(expected, abs=1e-14)


def test_vectorized_evaluation_broadcasts():
    e = parse("1 + 0.5*sin(pi*x)*exp(-t)")
    xs = np.linspace(0.0, 1.0, 11)
    out = e(t=0.3, x=xs)
    ref = 1 + 0.5 * np.sin(np.pi * xs) * math.exp(-0.3)
    assert np.allclose(out, ref, atol=1e-15)


@pytest.mark.parametrize(
    "text,pos_check",
    [
        ("2 +* 3", True),
        ("(1+2", True),
        ("sin()", True),
        ("1..2", True),
        ("", False),
        ("2 @ 3", True),
    ],
)
def test_syntax_errors_carry_position(text, pos_check):
    with pytest.raises(ExpressionSyntaxError) as info:
        parse(text)
    assert isinstance(info.value.position, int)


def test_unknown_variable_for_slot_rejected():
    with pytest.raises(ExpressionSyntaxError, match="unknown variable"):
        parse("1 + W", allowed_vars=("t", "x"))
    # the same name is fine when the slot admits it
    assert parse("1/(1+W)", allowed_vars=("W",))(W=1.0) == 0.5


def test_unknown_function_and_arity():
    with pytest.raises(ExpressionSyntaxError, match="unknown function"):
        parse("tan(x)")
    with pytest.raises(ExpressionSyntaxError, match="argument"):
        parse("min(1)")
    with pytest.raises(ExpressionSyntaxError, match="argument"):
        parse("exp(1, 2)")


@pytest.mark.parametrize(
    "text,env",
    [
        ("ln(x)", {"x": -1.0}),
        ("ln(x)", {"x": 0.0}),
        ("sqrt(x - 2)", {"x": 0.5}),
        ("1/x", {"x": 0.0}),
        ("(-2)^0.5", {}),
        ("1/x", {"x": 5e-324}),
    ],
)
def test_domain_errors(text, env):
    e = parse(text)
    with pytest.raises(ExpressionDomainError):
        e(**env)


# --- print/parse round-trip property -------------------------------------

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False).map(expr.Num),
    st.sampled_from(["t", "x"]).map(expr.Var),
)


def _combine(children):
    binop = st.tuples(st.sampled_from("+-*/"), children, children).map(
        lambda p: expr.BinOp(p[0], p[1], p[2])
    )
    # keep ^ bases/exponents tame so values stay finite and real
    power = st.tuples(
        st.floats(min_value=0.1, max_value=3.0, allow_nan=False).map(expr.Num),
        st.integers(min_value=0, max_value=3).map(lambda k: expr.Num(float(k))),
    ).map(lambda p: expr.BinOp("^", p[0], p[1]))
    unary = children.map(expr.Neg)
    call1 = st.tuples(st.sampled_from(["sin", "cos", "abs"]), children).map(
        lambda p: expr.Call(p[0], (p[1],))
    )
    call2 = st.tuples(st.sampled_from(["min", "max"]), children, children).map(
        lambda p: expr.Call(p[0], (p[1], p[2]))
    )
    return st.one_of(binop, power, unary, call1, call2)


_ast = st.recursive(_leaf, _combine, max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(_ast, st.floats(0.0, 2.0), st.floats(0.0, 1.0))
def test_print_parse_round_trip(root, t, x):
    source = expr._fmt(root)
    original = expr.Expression(root, source, frozenset({"t", "x"}))
    reparsed = parse(source)
    try:
        a = original(t=t, x=x)
    except ExpressionDomainError:
        return  # division by zero under random operands; nothing to compare
    b = reparsed(t=t, x=x)
    assert abs(a - b) <= ROUNDTRIP_TOL


# --- the float function against the numpy function ------------------------

_hostile = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, -1.0, 1000.0, math.nan, math.inf, -math.inf]),
)
# a generated tree, alone or under a function that can fail or round apart
_float_tree = st.one_of(
    _ast,
    st.tuples(st.sampled_from(["exp", "ln", "sqrt", "sin", "cos"]), _ast).map(
        lambda p: expr.Call(p[0], (p[1],))),
    st.tuples(_ast, _ast).map(lambda p: expr.BinOp("^", p[0], p[1])),
)


def _exact(node):
    """True for trees of + - * /, negation, abs, min and max."""
    if isinstance(node, expr.BinOp):
        return node.op in "+-*/" and _exact(node.left) and _exact(node.right)
    if isinstance(node, expr.Call):
        return node.func in ("abs", "min", "max") and all(_exact(a) for a in node.args)
    if isinstance(node, expr.Neg):
        return _exact(node.arg)
    return True


def _outcome(fn, t, x):
    try:
        return float(fn(t, x)), None
    except ExpressionDomainError as err:
        return None, str(err)


def _call(name, *args):
    return expr.Call(name, args)


_X, _T = expr.Var("x"), expr.Var("t")
_NEG_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000000))[0]  # np.sin(inf)


@settings(max_examples=200, deadline=None)
@given(_float_tree, _hostile, _hostile)
@example(_call("sin", _X), 0.0, math.inf)
@example(_call("sin", _X), 0.0, -math.inf)
@example(_call("sin", _X), 0.0, math.nan)
@example(_call("sin", _X), 0.0, _NEG_NAN)
@example(_call("cos", _X), 0.0, math.inf)
@example(_call("cos", _X), 0.0, -math.inf)
@example(_call("cos", _X), 0.0, math.nan)
@example(_call("cos", _X), 0.0, _NEG_NAN)
@example(expr.BinOp("/", expr.Num(1.0), _call("sin", _X)), 0.0, math.inf)
@example(_call("exp", _X), 0.0, 1000.0)
@example(_call("exp", _X), 0.0, math.nan)
@example(_call("exp", _X), 0.0, math.inf)
@example(_call("ln", _X), 0.0, -1.0)
@example(_call("ln", _X), 0.0, 0.0)
@example(_call("ln", _X), 0.0, math.nan)
@example(_call("sqrt", _X), 0.0, -1.0)
@example(_call("sqrt", _X), 0.0, math.nan)
@example(expr.BinOp("/", _T, _X), 1.0, 0.0)
@example(expr.BinOp("/", _T, _X), math.nan, 1.0)
@example(expr.BinOp("^", _X, _T), 0.5, -8.0)
@example(expr.BinOp("^", _X, _T), 1000.0, 10.0)
@example(expr.BinOp("^", _X, _T), -1.0, 0.0)
@example(_call("min", _T, _X), math.nan, 1.0)
@example(_call("max", _T, _X), 1.0, math.nan)
@example(_call("min", _T, _X), 0.0, -0.0)
@example(_call("max", _T, _X), -0.0, 0.0)
@example(expr.BinOp("^", _X, expr.Num(3.0)), 0.0, -0.7)
@example(expr.BinOp("^", _X, expr.Num(-3.0)), 0.0, -0.0)
@example(expr.BinOp("^", _X, expr.Num(4.0)), 0.0, -math.inf)
@example(expr.BinOp("^", _X, _T), 3.0, -2.0)
def test_float_function_matches_numpy_function(root, t, x):
    e = expr.Expression(root, expr._fmt(root), frozenset({"t", "x"}))
    with np.errstate(all="ignore"):
        want, want_err = _outcome(lambda t, x: e(t=t, x=x), t, x)
    got, got_err = _outcome(e.float_function(), t, x)
    assert got_err == want_err  # both raise, with one message, or neither
    if want_err is not None or (math.isnan(got) and math.isnan(want)):
        return
    if _exact(root):
        assert struct.pack("<d", got) == struct.pack("<d", want)
    else:
        assert math.isclose(got, want, rel_tol=1e-13)


# --- shared subtrees against a walk of every node ---------------------------

_OPS = st.sampled_from("+-*/^")


def _reusing(s):
    """Trees that use the subtree s more than once: the same object, or an
    equal copy of it."""
    twin = st.sampled_from([s, copy.deepcopy(s)])
    func = st.sampled_from(["exp", "ln", "sqrt", "sin", "cos", "abs"])
    return st.one_of(
        st.tuples(_OPS, twin).map(lambda p: expr.BinOp(p[0], s, p[1])),
        st.tuples(_OPS, func, twin).map(
            lambda p: expr.BinOp(p[0], _call(p[1], s), p[2])),
        st.tuples(_OPS, twin, func).map(
            lambda p: expr.BinOp(p[0], p[1], _call(p[2], s))),
        st.tuples(st.sampled_from(["min", "max"]), twin).map(
            lambda p: _call(p[0], s, expr.Neg(p[1]))),
        st.tuples(_OPS, _ast).map(lambda p: expr.BinOp(p[0], p[1], s)),
    )


@st.composite
def _shared_trees(draw):
    root = draw(_float_tree)
    for _ in range(draw(st.integers(1, 3))):
        root = draw(_reusing(root))
    return root


def _bits_or_error(fn):
    """The value's bits (NaN positions and the sign of zero included), or
    the message of the ExpressionDomainError it raised."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(fn(), dtype=float).view(np.int64).tolist(), None
    except ExpressionDomainError as err:
        return None, str(err)


@settings(max_examples=200, deadline=None)
@given(_shared_trees(), _hostile, st.lists(_hostile, min_size=1, max_size=6))
@example(_call("min", expr.Num(0.0), expr.Num(-0.0)), 0.0, [0.0])  # two constants
@example(_call("sin", _X), 0.0, [math.nan, _NEG_NAN, math.inf, -math.inf])
@example(_call("cos", _X), 0.0, [math.nan, _NEG_NAN, math.inf, -math.inf])
@example(expr.BinOp("/", expr.Num(1.0), _call("sin", _X)), 0.0, [math.inf])
def test_shared_subtrees_match_a_walk_of_every_node(root, t, xs):
    e = expr.Expression(root, expr._fmt(root), frozenset({"t", "x"}))
    x = np.array(xs)
    assert _bits_or_error(lambda: e(t=t, x=x)) == _bits_or_error(
        lambda: reference_forms.tree_value(root, expr._RUNTIME, {"t": t, "x": x}))
    f = e.float_function()
    for xi in xs:
        assert _bits_or_error(lambda: f(t, xi)) == _bits_or_error(
            lambda: reference_forms.tree_value(root, expr._FLOAT_RUNTIME,
                                               {"t": t, "x": xi}))


def test_a_repeated_subtree_is_evaluated_once(monkeypatch):
    cos = reference_forms.Counted(np.cos)
    cos_float = reference_forms.Counted(math.cos)  # the float code calls it inline
    monkeypatch.setitem(expr._RUNTIME, "_fn_cos", cos)
    monkeypatch.setitem(expr._FLOAT_RUNTIME, "_mcos", cos_float)
    e = parse("cos(x - t)*sin(x) + cos(x - t)")
    x = np.linspace(0.0, 1.0, 11)
    for calls in (1, 2):
        assert np.array_equal(e(t=0.3, x=x), np.cos(x - 0.3) * np.sin(x) + np.cos(x - 0.3))
        assert e.float_function()(0.3, 0.9) == \
            math.cos(0.9 - 0.3) * math.sin(0.9) + math.cos(0.9 - 0.3)
        assert cos.calls == cos_float.calls == calls


def test_nested_repeats_compile_in_linear_time(monkeypatch):
    # each level holds the one below twice: 2^300 leaves as a tree, 601
    # distinct subtrees, so only a compiler that meets each once finishes
    cos = reference_forms.Counted(np.cos)
    monkeypatch.setitem(expr._RUNTIME, "_fn_cos", cos)
    root = expr.Var("x")
    for _ in range(300):
        root = expr.BinOp("-", _call("cos", root), root)
    e = expr.Expression(root, "", frozenset({"x"}))
    x = np.linspace(-2.0, 2.0, 9)
    want = x
    for _ in range(300):
        want = np.cos(want) - want
    assert np.array_equal(e(x=x), want)
    assert cos.calls == 300
    temporaries = [n for n in e._compiled.__code__.co_varnames if n.startswith("_r")]
    assert len(temporaries) <= 2


# --- the numpy function's power rule ----------------------------------------

# appended to every drawn base array: signed zeros, infinities, NaN, subnormals
_SPECIAL_BASES = [0.0, -0.0, math.inf, -math.inf, math.nan,
                  5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308]


def _np_power(a, n):
    """``^`` as plain ``np.power`` with the evaluator's non-finite check."""
    with np.errstate(all="ignore"):
        out = np.power(a, n)
    if not np.all(np.isfinite(out)):
        raise ExpressionDomainError("power produced a non-finite value")
    return out


def _power_error(fn, a):
    try:
        fn(a)
    except ExpressionDomainError as err:
        return str(err)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(-3.0, 3.0), st.floats()), max_size=30),
       st.one_of(st.integers(-6, 6).map(float),
                 st.sampled_from([0.5, 2.5, -1.5, 1e300])))
def test_numpy_power_rule(drawn, n):
    root = expr.BinOp("^", _X, expr.Num(n))
    e = expr.Expression(root, expr._fmt(root), frozenset({"x"}))
    a = np.array(drawn + _SPECIAL_BASES)
    rng = np.random.default_rng(len(drawn))
    a = a[rng.permutation(a.size)]  # specials anywhere in the array
    # an error on exactly the same inputs, with one message: the whole array,
    # then each base alone as a Python float
    for base in [a] + a.tolist():
        assert _power_error(lambda a: e(x=a), base) == \
            _power_error(lambda a: _np_power(a, n), base)
    with np.errstate(all="ignore"):
        finite = a[np.isfinite(np.power(a, n))]
    got = e(x=finite).view(np.int64)
    want = np.power(finite, n).view(np.int64)
    nonneg = finite >= 0  # -0.0 too
    assert np.array_equal(got[nonneg], want[nonneg])
    ulps = np.abs(got[~nonneg] - want[~nonneg])
    if n in (-1.0, 0.0, 1.0, 2.0) or n % 1:
        assert not ulps.any()  # np.power's own bits
    else:
        assert np.all(ulps <= 1)


def test_array_exponents_are_np_power():
    e = parse("x^t")
    x = np.linspace(-1.0, 1.0, 2001)  # 45 of these move under |x|^3
    t = np.full_like(x, 3.0)
    assert np.array_equal(e(t=t, x=x).view(np.int64), np.power(x, t).view(np.int64))


def test_float_function_takes_t_and_x_only():
    assert parse("t - 2*x").float_function()(1.0, 0.25) == 0.5
    assert parse("x").float_function()(0.0, 0.75) == 0.75
    e = parse("1/(1+W)", allowed_vars=("W",))
    with pytest.raises(ExpressionDomainError, match="no binding for variable 'W'"):
        e.float_function()(0.0, 0.0)


def test_float_function_compiles_once_on_first_use():
    e = parse("1 + 0.2*sin(pi*x)*cos(t)")
    assert e._compiled_float is None
    f = e.float_function()
    assert e.float_function() is f
    assert e._compiled is None  # the numpy function compiles apart


def test_round_trip_spec_examples():
    for text in ["2^3^2", "-2^2", "1-2-3", "exp(-t)*sin(pi*x)", "min(1, 2*x)"]:
        e = parse(text)
        again = parse(to_string(e))
        for t, x in [(0.0, 0.1), (0.5, 0.9), (2.0, 0.3)]:
            assert abs(e(t=t, x=x) - again(t=t, x=x)) <= ROUNDTRIP_TOL


def test_expression_is_immutable_and_reentrant():
    e = parse("t + x")
    with pytest.raises(Exception):
        e.root.value = 1  # frozen dataclass
    assert e(t=1.0, x=2.0) == 3.0
    assert e(t=np.array([1.0, 2.0]), x=0.0).tolist() == [1.0, 2.0]


def test_compiled_code_reuses_consumed_temporaries():
    # a left-deep sum needs one running total, not one array per node
    e = parse(" + ".join(["x"] * 300))
    x = np.array([0.0, 0.25, -1.5, 2.0])  # every partial sum is exact
    assert np.array_equal(e(x=x), 300 * x)
    temporaries = [n for n in e._compiled.__code__.co_varnames if n.startswith("_r")]
    assert len(temporaries) <= 2
