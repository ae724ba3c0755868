"""Arithmetic expressions for scenario-defined coefficient fields.

A small recursive-descent parser over the grammar

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+') unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

with functions exp, ln, sin, cos, sqrt, abs, min, max and constants pi, e.
Exponentiation binds tighter than unary minus, so ``-2^2 == -4`` and
``2^3^2 == 512``.  Parsed trees are immutable.

One compiler turns a tree into straight-line code, with either of two
runtime tables.  It emits each distinct subtree once, so a subtree that the
text repeats, such as the ``cos(k*x - om*t + ps)`` of a manufactured source,
is computed once per call; values and errors are those of computing every
occurrence.  Calling an expression runs its numpy function, compiled on
the first call: it is reentrant and accepts scalar or ndarray bindings
(broadcasting applies).  ``Expression.float_function`` returns its float
function, compiled on the first scalar read: the Python floats t and x as
positional arguments, ``math`` functions, no binding mapping.  Sums,
differences, products, quotients, negation, abs, min and max give the same
bits on both; exp, ln, sin, cos and ^ may differ by an ulp.

In the numpy function, ``a^n`` with a scalar integral exponent n other than
-1, 0, 1 and 2 is ``|a|^n``, negated for odd n where a is negative: it has
``np.power``'s bits on nonnegative bases and is within an ulp of them on
negative ones, at a tenth of the cost.  Any other exponent is ``np.power``.

Evaluation raises ExpressionDomainError for ln or sqrt outside their
domain, division by zero, a quotient, power or exp that is not finite, and
an unbound variable; sums, differences and products follow IEEE arithmetic.
The float function raises on exactly the same inputs, with the same
messages: ``math``'s ValueError and OverflowError from ^ and exp become
these errors, sin and cos of an infinity give NaN, and min and max
propagate NaN, as their numpy counterparts do.  It computes sin(a) and
cos(a) inline, as ``math.sin(a) if a - a == 0.0 else a - a``, with no
wrapper call: a - a is 0.0 exactly when a is finite, so an infinity gives
the NaN of inf - inf, which is the NaN ``np.sin`` gives (0xfff8... on x86),
and a NaN comes back as it went in, sign and payload included.
``_sin_float`` and ``_cos_float`` compute the same bits through a call,
for a walk of the tree.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Union

import numpy as np

__all__ = [
    "Expression",
    "ExpressionError",
    "ExpressionSyntaxError",
    "ExpressionDomainError",
    "parse",
    "to_string",
]


class ExpressionError(ValueError):
    """Base class for expression failures."""


class ExpressionSyntaxError(ExpressionError):
    """Raised at parse time; carries the character offset of the failure."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExpressionDomainError(ExpressionError):
    """Raised at evaluation time: ln/sqrt of a negative value, division by zero, ..."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Node", ...]


Node = Union[Num, Var, Neg, BinOp, Call]

_FUNCTIONS = {
    "exp": 1,
    "ln": 1,
    "sin": 1,
    "cos": 1,
    "sqrt": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_OPERATORS = set("+-*/^(),")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, position) triples; kind in {num, name, op}."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tok = text[i:j]
            try:
                float(tok)
            except ValueError:
                raise ExpressionSyntaxError(f"malformed number {tok!r}", i)
            tokens.append(("num", tok, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], text: str,
                 allowed_vars: frozenset[str]):
        self.tokens = tokens
        self.text = text
        self.allowed = allowed_vars
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ExpressionSyntaxError("unexpected end of expression", len(self.text))
        self.pos += 1
        return tok

    def _expect_op(self, op: str):
        tok = self._next()
        if tok[0] != "op" or tok[1] != op:
            raise ExpressionSyntaxError(f"expected {op!r}, found {tok[1]!r}", tok[2])

    def parse(self) -> Node:
        node = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ExpressionSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Node:
        node = self.term()
        while (tok := self._peek()) and tok[0] == "op" and tok[1] in "+-":
            self.pos += 1
            node = BinOp(tok[1], node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while (tok := self._peek()) and tok[0] == "op" and tok[1] in "*/":
            self.pos += 1
            node = BinOp(tok[1], node, self.unary())
        return node

    def unary(self) -> Node:
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.pos += 1
            inner = self.unary()
            return inner if tok[1] == "+" else Neg(inner)
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.pos += 1
            # right-associative; the exponent may carry its own sign
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Node:
        kind, value, position = self._next()
        if kind == "num":
            return Num(float(value))
        if kind == "name":
            nxt = self._peek()
            if nxt and nxt[0] == "op" and nxt[1] == "(":
                if value not in _FUNCTIONS:
                    raise ExpressionSyntaxError(f"unknown function {value!r}", position)
                self.pos += 1
                args = [self.expr()]
                while (tok := self._peek()) and tok[0] == "op" and tok[1] == ",":
                    self.pos += 1
                    args.append(self.expr())
                self._expect_op(")")
                arity = _FUNCTIONS[value]
                if len(args) != arity:
                    raise ExpressionSyntaxError(
                        f"{value} takes {arity} argument(s), got {len(args)}", position)
                return Call(value, tuple(args))
            if value in _CONSTANTS:
                return Num(_CONSTANTS[value])
            if value not in self.allowed:
                raise ExpressionSyntaxError(
                    f"unknown variable {value!r} (allowed: {sorted(self.allowed)})",
                    position)
            return Var(value)
        if kind == "op" and value == "(":
            node = self.expr()
            self._expect_op(")")
            return node
        raise ExpressionSyntaxError(f"unexpected token {value!r}", position)


# ---------------------------------------------------------------------------
# Evaluation: each tree compiles once into straight-line numpy code
# ---------------------------------------------------------------------------

def _binding(env: Mapping[str, object], name: str):
    try:
        return env[name]
    except KeyError:
        raise ExpressionDomainError(f"no binding for variable {name!r}") from None


def _div(a, b):
    if np.any(b == 0):
        raise ExpressionDomainError("division by zero")
    with np.errstate(all="ignore"):
        out = a / b
    if not np.all(np.isfinite(out)):
        raise ExpressionDomainError("division produced a non-finite value")
    return out


def _pow(a, b):
    # np.power takes a slow path on negative bases unless n is one of its own
    # fast exponents; see the module docstring for the ulp contract
    with np.errstate(all="ignore"):
        if np.ndim(b) == 0 and b % 1 == 0 and b not in (-1, 0, 1, 2):
            out = np.power(np.abs(a), b)
            if b % 2:
                out = np.copysign(out, a)
        else:
            out = np.power(a, b)
    # reject results that leave the reals (negative base, fractional exponent)
    if not np.all(np.isfinite(out)):
        raise ExpressionDomainError("power produced a non-finite value")
    return out


def _exp(x):
    out = np.exp(x)
    if not np.all(np.isfinite(out)):
        raise ExpressionDomainError("exp overflow")
    return out


def _ln(x):
    if np.any(np.asarray(x) <= 0):
        raise ExpressionDomainError("ln of a non-positive value")
    return np.log(x)


def _sqrt(x):
    if np.any(np.asarray(x) < 0):
        raise ExpressionDomainError("sqrt of a negative value")
    return np.sqrt(x)


# the same rules on Python floats, for the float function

def _div_float(a, b):
    if b == 0:
        raise ExpressionDomainError("division by zero")
    out = a / b
    if not math.isfinite(out):
        raise ExpressionDomainError("division produced a non-finite value")
    return out


def _pow_float(a, b):
    try:
        out = math.pow(a, b)
    except (ValueError, OverflowError):
        out = math.nan
    if not math.isfinite(out):
        raise ExpressionDomainError("power produced a non-finite value")
    return out


def _exp_float(x):
    try:
        out = math.exp(x)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ExpressionDomainError("exp overflow")
    return out


def _ln_float(x):
    if x <= 0:
        raise ExpressionDomainError("ln of a non-positive value")
    return math.log(x)


def _sqrt_float(x):
    if x < 0:
        raise ExpressionDomainError("sqrt of a negative value")
    return math.sqrt(x)


def _sin_float(x):
    # math.sin(inf) raises; x - x is np.sin's NaN for an infinity, x for a NaN
    return math.sin(x) if math.isfinite(x) else x - x


def _cos_float(x):
    return math.cos(x) if math.isfinite(x) else x - x


def _min_float(a, b):
    # np.minimum: NaN from either side, b on a tie (so min(0, -0) is -0)
    return a if a < b or a != a else b


def _max_float(a, b):
    return a if a > b or a != a else b


# generated code refers to helpers by these names; user text never reaches it
_RUNTIME = {
    "_binding": _binding, "_div": _div, "_pow": _pow,
    "_fn_exp": _exp, "_fn_ln": _ln, "_fn_sin": np.sin, "_fn_cos": np.cos,
    "_fn_sqrt": _sqrt, "_fn_abs": np.abs, "_fn_min": np.minimum,
    "_fn_max": np.maximum,
}
_FLOAT_RUNTIME = {
    "_binding": _binding, "_div": _div_float, "_pow": _pow_float,
    "_fn_exp": _exp_float, "_fn_ln": _ln_float, "_fn_sin": _sin_float,
    "_fn_cos": _cos_float, "_fn_sqrt": _sqrt_float, "_fn_abs": abs,
    "_fn_min": _min_float, "_fn_max": _max_float,
    "_msin": math.sin, "_mcos": math.cos,
}
# sin and cos inline in the float code (see the module docstring); an
# operand is always a plain name, so repeating it costs nothing
_FLOAT_INLINE = {"sin": "(_msin({0}) if {0} - {0} == 0.0 else {0} - {0})",
                 "cos": "(_mcos({0}) if {0} - {0} == 0.0 else {0} - {0})"}
_FLOAT_PARAMS = ("t", "x")
_BINOPS = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}",
           "/": "_div({}, {})", "^": "_pow({}, {})"}


def _compile(root: Node, runtime: Mapping[str, object] = _RUNTIME):
    """Turn a tree into one Python function with the given runtime table.

    With ``_RUNTIME`` the function takes the binding mapping; with
    ``_FLOAT_RUNTIME`` it takes t and x as positional arguments, and any
    other variable is unbound.  Subtrees are numbered bottom up by value:
    constants by their bits, variables by name, operators by the numbers of
    their operands; an object met twice is walked once.  Each distinct
    subtree becomes one assignment, where a post-order walk first meets it,
    so operands are evaluated left to right with the same calls on the same
    operand types, and a repeat reads the value recomputing it would give:
    results are bit-identical to walking the tree, the first node to raise
    is the same, and straight-line code has no nesting limit.  Constants
    and variable names live in the function's globals rather than in its
    source, and each variable is looked up once, at its first use.  A
    temporary's name is reused once its last consumer, counted by uses, is
    emitted: a call holds only the intermediates still live, not one array
    per node.
    """
    floats = runtime is _FLOAT_RUNTIME
    numbers: dict[tuple, int] = {}  # key of a distinct subtree -> its number
    walked: dict[int, int] = {}  # id of a node already numbered -> its number
    distinct: list[tuple[Node, str, tuple[int, ...]]] = []  # by number
    uses: list[int] = []  # consumers of each number among the distinct subtrees

    def number(node: Node) -> int:
        if id(node) in walked:
            return walked[id(node)]
        template, operands = "", ()
        if isinstance(node, Num):
            key: tuple = ("k", struct.pack("<d", node.value))  # 0.0 is not -0.0
        elif isinstance(node, Var):
            key = ("v", node.name)
        else:
            if isinstance(node, Neg):
                template, children = "-{}", (node.arg,)
            elif isinstance(node, BinOp) and node.op in _BINOPS:
                template, children = _BINOPS[node.op], (node.left, node.right)
            elif isinstance(node, Call) and f"_fn_{node.func}" in runtime:
                template = f"_fn_{node.func}({', '.join(['{}'] * len(node.args))})"
                if floats:
                    template = _FLOAT_INLINE.get(node.func, template)
                children = node.args
            else:
                raise TypeError(f"unknown node {node!r}")
            operands = tuple(map(number, children))
            key = (template, *operands)
        if key not in numbers:
            numbers[key] = len(distinct)
            distinct.append((node, template, operands))
            uses.append(0)
            for o in operands:
                uses[o] += 1
        walked[id(node)] = numbers[key]
        return numbers[key]

    result = number(root)
    namespace = dict(runtime)
    lines: list[str] = []
    names: list[str] = []  # the Python name of each number's value
    slots = 0
    temps: set[str] = set()
    free: list[str] = []
    for node, template, operands in distinct:
        if isinstance(node, Num):
            name = f"_k{len(namespace)}"
            namespace[name] = node.value
        elif isinstance(node, Var) and floats and node.name in _FLOAT_PARAMS:
            name = node.name
        elif isinstance(node, Var):
            label = f"_n{len(namespace)}"
            namespace[label] = node.name
            name = f"_v{slots}"
            slots += 1
            lines.append(f"{name} = _binding({'{}' if floats else 'env'}, {label})")
        else:
            for o in operands:
                uses[o] -= 1
                if uses[o] == 0 and names[o] in temps:
                    free.append(names[o])
            name = free.pop() if free else f"_r{len(temps)}"
            temps.add(name)
            lines.append(f"{name} = {template.format(*(names[o] for o in operands))}")
        names.append(name)

    body = "".join(f"    {line}\n" for line in lines)
    params = ", ".join(_FLOAT_PARAMS) if floats else "env"
    exec(f"def _compiled({params}):\n{body}    return {names[result]}\n", namespace)
    return namespace["_compiled"]


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node: Node) -> int:
    if isinstance(node, (Num, Var, Call)):
        return _PREC["atom"]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC[node.op]


def _fmt(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _fmt(node.arg)
        if _prec(node.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(_fmt(a) for a in node.args)})"
    left, right = _fmt(node.left), _fmt(node.right)
    p = _PREC[node.op]
    if node.op == "^":
        # left operand of ^ must be atomic (so -2^2 stays -(2^2) on re-parse)
        if _prec(node.left) < _PREC["atom"]:
            left = f"({left})"
        if _prec(node.right) < _PREC["neg"]:
            right = f"({right})"
    else:
        if _prec(node.left) < p:
            left = f"({left})"
        # '-' and '/' are left-associative: parenthesize right child at equal precedence
        if _prec(node.right) < p or (_prec(node.right) == p and node.op in "-/"):
            right = f"({right})"
    return f"{left} {node.op} {right}"


@dataclass(frozen=True)
class Expression:
    """An immutable parsed expression; call it with keyword bindings.

    The tree compiles on the first evaluation and the compiled function is
    kept with the expression; it holds no state between calls.  The float
    function compiles apart, on the first call of ``float_function``.
    """

    root: Node
    source: str
    variables: frozenset[str]
    _compiled: Optional[Callable] = field(default=None, init=False, repr=False,
                                          compare=False)
    _compiled_float: Optional[Callable] = field(default=None, init=False,
                                                repr=False, compare=False)

    def _evaluator(self) -> Callable:
        fn = self._compiled
        if fn is None:
            fn = _compile(self.root)
            object.__setattr__(self, "_compiled", fn)
        return fn

    def float_function(self) -> Callable:
        """The expression as a function of the Python floats (t, x)."""
        fn = self._compiled_float
        if fn is None:
            fn = _compile(self.root, _FLOAT_RUNTIME)
            object.__setattr__(self, "_compiled_float", fn)
        return fn

    def __call__(self, **bindings):
        return self._evaluator()(bindings)


def parse(text: str, allowed_vars=("t", "x")) -> Expression:
    """Parse ``text`` admitting only the given variable names."""
    allowed = frozenset(allowed_vars)
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionSyntaxError("empty expression", 0)
    root = _Parser(tokens, text, allowed).parse()
    return Expression(root, text, allowed)


def to_string(expression: Expression) -> str:
    """Render back to grammar text; re-parsing reproduces the same values."""
    return _fmt(expression.root)
