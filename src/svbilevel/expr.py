"""Scalar expression trees: parsing and code generation.

Grammar (whitespace insignificant)::

    expr    ::= term (('+'|'-') term)*
    term    ::= factor (('*'|'/') factor)*
    factor  ::= '-' factor | power
    power   ::= atom ('^' '-'? integer)?     |exponent| <= MAX_EXPONENT
    atom    ::= number | ident | '(' expr ')'
              | 'max' '(' expr (',' expr)+ ')'

The parser accepts max anywhere and rejects min where it is written, but a
``CompiledExpr`` accepts a max only at the root of an expression, over
branches without one.  A max of quasiconvex functions is quasiconvex, so a
root max stays within the class the solver assumes, and a constraint row
max(a, b) <= 0 is exactly the rows a <= 0 and b <= 0.  A min of
pseudoconvex functions is outside that class.  Every branch is smooth, so
generated straight-line code, one arithmetic for value and gradient, is the
one way an expression is evaluated; ``affine_parts`` reads the linear form
of an affine one.  The branches of a root max are read one by one through
``branch_pairs``; the flow picks among them (``value_generators``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import neurodynamic as nd

MAX_UNROLLED_POW = 8

# The largest exponent magnitude the parser takes: a power is multiplied
# out at each evaluation, so x^k costs k products.
MAX_EXPONENT = 1000


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(ExprError):
    """Division by zero or non-finite value during evaluation."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int
    name: str


@dataclass(frozen=True)
class Neg:
    child: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Max:
    children: tuple
    # where max stands in the source
    pos: int = field(default=0, compare=False)


Expr = Const | Var | Neg | BinOp | Pow | Max


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        # positions are those of the token itself, after any whitespace
        if m is None:
            rest = src[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}",
                             len(src) - len(rest))
        text = m.group(0).lstrip()
        tokens.append((m.lastgroup, text, m.end() - len(text)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, variables: Sequence[str]):
        self.tokens = _tokenize(src)
        self.i = 0
        self.varmap = {name: k for k, name in enumerate(variables)}

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                e = BinOp(val, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                e = BinOp(val, e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            child = self.factor()
            if isinstance(child, Const):
                return Const(-child.value)
            return Neg(child)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, start = self.next()
            pos, sign = start, ""
            if kind == "op" and val == "-":
                kind, val, pos = self.next()
                sign = "-"
            if kind != "num":
                raise ParseError("expected integer exponent after '^'", pos)
            if any(c in val for c in ".eE"):
                raise ParseError(f"non-integer exponent {val!r}", pos)
            # the length first: int() refuses a string of over 4300 digits
            digits = val.lstrip("0") or "0"
            if (len(digits) > len(str(MAX_EXPONENT))
                    or int(digits) > MAX_EXPONENT):
                raise ParseError(f"exponent magnitude above {MAX_EXPONENT}",
                                 start)
            return Pow(base, int(sign + digits))
        return base

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "num":
            value = float(val)
            if math.isinf(value):
                raise ParseError(f"number {val!r} overflows a float", pos)
            return Const(value)
        if kind == "ident":
            if val == "min":
                raise ParseError("min is not supported: a min of pseudoconvex "
                                 "functions is not pseudoconvex", pos)
            if val == "max":
                self.expect_op("(")
                args = [self.expr()]
                while True:
                    k, v, p = self.peek()
                    if k == "op" and v == ",":
                        self.next()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if len(args) < 2:
                    raise ParseError("max needs at least 2 arguments", pos)
                return Max(tuple(args), pos)
            if val not in self.varmap:
                raise ParseError(f"undeclared variable {val!r}", pos)
            return Var(self.varmap[val], val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def parse_expression(src: str, variables: Sequence[str]) -> Expr:
    """Parse ``src`` over the ordered variable list. Raises ParseError,
    also for nesting deeper than Python's recursion limit."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(src, variables)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError(f"expression nested too deeply to parse: "
                         f"{_shortened(src.strip())}",
                         parser.peek()[2]) from None


def _shortened(text: str) -> str:
    """``text`` cut to 60 characters, to name an expression in an error."""
    return text if len(text) <= 60 else text[:60].rstrip() + " ..."


# ---------------------------------------------------------------------------
# Printing (round-trips through parse_expression)
# ---------------------------------------------------------------------------

def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return 1 if e.op in "+-" else 2
    if isinstance(e, Neg):
        return 3
    return 4


def to_source(e: Expr, depth: float = math.inf) -> str:
    """Source text that parses back to ``e``.  With a ``depth``, each
    compound subexpression below that many levels prints as ``...``, so
    that an expression too deep for the recursive walks is named by its
    top levels in their errors."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if depth < 1:
        return "..."
    if isinstance(e, Neg):
        inner = to_source(e.child, depth - 1)
        if _prec(e.child) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        lp, rp = _prec(e.left), _prec(e.right)
        mine = _prec(e)
        left = to_source(e.left, depth - 1)
        right = to_source(e.right, depth - 1)
        if lp < mine:
            left = f"({left})"
        # right side needs parens at equal precedence for - and /
        if rp < mine or (rp == mine and e.op in "-/"):
            right = f"({right})"
        # also guard a+-b style output
        if e.op in "+-" and right.startswith("-"):
            right = f"({right})"
        return f"{left} {e.op} {right}"
    if isinstance(e, Pow):
        base = to_source(e.base, depth - 1)
        # a negative constant too: -2.0^2 reads back as -(2.0^2); and a
        # power, since x^2^3 does not parse
        if (_prec(e.base) < 4 or isinstance(e.base, Pow)
                or base.startswith("-")):
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, Max):
        return "max(" + ", ".join(to_source(c, depth - 1)
                                  for c in e.children) + ")"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Compilation (generated straight-line code; hot path for the flow integrator)
# ---------------------------------------------------------------------------

def _raise_zero(node: Expr):
    raise EvaluationError(f"division by zero at node {to_source(node)}")


def _raise_nonfinite(node: Expr):
    raise EvaluationError(f"non-finite value at node {to_source(node)}")


def _ipow(base: float, k: int, node: Expr) -> float:
    """base^k multiplied out from 1.0 as generated code unrolls it; +-inf
    where the positive power of a negative one underflows to +-0."""
    if k < 0:
        if base == 0.0:
            _raise_zero(node)
        p = _ipow(base, -k, node)
        return 1.0 / p if p != 0.0 else math.copysign(math.inf, p)
    out = 1.0
    for _ in range(k):
        out *= base
    return out


class _Emitter:
    """Python source for one max-free expression, in two blocks.  The value
    block has a statement per node, in the order a recursive evaluation
    visits them, with divisions checked for a zero denominator and powers
    multiplied out as ``_ipow`` does.  The gradient block differentiates in
    forward mode, carrying the gradient per component and leaving out
    components that are structurally zero, and checks each quotient and
    power for a finite value, in the same visiting order.  That repeats the
    arithmetic of a forward-mode walk on dense gradients up to the sign of
    zero, except where an intermediate overflows: a left-out component
    stays 0 where the walk gets 0 * inf = nan.  The gradient block reads
    only names the value block set, so a function may return the value
    before it: value and gradient come from one arithmetic, bit for bit,
    and every zero denominator is reported before any non-finite value.
    """

    ONE = "1.0"

    def __init__(self):
        self.lines = []
        self.grad_lines = []
        self.consts = []
        self.nodes = []
        self.var_names = {}
        self.count = 0

    def temp(self, rhs: str, lines=None) -> str:
        """A new temporary set to ``rhs``, by default in the value block."""
        name = f"t{self.count}"
        self.count += 1
        (self.lines if lines is None else lines).append(f"{name} = {rhs}")
        return name

    def grad_temp(self, rhs: str) -> str:
        return self.temp(rhs, self.grad_lines)

    def name(self, rhs: str) -> str:
        """A name or literal as it is, anything else through a gradient
        temporary."""
        return (rhs if rhs == self.ONE or rhs.isidentifier()
                else self.grad_temp(rhs))

    def product(self, a: str, b: str) -> str:
        # 1.0 * s == s exactly
        return b if a == self.ONE else a if b == self.ONE else f"{a} * {b}"

    def node_ref(self, node: Expr) -> str:
        self.nodes.append(node)
        return f"N[{len(self.nodes) - 1}]"

    def power(self, base: str, k: int, node: Expr) -> str:
        if 1 <= k <= MAX_UNROLLED_POW:
            # _ipow multiplies out from 1.0, and 1.0 * b == b
            return " * ".join([base] * k)
        if k == 0:
            return "1.0"
        return f"_ipow({base}, {k}, {self.node_ref(node)})"

    def emit(self, e: Expr):
        """Returns (value name, {component: name})."""
        if isinstance(e, Const):
            self.consts.append(e.value)
            return f"k{len(self.consts) - 1}", {}
        if isinstance(e, Var):
            if e.index not in self.var_names:
                self.var_names[e.index] = f"x{e.index}"
            return self.var_names[e.index], {e.index: self.ONE}
        if isinstance(e, Neg):
            v, g = self.emit(e.child)
            return self.temp(f"-{v}"), {j: self.grad_temp(f"-{c}")
                                        for j, c in g.items()}
        if isinstance(e, BinOp):
            return self.emit_binop(e)
        if isinstance(e, Pow):
            return self.emit_pow(e)
        raise TypeError(f"not a max-free expression node: {e!r}")

    def emit_binop(self, e: BinOp):
        a, ga = self.emit(e.left)
        b, gb = self.emit(e.right)
        if e.op == "/":
            self.lines.append(f"if {b} == 0.0: _raise_zero({self.node_ref(e)})")
        v = self.temp(f"{a} {e.op} {b}")
        g = {j: self.name(self.derivative(e.op, v, a, b, ga.get(j), gb.get(j)))
             for j in sorted(ga.keys() | gb.keys())}
        if e.op == "/":
            self.grad_lines.append(
                f"if not _isfinite({v}): _raise_nonfinite({self.node_ref(e)})")
        return v, g

    def derivative(self, op, v, a, b, da, db) -> str:
        """One component of the forward-mode rule; a missing ``da`` or
        ``db`` is an exact zero."""
        if op == "+":
            return f"{da} + {db}" if da and db else (da or db)
        if op == "-":
            return f"{da} - {db}" if da and db else (da or f"-{db}")
        if op == "*":
            terms = [self.product(da, b)] if da else []
            terms += [self.product(db, a)] if db else []
            return " + ".join(terms)
        if da and db:
            return f"({da} - {self.product(db, v)}) / {b}"
        return f"{da} / {b}" if da else f"-({self.product(db, v)}) / {b}"

    def emit_pow(self, e: Pow):
        b, gb = self.emit(e.base)
        k = e.exponent
        v = self.temp(self.power(b, k, e))
        if k == 0:
            return v, {}
        dv = (self.grad_temp(f"{k} * ({self.power(b, k - 1, e)})")
              if k != 1 else self.ONE)
        g = {j: self.name(self.product(dv, d)) for j, d in gb.items()}
        ref = self.node_ref(e)
        self.grad_lines.append(
            f"if not _isfinite({v}): _raise_nonfinite({ref})")
        if k != 1:
            self.grad_lines.append(
                f"if not _isfinite({dv}): _raise_nonfinite({ref})")
        return v, g


def _generate(e: Expr, n_vars: int) -> Callable:
    """Compile ``e`` to a function ``generated(x, gradient=False)`` of a
    sequence of floats: its value, or with ``gradient`` true (value,
    gradient array).  The value path returns before the gradient
    statements and the finiteness checks (see ``_Emitter``)."""
    em = _Emitter()
    try:
        v, g = em.emit(e)
    except RecursionError:
        raise EvaluationError(f"expression nested too deeply to compile: "
                              f"{_shortened(to_source(e, 20))}") from None
    head = [f"{name} = x[{i}]" for i, name in sorted(em.var_names.items())]
    comps = ", ".join(g.get(j, "0.0") for j in range(n_vars))
    body = "\n    ".join(
        head + em.lines + ["if not gradient:", f"    return {v}"]
        + em.grad_lines + [f"return {v}, _array([{comps}])"])
    src = f"def generated(x, gradient=False):\n    {body}\n"
    namespace = {f"k{i}": c for i, c in enumerate(em.consts)}
    namespace.update(N=tuple(em.nodes), _ipow=_ipow, _isfinite=math.isfinite,
                     _array=np.array, _raise_zero=_raise_zero,
                     _raise_nonfinite=_raise_nonfinite)
    exec(compile(src, "<expression>", "exec"), namespace)
    return namespace["generated"]


_F64 = np.dtype(np.float64)


def as_floats(x) -> list:
    """x as a list of Python floats, the argument of a generated function;
    a float64 array converts directly, anything else through an array."""
    if type(x) is np.ndarray and x.dtype == _F64:
        return x.tolist()
    return np.asarray(x, dtype=float).tolist()


class CompiledExpr:
    """An expression bound to a variable count, with one generated function
    for each branch (``_generate``), its value or (value, gradient), made
    on first use so that loading a problem stays cheap.  A max may stand
    only at the root, over branches without one (see ``affine_parts``)."""

    def __init__(self, ast: Expr, n_vars: int):
        self.ast = ast
        self.n_vars = n_vars
        self.affine = affine_parts(ast, n_vars)  # (coeffs, const) or None

    @property
    def branches(self) -> tuple:
        """The children of a root max, else the whole expression."""
        return self.ast.children if isinstance(self.ast, Max) else (self.ast,)

    @cached_property
    def branch_values(self) -> list:
        """The generated function of each branch: ``fn(xs)`` is its value,
        ``fn(xs, True)`` its (value, gradient)."""
        return [_generate(b, self.n_vars) for b in self.branches]

    def value(self, x) -> float:
        xs = as_floats(x)
        fns = self.branch_values
        return fns[0](xs) if len(fns) == 1 else max(fn(xs) for fn in fns)

    def value_grad(self, x):
        """(value, gradient) of a max-free expression; a root max has no
        one gradient, so its branches are read through ``branch_pairs``."""
        if isinstance(self.ast, Max):
            raise TypeError("value_grad of a root max: read its branches "
                            "through branch_pairs")
        return self.branch_values[0](as_floats(x), True)

    def branch_pairs(self, x) -> list:
        """(value, gradient) of each branch (see ``branches``) by its
        generated function; one pair, ``value_grad``'s, for any expression
        but a root max."""
        if not isinstance(self.ast, Max):
            return [self.value_grad(x)]
        xs = as_floats(x)
        return [fn(xs, True) for fn in self.branch_values]

    def value_generators(self, x, active_tol: float):
        """(value, [generator gradients]) at x: the flows' own pick,
        ``neurodynamic._objective_generators`` at the band ``active_tol``."""
        return nd._objective_generators(self, x, active_tol)[:2]


def affine_parts(e: Expr, n_vars: int):
    """(coefficients, constant) if the expression is affine, else None.
    Raises ParseError, at its position in the source, for a max anywhere
    but at the root, and at position 0 for nesting deeper than Python's
    recursion limit.  Raises EvaluationError, naming the node, for a
    subexpression without variables whose value is not finite or has a
    zero denominator, and for an affine expression with a constant or a
    coefficient that is not finite: each would evaluate to the same
    inf or nan, or the same error, at every point."""
    try:
        kinds = [_affine_kind(c)
                 for c in (e.children if isinstance(e, Max) else (e,))]
        if isinstance(e, Max) or kinds[0] is None:
            return None
        value, grad = _linear_form(e, n_vars)
    except RecursionError:
        raise ParseError(f"expression nested too deeply to read: "
                         f"{_shortened(to_source(e, 20))}", 0) from None
    if not (math.isfinite(value) and all(map(math.isfinite, grad))):
        raise EvaluationError(f"non-finite constant or coefficient at node "
                              f"{_shortened(to_source(e))}")
    return np.array(grad), value


def _affine_kind(e: Expr):
    """None if e is not affine, True if it is and a variable occurs in it,
    else its value, a finite float, computed as ``_linear_form`` computes
    it.  A node is affine when its children are, a product has a factor
    without variables, a quotient a divisor without them, and a power the
    exponent 0 or 1 or a base without them.  A node without variables
    whose value is not finite, or whose denominator is zero, raises
    EvaluationError naming it."""
    kind = type(e)
    if kind is Var:
        return True
    if kind is Max:
        raise ParseError(
            "max below the root of an expression; write it as one max of "
            "max-free branches, e.g. max(a, b) + c as max(a + c, b + c)",
            e.pos)
    if kind is Const:
        v = e.value
    else:
        kids = ((e.child,) if kind is Neg else
                (e.base,) if kind is Pow else (e.left, e.right))
        found = list(map(_affine_kind, kids))
        if None in found:
            return None
        # whether a variable occurs in the first and in the last child
        first, last = found[0] is True, found[-1] is True
        if (kind is BinOp and last and (e.op == "/" or e.op == "*" and first)
                or kind is Pow and first and e.exponent not in (0, 1)):
            return None
        if first or last:
            return True
        a, b = found[0], found[-1]
        if kind is Neg:
            v = -a
        elif kind is Pow:
            v = _ipow(a, e.exponent, e)
        elif e.op == "+":
            v = a + b
        elif e.op == "-":
            v = a - b
        elif e.op == "*":
            v = a * b
        elif b == 0.0:
            _raise_zero(e)
        else:
            v = a / b
    if not math.isfinite(v):
        _raise_nonfinite(e)
    return v


def _linear_form(e: Expr, n: int):
    """(value, gradient) at x = 0 in R^n of an affine expression: forward
    mode on dense gradients, lists of Python floats, which overflow to inf
    without numpy's RuntimeWarning."""
    kind = type(e)
    if kind is Const:
        return e.value, [0.0] * n
    if kind is Var:
        g = [0.0] * n
        g[e.index] = 1.0
        return 0.0, g
    av, ag = _linear_form(e.base if kind is Pow else
                          e.child if kind is Neg else e.left, n)
    if kind is Neg:
        return -av, [-a for a in ag]
    if kind is Pow:
        k = e.exponent
        v = _ipow(av, k, e)
        if k == 0:
            return 1.0, [0.0] * n
        if not math.isfinite(v):
            _raise_nonfinite(e)
        dv = k * _ipow(av, k - 1, e)
        # x^-2 is finite at x = 4e-105, its derivative is not
        if not math.isfinite(dv):
            _raise_nonfinite(e)
        return v, [dv * a for a in ag]
    bv, bg = _linear_form(e.right, n)
    if e.op == "+":
        return av + bv, [a + b for a, b in zip(ag, bg)]
    if e.op == "-":
        return av - bv, [a - b for a, b in zip(ag, bg)]
    if e.op == "*":
        return av * bv, [a * bv + b * av for a, b in zip(ag, bg)]
    if bv == 0.0:
        _raise_zero(e)
    v = av / bv
    if not math.isfinite(v):
        _raise_nonfinite(e)
    return v, [(a - v * b) / bv for a, b in zip(ag, bg)]
