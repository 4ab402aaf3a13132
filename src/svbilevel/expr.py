"""Scalar expression trees: parsing, evaluation, forward-mode differentiation.

Grammar (whitespace insignificant)::

    expr    ::= term (('+'|'-') term)*
    term    ::= factor (('*'|'/') factor)*
    factor  ::= '-' factor | power
    power   ::= atom ('^' integer)?
    atom    ::= number | ident | '(' expr ')'
              | 'max' '(' expr (',' expr)+ ')'
              | 'min' '(' expr (',' expr)+ ')'

min(...) is desugared to -max(-...) at parse time, so Max is the only
nonsmooth node.  Gradients of max nodes use the Clarke rule: the convex hull
of the active branch gradients, with the uniform average as the deterministic
selection.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .neurodynamic import band_members

DEFAULT_ACTIVE_TOL = 1e-9
MAX_UNROLLED_POW = 8


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
        if m is None:
            if src[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {src[pos:].lstrip()[0]!r}", pos)
        if m.group("num") is not None:
            tokens.append(("num", m.group(0).strip(), m.start()))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start()))
        else:
            tokens.append(("op", m.group("op"), m.start()))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, variables: Sequence[str]):
        self.src = src
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
            kind, val, pos = self.next()
            if kind != "num":
                raise ParseError("expected integer exponent after '^'", pos)
            if any(c in val for c in ".eE"):
                raise ParseError(f"non-integer exponent {val!r}", pos)
            return Pow(base, int(val))
        return base

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "num":
            return Const(float(val))
        if kind == "ident":
            if val in ("max", "min"):
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
                    raise ParseError(f"{val} needs at least 2 arguments", pos)
                if val == "max":
                    return Max(tuple(args))
                # min(a, b, ...) == -max(-a, -b, ...)
                return Neg(Max(tuple(_negate(a) for a in args)))
            if val not in self.varmap:
                raise ParseError(f"undeclared variable {val!r}", pos)
            return Var(self.varmap[val], val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def _negate(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.child
    return Neg(e)


def parse_expression(src: str, variables: Sequence[str]) -> Expr:
    """Parse ``src`` over the ordered variable list. Raises ParseError."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    return _Parser(src, variables).parse()


# ---------------------------------------------------------------------------
# Printing (round-trips through parse_expression)
# ---------------------------------------------------------------------------

def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return 1 if e.op in "+-" else 2
    if isinstance(e, Neg):
        return 3
    return 4


def to_source(e: Expr) -> str:
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = to_source(e.child)
        if _prec(e.child) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        lp, rp = _prec(e.left), _prec(e.right)
        mine = _prec(e)
        left = to_source(e.left)
        right = to_source(e.right)
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
        base = to_source(e.base)
        if _prec(e.base) < 4:
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, Max):
        return "max(" + ", ".join(to_source(c) for c in e.children) + ")"
    raise TypeError(f"not an expression node: {e!r}")


def free_variables(e: Expr) -> set:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Const):
        return set()
    if isinstance(e, Neg):
        return free_variables(e.child)
    if isinstance(e, BinOp):
        return free_variables(e.left) | free_variables(e.right)
    if isinstance(e, Pow):
        return free_variables(e.base)
    if isinstance(e, Max):
        out = set()
        for c in e.children:
            out |= free_variables(c)
        return out
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation and forward-mode differentiation
# ---------------------------------------------------------------------------

def _check_finite(v: float, node: Expr) -> float:
    if not np.isfinite(v):
        raise EvaluationError(f"non-finite value at node {to_source(node)}")
    return v


def evaluate(e: Expr, point: Sequence[float]) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(point[e.index])
    if isinstance(e, Neg):
        return -evaluate(e.child, point)
    if isinstance(e, BinOp):
        a = evaluate(e.left, point)
        b = evaluate(e.right, point)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0.0:
            raise EvaluationError(f"division by zero at node {to_source(e)}")
        return _check_finite(a / b, e)
    if isinstance(e, Pow):
        base = evaluate(e.base, point)
        return _check_finite(_ipow(base, e.exponent, e), e)
    if isinstance(e, Max):
        return max(evaluate(c, point) for c in e.children)
    raise TypeError(f"not an expression node: {e!r}")


def _ipow(base: float, k: int, node: Expr) -> float:
    if k < 0:
        if base == 0.0:
            raise EvaluationError(f"division by zero at node {to_source(node)}")
        return 1.0 / _ipow(base, -k, node)
    if k <= MAX_UNROLLED_POW:
        out = 1.0
        for _ in range(k):
            out *= base
        return out
    return float(base**k)


def value_and_gradient(e: Expr, point: np.ndarray,
                       active_tol: float = DEFAULT_ACTIVE_TOL):
    """Forward-mode evaluation: returns (value, gradient). Max nodes use the
    uniform average of active-branch gradients."""
    n = len(point)

    def rec(node: Expr):
        if isinstance(node, Const):
            return node.value, np.zeros(n)
        if isinstance(node, Var):
            g = np.zeros(n)
            g[node.index] = 1.0
            return float(point[node.index]), g
        if isinstance(node, Neg):
            v, g = rec(node.child)
            return -v, -g
        if isinstance(node, BinOp):
            av, ag = rec(node.left)
            bv, bg = rec(node.right)
            if node.op == "+":
                return av + bv, ag + bg
            if node.op == "-":
                return av - bv, ag - bg
            if node.op == "*":
                return av * bv, ag * bv + bg * av
            if bv == 0.0:
                raise EvaluationError(f"division by zero at node {to_source(node)}")
            v = av / bv
            return _check_finite(v, node), (ag - v * bg) / bv
        if isinstance(node, Pow):
            bv, bg = rec(node.base)
            k = node.exponent
            v = _ipow(bv, k, node)
            if k == 0:
                return 1.0, np.zeros(n)
            if bv == 0.0 and k < 0:
                raise EvaluationError(f"division by zero at node {to_source(node)}")
            dv = k * _ipow(bv, k - 1, node)
            _check_finite(v, node)
            # x^-2 is finite at x = 4e-105, its derivative is not
            return v, _check_finite(dv, node) * bg
        if isinstance(node, Max):
            pairs = [rec(c) for c in node.children]
            top = max(v for v, _ in pairs)
            # Clarke max rule: the uniform average of the active gradients
            gens = [g for v, g in pairs if v >= top - active_tol]
            return top, sum(gens[1:], start=gens[0].copy()) / len(gens)
        raise TypeError(f"not an expression node: {node!r}")

    return rec(e)


# ---------------------------------------------------------------------------
# Compilation (generated straight-line code; hot path for the flow integrator)
# ---------------------------------------------------------------------------

def _raise_zero(node: Expr):
    raise EvaluationError(f"division by zero at node {to_source(node)}")


def _raise_nonfinite(node: Expr):
    raise EvaluationError(f"non-finite value at node {to_source(node)}")


def _has_max(e: Expr) -> bool:
    if isinstance(e, Max):
        return True
    if isinstance(e, Neg):
        return _has_max(e.child)
    if isinstance(e, BinOp):
        return _has_max(e.left) or _has_max(e.right)
    if isinstance(e, Pow):
        return _has_max(e.base)
    return False


class _Emitter:
    """Python source for one expression: a statement per node, in the order
    the reference evaluation visits them, so the generated function does the
    same floating-point operations.  Two modes:

    * value: the arithmetic of ``CompiledExpr.value`` (``b ** 2`` for
      squares, no finiteness checks);
    * gradient: the arithmetic of ``value_and_gradient`` (unrolled powers,
      checked divisions and powers), with the gradient carried per component
      and components that are structurally zero left out.  The results agree
      up to the sign of zero, except where an intermediate overflows: a
      left-out component stays 0 where the interpreter gets 0 * inf = nan.
      Max nodes are not supported in this mode.
    """

    ONE = "1.0"

    def __init__(self, gradient: bool):
        self.gradient = gradient
        self.lines = []
        self.consts = []
        self.nodes = []
        self.var_names = {}
        self.count = 0

    def temp(self, rhs: str) -> str:
        name = f"t{self.count}"
        self.count += 1
        self.lines.append(f"{name} = {rhs}")
        return name

    def name(self, rhs: str) -> str:
        """A name or literal as it is, anything else through a temporary."""
        return rhs if rhs == self.ONE or rhs.isidentifier() else self.temp(rhs)

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
        """Returns (value name, {component: name}); the gradient map is
        empty in value mode."""
        if isinstance(e, Const):
            self.consts.append(e.value)
            return f"k{len(self.consts) - 1}", {}
        if isinstance(e, Var):
            if e.index not in self.var_names:
                self.var_names[e.index] = f"x{e.index}"
            return self.var_names[e.index], ({e.index: self.ONE} if self.gradient else {})
        if isinstance(e, Neg):
            v, g = self.emit(e.child)
            return self.temp(f"-{v}"), {j: self.temp(f"-{c}") for j, c in g.items()}
        if isinstance(e, BinOp):
            return self.emit_binop(e)
        if isinstance(e, Pow):
            return self.emit_pow(e)
        if isinstance(e, Max):
            if self.gradient:
                raise TypeError("max nodes are not compiled in gradient mode")
            vals = [self.emit(c)[0] for c in e.children]
            return self.temp(f"max({', '.join(vals)})"), {}
        raise TypeError(f"not an expression node: {e!r}")

    def emit_binop(self, e: BinOp):
        if e.op == "/" and not self.gradient:
            # the value path evaluates the denominator first
            b, _ = self.emit(e.right)
            self.lines.append(f"if {b} == 0.0: _raise_zero({self.node_ref(e)})")
            a, _ = self.emit(e.left)
            return self.temp(f"{a} / {b}"), {}
        a, ga = self.emit(e.left)
        b, gb = self.emit(e.right)
        if e.op == "/":
            self.lines.append(f"if {b} == 0.0: _raise_zero({self.node_ref(e)})")
        v = self.temp(f"{a} {e.op} {b}")
        g = {}
        if self.gradient:
            for j in sorted(ga.keys() | gb.keys()):
                g[j] = self.name(self.derivative(e.op, v, a, b, ga.get(j), gb.get(j)))
            if e.op == "/":
                self.lines.append(
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
        if not self.gradient:
            if k == 2:
                return self.temp(f"{b} ** 2"), {}
            return self.temp(f"_ipow({b}, {k}, {self.node_ref(e)})"), {}
        v = self.temp(self.power(b, k, e))
        if k == 0:
            return v, {}
        dv = self.temp(f"{k} * ({self.power(b, k - 1, e)})") if k != 1 else self.ONE
        g = {j: self.name(self.product(dv, d)) for j, d in gb.items()}
        ref = self.node_ref(e)
        self.lines.append(f"if not _isfinite({v}): _raise_nonfinite({ref})")
        if k != 1:
            self.lines.append(f"if not _isfinite({dv}): _raise_nonfinite({ref})")
        return v, g


def _generate(e: Expr, n_vars: int, gradient: bool) -> Callable:
    """Compile ``e`` to a function of a sequence of floats: its value, or
    (value, gradient array) in gradient mode."""
    em = _Emitter(gradient)
    v, g = em.emit(e)
    head = [f"{name} = x[{i}]" for i, name in sorted(em.var_names.items())]
    if gradient:
        comps = ", ".join(g.get(j, "0.0") for j in range(n_vars))
        tail = f"return {v}, _array([{comps}])"
    else:
        tail = f"return {v}"
    body = "\n    ".join(head + em.lines + [tail])
    src = f"def generated(x):\n    {body}\n"
    namespace = {f"k{i}": c for i, c in enumerate(em.consts)}
    namespace.update(N=tuple(em.nodes), _ipow=_ipow, _isfinite=math.isfinite,
                     _array=np.array, _raise_zero=_raise_zero,
                     _raise_nonfinite=_raise_nonfinite)
    exec(compile(src, f"<expression {to_source(e)[:60]}>", "exec"), namespace)
    return namespace["generated"]


class CompiledExpr:
    """An expression bound to a variable count, with generated functions for
    value and (value, gradient) evaluation."""

    def __init__(self, ast: Expr, n_vars: int):
        self.ast = ast
        self.n_vars = n_vars
        # generated on first use, so that loading a problem stays cheap
        self._value = None
        self._value_grad = None
        self._branch_values = None
        self._branch_grads = None
        self._smooth = not _has_max(ast)
        self.affine = affine_parts(ast, n_vars)  # (coeffs, const) or None

    @property
    def branches(self) -> tuple:
        """The children of a root max, else the whole expression."""
        return self.ast.children if isinstance(self.ast, Max) else (self.ast,)

    def branch_values(self) -> list:
        """The generated value function of each branch, made on first use."""
        if self._branch_values is None:
            self._branch_values = [_generate(b, self.n_vars, gradient=False)
                                   for b in self.branches]
        return self._branch_values

    def branch_gradients(self) -> list:
        """The generated (value, gradient) function of each branch, made on
        first use; None for a branch that contains a max, which callers walk
        with ``value_and_gradient``."""
        if self._branch_grads is None:
            self._branch_grads = [
                None if _has_max(b) else _generate(b, self.n_vars, gradient=True)
                for b in self.branches]
        return self._branch_grads

    def value(self, x) -> float:
        if self._value is None:
            self._value = _generate(self.ast, self.n_vars, gradient=False)
        x = np.asarray(x, dtype=float)
        try:
            return float(self._value(x.tolist()))
        except (OverflowError, ZeroDivisionError):
            # float powers raise on overflow and underflow to zero where
            # numpy scalars give inf
            return float(self._value(x))

    def value_grad(self, x):
        if self.affine is not None:
            a, b = self.affine
            return float(a @ x + b), a.copy()
        x = np.asarray(x, dtype=float)
        if not self._smooth:
            return value_and_gradient(self.ast, x)
        if self._value_grad is None:
            self._value_grad = _generate(self.ast, self.n_vars, gradient=True)
        return self._value_grad(x.tolist())

    def branch_pairs(self, x, active_tol: float = DEFAULT_ACTIVE_TOL) -> list:
        """(value, gradient) of each branch (see ``branches``): a smooth
        branch by its generated (value, gradient) function, a branch that
        contains a max walked by ``value_and_gradient`` at ``active_tol``.
        One pair, ``value_grad``'s, for any expression but a root max."""
        if not isinstance(self.ast, Max):
            return [self.value_grad(x)]
        x = np.asarray(x, dtype=float)
        xs = x.tolist()
        return [value_and_gradient(b, x, active_tol) if fn is None
                else fn(xs)
                for b, fn in zip(self.ast.children, self.branch_gradients())]

    def value_generators(self, x, active_tol: float = DEFAULT_ACTIVE_TOL):
        """(value, [generator gradients]): for a root max node the gradients
        of the branches within ``neurodynamic.band_members``'s band of the
        top, a single generator for any other expression."""
        if not isinstance(self.ast, Max):
            v, g = self.value_grad(x)
            return v, [g]
        pairs = self.branch_pairs(x, active_tol)
        top, members = band_members(pairs, active_tol)
        return top, [pairs[j][1] for j in members]


def _is_constant(e: Expr) -> bool:
    return not free_variables(e)


def is_affine(e: Expr) -> bool:
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, Neg):
        return is_affine(e.child)
    if isinstance(e, BinOp):
        if e.op in "+-":
            return is_affine(e.left) and is_affine(e.right)
        if e.op == "*":
            return (_is_constant(e.left) and is_affine(e.right)) or (
                _is_constant(e.right) and is_affine(e.left))
        if e.op == "/":
            return is_affine(e.left) and _is_constant(e.right)
        return False
    if isinstance(e, Pow):
        return e.exponent in (0, 1) and is_affine(e.base) or _is_constant(e)
    if isinstance(e, Max):
        return False
    raise TypeError(f"not an expression node: {e!r}")


def affine_parts(e: Expr, n_vars: int):
    """(coefficients, constant) if the expression is affine, else None."""
    if not is_affine(e):
        return None
    zero = np.zeros(n_vars)
    const = evaluate(e, zero)
    _, coeffs = value_and_gradient(e, zero)
    return coeffs, const
