"""Expression trees for vertex trajectories: the syntax.

Every vertex trajectory is a pair of closed-form expressions in one time
variable ``t``.  The concrete grammar (EBNF) is

    expr    := term { ("+" | "-") term }
    term    := factor { ("*" | "/") factor }
    factor  := "-" factor | primary [ "^" integer ]
    primary := number | "t" | "pi"
             | ("sin" | "cos" | "sqrt") "(" expr ")"
             | "(" expr ")"

``pi`` is folded into a numeric constant at parse time; there is no separate
node kind for it.  No :class:`Expr` is taller, and no parsed text nests deeper,
than ``MAX_EXPR_HEIGHT``, so no walk of a tree can exhaust the stack.

One table, ``_KINDS``, gives every node kind its number of children, its
printing precedence and its operator symbol; node validation, the parser
and the printer all read it.  This module parses and prints trees and needs
no numpy.  The evaluator (``evaluate``, ``split_constants``,
``merged_kernel``) lives in :mod:`lmodel.numeric`.
"""
from __future__ import annotations

import math
import re
from collections import namedtuple

__all__ = [
    "MAX_EXPR_HEIGHT",
    "Expr",
    "ExprSyntaxError",
    "ExprDomainError",
    "const",
    "tvar",
    "neg",
    "add",
    "sub",
    "mul",
    "div",
    "sin",
    "cos",
    "sqrt",
    "powi",
    "parse_expression",
    "to_text",
]

# bounds the height of every tree and the nesting the parser recurses into,
# far below Python's recursion limit, since every walk of a tree recurses
MAX_EXPR_HEIGHT = 100

# each node kind: its number of children, its printing precedence (atoms
# bind tightest) and its operator symbol; a function has no symbol and is
# printed and parsed by its name
_KINDS = {
    "const": (0, 5, None),
    "t": (0, 5, None),
    "sin": (1, 5, None),
    "cos": (1, 5, None),
    "sqrt": (1, 5, None),
    "pow": (1, 4, "^"),
    "neg": (1, 3, "-"),
    "mul": (2, 2, "*"),
    "div": (2, 2, "/"),
    "add": (2, 1, "+"),
    "sub": (2, 1, "-"),
}

_BIN_KIND = {sym: k for k, (arity, _, sym) in _KINDS.items() if arity == 2}
_FUNCS = {k for k, (arity, _, sym) in _KINDS.items() if arity == 1 and sym is None}


class ExprSyntaxError(ValueError):
    """Malformed expression text; ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExprDomainError(ArithmeticError):
    """Evaluation left the real domain (or overflowed to infinity)."""

    def __init__(self, reason: str, expr: "Expr | None" = None, t: float | None = None):
        self.reason = reason
        self.expr = expr
        self.t = t
        parts = [reason]
        if expr is not None:
            parts.append(f"in {to_text(expr)!r}")
        if t is not None:
            parts.append(f"at t={t!r}")
        super().__init__(" ".join(parts))


class Expr(namedtuple("Expr", "kind value exponent args height")):
    """One node of an expression tree.

    ``value`` is meaningful only for ``const`` nodes, ``exponent`` only for
    ``pow`` nodes.  Trees are immutable and compared structurally.  The
    last item, ``height``, counts the nodes on the longest path down; the
    constructor computes it, and as it follows from ``args`` it never
    decides ``==``.
    """

    __slots__ = ()

    def __new__(
        cls, kind: str, value: float = 0.0, exponent: int = 0, args: tuple[Expr, ...] = ()
    ):
        if kind not in _KINDS:
            raise ValueError(f"unknown node kind {kind!r}")
        arity = _KINDS[kind][0]
        if len(args) != arity:
            raise ValueError(f"{kind!r} node takes {arity} children, got {len(args)}")
        if kind == "const" and not math.isfinite(value):
            raise ValueError("constants must be finite")
        if kind == "pow":
            if not isinstance(exponent, int) or exponent < 0:
                raise ValueError("exponent must be a nonnegative integer")
        height = 1 + max((a.height for a in args), default=0)
        if height > MAX_EXPR_HEIGHT:
            raise ValueError(f"expression nests deeper than {MAX_EXPR_HEIGHT} levels")
        return tuple.__new__(cls, (kind, value, exponent, args, height))

    def __getnewargs__(self):  # what copy and pickle pass back to __new__
        return self[:4]

    def __repr__(self) -> str:
        return (
            f"Expr(kind={self.kind!r}, value={self.value!r}, "
            f"exponent={self.exponent!r}, args={self.args!r})"
        )


def const(value: float) -> Expr:
    return Expr("const", value=float(value))


def tvar() -> Expr:
    return Expr("t")


def neg(e: Expr) -> Expr:
    return Expr("neg", args=(e,))


def add(a: Expr, b: Expr) -> Expr:
    return Expr("add", args=(a, b))


def sub(a: Expr, b: Expr) -> Expr:
    return Expr("sub", args=(a, b))


def mul(a: Expr, b: Expr) -> Expr:
    return Expr("mul", args=(a, b))


def div(a: Expr, b: Expr) -> Expr:
    return Expr("div", args=(a, b))


def sin(e: Expr) -> Expr:
    return Expr("sin", args=(e,))


def cos(e: Expr) -> Expr:
    return Expr("cos", args=(e,))


def sqrt(e: Expr) -> Expr:
    return Expr("sqrt", args=(e,))


def powi(base: Expr, exponent: int) -> Expr:
    return Expr("pow", exponent=exponent, args=(base,))


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"""
      (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>[-+*/^()])
    | (?P<ws>\s+)
    """,
    re.VERBOSE,
)

_INT_RE = re.compile(r"\d+")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), m.start()))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent; :class:`Expr` bounds the trees' height, and ``depth``
    counts the parentheses (no node), calls and minus signs around a rule."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        self.advance()

    def deeper(self, depth: int, pos: int) -> int:
        if depth >= MAX_EXPR_HEIGHT:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_EXPR_HEIGHT} levels", pos)
        return depth + 1

    def node(self, pos: int, kind: str, **fields) -> Expr:
        try:  # the one place Expr's refusals (too tall, not finite) become syntax errors
            return Expr(kind, **fields)
        except ValueError as err:
            raise ExprSyntaxError(str(err), pos) from None

    def parse(self) -> Expr:
        node = self.expr(0)
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r}", pos)
        return node

    def chain(self, ops: str, operand, depth: int) -> Expr:
        # a left-associative run of binary operators in ops, parsed by a loop
        node = operand(depth)
        kind, text, pos = self.peek()
        while kind == "op" and text in ops:
            self.advance()
            node = self.node(pos, _BIN_KIND[text], args=(node, operand(depth)))
            kind, text, pos = self.peek()
        return node

    def expr(self, depth: int) -> Expr:
        return self.chain("+-", self.term, depth)

    def term(self, depth: int) -> Expr:
        return self.chain("*/", self.factor, depth)

    def factor(self, depth: int) -> Expr:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return self.node(pos, "neg", args=(self.factor(self.deeper(depth, pos)),))
        node = self.primary(depth)
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            kind, text, pos = self.peek()
            if kind != "num" or not _INT_RE.fullmatch(text):
                raise ExprSyntaxError("expected integer exponent", pos)
            self.advance()
            node = self.node(pos, "pow", exponent=int(text), args=(node,))
        return node

    def primary(self, depth: int) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return self.node(pos, "const", value=float(text))
        if kind == "name":
            if text == "t":
                return tvar()
            if text == "pi":
                return const(math.pi)
            if text in _FUNCS:
                self.expect_op("(")
                inner = self.expr(self.deeper(depth, pos))
                self.expect_op(")")
                return self.node(pos, text, args=(inner,))
            raise ExprSyntaxError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            inner = self.expr(self.deeper(depth, pos))
            self.expect_op(")")
            return inner
        raise ExprSyntaxError("expected expression", pos)


def parse_expression(text: str) -> Expr:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing

def _fmt_const(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"constants must be finite, got {v!r}")
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _render(e: Expr, min_level: int) -> str:
    arity, lvl, sym = _KINDS[e.kind]
    if arity == 0:
        s = "t" if e.kind == "t" else _fmt_const(e.value)
    elif e.kind == "neg":
        s = sym + _render(e.args[0], lvl)
    elif e.kind == "pow":
        s = f"{_render(e.args[0], lvl + 1)}{sym}{e.exponent}"
    elif arity == 1:
        s = f"{e.kind}({_render(e.args[0], 0)})"
    else:
        # binary operators are left-associative, so the right child needs one
        # extra level to survive a round trip unchanged
        s = _render(e.args[0], lvl) + sym + _render(e.args[1], lvl + 1)
    if lvl < min_level:
        s = f"({s})"
    return s


def to_text(e: Expr) -> str:
    """Render to text that parses back to a structurally equal tree.

    The round trip is exact as long as constants are nonnegative (a negative
    constant prints with a leading minus, which re-parses as a negation node).
    The parser never produces negative constants, so anything that came from
    :func:`parse_expression` round-trips.
    """
    return _render(e, 0)
