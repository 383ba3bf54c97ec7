"""Numeric evaluation of trajectories: the one numpy evaluator and its users.

Only this module, :mod:`lmodel.sampling` and :mod:`lmodel.collide` import
numpy.  Parsing, the collision graph and planning never evaluate an
expression, so the commands that only plan never load it.

:func:`evaluate` is the one evaluator.  It works on numpy arrays, and on a
scalar as a one-element array, so detection samples a grid and refines
many minima at once with it, and a scalar gets an array's bits.
Evaluation either returns a finite value or raises :class:`ExprDomainError`
(square root of a negative number, division by zero, overflow, a time that
is not finite); it never silently produces NaN or infinity.  A single tree
runs through this checking evaluator, node by node.  Every operator node's
numpy call comes from one table, ``_UNARY`` or ``_BINARY`` (``pow`` takes
its integer exponent); the checking evaluator adds only its checks.

Trees that differ only in their constants share a *shape*:
:func:`split_constants` folds a tree's constant parts, the one walk that
does.  Only :func:`merged_kernel` compiles: it fills one shape's holes
with the constants of several trees, one value per evaluation point, and
makes each node one closure over the same table's call, so one run serves
them all with each tree's own bits.
The kernel checks no node; refinement runs it with numpy's overflow,
divide and invalid flags raising, and falls back to the checking
evaluator tree by tree when one goes up.  :func:`eval_position`,
:func:`positions_on_grid` and :func:`validate_edge_lengths` evaluate a
moving graph's vertices.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .exprs import Expr, ExprDomainError, const
from .motion import GraphFormatError, MovingGraph

__all__ = [
    "evaluate",
    "evaluate_on",
    "split_constants",
    "merged_kernel",
    "eval_position",
    "positions_on_grid",
    "EdgeLengthStats",
    "LengthReport",
    "validate_edge_lengths",
]


# ---------------------------------------------------------------------------
# evaluation


def evaluate(e: Expr, t):
    """Evaluate at a scalar ``t`` or an ndarray of times.

    A scalar ``t`` is evaluated as a one-element array, so it gets the bits
    the same time gets inside any array.  The result of a constant subtree
    stays scalar even for array input; use :func:`evaluate_on` when a
    full-size array is required.  Every node is checked as it is computed:
    the first node to fail, in evaluation order, raises
    :class:`ExprDomainError` with its reason and the first time at which it
    fails (None when a constant part fails), so a scalar and an array
    holding the same time fail at the same place.
    """
    scalar = np.ndim(t) == 0
    with np.errstate(over="ignore", invalid="ignore"):
        out = _ev(e, np.array([t], dtype=float) if scalar else t)
    return out[0] if scalar and np.ndim(out) else out


def evaluate_on(e: Expr, ts: np.ndarray) -> np.ndarray:
    """Evaluate on a sample grid, broadcasting constants to full size."""
    out = np.asarray(evaluate(e, ts), dtype=float)
    if out.shape != np.shape(ts):
        out = np.full(np.shape(ts), float(out))
    return out


def _check(bad, reason: str, e: Expr, t) -> None:
    """Raise :class:`ExprDomainError` where ``bad`` holds, naming its first time
    (None when ``bad`` comes from a constant part: every time is affected)."""
    if bad.any():
        at = float(np.asarray(t).reshape(-1)[int(np.argmax(bad))]) if bad.ndim else None
        raise ExprDomainError(reason, e, at)


# each operator node's numpy call, which the checking evaluator and the
# merged kernels both make; neg keeps a constant a Python float, whose
# ** raises OverflowError rather than returning inf
_UNARY = {"neg": operator.neg, "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt}
_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


def _ev(e: Expr, t):
    k = e.kind
    if k == "const":
        return e.value
    if k == "t":
        _check(~np.isfinite(t), "time is not finite", e, t)
        return t
    x = [_ev(a, t) for a in e.args]
    if k == "pow":
        try:
            # only a constant base is a plain float, and float ** int
            # raises instead of returning inf, so every t is affected
            val = x[0] ** e.exponent
        except OverflowError:
            raise ExprDomainError("non-finite result (overflow)", e, None) from None
    elif k in _UNARY:
        if k == "sqrt":
            _check(np.asarray(x[0]) < 0.0, "square root of a negative value", e, t)
        # sin, cos and sqrt of finite input are finite, and neg preserves
        # finiteness, so only the arithmetic nodes need an overflow check
        return _UNARY[k](x[0])
    else:
        if k == "div":
            _check(np.asarray(x[1]) == 0.0, "division by zero", e, t)
        val = _BINARY[k](*x)
    _check(~np.isfinite(np.asarray(val)), "non-finite result (overflow)", e, t)
    return val


# ---------------------------------------------------------------------------
# shapes


_HOLE = const(0.0)


def _split(e: Expr, holes: list):
    """The shape of ``e``, or None when ``e`` has no ``t``.

    Works bottom-up, so "has ``t``" is decided once per node: a child
    without ``t`` waits in ``holes`` until its parent turns out to have
    ``t``, so the holes come in depth-first order.
    """
    if e.kind == "t":
        return e
    start, shapes = len(holes), []
    for a in e.args:
        s = _split(a, holes)
        if s is None:
            holes.append(a)
        shapes.append(s)
    if all(s is None for s in shapes):
        del holes[start:]
        return None
    return Expr(e.kind, exponent=e.exponent, args=tuple(_HOLE if s is None else s for s in shapes))


def split_constants(e: Expr) -> tuple[Expr, tuple]:
    """The shape of ``e`` and the values of its constant parts.

    Every maximal subtree without ``t`` is evaluated, exactly as
    :func:`evaluate` computes it inside the whole tree, and replaced by a
    ``const(0)`` hole; the values come in depth-first order.  Trees with
    equal shapes differ only in these values.  Raises
    :class:`ExprDomainError` when a constant part fails.
    """
    holes: list = []
    shape = _split(e, holes)
    if shape is None:
        shape, holes = _HOLE, [e]
    with np.errstate(over="ignore", invalid="ignore"):
        return shape, tuple(_ev(h, None) for h in holes)


def merged_kernel(shape: Expr, values: list[tuple], sizes: list[int]):
    """One kernel for several trees of ``shape``, each over its own points.

    Tree k has the constants ``values[k]`` (from :func:`split_constants`)
    and owns the next ``sizes[k]`` points of the array the kernel runs on;
    each hole holds one constant per point, taken in depth-first order.
    Every other node becomes one closure making the call that ``_UNARY`` or
    ``_BINARY`` gives its kind, the checking evaluator's call, in the same
    order, so each point gets the bits of its own tree: numpy's elementwise
    operations do not depend on their neighbours, and a scalar operand gives
    the bits of the same value repeated in an array.  The kernel checks no
    node: the caller runs it on finite times with numpy's overflow, divide
    and invalid flags raising.  From finite operands a node fails only when
    one of those flags goes up, so a raised flag means some tree failed.
    """
    holes = iter([np.repeat(h, sizes) for h in zip(*values)])

    def walk(e: Expr):
        k = e.kind
        if k == "t":
            return lambda t: t
        if k == "const":
            c = next(holes)
            return lambda t: c
        if k == "pow":
            f, n = walk(e.args[0]), e.exponent
            return lambda t: f(t) ** n
        if k in _UNARY:
            f, op = walk(e.args[0]), _UNARY[k]
            return lambda t: op(f(t))
        f, g, op = walk(e.args[0]), walk(e.args[1]), _BINARY[k]
        return lambda t: op(f(t), g(t))

    return walk(shape)


# ---------------------------------------------------------------------------
# vertices


def eval_position(g: MovingGraph, v: str, t: float) -> tuple[float, float]:
    if v not in g.motion:
        raise GraphFormatError(f"unknown vertex {v!r}")
    xe, ye = g.motion[v]
    try:
        return float(evaluate(xe, t)), float(evaluate(ye, t))
    except ExprDomainError as err:
        raise ExprDomainError(f"vertex {v!r}: {err.reason}", err.expr, err.t) from None


def positions_on_grid(
    g: MovingGraph, ts: np.ndarray, vertices: Iterable[str] | None = None
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for v in g.vertices if vertices is None else vertices:
        xe, ye = g.motion[v]
        try:
            out[v] = (evaluate_on(xe, ts), evaluate_on(ye, ts))
        except ExprDomainError as err:
            raise ExprDomainError(f"vertex {v!r}: {err.reason}", err.expr, err.t) from None
    return out


# doubles in one table of edge lengths that validation holds at once
_LENGTH_BLOCK = 1 << 15


@dataclass(frozen=True)
class EdgeLengthStats:
    edge: tuple[str, str]
    mean: float
    max_deviation: float


@dataclass(frozen=True)
class LengthReport:
    edges: tuple[EdgeLengthStats, ...]
    tol: float
    passed: bool


def validate_edge_lengths(g: MovingGraph, samples: int = 512, tol: float = 1e-9) -> LengthReport:
    """Sample every edge length and report the worst deviation from its mean.

    An edge passes when its worst deviation is at most ``tol * max(1, mean)``:
    the tolerance is absolute for lengths up to 1 and relative beyond, so a
    long rigid edge is not failed for the rounding of its length.
    """
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 2:
        raise ValueError(f"samples must be an int of at least 2, got {samples!r}")
    if not 0 < tol < math.inf:  # NaN fails both comparisons
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    ts = np.linspace(g.domain[0], g.domain[1], samples)
    needed = {w for e in g.edges for w in e}
    pos = positions_on_grid(g, ts, [v for v in g.vertices if v in needed])
    row = {v: k for k, v in enumerate(pos)}
    xs = np.array([x for x, _ in pos.values()]).reshape(-1, samples)
    ys = np.array([y for _, y in pos.values()]).reshape(-1, samples)
    ends = np.array([(row[u], row[v]) for u, v in g.edges], dtype=np.intp).reshape(-1, 2)
    mean, dev = np.empty((2, len(ends)))
    # a chunk of edges at a time bounds the lengths table; a row's mean and
    # largest deviation have the bits of the same edge's alone
    step = max(1, _LENGTH_BLOCK // samples)
    for s in range(0, len(ends), step):
        u, v = ends[s : s + step].T
        # built in place, so that no more than three tables live at once
        lens = xs[u]
        lens -= xs[v]
        dy = ys[u]
        dy -= ys[v]
        np.hypot(lens, dy, out=lens)
        del dy
        mean[s : s + step] = lens.mean(axis=1)
        lens -= mean[s : s + step, None]
        dev[s : s + step] = np.abs(lens, out=lens).max(axis=1)
    stats = tuple(
        EdgeLengthStats(e, m, d) for e, m, d in zip(g.edges, mean.tolist(), dev.tolist())
    )
    passed = all(s.max_deviation <= tol * max(1.0, s.mean) for s in stats)
    return LengthReport(stats, tol, passed)
