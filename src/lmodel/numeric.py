"""Numeric evaluation of trajectories: the one numpy evaluator and its users.

Only this module, :mod:`lmodel.sampling` and :mod:`lmodel.collide` import
numpy.  Parsing, the collision graph and planning never evaluate an
expression, so the commands that only plan never load it.

:func:`evaluate` is the one evaluator.  It works on numpy arrays, and on a
scalar as a one-element array, so detection samples a grid and refines
many minima at once with it, and a scalar gets an array's bits.
Evaluation either returns a finite value or raises :class:`ExprDomainError`
(square root of a negative number, division by zero, overflow); it never
silently produces NaN or infinity.  Trees that differ only in their
constants share a *shape*: :func:`split_constants` folds a tree's constant
parts, and :func:`merge_shapes` joins the trees of one shape into a single
tree whose constant leaves hold one value per evaluation point, so one
evaluation serves them all.  :func:`eval_position`,
:func:`positions_on_grid` and :func:`validate_edge_lengths` evaluate a
moving graph's vertices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .exprs import Expr, ExprDomainError, const
from .motion import GraphFormatError, MovingGraph

__all__ = [
    "evaluate",
    "evaluate_on",
    "split_constants",
    "merge_shapes",
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
    full-size array is required.  Overflow is caught at the node that
    produces it, so a scalar and an array holding the same time fail at the
    same place.
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


def _offending_t(bad, t) -> float | None:
    bad = np.asarray(bad)
    if bad.ndim == 0:
        # a constant subtree failed; every t is affected
        return None
    idx = int(np.argmax(bad))
    return float(np.asarray(t).reshape(-1)[idx])


def _ev(e: Expr, t):
    # sin, cos and sqrt of finite input are finite, and neg preserves
    # finiteness, so only the arithmetic nodes need an overflow check
    k = e.kind
    if k == "const":
        return e.value
    if k == "t":
        return t
    if k == "neg":
        return -_ev(e.args[0], t)
    if k == "sin":
        return np.sin(_ev(e.args[0], t))
    if k == "cos":
        return np.cos(_ev(e.args[0], t))
    if k == "sqrt":
        v = _ev(e.args[0], t)
        bad = np.asarray(v) < 0.0
        if np.any(bad):
            raise ExprDomainError("square root of a negative value", e, _offending_t(bad, t))
        return np.sqrt(v)
    if k == "add":
        val = _ev(e.args[0], t) + _ev(e.args[1], t)
    elif k == "sub":
        val = _ev(e.args[0], t) - _ev(e.args[1], t)
    elif k == "mul":
        val = _ev(e.args[0], t) * _ev(e.args[1], t)
    elif k == "div":
        num = _ev(e.args[0], t)
        den = _ev(e.args[1], t)
        bad = np.asarray(den) == 0.0
        if np.any(bad):
            raise ExprDomainError("division by zero", e, _offending_t(bad, t))
        val = num / den
    elif k == "pow":
        try:
            # a constant base is a plain float, and float ** int raises
            # instead of returning inf
            val = _ev(e.args[0], t) ** e.exponent
        except OverflowError:
            raise ExprDomainError(
                "non-finite result (overflow)", e, _offending_t(np.asarray(True), t)
            ) from None
    else:
        raise AssertionError(k)
    bad = ~np.isfinite(np.asarray(val))
    if bad.any():
        raise ExprDomainError("non-finite result (overflow)", e, _offending_t(bad, t))
    return val


# ---------------------------------------------------------------------------
# shapes


_HOLE = const(0.0)


def _has_t(e: Expr) -> bool:
    return e.kind == "t" or any(_has_t(a) for a in e.args)


def _split(e: Expr, values: list) -> Expr:
    if not _has_t(e):
        values.append(evaluate(e, 0.0))
        return _HOLE
    if not e.args:
        return e
    return Expr(e.kind, exponent=e.exponent, args=tuple(_split(a, values) for a in e.args))


def split_constants(e: Expr) -> tuple[Expr, tuple]:
    """The shape of ``e`` and the values of its constant parts.

    Every maximal subtree without ``t`` is evaluated, exactly as
    :func:`evaluate` computes it inside the whole tree, and replaced by a
    ``const(0)`` hole; the values come in depth-first order.  Trees with
    equal shapes differ only in these values.  Raises
    :class:`ExprDomainError` when a constant part fails.
    """
    values: list = []
    return _split(e, values), tuple(values)


class _Slots:
    """A constant leaf of a merged shape: one value per evaluation point.

    Only :func:`merge_shapes` builds it: :class:`Expr` accepts finite
    scalars only, and ``_ev`` reads nothing but ``kind`` and ``value`` here.
    Not being an :class:`Expr`, it prints as ``c`` in ``to_text``.
    """

    kind = "const"
    exponent = 0
    args = ()
    height = 1

    def __init__(self, value: np.ndarray):
        self.value = value


def _merge(e: Expr, holes):
    if e.kind == "const":
        return _Slots(next(holes))
    if not e.args:
        return e
    return Expr(e.kind, exponent=e.exponent, args=tuple(_merge(a, holes) for a in e.args))


def merge_shapes(shape: Expr, values: list[tuple], sizes: list[int]):
    """One tree for several trees of ``shape``, each over its own points.

    Tree k has the constants ``values[k]`` (from :func:`split_constants`)
    and owns the next ``sizes[k]`` points of the array the merged tree is
    evaluated on; each hole holds one constant per point.  Each point then
    gets the bits of its own tree: numpy's elementwise operations do not
    depend on their neighbours, and a scalar operand gives the bits of the
    same value repeated in an array.
    """
    return _merge(shape, (np.repeat(h, sizes) for h in zip(*values)))


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
    stats = []
    for u, v in g.edges:
        xu, yu = pos[u]
        xv, yv = pos[v]
        lens = np.hypot(xu - xv, yu - yv)
        mean = float(lens.mean())
        dev = float(np.max(np.abs(lens - mean)))
        stats.append(EdgeLengthStats((u, v), mean, dev))
    passed = all(s.max_deviation <= tol * max(1.0, s.mean) for s in stats)
    return LengthReport(tuple(stats), tol, passed)
