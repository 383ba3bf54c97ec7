"""Interval enclosures of expressions: speed and rounding bounds.

Forward-mode interval arithmetic (Moore, Kearfott & Cloud, *Introduction to
Interval Analysis*, 2009) gives every node of an expression an enclosure of
its value and its derivative over a time interval, and a running error
analysis over those enclosures bounds how far floating-point evaluation
strays from the exact value.  :func:`speed_and_stray` gives both from one
walk, and detection turns them into lower bounds on its pairs' gaps (see
:mod:`lmodel.collide`).  Plain ``math``, no numpy.

It is a module of its own, imported only by :mod:`lmodel.collide`,
because without a bytecode cache Python compiles a module's source on
every import, and the peak of that compile grows with the module's code:
kept in ``numeric`` this code raised the resident peak of every process
that imports detection by ~0.4 MB on CPython 3.11, and of ``validate``,
which evaluates but never detects.
"""
from __future__ import annotations

import math

from .exprs import Expr

__all__ = ["speed_and_stray"]


class _Unbounded(Exception):
    """An enclosure reached a domain fault or left the finite floats."""


_TAU = 2.0 * math.pi


def _wave(f, peak: float, a: float, b: float) -> tuple[float, float]:
    """Range of ``f`` (sin or cos, with its maxima at ``peak + 2πk``) over [a, b]."""
    if b - a >= _TAU:
        return -1.0, 1.0
    lo, hi = sorted((f(a), f(b)))
    if math.ceil((a - peak) / _TAU) * _TAU + peak <= b:
        hi = 1.0
    if math.ceil((a - peak - math.pi) / _TAU) * _TAU + peak + math.pi <= b:
        lo = -1.0
    return lo, hi


def _mul(a: tuple, b: tuple) -> tuple[float, float]:
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(p), max(p)


def _add(a: tuple, b: tuple) -> tuple[float, float]:
    return a[0] + b[0], a[1] + b[1]


def _neg(a: tuple) -> tuple[float, float]:
    return -a[1], -a[0]


def _pow(a: tuple, n: int) -> tuple[float, float]:
    lo, hi = a[0] ** n, a[1] ** n
    if n % 2 or a[0] >= 0.0:
        return lo, hi
    if a[1] <= 0.0:
        return hi, lo
    return 0.0, max(lo, hi)


# One rounding of an operation moves its result by at most this much per
# unit of the operands' magnitudes: four ulps, for the correctly rounded
# operations (half an ulp), for sin, cos and pow, which libm and numpy get
# within an ulp or a few, and for enclosure endpoints that are rounded to
# nearest rather than outward.
_ROUNDING = 2.0**-50


def _size(a: tuple) -> float:
    return max(-a[0], a[1])


def _enclose(e: Expr, t: tuple) -> tuple[tuple, tuple, float]:
    """(value, derivative) intervals of ``e`` over the time interval ``t``,
    and a bound on how far its floating-point value strays from the exact one.

    The stray is ``inf`` where rounding could make the evaluation fault (a
    square root argument or a divisor that rounding could bring to 0).
    """
    k = e.kind
    if k == "const":
        out = (e.value, e.value), (0.0, 0.0), 0.0
    elif k == "t":
        out = t, (1.0, 1.0), 0.0
    elif k == "neg":
        u, du, eu = _enclose(e.args[0], t)
        out = _neg(u), _neg(du), eu
    elif k == "sin" or k == "cos":
        u, du, eu = _enclose(e.args[0], t)
        s, c = _wave(math.sin, math.pi / 2, *u), _wave(math.cos, 0.0, *u)
        # both are 1-Lipschitz and at most 1 in size
        err = eu + _ROUNDING
        out = (s, _mul(c, du), err) if k == "sin" else (c, _neg(_mul(s, du)), err)
    elif k == "sqrt":
        u, du, eu = _enclose(e.args[0], t)
        if not u[0] > 0.0:
            raise _Unbounded
        r = (math.sqrt(u[0]), math.sqrt(u[1]))
        # |sqrt(a') - sqrt(a)| = |a' - a| / (sqrt(a') + sqrt(a))
        err = eu / r[0] + _ROUNDING * math.sqrt(u[1] + eu) if eu < u[0] else math.inf
        out = r, _mul(du, (0.5 / r[1], 0.5 / r[0])), err
    elif k == "pow":
        u, du, eu = _enclose(e.args[0], t)
        n = e.exponent
        if n == 0:
            out = (1.0, 1.0), (0.0, 0.0), 0.0
        else:
            reach = _size(u) + eu
            err = n * reach ** (n - 1) * eu + _ROUNDING * reach**n
            out = _pow(u, n), _mul(_mul((n, n), _pow(u, n - 1)), du), err
    else:
        (a, da, ea), (b, db, eb) = (_enclose(x, t) for x in e.args)
        sa, sb = _size(a) + ea, _size(b) + eb  # the sizes of the rounded operands
        if k == "add":
            out = _add(a, b), _add(da, db), ea + eb + _ROUNDING * (sa + sb)
        elif k == "sub":
            out = _add(a, _neg(b)), _add(da, _neg(db)), ea + eb + _ROUNDING * (sa + sb)
        elif k == "mul":
            err = _size(a) * eb + sb * ea + _ROUNDING * sa * sb
            out = _mul(a, b), _add(_mul(da, b), _mul(a, db)), err
        elif k == "div":
            if b[0] <= 0.0 <= b[1]:
                raise _Unbounded
            inv = (1.0 / b[1], 1.0 / b[0])
            q = _mul(a, inv)
            least = -b[1] if b[1] < 0.0 else b[0]  # the smallest |divisor|
            # a'/b' - a/b = ((a' - a) - (a/b)(b' - b)) / b'
            err = (ea + _size(q) * eb) / (least - eb) if eb < least else math.inf
            err += _ROUNDING * (_size(q) + err)
            out = q, _mul(_add(da, _neg(_mul(q, db))), inv), err
        else:
            raise AssertionError(k)
    if not all(map(math.isfinite, out[0] + out[1])):
        raise _Unbounded
    return out


def speed_and_stray(e: Expr, lo: float, hi: float) -> tuple[float, float]:
    """Bounds over [lo, hi] on |de/dt| and on |evaluate(e, t) - e(t)|: one enclosure walk for both.

    Forward-mode interval arithmetic (Moore, Kearfott & Cloud, *Introduction
    to Interval Analysis*, 2009): every node gets an enclosure of its value
    and of its derivative over [lo, hi], and the speed bound is the
    derivative's largest size.  Both bounds are ``inf`` when an enclosure
    reaches a domain fault (a square root argument that is not positive, a
    divisor that contains 0) or a non-finite endpoint, so a tree that can
    fail to evaluate anywhere on [lo, hi] never gets a finite bound.  The
    endpoints are rounded to nearest, not outward: callers widen the speed
    bound by a relative margin.

    ``e(t)`` is the exact value of the tree, with its constants as stored.
    The stray comes from a running error analysis over the enclosures: every
    node adds what its operands' errors can move it by, plus one rounding
    of its result.  Cancellation is what this catches: in ``(t + 1e8) -
    1e8`` the values are small but the rounding is that of 1e8.  The stray
    is also ``inf`` where the rounding could bring a square root argument
    or a divisor to 0.
    """
    try:
        _, (dl, dh), err = _enclose(e, (float(lo), float(hi)))
    except (_Unbounded, OverflowError):
        return math.inf, math.inf
    return max(abs(dl), abs(dh)), err if math.isfinite(err) else math.inf
