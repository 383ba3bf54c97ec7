"""Built-in moving-graph families with always-flexible motions.

Three constructions are provided:

* :func:`dixon1`: the complete bipartite graph K_{m,n} with one vertex class
  sliding on the x axis and the other on the y axis.  Vertex ``p0`` moves as
  ``sin(t)``, vertex ``q0`` as ``cos(t)``; the remaining vertices follow at
  radii chosen so every edge keeps a constant length, with a free choice of
  axis side (the ``sx`` / ``sy`` sign vectors).
* :func:`dixon2`: K_{4,4} moving with two mirror symmetries.  Lengths come
  out as the four constants a, b, c, d where c is forced by the other three.
* :func:`s2`: a fixed 8-vertex, 13-edge graph whose collision structure
  cannot be split into two acyclic halves even though a collision-free
  integer layering exists.

Generators emit expression *text* and parse it, so a family instance is
byte-identical to what a round trip through the file format produces.
"""
from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable

from .exprs import _fmt_const, parse_expression
from .motion import MovingGraph

__all__ = [
    "Dixon1Params",
    "Dixon2Params",
    "S2Params",
    "dixon1",
    "dixon2",
    "s2",
    "S2_EDGES",
]


def _finite(name: str, value: float) -> float:
    """``value`` as a float.  A parameter, or a constant a generator derives
    from one, that is not finite is refused: the generated text could not
    hold it."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _check_radii(name: str, vals: tuple[float, ...], count: int) -> None:
    if len(vals) != count - 1:
        raise ValueError(f"{name} must have {count - 1} entries, got {len(vals)}")
    prev = 0.0
    for v in vals:
        _finite(f"{name} entries", v)
        if not v > prev:
            raise ValueError(f"{name} must be positive and strictly increasing")
        prev = v


def _check_signs(name: str, vals: tuple[int, ...], count: int) -> None:
    if len(vals) != count - 1:
        raise ValueError(f"{name} must have {count - 1} entries, got {len(vals)}")
    if any(s not in (-1, 1) for s in vals):
        raise ValueError(f"{name} entries must be +1 or -1")


class Dixon1Params(namedtuple("Dixon1Params", "m n a b sx sy")):
    """K_{m,n} instance: radii a (x class) and b (y class), axis-side signs."""

    __slots__ = ()

    def __new__(
        cls,
        m: int,
        n: int,
        a: Iterable[float],
        b: Iterable[float],
        sx: Iterable[int],
        sy: Iterable[int],
    ):
        a, b = tuple(float(v) for v in a), tuple(float(v) for v in b)
        sx, sy = tuple(int(s) for s in sx), tuple(int(s) for s in sy)
        self = super().__new__(cls, m, n, a, b, sx, sy)
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be at least 1")
        _check_radii("a", self.a, self.m)
        _check_radii("b", self.b, self.n)
        _check_signs("sx", self.sx, self.m)
        _check_signs("sy", self.sy, self.n)
        return self


def dixon1(p: Dixon1Params) -> MovingGraph:
    vertices: list[str] = []
    motion: dict[str, tuple] = {}

    def put(vid: str, x: str, y: str) -> None:
        vertices.append(vid)
        motion[vid] = (parse_expression(x), parse_expression(y))

    put("p0", "sin(t)", "0")
    for i in range(1, p.m):
        sign = "-" if p.sx[i - 1] < 0 else ""
        put(f"p{i}", f"{sign}sqrt({_fmt_const(p.a[i - 1])}+sin(t)^2)", "0")
    put("q0", "0", "cos(t)")
    for j in range(1, p.n):
        sign = "-" if p.sy[j - 1] < 0 else ""
        put(f"q{j}", "0", f"{sign}sqrt({_fmt_const(p.b[j - 1])}+cos(t)^2)")

    edges = tuple((f"q{j}", f"p{i}") for j in range(p.n) for i in range(p.m))
    return MovingGraph(tuple(vertices), edges, motion)


def _bar_lengths(a: float, b: float, name: str, x: float) -> tuple[float, float, float]:
    """The lengths a, b and x (called ``name``) of a bar linkage as floats:
    each finite, 0 < a < b, a < x, and b*b and x*x finite.  a < b, so a*a
    and 3*a fit whenever b*b does."""
    a, b, x = _finite("a", a), _finite("b", b), _finite(name, x)
    if not a > 0:
        raise ValueError("a must be positive")
    if not b > a:
        raise ValueError("b must exceed a")
    if not x > a:
        raise ValueError(f"{name} must exceed a")
    _finite(f"b*b (b = {b!r})", b * b)
    _finite(f"{name}*{name} ({name} = {x!r})", x * x)
    return a, b, x


class Dixon2Params(namedtuple("Dixon2Params", "a b d")):
    """K_{4,4} instance with edge lengths a, b, c, d; c is derived."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, d: float):
        self = super().__new__(cls, *_bar_lengths(a, b, "d", d))
        _finite(f"c (b = {self.b!r}, d = {self.d!r})", self.c)
        return self

    @property
    def c(self) -> float:
        return math.sqrt(self.b * self.b + self.d * self.d - self.a * self.a)


def dixon2(p: Dixon2Params) -> MovingGraph:
    a, aa = _fmt_const(p.a), _fmt_const(p.a * p.a)
    bb, dd = _fmt_const(p.b * p.b), _fmt_const(p.d * p.d)
    bx = f"sqrt({bb}-{aa}*sin(t)^2)"
    dy = f"sqrt({dd}-{aa}*cos(t)^2)"
    x_in = f"({a}*cos(t)+{bx})/2"
    y_in = f"({a}*sin(t)+{dy})/2"
    x_out = f"(-{a}*cos(t)+{bx})/2"
    y_out = f"(-{a}*sin(t)+{dy})/2"
    coords = {
        "1": (x_in, y_in),
        "2": (f"-{x_in}", y_in),
        "3": (f"-{x_in}", f"-{y_in}"),
        "4": (x_in, f"-{y_in}"),
        "5": (x_out, y_out),
        "6": (f"-{x_out}", y_out),
        "7": (f"-{x_out}", f"-{y_out}"),
        "8": (x_out, f"-{y_out}"),
    }
    vertices = tuple(str(k) for k in range(1, 9))
    motion = {v: (parse_expression(cx), parse_expression(cy)) for v, (cx, cy) in coords.items()}
    edges = tuple((str(i), str(j)) for i in range(1, 5) for j in range(5, 9))
    return MovingGraph(vertices, edges, motion)


class S2Params(namedtuple("S2Params", "a b c")):
    __slots__ = ()

    def __new__(cls, a: float = 1.0, b: float = 11.0 / 5.0, c: float = 1.5):
        return super().__new__(cls, *_bar_lengths(a, b, "c", c))


S2_EDGES = (
    ("v1", "v2"),
    ("v1", "v4"),
    ("v1", "v5"),
    ("v8", "v2"),
    ("v8", "v4"),
    ("v8", "v5"),
    ("v3", "v2"),
    ("v3", "v4"),
    ("v3", "v5"),
    ("v1", "v7"),
    ("v7", "v6"),
    ("v5", "v6"),
    ("v4", "v6"),
)


def s2(p: S2Params = S2Params()) -> MovingGraph:
    a, a3 = _fmt_const(p.a), _fmt_const(3.0 * p.a)
    bb, cc, aa = _fmt_const(p.b * p.b), _fmt_const(p.c * p.c), _fmt_const(p.a * p.a)
    bx = f"sqrt({bb}-{aa}*sin(t)^2)"
    cy = f"sqrt({cc}-{aa}*cos(t)^2)"
    coords = {
        "v1": (f"-{a}*cos(t)-{bx}", f"-{a}*sin(t)-{cy}"),
        "v2": (f"{a}*cos(t)-{bx}", f"-{a}*sin(t)+{cy}"),
        "v3": (f"{a}*cos(t)+{bx}", f"{a}*sin(t)+{cy}"),
        "v4": (f"-{a}*cos(t)+{bx}", f"-{a}*sin(t)+{cy}"),
        "v5": (f"-{a}*cos(t)+{bx}", f"{a}*sin(t)-{cy}"),
        "v6": (f"-{a3}*cos(t)+{bx}", f"-{a}*sin(t)-{cy}"),
        "v7": (f"-{a3}*cos(t)-{bx}", f"-{a}*sin(t)-3*{cy}"),
        "v8": (f"-{a}*cos(t)-{bx}", f"{a}*sin(t)+{cy}"),
    }
    vertices = tuple(f"v{i}" for i in range(1, 9))
    motion = {v: (parse_expression(cx), parse_expression(cy)) for v, (cx, cy) in coords.items()}
    return MovingGraph(vertices, S2_EDGES, motion)
