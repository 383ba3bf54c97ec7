"""Moving graphs: vertices on planar parametric trajectories, fixed edges.

The data model is deliberately plain.  A graph knows its vertex order, its
edge order (the file order, used everywhere as the canonical order), one
(x, y) expression pair per vertex, and the closed time interval under
analysis.  Edge lengths are *supposed* to stay constant over the interval;
:func:`lmodel.numeric.validate_edge_lengths` checks that numerically rather
than trusting the input.

The records of detection live here too: a :class:`CollisionPair`, the one
pair rule :func:`pair_edge`, :class:`DetectionError` and the pairs file.
Planning reads nothing else of detection, so it never loads numpy.  The
names that evaluate trajectories live in :mod:`lmodel.numeric`.  The
planner's refusal, :class:`SearchCapError`, lives here as well, so that the
command line can report it without importing the planner.
"""
from __future__ import annotations

import json
import math
import re
import sys
from collections import namedtuple
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .exprs import Expr, ExprSyntaxError, parse_expression, to_text

__all__ = [
    "TAU",
    "GraphFormatError",
    "MovingGraph",
    "edge_label",
    "pair_edge",
    "CollisionPair",
    "DetectionError",
    "SearchCapError",
    "parse_json",
    "to_json",
    "load_graph",
    "save_graph",
    "pairs_to_json",
    "pairs_from_json",
]

TAU = 2.0 * math.pi

# vertex ids double as halves of edge labels "u-v", so no dashes or
# whitespace, and go into quoted DOT IDs unescaped, so no quotes or backslashes
_ID_BAD = re.compile(r'[\s\-"\\]')


class GraphFormatError(ValueError):
    """Invalid graph structure or file content."""


class SearchCapError(RuntimeError):
    """A search ran past its expansion budget undecided."""


def edge_label(edge: tuple[str, str]) -> str:
    return f"{edge[0]}-{edge[1]}"


class MovingGraph(namedtuple("MovingGraph", "vertices edges motion domain")):
    """The vertices, the edges and one (x, y) expression pair per vertex,
    over the closed time interval ``domain``; checked on construction."""

    def __new__(
        cls,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str]],
        motion: Mapping[str, tuple[Expr, Expr]],
        domain: tuple[float, float] = (0.0, TAU),
    ):
        vertices, edges, motion = tuple(vertices), tuple((u, v) for u, v in edges), dict(motion)
        try:
            domain = (float(domain[0]), float(domain[1]))
        except OverflowError:  # an int beyond the floats, say from a JSON file
            msg = "bad time domain: an endpoint is too large for a float"
            raise GraphFormatError(msg) from None
        self = super().__new__(cls, vertices, edges, motion, domain)
        self._validate()
        return self

    def _validate(self) -> None:
        seen: set[str] = set()
        for v in self.vertices:
            if not isinstance(v, str) or not v or _ID_BAD.search(v):
                raise GraphFormatError(
                    f"bad vertex id {v!r}: ids are nonempty strings without '-', '\"', '\\' "
                    "or whitespace"
                )
            if v in seen:
                raise GraphFormatError(f"duplicate vertex {v!r}")
            seen.add(v)
        eseen: set[frozenset[str]] = set()
        for u, v in self.edges:
            if u == v:
                raise GraphFormatError(f"self-loop at {u!r}")
            if u not in seen or v not in seen:
                raise GraphFormatError(f"edge ({u!r}, {v!r}) has a dangling endpoint")
            key = frozenset((u, v))
            if key in eseen:
                raise GraphFormatError(f"duplicate edge {u!r}-{v!r}")
            eseen.add(key)
        for v in self.vertices:
            if v not in self.motion:
                raise GraphFormatError(f"vertex {v!r} has no motion")
        for v in self.motion:
            if v not in seen:
                raise GraphFormatError(f"motion given for unknown vertex {v!r}")
        for v, pair in self.motion.items():
            if len(pair) != 2 or not all(isinstance(c, Expr) for c in pair):
                raise GraphFormatError(f"motion of {v!r} must be a pair of expressions")
        t0, t1 = self.domain
        if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
            raise GraphFormatError(
                f"bad time domain {self.domain!r}: it must be finite with a < b"
            )
        if not math.isfinite(t1 - t0):
            raise GraphFormatError(f"bad time domain {self.domain!r}: its width b - a overflows")

    @cached_property
    def edge_labels(self) -> tuple[str, ...]:
        return tuple(edge_label(e) for e in self.edges)

    @cached_property
    def edge_by_label(self) -> dict[str, tuple[str, str]]:
        return {edge_label(e): e for e in self.edges}

    @cached_property
    def incident(self) -> dict[str, tuple[str, ...]]:
        """Labels of the edges at each vertex, in canonical edge order."""
        inc: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in self.edges:
            lab = edge_label(e)
            inc[e[0]].append(lab)
            inc[e[1]].append(lab)
        return {v: tuple(labs) for v, labs in inc.items()}

    @cached_property
    def isolated_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if not self.incident[v])


class CollisionPair(NamedTuple):
    vertex: str
    edge: tuple[str, str]
    witness_t: float
    min_gap: float


def pair_edge(g: MovingGraph, v, e) -> tuple[str, str]:
    """The edge of the collision pair (v, e), as stored in g.  The one pair
    rule: v is a vertex, e an edge in either orientation, v not on e."""
    if not isinstance(v, str) or v not in g.motion:
        raise GraphFormatError(f"pair references unknown vertex {v!r}")
    u, w = e if isinstance(e, (tuple, list)) and len(e) == 2 else (None, None)
    by = g.edge_by_label
    named = isinstance(u, str) and isinstance(w, str)
    edge = named and (by.get(edge_label((u, w))) or by.get(edge_label((w, u))))
    if not edge:
        raise GraphFormatError(f"pair references unknown edge {e!r}: not an edge of the graph")
    if v in edge:
        raise GraphFormatError(f"pair vertex {v!r} is incident to edge {edge_label(edge)!r}")
    return edge


class DetectionError(RuntimeError):
    """One or more pairs could not be decided (evaluation failed)."""

    def __init__(self, failures: Sequence[tuple[str, tuple[str, str], Exception]]):
        self.failures = tuple(failures)
        detail = "; ".join(f"({v}, {edge_label(e)}): {err}" for v, e, err in self.failures)
        super().__init__(f"{len(self.failures)} pair(s) undecidable: {detail}")


# ---------------------------------------------------------------------------
# file format


def parse_json(text: str):
    """The value of the JSON ``text``; any text json refuses is a GraphFormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise GraphFormatError(f"invalid JSON: {err}") from None
    except RecursionError:
        raise GraphFormatError("invalid JSON: nested too deeply") from None
    except ValueError:  # int() refused a literal past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise GraphFormatError(f"invalid JSON: an integer has more than {limit} digits") from None


def to_json(data) -> str:
    """``data`` as the JSON text every file and report is written in."""
    return json.dumps(data, indent=2) + "\n"


def load_graph(text: str) -> MovingGraph:
    data = parse_json(text)
    if not isinstance(data, dict):
        raise GraphFormatError("top-level value must be an object")
    verts_raw = data.get("vertices")
    edges_raw = data.get("edges")
    if not isinstance(verts_raw, list) or not isinstance(edges_raw, list):
        raise GraphFormatError("'vertices' and 'edges' must be arrays")

    vertices: list[str] = []
    motion: dict[str, tuple[Expr, Expr]] = {}
    for entry in verts_raw:
        if not isinstance(entry, dict) or not {"id", "x", "y"} <= entry.keys():
            raise GraphFormatError(f"vertex entry {entry!r} needs 'id', 'x' and 'y'")
        vid = entry["id"]
        if not isinstance(vid, str):
            raise GraphFormatError(f"vertex id {vid!r} must be a string")
        exprs = []
        for coord in ("x", "y"):
            raw = entry[coord]
            if not isinstance(raw, str):
                raise GraphFormatError(f"vertex {vid!r}: {coord} must be an expression string")
            try:
                exprs.append(parse_expression(raw))
            except ExprSyntaxError as err:
                raise GraphFormatError(f"vertex {vid!r}, {coord}: {err}") from None
        vertices.append(vid)
        motion[vid] = (exprs[0], exprs[1])

    edges: list[tuple[str, str]] = []
    for raw in edges_raw:
        if not (isinstance(raw, list) and len(raw) == 2 and all(isinstance(x, str) for x in raw)):
            raise GraphFormatError(f"edge entry {raw!r} must be a pair of vertex ids")
        edges.append((raw[0], raw[1]))

    domain_raw = data.get("domain", [0.0, TAU])
    if not (
        isinstance(domain_raw, list)
        and len(domain_raw) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in domain_raw)
    ):
        raise GraphFormatError("'domain' must be a pair of numbers [t0, t1]")

    return MovingGraph(tuple(vertices), tuple(edges), motion, tuple(domain_raw))


def save_graph(g: MovingGraph) -> str:
    data = {
        "domain": [g.domain[0], g.domain[1]],
        "vertices": [
            {"id": v, "x": to_text(g.motion[v][0]), "y": to_text(g.motion[v][1])}
            for v in g.vertices
        ],
        "edges": [[u, v] for u, v in g.edges],
    }
    return to_json(data)


def pairs_to_json(
    pairs: Iterable[CollisionPair], graph_ref: str, margin: float | None = None
) -> str:
    data: dict = {
        "graph": graph_ref,
        "pairs": [
            {"vertex": p.vertex, "edge": [p.edge[0], p.edge[1]], "t": p.witness_t, "gap": p.min_gap}
            for p in pairs
        ],
    }
    if margin is not None:
        data["margin"] = margin
    return to_json(data)


def pairs_from_json(text: str, g: MovingGraph) -> tuple[CollisionPair, ...]:
    data = parse_json(text)
    if not isinstance(data, dict) or not isinstance(data.get("pairs"), list):
        raise GraphFormatError("pairs file must be an object with a 'pairs' array")
    t0, t1 = g.domain
    out = []
    for entry in data["pairs"]:
        if not isinstance(entry, dict) or not {"vertex", "edge", "t", "gap"} <= entry.keys():
            raise GraphFormatError(f"pair entry {entry!r} needs 'vertex', 'edge', 't', 'gap'")
        e = pair_edge(g, entry["vertex"], entry["edge"])
        t = entry["t"]
        gap_val = entry["gap"]
        if any(not isinstance(x, (int, float)) or isinstance(x, bool) for x in (t, gap_val)):
            raise GraphFormatError(f"pair entry {entry!r} has non-numeric t or gap")
        if not abs(gap_val) <= sys.float_info.max:  # inf, NaN or an int beyond the floats
            raise GraphFormatError(f"pair entry {entry!r} has a non-finite gap")
        if not t0 - 1e-9 <= t <= t1 + 1e-9:
            raise GraphFormatError(f"pair witness t={t!r} is outside the domain [{t0}, {t1}]")
        out.append(CollisionPair(entry["vertex"], e, float(t), float(gap_val)))
    return tuple(out)
