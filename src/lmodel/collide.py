"""Vertex-edge collision detection along parametric trajectories.

A vertex v lies on the segment between the endpoints i, j of an edge exactly
when the triangle-inequality slack

    gap(t) = |f_v - f_i| + |f_v - f_j| - |f_i - f_j|

vanishes.  The slack is nonnegative everywhere, so its zeros are tangential
minima, not sign changes; root bracketing would miss them entirely.  The
detector therefore samples the gap on a dense grid, then drives every sampled
local minimum into a tiny bracket with golden-section search.

Classification uses two thresholds.  A refined minimum below ``collide_eps``
is a collision.  A minimum between ``collide_eps`` and ten times it is
neither accepted nor silently dropped: it lands in the result's ``ambiguous``
list and triggers a warning, because at that scale the verdict depends on
sampling luck rather than on the input.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .exprs import ExprDomainError, compile_fn
from .motion import GraphFormatError, MovingGraph, edge_label, eval_position, evaluate_on

__all__ = [
    "AMBIGUITY_FACTOR",
    "DetectionConfig",
    "CollisionPair",
    "PairProbe",
    "DetectionResult",
    "DetectionError",
    "gap",
    "golden_minimize",
    "detect_pair",
    "detect_all",
    "pairs_to_json",
    "pairs_from_json",
]

# minima in [collide_eps, AMBIGUITY_FACTOR * collide_eps) are flagged, not classified
AMBIGUITY_FACTOR = 10.0


@dataclass(frozen=True)
class DetectionConfig:
    samples: int = 2048
    refine_tol: float = 1e-12
    collide_eps: float = 1e-7

    def __post_init__(self):
        if self.samples < 16:
            raise ValueError("samples must be at least 16")
        if not 0.0 < self.refine_tol < self.collide_eps:
            raise ValueError("need 0 < refine_tol < collide_eps")


@dataclass(frozen=True)
class CollisionPair:
    vertex: str
    edge: tuple[str, str]
    witness_t: float
    min_gap: float


@dataclass(frozen=True)
class PairProbe:
    """Outcome of probing one vertex-edge pair, collision or not."""

    vertex: str
    edge: tuple[str, str]
    collides: bool
    min_gap: float
    witness_t: float
    ambiguous: bool


@dataclass(frozen=True)
class DetectionResult:
    pairs: tuple[CollisionPair, ...]
    ambiguous: tuple[PairProbe, ...]
    clear_margin: float | None
    probed: int


class DetectionError(RuntimeError):
    """One or more pairs could not be decided (evaluation failed)."""

    def __init__(self, failures: Sequence[tuple[str, tuple[str, str], Exception]]):
        self.failures = tuple(failures)
        detail = "; ".join(f"({v}, {edge_label(e)}): {err}" for v, e, err in self.failures)
        super().__init__(f"{len(self.failures)} pair(s) undecidable: {detail}")


def gap(g: MovingGraph, v: str, e: tuple[str, str], t: float) -> float:
    if v == e[0] or v == e[1]:
        raise ValueError(f"vertex {v!r} is incident to edge {edge_label(e)!r}")
    xv, yv = eval_position(g, v, t)
    xi, yi = eval_position(g, e[0], t)
    xj, yj = eval_position(g, e[1], t)
    return (
        math.hypot(xv - xi, yv - yi)
        + math.hypot(xv - xj, yv - yj)
        - math.hypot(xi - xj, yi - yj)
    )


# ---------------------------------------------------------------------------
# scalar minimization

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_minimize(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    seeds: Iterable[float] = (),
) -> tuple[float, float]:
    """Shrink [lo, hi] to width tol by golden-section search.

    Returns the best (t, f(t)) over every point actually evaluated, which
    includes lo, hi and the seeds, so the result never regresses below the
    information already in hand.
    """
    best_t = lo
    best_v = math.inf

    def probe(x: float) -> float:
        nonlocal best_t, best_v
        v = f(x)
        if v < best_v:
            best_t, best_v = x, v
        return v

    for s in seeds:
        probe(s)
    probe(lo)
    probe(hi)
    a, b = lo, hi
    if b - a <= tol:
        return best_t, best_v
    c = a + _INV_PHI2 * (b - a)
    d = a + _INV_PHI * (b - a)
    yc = probe(c)
    yd = probe(d)
    # the bracket shrinks by 1/phi per step; cap the loop in case float
    # rounding stalls it near the tolerance
    max_iters = int(math.ceil(math.log(tol / (b - a)) / math.log(_INV_PHI))) + 8
    for _ in range(max_iters):
        if b - a <= tol:
            break
        if yc < yd:
            b, d, yd = d, c, yc
            c = a + _INV_PHI2 * (b - a)
            yc = probe(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * (b - a)
            yd = probe(d)
    return best_t, best_v


def _local_min_indices(gs: np.ndarray) -> np.ndarray:
    """Indices of sampled local minima, plateau-left-edge and endpoint aware."""
    n = len(gs)
    left_ok = np.empty(n, dtype=bool)
    right_ok = np.empty(n, dtype=bool)
    left_ok[0] = True
    left_ok[1:] = gs[1:] < gs[:-1]
    right_ok[n - 1] = True
    right_ok[:-1] = gs[:-1] <= gs[1:]
    return np.nonzero(left_ok & right_ok)[0]


# ---------------------------------------------------------------------------
# detection


def _scalar_gap(fns: dict, v: str, e: tuple[str, str]) -> Callable[[float], float]:
    fvx, fvy = fns[v]
    fix, fiy = fns[e[0]]
    fjx, fjy = fns[e[1]]

    def gp(t: float) -> float:
        xv, yv = fvx(t), fvy(t)
        xi, yi = fix(t), fiy(t)
        xj, yj = fjx(t), fjy(t)
        return (
            math.hypot(xv - xi, yv - yi)
            + math.hypot(xv - xj, yv - yj)
            - math.hypot(xi - xj, yi - yj)
        )

    return gp


def _probe_pair(
    ts: np.ndarray,
    grid: dict,
    fns: dict,
    v: str,
    e: tuple[str, str],
    cfg: DetectionConfig,
) -> PairProbe:
    xv, yv = grid[v]
    xi, yi = grid[e[0]]
    xj, yj = grid[e[1]]
    gs = np.hypot(xv - xi, yv - yi) + np.hypot(xv - xj, yv - yj) - np.hypot(xi - xj, yi - yj)
    f = _scalar_gap(fns, v, e)
    best_t = float(ts[int(np.argmin(gs))])
    best_v = math.inf
    last = len(ts) - 1
    for i in _local_min_indices(gs):
        lo = float(ts[max(i - 1, 0)])
        hi = float(ts[min(i + 1, last)])
        tt, vv = golden_minimize(f, lo, hi, cfg.refine_tol, seeds=(float(ts[i]),))
        if vv < best_v:
            best_v, best_t = vv, tt
    collides = best_v < cfg.collide_eps
    ambiguous = not collides and best_v < AMBIGUITY_FACTOR * cfg.collide_eps
    return PairProbe(v, e, collides, best_v, best_t, ambiguous)


def _canonical_edge(g: MovingGraph, e: tuple[str, str]) -> tuple[str, str]:
    u, w = e
    for cand in ((u, w), (w, u)):
        if edge_label(cand) in g.edge_by_label:
            return cand
    raise ValueError(f"({u!r}, {w!r}) is not an edge of the graph")


def detect_pair(
    g: MovingGraph, v: str, e: tuple[str, str], cfg: DetectionConfig | None = None
) -> PairProbe:
    cfg = cfg or DetectionConfig()
    e = _canonical_edge(g, e)
    if v not in g.motion:
        raise ValueError(f"unknown vertex {v!r}")
    if v == e[0] or v == e[1]:
        raise ValueError(f"vertex {v!r} is incident to edge {edge_label(e)!r}")
    ts = np.linspace(g.domain[0], g.domain[1], cfg.samples)
    used = (v, e[0], e[1])
    grid = {w: (evaluate_on(g.motion[w][0], ts), evaluate_on(g.motion[w][1], ts)) for w in used}
    fns = {w: (compile_fn(g.motion[w][0]), compile_fn(g.motion[w][1])) for w in used}
    return _probe_pair(ts, grid, fns, v, e, cfg)


def detect_all(g: MovingGraph, cfg: DetectionConfig | None = None) -> DetectionResult:
    """Probe every non-incident vertex-edge pair, in canonical order."""
    cfg = cfg or DetectionConfig()
    ts = np.linspace(g.domain[0], g.domain[1], cfg.samples)
    grid: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    grid_err: dict[str, ExprDomainError] = {}
    for w in g.vertices:
        xe, ye = g.motion[w]
        try:
            grid[w] = (evaluate_on(xe, ts), evaluate_on(ye, ts))
        except ExprDomainError as err:
            grid_err[w] = err
    fns = {w: (compile_fn(x), compile_fn(y)) for w, (x, y) in g.motion.items()}

    pairs: list[CollisionPair] = []
    ambiguous: list[PairProbe] = []
    failures: list[tuple[str, tuple[str, str], Exception]] = []
    clear = math.inf
    probed = 0
    for v in g.vertices:
        for e in g.edges:
            if v == e[0] or v == e[1]:
                continue
            probed += 1
            bad = next((w for w in (v, e[0], e[1]) if w in grid_err), None)
            if bad is not None:
                failures.append((v, e, grid_err[bad]))
                continue
            try:
                probe = _probe_pair(ts, grid, fns, v, e, cfg)
            except ExprDomainError as err:
                failures.append((v, e, err))
                continue
            if probe.collides:
                pairs.append(CollisionPair(v, e, probe.witness_t, probe.min_gap))
            else:
                clear = min(clear, probe.min_gap)
                if probe.ambiguous:
                    ambiguous.append(probe)
    if failures:
        raise DetectionError(failures)
    if ambiguous:
        worst = ", ".join(f"({p.vertex}, {edge_label(p.edge)})" for p in ambiguous)
        warnings.warn(
            f"{len(ambiguous)} pair(s) in the ambiguity band "
            f"[{cfg.collide_eps:g}, {AMBIGUITY_FACTOR * cfg.collide_eps:g}): {worst}; "
            "re-run with more samples or a different eps",
            RuntimeWarning,
            stacklevel=2,
        )
    return DetectionResult(
        tuple(pairs), tuple(ambiguous), None if math.isinf(clear) else clear, probed
    )


# ---------------------------------------------------------------------------
# file format


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
    return json.dumps(data, indent=2) + "\n"


def pairs_from_json(text: str, g: MovingGraph) -> tuple[CollisionPair, ...]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise GraphFormatError(f"invalid JSON: {err}") from None
    if not isinstance(data, dict) or not isinstance(data.get("pairs"), list):
        raise GraphFormatError("pairs file must be an object with a 'pairs' array")
    t0, t1 = g.domain
    out = []
    for entry in data["pairs"]:
        if not isinstance(entry, dict) or not {"vertex", "edge", "t", "gap"} <= entry.keys():
            raise GraphFormatError(f"pair entry {entry!r} needs 'vertex', 'edge', 't', 'gap'")
        v = entry["vertex"]
        e_raw = entry["edge"]
        if v not in g.motion:
            raise GraphFormatError(f"pair references unknown vertex {v!r}")
        if not (isinstance(e_raw, list) and len(e_raw) == 2):
            raise GraphFormatError(f"pair edge {e_raw!r} must be a pair of vertex ids")
        try:
            e = _canonical_edge(g, (e_raw[0], e_raw[1]))
        except ValueError as err:
            raise GraphFormatError(str(err)) from None
        if v == e[0] or v == e[1]:
            raise GraphFormatError(f"pair vertex {v!r} is incident to edge {edge_label(e)!r}")
        t = entry["t"]
        gap_val = entry["gap"]
        if not isinstance(t, (int, float)) or not isinstance(gap_val, (int, float)):
            raise GraphFormatError(f"pair entry {entry!r} has non-numeric t or gap")
        if not t0 - 1e-9 <= t <= t1 + 1e-9:
            raise GraphFormatError(f"pair witness t={t!r} is outside the domain [{t0}, {t1}]")
        out.append(CollisionPair(v, e, float(t), float(gap_val)))
    return tuple(out)
