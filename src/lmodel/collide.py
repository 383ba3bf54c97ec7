"""Vertex-edge collision detection along parametric trajectories.

A vertex v lies on the segment between the endpoints i, j of an edge exactly
when the triangle-inequality slack

    gap(t) = |f_v - f_i| + |f_v - f_j| - |f_i - f_j|

vanishes.  The slack is nonnegative everywhere, so its zeros are tangential
minima, not sign changes; root bracketing would miss them entirely.  The
detector therefore samples the gap on a dense grid, then drives sampled
local minima of all pairs together into tiny brackets by golden-section search.

Only the pairs that can change the answer are looked at closely.
Interval speed bounds on the vertices make each gap Lipschitz, so a
pair's smallest grid sample, less its change over half a grid step and a
margin for rounding, bounds its gap over the whole domain from below
(Piyavskii-Shubert bounding; Shubert, SIAM J. Numer. Anal. 9, 1972); one
enclosure walk gives both bounds (:func:`lmodel.interval.speed_and_stray`).
One rule runs on a coarse grid of every ``COARSE_STRIDE``-th sample, then
on the whole grid for the pairs that are left: bound each pair over the
whole domain, and drop the pairs proved to stay farther apart than a pair
that is proved clear of the ambiguity band comes.  They can be neither
collisions nor the clear margin.  Every sampled minimum of every kept
pair is then refined, so the result is the one refining every bracket of
every pair gives (see :func:`_grid_stage`).

Both stages work on the whole graph at once (:mod:`lmodel.sampling`).  The
grid stage reads every pair's gap off a table of vertex-to-vertex
distances, one block of samples at a time, on the coarse grid for all
pairs and on the fine grid for the kept ones, and keeps its brackets in
the order it finds them; refinement sorts the kept pairs' brackets into
pair order and time order within a pair.  Each refinement step evaluates
every coordinate expression shape once, over the brackets of all vertices
that share it.

Classification uses two thresholds.  A refined minimum below ``collide_eps``
is a collision.  A minimum between ``collide_eps`` and ten times it is
neither accepted nor silently dropped: it lands in the result's ``ambiguous``
list and triggers a warning, because at that scale the verdict depends on
sampling luck rather than on the input.
"""
from __future__ import annotations

import math
import warnings
from collections import namedtuple
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .interval import speed_and_stray
from .motion import CollisionPair, DetectionError, MovingGraph, edge_label, pair_edge
from .numeric import eval_position, sample_rows
from .sampling import bracket_gap, grid_minima, slack

__all__ = [
    "AMBIGUITY_FACTOR",
    "REFINE_TOL",
    "DetectionConfig",
    "PairProbe",
    "DetectionResult",
    "gap",
    "golden_minimize",
    "detect_pair",
    "detect_all",
]

# minima in [collide_eps, AMBIGUITY_FACTOR * collide_eps) are flagged, not classified
AMBIGUITY_FACTOR = 10.0

# golden-section refinement shrinks each bracket to this width
REFINE_TOL = 1e-12


class DetectionConfig(namedtuple("DetectionConfig", "samples collide_eps")):
    __slots__ = ()

    def __new__(cls, samples: int = 2048, collide_eps: float = 1e-7):
        if not isinstance(samples, int) or isinstance(samples, bool) or samples < 16:
            raise ValueError(f"samples must be an int of at least 16, got {samples!r}")
        if not REFINE_TOL < collide_eps < math.inf:  # NaN fails both comparisons
            raise ValueError(
                f"collide_eps must be finite and exceed the refinement tolerance {REFINE_TOL:g}"
            )
        return super().__new__(cls, samples, collide_eps)


class PairProbe(NamedTuple):
    """Outcome of probing one vertex-edge pair, collision or not."""

    vertex: str
    edge: tuple[str, str]
    collides: bool
    min_gap: float
    witness_t: float
    ambiguous: bool


class DetectionResult(NamedTuple):
    pairs: tuple[CollisionPair, ...]
    ambiguous: tuple[PairProbe, ...]
    clear_margin: float | None
    probed: int


def gap(g: MovingGraph, v: str, e: tuple[str, str], t: float) -> float:
    e = pair_edge(g, v, e)
    (xv, yv), (xi, yi), (xj, yj) = (eval_position(g, w, t) for w in (v, *e))
    return float(slack(xv, yv, xi, yi, xj, yj))


# ---------------------------------------------------------------------------
# minimization

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_minimize(
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
    seeds: Iterable[np.ndarray] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Shrink every bracket [lo[k], hi[k]] to width tol, or to four float
    spacings of its endpoints if that is wider, by golden-section search.

    ``f`` maps an array of one time per bracket to the array of values there;
    all brackets advance together.  Each bracket probes its seeds, lo, hi and
    the two interior points, then one point per step, and stops at that
    width or after a step cap fixed by its initial width.  Returns the best
    (t, f(t)) per bracket over every point it evaluated, the first on ties,
    so the result never regresses below the information already in hand.
    A NaN value is never best.
    """
    best_t = lo.copy()
    best_v = np.full(lo.shape, math.inf)

    def probe(x: np.ndarray, live: np.ndarray | bool = True) -> np.ndarray:
        y = f(x)
        better = live & (y < best_v)
        best_t[better] = x[better]
        best_v[better] = y[better]
        return y

    for s in seeds:
        probe(s)
    probe(lo)
    probe(hi)
    a, b = lo.copy(), hi.copy()
    # far from 0 the floats are too sparse for a bracket of width tol
    stop = np.maximum(tol, 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
    # a bracket that is not live re-probes lo, a point it already evaluated,
    # and keeps its state
    wide = b - a > stop
    c = a + _INV_PHI2 * (b - a)
    d = a + _INV_PHI * (b - a)
    yc = probe(np.where(wide, c, lo), wide)
    yd = probe(np.where(wide, d, lo), wide)
    # the bracket shrinks by 1/phi per step; cap the loop in case float
    # rounding stalls it near the tolerance
    max_iters = np.array(
        [
            math.ceil(math.log(s / w) / math.log(_INV_PHI)) + 8
            for s, w in zip(stop.tolist(), np.maximum(b - a, stop).tolist())
        ]
    )
    for k in range(int(max_iters.max(initial=0))):
        live = (k < max_iters) & (b - a > stop)
        if not live.any():
            break
        left = live & (yc < yd)
        right = live & ~left
        b[left], d[left], yd[left] = d[left], c[left], yc[left]
        a[right], c[right], yc[right] = c[right], d[right], yd[right]
        x = np.where(left, a + _INV_PHI2 * (b - a), a + _INV_PHI * (b - a))
        y = probe(np.where(live, x, lo), live)
        c[left], yc[left] = x[left], y[left]
        d[right], yd[right] = x[right], y[right]
    return best_t, best_v


# ---------------------------------------------------------------------------
# detection

# brackets refined together; bounds the memory that refinement holds at once
_REFINE_CHUNK = 2048

# The pruning rule's rounding margins.  Speed bounds are computed in floating
# point, rounded to nearest: the gap's Lipschitz constant is scaled up by
# _SPEED_SLACK.  A coordinate evaluates to within its rounding bound E of its
# exact value (:func:`lmodel.interval.speed_and_stray`), which moves its vertex
# by at most sqrt(2)*E and a pair's gap, a sum of three distances, by at most
# 2*sqrt(2)*(E_v + E_i + E_j); both the smallest sample and the refined value
# stray, so the bound is lowered by twice that.  The slack's own arithmetic
# rounds its distances by a few ulps; _GAP_SLACK times (1 + the largest
# coordinate on the grid) is far more.
_SPEED_SLACK = 1.0 + 2.0**-20
_GAP_SLACK = 2.0**-30
_STRAY = 4.0 * math.sqrt(2.0)

# every COARSE_STRIDE-th grid sample, and the last, make the coarse grid that
# proves far pairs clear before the fine gap table is read
COARSE_STRIDE = 16


def _grid_stage(g: MovingGraph, roles: np.ndarray, cfg: DetectionConfig):
    """Sample every vertex on the grid, and bracket the sampled minima of the pairs that can matter.

    ``roles`` is a 3 x n array of vertex indices: row 0 the vertex, rows 1
    and 2 the edge's endpoints.  Returns the grid ``ts``, {pair index: grid
    domain error}, the brackets (codes ``pair * samples + sample``, in grid
    order: every sampled minimum of a pair the fine grid keeps that
    evaluates on the grid), then for the coarse and the fine grid the
    indices of the pairs it keeps and every pair's bound there (NaN for a
    pair the grid does not read).

    The gap of pair (v, {i, j}) changes by at most ``L = 2(S_v + S_i + S_j)``
    per unit time, where ``S_w`` bounds vertex w's speed over the domain
    (:func:`lmodel.interval.speed_and_stray`).  Every time of the domain
    lies within h/2 of a sample, so over the whole domain the gap stays
    above the pair's smallest sample less ``L*h/2`` and the rounding
    margins: the pair's bound on that grid.

    Two passes run this rule, one on every ``COARSE_STRIDE``-th grid
    sample and the last, then one on the whole grid, each over the pairs
    the one before kept.  h is the grid's largest spacing.  A pair whose
    bound is at least ``AMBIGUITY_FACTOR * eps`` is proved clear.  Let U be
    the smallest sample of a proved pair.  Every pair whose bound is above
    U is dropped; a NaN bound, and a pair whose grid samples fail, are
    kept.  A dropped pair refines above U, and U is at least
    ``AMBIGUITY_FACTOR * eps``: it is no collision and not ambiguous.  The
    pair U comes from refines to at most U, since the first of its smallest
    samples is a sampled minimum, whose bracket starts there, and its
    bound, a lower bound, is at most that: it is kept.  If the fine pass
    drops it after all, the fine U is below its minimum, and the pair that
    U comes from stays.  So the clear margin is at most U, below every dropped
    pair, and detection reports what refining every bracket of every pair
    reports.  A vertex whose expressions can fail to evaluate on the
    domain, or could once rounded, has no speed or rounding bound, so no
    pair of it is dropped and every bracket that could raise a domain
    error is refined.
    """
    ts = np.linspace(g.domain[0], g.domain[1], cfg.samples)
    rows = np.flatnonzero(np.bincount(roles.ravel())).tolist()
    xs, ys, grid_err = sample_rows(g, rows, ts)
    sampled = [w for w in rows if w not in grid_err]  # the vertices that evaluate on the whole grid
    failures: dict[int, Exception] = {}
    for k, trio in enumerate(roles.T.tolist() if grid_err else ()):
        bad = [grid_err[w] for w in trio if w in grid_err]
        if bad:
            failures[k] = bad[0]

    n_pairs = roles.shape[1]
    failed = np.zeros(n_pairs, dtype=bool)
    failed[list(failures)] = True
    speed, stray = np.zeros((2, len(g.vertices)))
    for w in sampled:
        (sx, ex), (sy, ey) = (speed_and_stray(e, *g.domain) for e in g.motion[g.vertices[w]])
        speed[w] = math.hypot(sx, sy)
        stray[w] = max(ex, ey)
    lipschitz = 2.0 * _SPEED_SLACK * (speed[roles[0]] + speed[roles[1]] + speed[roles[2]])
    margin = _STRAY * (stray[roles[0]] + stray[roles[1]] + stray[roles[2]])
    # max(a.max(), -a.min()) is never below 0: initial=0.0 serves the empty grid
    reach = max(max(a.max(initial=0.0), -a.min(initial=0.0)) for a in (xs, ys))
    gap_slack = _GAP_SLACK * (1.0 + reach)

    cidx = np.arange(0, len(ts), COARSE_STRIDE)
    if cidx[-1] != len(ts) - 1:
        cidx = np.append(cidx, len(ts) - 1)
    kept, bounds = [np.arange(n_pairs)], []
    # a slice keeps the fine grid a view of xs and ys; only the fine
    # grid's minima are refined
    for idx, minima in ((cidx, False), (slice(None), True)):
        read, grid = kept[-1], ts[idx]
        low, found = grid_minima(xs[:, idx], ys[:, idx], roles[:, read], grid, minima=minima)
        h = float(np.diff(grid).max(initial=0.0))
        bound = np.full(n_pairs, math.nan)
        # a NaN sample leaves the pair unbounded
        bound[read] = low - lipschitz[read] * (h / 2) - margin[read] - gap_slack
        bound[failed] = math.nan
        bounds.append(bound)
        u = low[bound[read] >= AMBIGUITY_FACTOR * cfg.collide_eps].min(initial=math.inf)
        kept.append(read[~(bound[read] > u)])
    pair = read[found // len(ts)]
    found = (pair * len(ts) + found % len(ts))[np.isin(pair, kept[-1]) & ~failed[pair]]
    return ts, failures, found, kept[1:], bounds


def _refine(
    g: MovingGraph, roles: np.ndarray, ts: np.ndarray, found: np.ndarray, failures: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Refine the brackets ``found`` of :func:`_grid_stage` together, a chunk at a time.

    Returns the best (t, gap) of every bracket; a bracket whose probe leaves
    the domain charges its pair the first such error in ``failures``.
    """
    motion = [g.motion[w] for w in g.vertices]
    t_at, v_at = np.empty((2, len(found)))
    for s in range(0, len(found), _REFINE_CHUNK):
        ks, i = np.divmod(found[s : s + _REFINE_CHUNK], len(ts))
        errors: dict[int, Exception] = {}
        f = bracket_gap(motion, roles[:, ks], ts[i], errors)
        lo = ts[np.maximum(i - 1, 0)]
        hi = ts[np.minimum(i + 1, len(ts) - 1)]
        t_at[s : s + len(ks)], v_at[s : s + len(ks)] = golden_minimize(
            f, lo, hi, REFINE_TOL, seeds=(ts[i],)
        )
        for k in sorted(errors):
            failures.setdefault(int(ks[k]), errors[k])
    return t_at, v_at


def _probe(
    g: MovingGraph, roles: np.ndarray, cfg: DetectionConfig
) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Minimum gap of every pair, with the time it is attained.

    Refines the brackets of :func:`_grid_stage` in code order: by pair, and
    within a pair by time.  Returns (witness times, minimum gaps, {pair
    index: domain error}); a pair none of whose brackets is refined reads
    inf at the domain's start.
    """
    ts, failures, found, *_ = _grid_stage(g, roles, cfg)
    found = np.sort(found)
    t_at, v_at = _refine(g, roles, ts, found, failures)
    best_t = np.full(roles.shape[1], ts[0])
    best_v = np.full(roles.shape[1], math.inf)
    # brackets come in pair order, each pair's in time order, so a scan
    # with < keeps the first bracket reaching the pair's smallest value
    for k, t, v in zip((found // len(ts)).tolist(), t_at.tolist(), v_at.tolist()):
        if v < best_v[k]:
            best_t[k], best_v[k] = t, v
    return best_t, best_v, failures


def _verdict(v: str, e: tuple[str, str], t: float, gv: float, cfg: DetectionConfig) -> PairProbe:
    collides = gv < cfg.collide_eps
    ambiguous = not collides and gv < AMBIGUITY_FACTOR * cfg.collide_eps
    return PairProbe(v, e, collides, gv, t, ambiguous)


def detect_pair(
    g: MovingGraph, v: str, e: tuple[str, str], cfg: DetectionConfig | None = None
) -> PairProbe:
    cfg = cfg or DetectionConfig()
    e = pair_edge(g, v, e)
    roles = np.array([[g.vertices.index(w)] for w in (v, *e)], dtype=np.intp)
    best_t, best_v, failures = _probe(g, roles, cfg)
    if failures:
        raise failures[0]
    return _verdict(v, e, float(best_t[0]), float(best_v[0]), cfg)


def _pair_roles(g: MovingGraph) -> np.ndarray:
    """Vertex indices (v, i, j) of every non-incident vertex-edge pair, in canonical order."""
    index = {w: k for k, w in enumerate(g.vertices)}
    # int32: detection holds this table throughout
    ends = np.array([(index[u], index[w]) for u, w in g.edges], dtype=np.int32).reshape(-1, 2)
    pv = np.repeat(np.arange(len(g.vertices), dtype=np.int32), len(g.edges))
    pe = np.tile(np.arange(len(g.edges)), len(g.vertices))
    keep = (pv != ends[pe, 0]) & (pv != ends[pe, 1])
    return np.stack([pv[keep], ends[pe[keep], 0], ends[pe[keep], 1]])


def detect_all(g: MovingGraph, cfg: DetectionConfig | None = None) -> DetectionResult:
    """Probe every non-incident vertex-edge pair, in canonical order."""
    cfg = cfg or DetectionConfig()
    roles = _pair_roles(g)
    best_t, best_v, failures = _probe(g, roles, cfg)

    def named(k: int) -> tuple[str, tuple[str, str]]:
        v, i, j = (g.vertices[w] for w in roles[:, k].tolist())
        return v, (i, j)

    if failures:
        raise DetectionError([(*named(k), failures[k]) for k in sorted(failures)])

    pairs: list[CollisionPair] = []
    ambiguous: list[PairProbe] = []
    for k in np.flatnonzero(best_v < AMBIGUITY_FACTOR * cfg.collide_eps).tolist():
        probe = _verdict(*named(k), float(best_t[k]), float(best_v[k]), cfg)
        if probe.collides:
            pairs.append(CollisionPair(probe.vertex, probe.edge, probe.witness_t, probe.min_gap))
        elif probe.ambiguous:
            ambiguous.append(probe)
    if ambiguous:
        worst = ", ".join(f"({p.vertex}, {edge_label(p.edge)})" for p in ambiguous)
        warnings.warn(
            f"{len(ambiguous)} pair(s) in the ambiguity band "
            f"[{cfg.collide_eps:g}, {AMBIGUITY_FACTOR * cfg.collide_eps:g}): {worst}; "
            "re-run with more samples or a different eps",
            RuntimeWarning,
            stacklevel=2,
        )
    clear = float(best_v[best_v >= cfg.collide_eps].min(initial=math.inf))
    return DetectionResult(
        tuple(pairs), tuple(ambiguous), None if math.isinf(clear) else clear, roles.shape[1]
    )
