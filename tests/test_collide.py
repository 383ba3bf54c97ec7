import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from lmodel import collide, numeric, sampling
from lmodel import exprs as E
from lmodel.collide import (
    AMBIGUITY_FACTOR,
    DetectionConfig,
    detect_all,
    detect_pair,
    gap,
    golden_minimize,
)
from lmodel.families import Dixon1Params, Dixon2Params, dixon1, dixon2, s2
from lmodel.motion import (
    CollisionPair,
    DetectionError,
    GraphFormatError,
    MovingGraph,
    pairs_from_json,
    pairs_to_json,
)
from lmodel.numeric import evaluate
from lmodel.sampling import grid_minima, slack

from expected import DIXON1_REF_PAIRS, DIXON1_REF_WITNESS, S2_PAIRS
from synth import (
    HUGE_INT,
    TOO_DEEP,
    dixon2_partner_pairs,
    needs_digit_limit,
    random_dixon1_params,
)

HALF_PI = math.pi / 2


def hover_graph(h):
    """A static vertex at height h over a static unit-2 segment."""
    return MovingGraph(
        ("s0", "s1", "v"),
        (("s0", "s1"),),
        {
            "s0": (E.const(-1.0), E.const(0.0)),
            "s1": (E.const(1.0), E.const(0.0)),
            "v": (E.const(0.0), E.const(h)),
        },
    )


def sweep_graph():
    """A unit segment sliding along the x axis past a parked vertex.

    The parked vertex meets the segment's left endpoint exactly once, at
    t = 3*pi/2, and the gap is tangential there.
    """
    return MovingGraph(
        ("a", "b", "c"),
        (("a", "b"),),
        {
            "a": (E.parse_expression("sin(t)"), E.const(0.0)),
            "b": (E.parse_expression("sin(t)+1"), E.const(0.0)),
            "c": (E.const(-1.0), E.const(0.0)),
        },
    )


# ---------------------------------------------------------------------------
# gap


def test_gap_reference_values(ref_dixon1):
    got = gap(ref_dixon1, "p0", ("q0", "p1"), 0.0)
    assert math.isclose(got, 2.0 - math.sqrt(2.0), rel_tol=1e-12)
    assert abs(gap(ref_dixon1, "p0", ("q0", "p1"), HALF_PI)) <= 1e-12


def test_gap_rejects_incident_vertex(ref_dixon1):
    with pytest.raises(ValueError, match="incident"):
        gap(ref_dixon1, "q0", ("q0", "p1"), 0.0)


def test_gap_is_nonnegative_on_grid(ref_dixon1):
    ts = np.linspace(0.0, 2 * math.pi, 511)
    worst = min(gap(ref_dixon1, "p0", ("q0", "p2"), float(t)) for t in ts)
    assert worst >= -1e-12


# ---------------------------------------------------------------------------
# minimization


def scalar_golden(f, lo, hi, tol, seeds=()):
    """Golden-section search on one bracket, as a loop: the reference for the batch."""
    best_t, best_v = lo, math.inf

    def probe(x):
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
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    inv_phi2 = (3.0 - math.sqrt(5.0)) / 2.0
    c, d = a + inv_phi2 * (b - a), a + inv_phi * (b - a)
    yc, yd = probe(c), probe(d)
    for _ in range(math.ceil(math.log(tol / (b - a)) / math.log(inv_phi)) + 8):
        if b - a <= tol:
            break
        if yc < yd:
            b, d, yd = d, c, yc
            c = a + inv_phi2 * (b - a)
            yc = probe(c)
        else:
            a, c, yc = c, d, yd
            d = a + inv_phi * (b - a)
            yd = probe(d)
    return best_t, best_v


def test_golden_minimize_quadratic():
    centers = np.array([1.3, 0.4])
    t, v = golden_minimize(
        lambda x: (x - centers) ** 2, np.array([0.0, 0.0]), np.array([3.0, 1.0]), 1e-10
    )
    assert np.all(np.abs(t - centers) <= 1e-6)
    assert np.all(v <= 1e-12)


def test_golden_minimize_never_regresses_below_seed():
    spike = 0.123456

    def f(x):
        return np.where(x == spike, 0.0, 1.0 + (x - 2.0) ** 2)

    t, v = golden_minimize(f, np.array([0.0]), np.array([3.0]), 1e-10, seeds=(np.array([spike]),))
    assert t[0] == spike
    assert v[0] == 0.0


def test_golden_minimize_degenerate_bracket():
    t, v = golden_minimize(lambda x: x * x, np.array([1.0]), np.array([1.0]), 1e-12)
    assert t[0] == 1.0
    assert v[0] == 1.0


def test_golden_minimize_stops_at_the_float_spacing():
    # near 1e300 the floats lie ~1.5e284 apart, so no bracket gets to 1e-12 wide;
    # each stops at four spacings, about 30 steps down from 1e291
    lo = np.array([1e300])
    hi = lo * (1.0 + 1e-9)
    mid = (lo + hi) / 2
    evaluations = []

    def f(x):
        evaluations.append(len(x))
        return np.abs(x - mid)

    t, v = golden_minimize(f, lo, hi, 1e-12)
    assert sum(evaluations) < 60
    assert lo[0] <= t[0] <= hi[0]
    assert v[0] <= 8.0 * np.spacing(1e300)


def test_golden_minimize_matches_scalar_search():
    # a staircase: plateaus make ties, so the first-best rule is exercised too
    def f(x):
        return np.floor((x - 1.1) ** 2 * (x - 2.7) ** 2 * 1e4) / 1e4

    rng = np.random.default_rng(3)
    lo = rng.uniform(0.0, 3.0, 64)
    hi = lo + np.concatenate([rng.uniform(0.0, 1.0, 60), [0.0, 1e-13, 1e-12, 2e-12]])
    seeds = rng.uniform(lo, hi)
    t, v = golden_minimize(f, lo, hi, 1e-12, seeds=(seeds,))
    for k in range(len(lo)):
        want = scalar_golden(
            lambda x: float(f(np.array([x]))[0]), lo[k], hi[k], 1e-12, seeds=(seeds[k],)
        )
        assert (t[k], v[k]) == want


# ---------------------------------------------------------------------------
# grid stage


def local_min_indices(gs):
    """Indices of one pair's sampled local minima, plateau-left-edge and endpoint aware."""
    n = len(gs)
    left_ok = np.empty(n, dtype=bool)
    right_ok = np.empty(n, dtype=bool)
    left_ok[0] = True
    left_ok[1:] = gs[1:] < gs[:-1]
    right_ok[n - 1] = True
    right_ok[:-1] = gs[:-1] <= gs[1:]
    return np.nonzero(left_ok & right_ok)[0]


def per_pair_grid(xs, ys, roles, ts):
    """The grid stage as a loop over pairs: the reference for the whole-graph one."""
    low = np.empty(roles.shape[1])
    found = []
    for k, (v, i, j) in enumerate(roles.T.tolist()):
        gs = slack(xs[v], ys[v], xs[i], ys[i], xs[j], ys[j])
        low[k] = gs.min()
        found += (k * len(ts) + local_min_indices(gs)).tolist()
    return low, found


def assert_grid_matches_reference(xs, ys, roles, ts):
    with np.errstate(all="ignore"):
        want_low, want_found = per_pair_grid(xs, ys, roles, ts)
        low, found = grid_minima(xs, ys, roles, ts)
    # a NaN's sign depends on the order of the reduction; slack never reads -0.0
    assert np.array_equal(low, want_low, equal_nan=True)
    # the minima come in grid order; in code order they are the reference's
    assert np.sort(found).tolist() == want_found


def random_roles(rng, n_vertices, n_pairs):
    """(v, i, j) columns with v off the edge {i, j}; edges repeat, in both orientations."""
    cols = []
    while len(cols) < n_pairs:
        v, i, j = rng.choice(n_vertices, size=3, replace=False).tolist()
        cols.append((v, i, j))
    return np.array(cols, dtype=np.intp).T.reshape(3, -1)


# 1 makes every block one sample wide and every chunk one pair
BLOCKS = [1, 9, 16, 40, 1 << 13, 100, 300, 1 << 15]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("kind", ["smooth", "plateaus", "overflow"])
def test_grid_stage_matches_per_pair_loop(monkeypatch, block, kind):
    monkeypatch.setattr(numeric, "GRID_BLOCK", block)
    rng = np.random.default_rng(BLOCKS.index(block))
    for _ in range(12):
        n_vertices, n_samples = int(rng.integers(3, 7)), int(rng.integers(1, 41))
        ts = np.linspace(0.0, 1.0, n_samples)
        shape = (n_vertices, n_samples)
        if kind == "smooth":
            xs, ys = rng.normal(size=shape).cumsum(axis=1), rng.normal(size=shape).cumsum(axis=1)
        elif kind == "plateaus":
            # few distinct positions: equal gaps, flat runs, constant rows
            xs, ys = rng.integers(-1, 2, size=shape) * 1.0, rng.integers(0, 2, size=shape) * 1.0
        else:
            # distances overflow to inf, so gaps are inf, -inf or NaN
            xs = rng.choice([-1.5e308, 0.0, 1.0, 1.5e308], size=shape)
            ys = rng.choice([0.0, 1e308], size=shape)
        roles = random_roles(rng, n_vertices, int(rng.integers(1, 25)))
        assert_grid_matches_reference(xs, ys, roles, ts)


@pytest.mark.parametrize("block", [1, 4, 1 << 13, 1 << 15])
@pytest.mark.parametrize(
    "gs,want",
    [
        ([1.0, 1.0, 1.0], [0]),
        ([3.0, 1.0, 2.0], [1]),
        ([3.0, 1.0, 1.0, 2.0], [1]),
        ([3.0, 2.0, 1.0], [2]),
        ([1.0, 2.0, 3.0], [0]),
        ([2.0, 1.0, 2.0, 0.0, 2.0], [1, 3]),
    ],
)
def test_grid_stage_local_minima(monkeypatch, block, gs, want):
    # vertex 0 sits at (gap/2, 0) over an edge with both ends at the origin,
    # so the sampled gap is exactly gs
    monkeypatch.setattr(numeric, "GRID_BLOCK", block)
    xs = np.zeros((3, len(gs)))
    xs[0] = np.asarray(gs) / 2
    ys = np.zeros_like(xs)
    roles = np.array([[0], [1], [2]])
    ts = np.arange(len(gs), dtype=float)
    _, found = grid_minima(xs, ys, roles, ts)
    assert sorted(found.tolist()) == want
    assert_grid_matches_reference(xs, ys, roles, ts)


def bracket_bounds(g):
    """The brackets of the kept pairs of ``g``, in code order, then the pairs
    each grid keeps and every pair's bound on each grid."""
    _, _, found, kept, bounds = collide._grid_stage(g, collide._pair_roles(g), DetectionConfig())
    return (np.sort(found).tobytes(), *(k.tobytes() for k in kept), *(b.tobytes() for b in bounds))


@pytest.mark.parametrize("block", [24, 100, 1000])
def test_detection_does_not_depend_on_the_block_size(
    monkeypatch, ref_dixon1, ref_dixon1_result, block
):
    # on this graph 24 makes every block one sample wide, 100 two
    probes = (("p0", ("q0", "p1")), ("p2", ("q0", "p1")), ("q0", ("q2", "p0")))
    want = [detect_pair(ref_dixon1, v, e) for v, e in probes]
    want_bounds = bracket_bounds(ref_dixon1)
    monkeypatch.setattr(numeric, "GRID_BLOCK", block)
    assert detect_all(ref_dixon1) == ref_dixon1_result
    assert [detect_pair(ref_dixon1, v, e) for v, e in probes] == want
    # the smallest samples, and with them the bounds and the kept pairs,
    # come out bit for bit alike
    assert bracket_bounds(ref_dixon1) == want_bounds


def test_one_budget_sets_validation_chunks_and_grid_blocks(monkeypatch, ref_dixon1):
    # both users of the distance kernel read numeric.GRID_BLOCK: at 1,
    # validation takes one edge per table, and the grid stage one sample per
    # block, with one neighbour on each side
    shapes, kernel = [], numeric.distances

    def spy(*args):
        out = kernel(*args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(numeric, "distances", spy)
    monkeypatch.setattr(sampling, "distances", spy)
    monkeypatch.setattr(numeric, "GRID_BLOCK", 1)
    numeric.validate_edge_lengths(ref_dixon1, samples=16)
    assert shapes == [(1, 16)] * len(ref_dixon1.edges)
    shapes.clear()
    xs = np.arange(15.0).reshape(3, 5)
    grid_minima(xs, -xs, np.array([[0], [1], [2]]), np.arange(5.0))
    assert shapes == [(3, 2), (3, 3), (3, 3), (3, 3), (3, 2)]


# ---------------------------------------------------------------------------
# single-pair probing


def test_detect_pair_reference_crossing(ref_dixon1):
    probe = detect_pair(ref_dixon1, "p0", ("q0", "p1"))
    assert probe.collides
    assert not probe.ambiguous
    assert probe.min_gap <= 1e-7
    assert abs(probe.witness_t - HALF_PI) <= 1e-6


def test_detect_pair_canonicalizes_orientation(ref_dixon1):
    probe = detect_pair(ref_dixon1, "p0", ("p1", "q0"))
    assert probe.edge == ("q0", "p1")
    assert probe.collides


def test_detect_pair_clean_miss(ref_dixon1):
    probe = detect_pair(ref_dixon1, "p2", ("q0", "p1"))
    assert not probe.collides
    assert not probe.ambiguous
    assert probe.min_gap > 1e-3


def test_detect_pair_tangential_endpoint_meeting():
    probe = detect_pair(sweep_graph(), "c", ("a", "b"))
    assert probe.collides
    assert probe.min_gap <= 1e-7
    assert abs(probe.witness_t - 3 * HALF_PI) <= 1e-6


def test_detect_pair_argument_errors(ref_dixon1):
    with pytest.raises(ValueError, match="not an edge"):
        detect_pair(ref_dixon1, "p0", ("p1", "p2"))
    with pytest.raises(ValueError, match="unknown vertex"):
        detect_pair(ref_dixon1, "zz", ("q0", "p1"))
    with pytest.raises(ValueError, match="incident"):
        detect_pair(ref_dixon1, "q0", ("q0", "p1"))


def test_detect_pair_matches_detect_all(ref_dixon1, ref_dixon1_result):
    probes = [
        detect_pair(ref_dixon1, v, e)
        for v in ref_dixon1.vertices
        for e in ref_dixon1.edges
        if v not in e
    ]
    assert len(probes) == ref_dixon1_result.probed
    hits = [CollisionPair(p.vertex, p.edge, p.witness_t, p.min_gap) for p in probes if p.collides]
    assert tuple(hits) == ref_dixon1_result.pairs
    assert tuple(p for p in probes if p.ambiguous) == ref_dixon1_result.ambiguous
    assert min(p.min_gap for p in probes if not p.collides) == ref_dixon1_result.clear_margin


# ---------------------------------------------------------------------------
# thresholds


def test_touching_counts_as_collision():
    probe = detect_pair(hover_graph(1e-4), "v", ("s0", "s1"))
    # gap is 2*(sqrt(1+h^2)-1) ~ h^2 = 1e-8, under the collision threshold
    assert probe.collides


def test_ambiguity_band_is_flagged():
    g = hover_graph(7.1e-4)
    probe = detect_pair(g, "v", ("s0", "s1"))
    assert not probe.collides
    assert probe.ambiguous
    assert 1e-7 <= probe.min_gap < AMBIGUITY_FACTOR * 1e-7
    with pytest.warns(RuntimeWarning, match="ambiguity band"):
        result = detect_all(g)
    assert result.pairs == ()
    assert len(result.ambiguous) == 1
    assert result.ambiguous[0].vertex == "v"


def test_clean_miss_sets_margin():
    result = detect_all(hover_graph(0.1))
    assert result.pairs == ()
    assert result.ambiguous == ()
    want = 2.0 * (math.hypot(1.0, 0.1) - 1.0)
    assert math.isclose(result.clear_margin, want, rel_tol=1e-9)


def test_detection_config_validation():
    with pytest.raises(ValueError):
        DetectionConfig(samples=8)
    with pytest.raises(ValueError, match="refinement tolerance"):
        DetectionConfig(collide_eps=1e-13)
    with pytest.raises(ValueError, match="finite"):
        DetectionConfig(collide_eps=math.inf)
    with pytest.raises(ValueError, match="finite"):
        DetectionConfig(collide_eps=math.nan)
    for samples in (2048.0, "2048", True, None):
        with pytest.raises(ValueError, match="samples must be an int"):
            DetectionConfig(samples=samples)


# ---------------------------------------------------------------------------
# whole-graph scans


def test_detect_all_reference(ref_dixon1, ref_dixon1_result):
    result = ref_dixon1_result
    got = tuple((p.vertex, p.edge) for p in result.pairs)
    assert got == DIXON1_REF_PAIRS
    assert result.probed == 60
    assert result.ambiguous == ()
    assert result.clear_margin > 1e-3
    for p in result.pairs:
        assert p.min_gap <= 1e-7
        # the witness moment really is a crossing
        assert abs(gap(ref_dixon1, p.vertex, p.edge, p.witness_t)) <= 1e-7
    for (v, e), t in DIXON1_REF_WITNESS.items():
        [p] = [p for p in result.pairs if (p.vertex, p.edge) == (v, e)]
        assert abs(p.witness_t - t) <= 1e-6


def test_detect_all_is_deterministic(ref_dixon1, ref_dixon1_result):
    again = detect_all(ref_dixon1)
    assert again == ref_dixon1_result


def test_detect_all_respects_domain(ref_dixon1):
    g = ref_dixon1
    half = MovingGraph(g.vertices, g.edges, g.motion, domain=(0.0, math.pi))
    got = {(p.vertex, p.edge) for p in detect_all(half).pairs}
    want = set(DIXON1_REF_PAIRS) - {("p0", ("q0", "p2"))}
    assert got == want


def test_detect_all_on_a_graph_without_vertices():
    # the empty grid has no largest coordinate; nothing is probed
    result = detect_all(MovingGraph((), (), {}))
    assert result.probed == 0
    assert result.pairs == () and result.ambiguous == ()
    assert result.clear_margin is None


def test_detect_all_s2(ref_s2_result):
    got = tuple((p.vertex, p.edge) for p in ref_s2_result.pairs)
    assert got == S2_PAIRS


def test_detect_all_dixon2(ref_dixon2_result):
    got = {(p.vertex, p.edge) for p in ref_dixon2_result.pairs}
    assert got == dixon2_partner_pairs()
    assert len(ref_dixon2_result.pairs) == 24


def test_detect_all_reports_undecidable_pairs():
    g = MovingGraph(
        ("a", "b", "c"),
        (("b", "c"),),
        {
            "a": (E.parse_expression("sqrt(sin(t))"), E.const(0.0)),
            "b": (E.const(0.0), E.const(0.0)),
            "c": (E.const(1.0), E.const(0.0)),
        },
    )
    with pytest.raises(DetectionError) as exc:
        detect_all(g)
    failures = exc.value.failures
    assert len(failures) == 1
    v, e, err = failures[0]
    assert (v, e) == ("a", ("b", "c"))
    assert isinstance(err, E.ExprDomainError)


def refine_error_graph():
    """v's height sqrt((t-c)^2 - 1e-10) is undefined only within 1e-5 of c,
    which lies midway between two grid samples: the grid evaluates, and
    only refinement of the minima near c leaves the domain."""
    ts = np.linspace(0.0, 2 * math.pi, DetectionConfig().samples)
    c = E.const(float((ts[1000] + ts[1001]) / 2))
    dip = E.sqrt(E.sub(E.powi(E.sub(E.tvar(), c), 2), E.const(1e-10)))
    return MovingGraph(
        ("s0", "s1", "v", "w"),
        (("s0", "s1"), ("v", "w")),
        {
            "s0": (E.const(-1.0), E.const(0.0)),
            "s1": (E.const(1.0), E.const(0.0)),
            "v": (E.const(0.0), dip),
            "w": (E.const(0.0), E.const(5.0)),
        },
    )


def test_detect_all_charges_refinement_errors_to_their_pairs():
    with pytest.raises(DetectionError) as exc:
        detect_all(refine_error_graph())
    failures = exc.value.failures
    assert [(v, e) for v, e, _ in failures] == [
        ("s0", ("v", "w")),
        ("s1", ("v", "w")),
        ("v", ("s0", "s1")),
    ]
    assert all(isinstance(err, E.ExprDomainError) for _, _, err in failures)


def test_refinement_error_in_a_merged_shape():
    # u shares v's coordinate shape, so both are evaluated as one merged
    # tree; v's error must still reach exactly the brackets that hit it, at
    # the times the vertex-by-vertex evaluation reports
    ts = np.linspace(0.0, 2 * math.pi, DetectionConfig().samples)
    c = float((ts[1000] + ts[1001]) / 2)

    def dip(center, depth):
        return E.sqrt(E.sub(E.powi(E.sub(E.tvar(), E.const(center)), 2), E.const(depth)))

    g = MovingGraph(
        ("s0", "s1", "v", "w", "u"),
        (("s0", "s1"), ("v", "w"), ("w", "u")),
        {
            "s0": (E.const(-1.0), E.const(0.0)),
            "s1": (E.const(1.0), E.const(0.0)),
            "v": (E.const(0.0), dip(c, 1e-10)),
            "w": (E.const(0.0), E.const(5.0)),
            "u": (E.const(3.0), dip(2.0, -1.0)),
        },
    )
    with pytest.raises(DetectionError) as exc:
        detect_all(g)
    got = [(v, e, err.t) for v, e, err in exc.value.failures]
    assert got == [
        ("s0", ("v", "w"), 3.0709998321574012),
        ("s1", ("v", "w"), 3.0709998321574012),
        ("v", ("s0", "s1"), 3.0709998321574012),
        ("u", ("v", "w"), 3.070990299579947),
    ]
    for _, _, err in exc.value.failures:
        assert str(err) == str(E.ExprDomainError("square root of a negative value", dip(c, 1e-10), err.t))


# ---------------------------------------------------------------------------
# refining only the brackets that can matter


def refine_everything(g, roles, cfg):
    """Detection's probe with every bracket refined: the reference for pruning.

    Returns what ``collide._probe`` returns, then the brackets, in code
    order, and the refined minimum of each.
    """
    ts = np.linspace(g.domain[0], g.domain[1], cfg.samples)
    motion = [g.motion[w] for w in g.vertices]
    xs, ys = np.zeros((2, len(motion), len(ts)))
    grid_err, failures = {}, {}
    for w in range(len(motion)):
        try:
            xs[w], ys[w] = (evaluate(e, ts) for e in motion[w])
        except E.ExprDomainError as err:
            grid_err[w] = err
    for k, trio in enumerate(roles.T.tolist()):
        bad = [grid_err[w] for w in trio if w in grid_err]
        if bad:
            failures[k] = bad[0]
    found = np.sort(grid_minima(xs, ys, roles, ts)[1])
    found = found[[k not in failures for k in (found // len(ts)).tolist()]]
    best_t = np.full(roles.shape[1], ts[0])
    best_v = np.full(roles.shape[1], math.inf)
    minima = np.empty(len(found))
    for s in range(0, len(found), 2048):
        ks, i = np.divmod(found[s : s + 2048], len(ts))
        errors = {}
        f = sampling.bracket_gap(motion, roles[:, ks], ts[i], errors)
        lo, hi = ts[np.maximum(i - 1, 0)], ts[np.minimum(i + 1, len(ts) - 1)]
        t_at, v_at = golden_minimize(f, lo, hi, collide.REFINE_TOL, seeds=(ts[i],))
        minima[s : s + len(ks)] = v_at
        for k in sorted(errors):
            failures.setdefault(int(ks[k]), errors[k])
        for q in range(len(ks)):
            if v_at[q] < best_v[ks[q]]:
                best_t[ks[q]], best_v[ks[q]] = t_at[q], v_at[q]
    return best_t, best_v, failures, found, minima


def outcome(g, cfg=None):
    """The exact text of what detect_all returns, warns and raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = repr(detect_all(g, cfg))
        except DetectionError as err:
            out = repr([(v, e, str(x), getattr(x, "t", None)) for v, e, x in err.failures])
    return out + "".join(f"\nwarning: {w.message}" for w in caught)


def _seeded_dixon1(seed):
    return dixon1(random_dixon1_params(random.Random(seed)))


def seeded_square_dixon1(m, seed):
    """A dixon1 K(m,m) with seeded radii and signs."""
    rng = random.Random(seed)

    def radii():
        return tuple(itertools.accumulate(round(rng.uniform(0.5, 2.0), 3) for _ in range(m - 1)))

    def signs():
        return tuple(rng.choice((1, -1)) for _ in range(m - 1))

    return dixon1(Dixon1Params(m, m, radii(), radii(), signs(), signs()))


def seeded_dixon1_10x10():
    return seeded_square_dixon1(10, 10)


def beyond_graph(x):
    """A vertex at (x, 0), beyond the end (1, 0) of a static segment from
    (-1, 0): the gap is exactly 2(x - 1)."""
    return MovingGraph(
        ("s0", "s1", "v"),
        (("s0", "s1"),),
        {
            "s0": (E.const(-1.0), E.const(0.0)),
            "s1": (E.const(1.0), E.const(0.0)),
            "v": (x, E.const(0.0)),
        },
    )


def two_dips_graph():
    """Two dips of x = 1.006127 + 2(1 - cos(2(t - c))), less a tilt that
    makes the second 2e-6 deeper in gap.  The first sits midway between two
    samples, which average less than any two beside the second; the second
    sits on a sample, the pair's smallest, so refining only the minimum of
    the smallest average would skip the deeper dip."""
    c = 511.5 * 2 * math.pi / (DetectionConfig().samples - 1)
    return beyond_graph(
        E.parse_expression(f"1.006127 + 2*(1 - cos(2*(t - {c!r}))) - {1e-6 / math.pi!r}*t")
    )


def fast_dips_graph():
    """Fifty dips, the first close to the segment, the rest tilted away: one
    pair whose minimum and witness come from one of fifty brackets."""
    return beyond_graph(E.parse_expression("1.00025 + 0.01*(1 - cos(50*(t - 0.1))) + 0.01*(t - 0.1)"))


def cancelling_graph():
    """A static vertex at (3, 0) whose x rounds like 1e9 does: in floating
    point it jitters by ~1e-7, the rounding of (t + 1e9) - 1e9."""
    return beyond_graph(E.parse_expression("3 + (((t + 1000000000) - 1000000000) - t)"))


PRUNING_GRAPHS = {
    "dixon1-6x6": lambda: dixon1(
        Dixon1Params(6, 6, (1.0, 2.0, 3.0, 4.0, 5.0), (1.0, 2.0, 3.0, 4.0, 5.0), (1,) * 5, (1,) * 5)
    ),
    "s2": s2,
    "dixon2-1-2-3": lambda: dixon2(Dixon2Params(1.0, 2.0, 3.0)),
    "ambiguity-band": lambda: hover_graph(7.1e-4),
    "refine-error": refine_error_graph,
    **{f"dixon1-seed{seed}": (lambda seed=seed: _seeded_dixon1(seed)) for seed in range(6)},
    "dixon1-10x10": seeded_dixon1_10x10,
    "two-dips": two_dips_graph,
    "fast-dips": fast_dips_graph,
    "cancelling": cancelling_graph,
}


@pytest.mark.parametrize("name", PRUNING_GRAPHS)
def test_pruned_detection_matches_refining_everything(monkeypatch, name):
    g = PRUNING_GRAPHS[name]()
    got = outcome(g)
    monkeypatch.setattr(collide, "_probe", lambda *a: refine_everything(*a)[:3])
    assert got == outcome(g)


@pytest.mark.parametrize("name", PRUNING_GRAPHS)
def test_bracket_bounds_are_below_their_refined_minima(name):
    # each pair's bound on either grid is at or below every refined minimum
    # of the pair's brackets, and the brackets are exactly the kept pairs'
    g = PRUNING_GRAPHS[name]()
    cfg, roles = DetectionConfig(), collide._pair_roles(g)
    _, _, found, kept, bounds = collide._grid_stage(g, roles, cfg)
    *_, want_found, minima = refine_everything(g, roles, cfg)
    pair = want_found // cfg.samples
    assert np.sort(found).tolist() == want_found[np.isin(pair, kept[-1])].tolist()
    # a bracket that fails reads NaN, never above a bound, and so does the
    # NaN bound of a pair the fine grid does not read
    for bound in bounds:
        assert not np.any(bound[pair] > minima)


@pytest.mark.parametrize("name", ["dixon1-6x6", "two-dips", "fast-dips", "cancelling"])
def test_pruned_detect_pair_matches_refining_everything(monkeypatch, name):
    # every pair of the graph, one at a time
    g = PRUNING_GRAPHS[name]()
    probes = [
        (g.vertices[v], (g.vertices[i], g.vertices[j]))
        for v, i, j in collide._pair_roles(g).T.tolist()
    ]
    got = [detect_pair(g, v, e) for v, e in probes]
    monkeypatch.setattr(collide, "_probe", lambda *a: refine_everything(*a)[:3])
    assert got == [detect_pair(g, v, e) for v, e in probes]


def probe_outcome(g, v, e):
    """What detect_pair returns, or the text and time of what it raises."""
    try:
        return detect_pair(g, v, e)
    except E.ExprDomainError as err:
        return str(err), err.t


@pytest.mark.parametrize("name", PRUNING_GRAPHS)
def test_detection_does_not_depend_on_the_order_of_the_minima(monkeypatch, name):
    # detection sorts the brackets it refines, so any order of the grid's
    # minima gives the same answers
    g = PRUNING_GRAPHS[name]()
    pairs = collide._pair_roles(g).T.tolist()
    probes = [
        (g.vertices[v], (g.vertices[i], g.vertices[j]))
        for v, i, j in pairs[:: max(1, len(pairs) // 24)]
    ]
    want = outcome(g), [probe_outcome(g, v, e) for v, e in probes]
    rng = np.random.default_rng(sorted(PRUNING_GRAPHS).index(name))

    def shuffled(*args, **kw):
        low, found = grid_minima(*args, **kw)
        return low, found[rng.permutation(len(found))]

    monkeypatch.setattr(collide, "grid_minima", shuffled)
    assert (outcome(g), [probe_outcome(g, v, e) for v, e in probes]) == want


def test_pruning_refines_few_brackets():
    # 80 of the 840 brackets of all pairs
    g = PRUNING_GRAPHS["dixon1-6x6"]()
    cfg, roles = DetectionConfig(), collide._pair_roles(g)
    found = collide._grid_stage(g, roles, cfg)[2]
    *_, every, _ = refine_everything(g, roles, cfg)
    assert len(found) <= 0.1 * len(every)


@pytest.mark.parametrize("name,most", [("dixon1-6x6", 0.4), ("dixon1-10x10", 0.1)])
def test_coarse_pass_drops_far_pairs(name, most):
    # 122 of 360 and 156 of 1800 pairs are kept
    g = PRUNING_GRAPHS[name]()
    cfg, roles = DetectionConfig(), collide._pair_roles(g)
    *_, (kept, _), (coarse, _) = collide._grid_stage(g, roles, cfg)
    assert len(kept) <= most * roles.shape[1]
    dropped = np.ones(roles.shape[1], dtype=bool)
    dropped[kept] = False
    # a dropped pair is proved clear, and refines above some proved pair
    proved = coarse >= AMBIGUITY_FACTOR * cfg.collide_eps
    assert np.all(proved[dropped])
    best_v = refine_everything(g, roles, cfg)[1]
    assert best_v[dropped].min() > best_v[proved].min()


@pytest.mark.parametrize("name", ["dixon1-6x6", "dixon1-10x10"])
def test_fine_pass_drops_pairs_the_coarse_pass_kept(name):
    # 122 then 34 of 360, and 156 then 57 of 1800 pairs are kept
    g = PRUNING_GRAPHS[name]()
    cfg, roles = DetectionConfig(), collide._pair_roles(g)
    *_, (read, kept), (_, fine) = collide._grid_stage(g, roles, cfg)
    assert set(kept.tolist()) < set(read.tolist())
    dropped = read[np.isin(read, kept, invert=True)]
    # a pair the fine pass drops is proved clear on the fine grid, and
    # refines above some proved pair the fine pass keeps
    proved = fine >= AMBIGUITY_FACTOR * cfg.collide_eps
    assert np.all(proved[dropped])
    best_v = refine_everything(g, roles, cfg)[1]
    assert best_v[dropped].min() > best_v[kept[proved[kept]]].min()


@pytest.mark.parametrize("name", PRUNING_GRAPHS)
@pytest.mark.parametrize("samples", [16, 17, 33, 2049])
def test_coarse_grid_ends_on_the_last_sample(monkeypatch, samples, name):
    # with 16 samples the last is appended to the coarse grid; with the
    # others every 16th sample already ends on it.  Both grids' bounds lie
    # below every refined minimum
    g = PRUNING_GRAPHS[name]()
    cfg, roles = DetectionConfig(samples=samples), collide._pair_roles(g)
    *_, (coarse, fine) = collide._grid_stage(g, roles, cfg)
    *_, every, minima = refine_everything(g, roles, cfg)
    assert not np.any(coarse[every // samples] > minima)
    assert not np.any(fine[every // samples] > minima)
    got = outcome(g, cfg)
    monkeypatch.setattr(collide, "_probe", lambda *a: refine_everything(*a)[:3])
    assert got == outcome(g, cfg)


def test_coarse_pass_keeps_the_pairs_that_fail_on_the_grid():
    # a's pair fails on the grid, and on its zero-filled samples reads a
    # bound far above w's: both grids keep it all the same; z's pair is
    # dropped
    g = MovingGraph(
        ("s0", "s1", "a", "w", "z"),
        (("s0", "s1"),),
        {
            "s0": (E.const(9.0), E.const(0.0)),
            "s1": (E.const(11.0), E.const(0.0)),
            "a": (E.parse_expression("sqrt(sin(t))"), E.const(0.0)),
            "w": (E.const(10.0), E.const(5.0)),
            "z": (E.const(10.0), E.const(50.0)),
        },
    )
    roles = collide._pair_roles(g)
    _, failures, *_, kept, bounds = collide._grid_stage(g, roles, DetectionConfig())
    named = [g.vertices[v] for v in roles[0].tolist()]
    assert [named[k] for k in failures] == ["a"]
    assert [[named[k] for k in pairs.tolist()] for pairs in kept] == [["a", "w"]] * 2
    assert [math.isnan(bound[named.index("a")]) for bound in bounds] == [True, True]
    with pytest.raises(DetectionError) as exc:
        detect_all(g)
    assert [(v, e) for v, e, _ in exc.value.failures] == [("a", ("s0", "s1"))]


def test_detection_memory_stays_within_budget():
    # the grid stage's blocks and chunks of GRID_BLOCK doubles dominate what
    # detection allocates beyond the grid: 1.7 MB at 1 << 13, 2.5 MB at
    # 1 << 15 and 3.6 MB at 1 << 16 on this K(14,14)
    g = seeded_square_dixon1(14, 14)
    detect_all(g)  # first-call imports and caches are not detection's memory
    tracemalloc.start()
    try:
        detect_all(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_detection_loads_no_numpy_module():
    # each numpy submodule a call loads stays resident, so it would cost
    # every detecting process memory
    code = (
        "import sys\n"
        "from lmodel.collide import detect_all\n"
        "from lmodel.families import Dixon1Params, dixon1\n"
        "g = dixon1(Dixon1Params(6, 6, (1, 2, 3, 4, 5), (1, 2, 3, 4, 5), (1,) * 5, (1,) * 5))\n"
        "before = set(sys.modules)\n"
        "detect_all(g)\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'numpy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"


def narrow_dip_graph():
    """A vertex over the static segment from (-1, 0) to (1, 0) that touches
    it only at t = c, 0.3 of the way from grid sample 1000 to 1001, and
    otherwise hovers 0.1 + 0.05t above it: the sampled gap rises steadily
    past c, so no sampled minimum brackets the dip."""
    ts = np.linspace(0.0, 2 * math.pi, DetectionConfig().samples)
    c = float(ts[1000] + 0.3 * (ts[1001] - ts[1000]))
    near = f"(t - {c!r})^2"
    y = E.parse_expression(f"(0.1 + 0.05*t) * {near} / (1e-12 + {near})")
    g = MovingGraph(
        ("s0", "s1", "v"),
        (("s0", "s1"),),
        {
            "s0": (E.const(-1.0), E.const(0.0)),
            "s1": (E.const(1.0), E.const(0.0)),
            "v": (E.const(0.5), y),
        },
    )
    return g, c


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="only sampled local minima are bracketed; a per-cell Lipschitz certificate "
    "(ROADMAP item 4) would flag this pair",
)
def test_narrow_dip_between_samples_is_a_collision():
    g, c = narrow_dip_graph()
    if gap(g, "v", ("s0", "s1"), c) != 0.0:  # not an AssertionError: the graph itself is wrong
        raise ValueError("the vertex no longer touches the segment")
    assert [(p.vertex, p.edge) for p in detect_all(g).pairs] == [("v", ("s0", "s1"))]


# ---------------------------------------------------------------------------
# file format


def test_pairs_json_round_trip(ref_dixon1, ref_dixon1_result):
    text = pairs_to_json(ref_dixon1_result.pairs, "ref.json", margin=0.08)
    assert pairs_from_json(text, ref_dixon1) == ref_dixon1_result.pairs


def test_pairs_json_canonicalizes_edges(ref_dixon1):
    flipped = (CollisionPair("p0", ("p1", "q0"), HALF_PI, 0.0),)
    text = pairs_to_json(flipped, "ref.json")
    (got,) = pairs_from_json(text, ref_dixon1)
    assert got.edge == ("q0", "p1")


@pytest.mark.parametrize(
    "entry,msg",
    [
        ({"vertex": "p0", "edge": ["q0", "p1"], "t": 0.0}, "needs"),
        ({"vertex": "zz", "edge": ["q0", "p1"], "t": 0.0, "gap": 0.0}, "unknown vertex"),
        ({"vertex": "p0", "edge": ["p1", "p2"], "t": 0.0, "gap": 0.0}, "not an edge"),
        ({"vertex": "q0", "edge": ["q0", "p1"], "t": 0.0, "gap": 0.0}, "incident"),
        ({"vertex": "p0", "edge": ["q0", "p1"], "t": 9.0, "gap": 0.0}, "outside the domain"),
        ({"vertex": "p0", "edge": ["q0", "p1"], "t": "x", "gap": 0.0}, "non-numeric"),
        ({"vertex": "p0", "edge": ["q0", "p1"], "t": True, "gap": 0.0}, "non-numeric"),
        ({"vertex": "p0", "edge": ["q0", "p1"], "t": 0.0, "gap": False}, "non-numeric"),
        ({"vertex": "p0", "edge": ["q0", "p1"], "t": 0.0, "gap": math.nan}, "non-finite"),
        ({"vertex": "p0", "edge": ["q0", "p1"], "t": 0.0, "gap": math.inf}, "non-finite"),
        ({"vertex": "p0", "edge": ["q0", "p1"], "t": 0.0, "gap": -math.inf}, "non-finite"),
        ({"vertex": ["p0"], "edge": ["q0", "p1"], "t": 0.0, "gap": 0.0}, "unknown vertex"),
        ({"vertex": "p0", "edge": [["q0"], "p1"], "t": 0.0, "gap": 0.0}, "not an edge"),
        ({"vertex": "p0", "edge": ["q0", "p1"], "t": 0.0, "gap": 10**400}, "non-finite"),
    ],
)
def test_pairs_json_rejects_bad_entries(ref_dixon1, entry, msg):
    import json

    text = json.dumps({"graph": "g", "pairs": [entry]})
    with pytest.raises(GraphFormatError, match=msg):
        pairs_from_json(text, ref_dixon1)


@needs_digit_limit
def test_pairs_json_rejects_an_integer_past_the_digit_limit(ref_dixon1):
    text = f'{{"graph": "g", "pairs": [{{"vertex": "p0", "edge": ["q0", "p1"], "t": {HUGE_INT}}}]}}'
    with pytest.raises(GraphFormatError, match="invalid JSON: an integer has more than") as err:
        pairs_from_json(text, ref_dixon1)
    assert "set_int_max_str_digits" not in str(err.value)


def test_pairs_json_rejects_json_nested_too_deeply(ref_dixon1):
    with pytest.raises(GraphFormatError, match="invalid JSON: nested too deeply"):
        pairs_from_json('{"graph": "g", "pairs": ' + TOO_DEEP, ref_dixon1)


def test_pairs_json_rejects_bad_shape(ref_dixon1):
    with pytest.raises(GraphFormatError, match="invalid JSON"):
        pairs_from_json("{", ref_dixon1)
    with pytest.raises(GraphFormatError, match="'pairs' array"):
        pairs_from_json("[]", ref_dixon1)
