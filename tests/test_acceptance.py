"""Acceptance gate: one test per criterion, one PASS line per criterion.

Each test exercises the full pipeline at the tolerances the package
promises (collision eps 1e-7, clear margins above 1e-3, edge-length
constancy within 1e-9) and enforces a wall-clock budget.  Run with
``pytest tests/test_acceptance.py -v`` for the per-criterion verdict lines.
"""
import json
import math
import random
import time

import numpy as np

from lmodel.cgraph import build_collision_graph
from lmodel.cli import main
from lmodel.collide import detect_all
from lmodel.families import Dixon1Params, Dixon2Params, dixon1, dixon2, s2
from lmodel.numeric import sample_rows, validate_edge_lengths
from lmodel.plan import (
    assign_heights,
    decide_partition,
    dixon1_heights,
    exists_arrangement,
    make_partition,
    verify_collision_free,
)

from expected import (
    DIXON1_REF_HEIGHTS,
    DIXON1_REF_KW,
    DIXON1_REF_PAIRS,
    DIXON1_REF_UPPER,
    S2_HEIGHTS,
    S2_PAIRS,
    S2_TRIANGLE,
)
from synth import (
    brute_force_exists,
    dixon1_rule_pairs,
    dixon2_partner_pairs,
    random_dixon1_params,
    random_instance,
)

COLLIDE_EPS = 1e-7
MARGIN_FLOOR = 1e-3
LENGTH_TOL = 1e-9
GAP_FLOOR = -1e-9


def passed(label: str, detail: str) -> None:
    print(f"PASS  {label}  ({detail})")


def seed77_triples():
    rng = random.Random(77)
    out = []
    for _ in range(2):
        a = rng.uniform(1.0, 1.5)
        b = a + rng.uniform(0.5, 1.0)
        d = a + rng.uniform(0.5, 1.0)
        out.append(Dixon2Params(a, b, d))
    return out


def min_sampled_gap(g, samples: int = 2048) -> float:
    """Smallest vertex-edge gap over the sampling grid, all pairs."""
    ts = np.linspace(g.domain[0], g.domain[1], samples)
    xs, ys, errors = sample_rows(g, range(len(g.vertices)), ts)
    assert not errors
    pos = {v: (xs[w], ys[w]) for w, v in enumerate(g.vertices)}
    worst = math.inf
    for v in g.vertices:
        xv, yv = pos[v]
        for e in g.edges:
            if v == e[0] or v == e[1]:
                continue
            xi, yi = pos[e[0]]
            xj, yj = pos[e[1]]
            gs = (
                np.hypot(xv - xi, yv - yi)
                + np.hypot(xv - xj, yv - yj)
                - np.hypot(xi - xj, yi - yj)
            )
            worst = min(worst, float(gs.min()))
    return worst


def test_criterion_1_reference_detection():
    g = dixon1(Dixon1Params(**DIXON1_REF_KW))
    t0 = time.perf_counter()
    result = detect_all(g)
    dt = time.perf_counter() - t0
    got = tuple((p.vertex, p.edge) for p in result.pairs)
    assert got == DIXON1_REF_PAIRS
    assert all(p.min_gap < COLLIDE_EPS for p in result.pairs)
    assert result.ambiguous == ()
    assert result.clear_margin > MARGIN_FLOOR
    assert dt < 5.0
    passed(
        "criterion 1: reference instance detection",
        f"6/6 pairs, margin {result.clear_margin:.4f}, {dt:.3f}s",
    )


def test_criterion_2_reference_heights_via_cli(tmp_path, capsys):
    gpath = tmp_path / "graph.json"
    ppath = tmp_path / "pairs.json"
    hpath = tmp_path / "heights.json"
    assert main(
        ["generate", "--family", "dixon1", "--m", "4", "--n", "3",
         "--a", "1,2,3", "--b", "1,2", "--sx", "+,-,+", "--sy", "+,-",
         "--out", str(gpath)]
    ) == 0
    assert main(["detect", str(gpath), "--out", str(ppath)]) == 0
    t0 = time.perf_counter()
    assert main(
        ["plan", str(gpath), str(ppath), "--upper", ",".join(DIXON1_REF_UPPER),
         "--out", str(hpath)]
    ) == 0
    dt = time.perf_counter() - t0
    heights = json.loads(hpath.read_text())["heights"]
    assert heights == DIXON1_REF_HEIGHTS
    assert main(["verify", str(gpath), str(ppath), str(hpath)]) == 0
    assert dt < 1.0
    capsys.readouterr()
    passed(
        "criterion 2: reference heights through the CLI",
        f"12 edges match the expected table, plan {dt:.3f}s",
    )


def test_criterion_3_s2_instance():
    t0 = time.perf_counter()
    g = s2()
    result = detect_all(g)
    got = tuple((p.vertex, p.edge) for p in result.pairs)
    assert got == S2_PAIRS
    assert verify_collision_free(g, result.pairs, S2_HEIGHTS).ok

    c = build_collision_graph(g, result.pairs)
    dec = decide_partition(c)
    assert not dec.found
    assert dec.reason == "not-bipartite"
    assert set(dec.odd_cycle) == S2_TRIANGLE

    witness = exists_arrangement(g, result.pairs)
    assert witness is not None
    assert verify_collision_free(g, result.pairs, witness).ok
    dt = time.perf_counter() - t0
    assert dt < 10.0
    passed(
        "criterion 3: the 8-vertex separating instance",
        f"14 pairs, split impossible (triangle witness), exact search finds heights, {dt:.1f}s",
    )


def test_criterion_4_dixon2_instances():
    worst = math.inf
    for p in [Dixon2Params(1.0, 2.0, 3.0)] + seed77_triples():
        t0 = time.perf_counter()
        g = dixon2(p)
        result = detect_all(g)
        got = {(q.vertex, q.edge) for q in result.pairs}
        assert got == dixon2_partner_pairs()
        assert len(result.pairs) == 24
        c = build_collision_graph(g, result.pairs)
        dec = decide_partition(c)
        assert not dec.found
        assert dec.reason == "not-bipartite"
        assert exists_arrangement(g, result.pairs) is None
        dt = time.perf_counter() - t0
        assert dt < 30.0
        worst = min(worst, result.clear_margin)
    assert worst > MARGIN_FLOOR
    passed(
        "criterion 4: fully collision-bound family",
        f"3 instances, 24/24 pairs each, no arrangement exists, margin >= {worst:.3f}",
    )


def test_criterion_5_randomized_axis_family():
    rng = random.Random(20250815)
    t0 = time.perf_counter()
    for _ in range(25):
        p = random_dixon1_params(rng)
        g = dixon1(p)
        result = detect_all(g)
        got = {(q.vertex, q.edge) for q in result.pairs}
        assert got == dixon1_rule_pairs(p), p
        # assign_heights refuses a split with a cyclic class
        part = make_partition(g.edge_labels, [f"q0-p{i}" for i in range(p.m)])
        swept = assign_heights(g, result.pairs, part)
        assert verify_collision_free(g, result.pairs, swept).ok, p
        closed = dixon1_heights(p.m, p.n)
        assert verify_collision_free(g, result.pairs, closed).ok, p
    dt = time.perf_counter() - t0
    assert dt < 120.0
    passed(
        "criterion 5: randomized axis family",
        f"25 seeded instances match the crossing rule and both height schemes, {dt:.1f}s",
    )


def test_criterion_6_exact_decision_against_brute_force():
    rng = random.Random(424242)
    t0 = time.perf_counter()
    yes = 0
    for _ in range(200):
        g, pairs = random_instance(rng, max_edges=8, max_pairs=10)
        witness = exists_arrangement(g, pairs)
        assert (witness is not None) == brute_force_exists(g, pairs)
        if witness is not None:
            yes += 1
            assert verify_collision_free(g, pairs, witness).ok
        dec = decide_partition(build_collision_graph(g, pairs))
        if dec.found:
            heights = assign_heights(g, pairs, dec.partition)
            assert verify_collision_free(g, pairs, heights).ok
    dt = time.perf_counter() - t0
    passed(
        "criterion 6: exact decision vs exhaustive search",
        f"200 seeded instances, 0 mismatches ({yes} solvable), {dt:.1f}s",
    )


def test_criterion_7_numeric_soundness():
    instances = [
        ("axis reference", dixon1(Dixon1Params(**DIXON1_REF_KW))),
        ("separating instance", s2()),
        ("bound family (1,2,3)", dixon2(Dixon2Params(1.0, 2.0, 3.0))),
    ]
    instances += [(f"bound family seed-77 #{i}", dixon2(p)) for i, p in enumerate(seed77_triples())]
    rng = random.Random(20250815)
    instances += [(f"axis seeded #{i}", dixon1(random_dixon1_params(rng))) for i in range(5)]

    worst_gap = math.inf
    worst_dev = 0.0
    for name, g in instances:
        worst_gap = min(worst_gap, min_sampled_gap(g))
        report = validate_edge_lengths(g, samples=512, tol=LENGTH_TOL)
        assert report.passed, name
        worst_dev = max(worst_dev, max(s.max_deviation for s in report.edges))
    assert worst_gap >= GAP_FLOOR
    assert worst_dev <= LENGTH_TOL  # absolute, although validation scales tol by long edges

    # the derived length closes the fourth side: all four relations hold
    p = Dixon2Params(1.0, 2.0, 3.0)
    g = dixon2(p)
    report = validate_edge_lengths(g, samples=512, tol=LENGTH_TOL)
    means = {s.edge: s.mean for s in report.edges}
    for (i, j), want in {
        ("1", "5"): p.a, ("1", "6"): p.b, ("1", "8"): p.d, ("1", "7"): p.c,
    }.items():
        assert abs(means[(i, j)] - want) <= LENGTH_TOL
    passed(
        "criterion 7: numeric soundness",
        f"sampled gap >= {worst_gap:.2e}, edge-length deviation <= {worst_dev:.2e}",
    )
