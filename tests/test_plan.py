import itertools
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmodel import plan
from lmodel.cgraph import build_collision_graph
from lmodel.families import Dixon2Params, dixon1, dixon2
from lmodel.motion import CollisionPair, GraphFormatError, SearchCapError
from lmodel.plan import (
    CyclicGraphError,
    Partition,
    Violation,
    assign_heights,
    decide_partition,
    dixon1_heights,
    exists_arrangement,
    heights_from_json,
    heights_to_json,
    make_partition,
    verify_collision_free,
)

from expected import (
    DIXON1_43_CLOSED_FORM,
    DIXON1_REF_HEIGHTS,
    DIXON1_REF_PAIRS,
    DIXON1_REF_UPPER,
    S2_HEIGHTS,
    S2_TRIANGLE,
)
from synth import (
    HUGE_INT,
    TOO_DEEP,
    axis_params,
    brute_force_exists,
    class_cycles,
    collision_graph,
    dixon1_rule_pairs,
    dixon2_partner_pairs,
    fake_pairs,
    needs_digit_limit,
    oriented_graph,
    random_instance,
    static_graph,
    two_sat_refutation,
)


@pytest.fixture(scope="module")
def ref_cgraph(ref_dixon1, ref_dixon1_result):
    return build_collision_graph(ref_dixon1, ref_dixon1_result.pairs)


@pytest.fixture(scope="module")
def ref_partition(ref_dixon1):
    return make_partition(ref_dixon1.edge_labels, DIXON1_REF_UPPER)


# ---------------------------------------------------------------------------
# sweeps


def test_heights_up_reference_upper_class(ref_cgraph, ref_partition):
    got = plan._sweep(ref_cgraph, "upper", ref_partition.upper)
    assert got == {"q0-p0": 1, "q0-p1": 2, "q0-p2": 3, "q0-p3": 4}


def test_heights_down_reference_lower_class(ref_cgraph, ref_partition):
    got = plan._sweep(ref_cgraph, "lower", ref_partition.lower)
    assert got == {
        "q1-p0": 0, "q1-p1": -1, "q1-p2": -2, "q1-p3": -3,
        "q2-p0": -4, "q2-p1": -5, "q2-p2": -6, "q2-p3": -7,
    }


def test_sweep_rejects_cycles(ref_cgraph):
    with pytest.raises(CyclicGraphError) as exc:
        plan._sweep(ref_cgraph, "upper", ref_cgraph.nodes)
    assert exc.value.side == "upper"
    cyc = exc.value.cycle
    assert cyc[0] == cyc[-1]
    for u, v in zip(cyc, cyc[1:]):
        assert (u, v) in ref_cgraph.arcs


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100)
def test_sweep_heights_respect_arcs(seed):
    # random DAG: arcs only point forward in a shuffled node order
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    nodes = [f"e{i}" for i in range(n)]
    order = nodes[:]
    rng.shuffle(order)
    rank = {lab: i for i, lab in enumerate(order)}
    possible = [(a, b) for a in nodes for b in nodes if rank[a] < rank[b]]
    arcs = rng.sample(possible, rng.randint(0, len(possible)))
    c = collision_graph(nodes, arcs)

    up = plan._sweep(c, "upper", nodes)
    assert sorted(up.values()) == list(range(1, n + 1))
    down = plan._sweep(c, "lower", nodes)
    assert sorted(down.values()) == list(range(-(n - 1), 1))
    for u, v in c.arcs:
        assert up[u] < up[v]
        assert down[u] > down[v]


# ---------------------------------------------------------------------------
# partitions


def test_make_partition_keeps_canonical_order(ref_dixon1):
    p = make_partition(ref_dixon1.edge_labels, reversed(DIXON1_REF_UPPER))
    assert p.upper == DIXON1_REF_UPPER
    assert p.lower == ref_dixon1.edge_labels[4:]


def test_make_partition_rejects_unknown_labels(ref_dixon1):
    with pytest.raises(ValueError, match="unknown edge labels"):
        make_partition(ref_dixon1.edge_labels, ["zz-p0"])


def test_partition_validity(ref_cgraph, ref_partition):
    assert class_cycles(ref_cgraph, ref_partition) == (None, None)
    everything = Partition(tuple(ref_cgraph.nodes), ())
    assert class_cycles(ref_cgraph, everything)[0] is not None


def test_decide_partition_reference(ref_cgraph):
    dec = decide_partition(ref_cgraph)
    assert dec.found
    assert dec.reason is None
    assert class_cycles(ref_cgraph, dec.partition) == (None, None)
    # both classes come back in canonical node order
    for side in (dec.partition.upper, dec.partition.lower):
        assert list(side) == sorted(side, key=ref_cgraph.nodes.index)


def test_decide_partition_s2(ref_s2, ref_s2_result):
    c = build_collision_graph(ref_s2, ref_s2_result.pairs)
    dec = decide_partition(c)
    assert not dec.found
    assert dec.reason == "not-bipartite"
    assert set(dec.odd_cycle) == S2_TRIANGLE


def test_decide_partition_dixon2(ref_dixon2, ref_dixon2_result):
    c = build_collision_graph(ref_dixon2, ref_dixon2_result.pairs)
    dec = decide_partition(c)
    assert not dec.found
    assert dec.reason == "not-bipartite"
    cyc = dec.odd_cycle
    assert cyc[0] == cyc[-1]
    assert (len(cyc) - 1) % 2 == 1


def test_decide_partition_exhausted():
    # w is two-cycled to x, y and z, so they must share a side; that side
    # then carries the directed triangle x -> y -> z -> x
    arcs = set()
    for n in ("x", "y", "z"):
        arcs.add(("w", n))
        arcs.add((n, "w"))
    arcs |= {("x", "y"), ("y", "z"), ("z", "x")}
    c = collision_graph(("w", "x", "y", "z"), arcs)
    dec = decide_partition(c)
    assert not dec.found
    assert dec.reason == "exhausted"
    assert dec.odd_cycle is None


def test_decide_partition_checks_every_placed_node():
    # w is two-cycled to a, x, y and z, so they share a side; the directed
    # triangle x -> y -> z -> x misses a, the first of them
    arcs = {("w", n) for n in "axyz"} | {(n, "w") for n in "axyz"}
    arcs |= {("x", "y"), ("y", "z"), ("z", "x")}
    dec = decide_partition(collision_graph(("w", "a", "x", "y", "z"), arcs))
    assert dec.reason == "exhausted"


def test_decide_partition_backtracks_a_failed_flip():
    # two-cycles a-b, c-d and c-e; b -> e -> d -> b closes once b, d and e
    # share a side, so the c component's first flip fails and d and e must
    # leave the lower side before the second flip is tried
    arcs = {("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"), ("c", "e"), ("e", "c")}
    arcs |= {("b", "e"), ("e", "d"), ("d", "b")}
    dec = decide_partition(collision_graph(("a", "b", "c", "d", "e"), arcs))
    assert dec.partition == Partition(("a", "d", "e"), ("b", "c"))


def test_decide_partition_expansion_budget(monkeypatch):
    # 25 nodes off every two-cycle: no longer refused for their count alone
    nodes = tuple(f"e{i}" for i in range(25))
    c = collision_graph(nodes, ())
    dec = decide_partition(c)
    assert dec.found
    assert class_cycles(c, dec.partition) == (None, None)
    # the same search needs 25 expansions, so a budget of 10 runs out
    monkeypatch.setattr(plan, "SPLIT_SEARCH_BUDGET", 10)
    with pytest.raises(SearchCapError, match="10 expansions"):
        decide_partition(c)


def test_exists_expansion_budget(monkeypatch):
    # dixon1 K(6,5): 30 edges, so the exact search makes at least 30 first tries
    p = axis_params(6, 5)
    g = dixon1(p)
    pairs = fake_pairs(sorted(dixon1_rule_pairs(p)))
    assert len(g.edges) == 30
    assert exists_arrangement(g, pairs) is not None
    monkeypatch.setattr(plan, "EXACT_SEARCH_BUDGET", 10)
    with pytest.raises(SearchCapError, match="exact search ran past 10 expansions"):
        exists_arrangement(g, pairs)


# ---------------------------------------------------------------------------
# assignment and verification


def test_assign_heights_reference(ref_dixon1, ref_dixon1_result, ref_partition):
    got = assign_heights(ref_dixon1, ref_dixon1_result.pairs, ref_partition)
    assert got == DIXON1_REF_HEIGHTS


def test_assign_heights_validates_cover(ref_dixon1, ref_dixon1_result):
    with pytest.raises(ValueError, match="disjoint"):
        assign_heights(
            ref_dixon1,
            ref_dixon1_result.pairs,
            Partition(("q0-p0",), ("q0-p0",) + ref_dixon1.edge_labels[1:]),
        )
    with pytest.raises(ValueError, match="disjoint"):
        assign_heights(ref_dixon1, ref_dixon1_result.pairs, Partition((), ()))


def test_assign_heights_rejects_cyclic_side(ref_dixon1, ref_dixon1_result, ref_cgraph):
    # the first cyclic class, upper before lower, with find_cycle's witness on its mask
    labels = ref_dixon1.edge_labels
    for split, side in (
        (Partition(labels, ()), "upper"),
        (Partition((), labels), "lower"),
        (make_partition(labels, ["q0-p0"]), "lower"),
    ):
        with pytest.raises(CyclicGraphError) as exc:
            assign_heights(ref_dixon1, ref_dixon1_result.pairs, split)
        assert exc.value.side == side
        witness = class_cycles(ref_cgraph, split)[side == "lower"]
        assert exc.value.cycle == tuple(ref_cgraph.nodes[x] for x in witness)
        assert str(exc.value) == "graph has a directed cycle: " + " -> ".join(exc.value.cycle)


def test_verify_reference_tables(ref_dixon1, ref_dixon1_result, ref_s2, ref_s2_result):
    assert verify_collision_free(
        ref_dixon1, ref_dixon1_result.pairs, DIXON1_REF_HEIGHTS
    ).ok
    assert verify_collision_free(ref_s2, ref_s2_result.pairs, S2_HEIGHTS).ok


def test_verify_reports_violations(ref_dixon1, ref_dixon1_result):
    broken = dict(DIXON1_REF_HEIGHTS)
    broken["q0-p3"] = 0
    report = verify_collision_free(ref_dixon1, ref_dixon1_result.pairs, broken)
    assert not report.ok
    assert report.violations == (
        Violation("p0", ("q0", "p3"), 0, -4, 1),
        Violation("p1", ("q0", "p3"), 0, -5, 2),
        Violation("q0", ("q1", "p0"), 0, 0, 3),
    )


def test_verify_validates_inputs(ref_dixon1, ref_dixon1_result):
    partial = dict(DIXON1_REF_HEIGHTS)
    del partial["q2-p3"]
    with pytest.raises(ValueError, match="missing height"):
        verify_collision_free(ref_dixon1, ref_dixon1_result.pairs, partial)
    extra = dict(DIXON1_REF_HEIGHTS, **{"zz-zz": 0})
    with pytest.raises(ValueError, match="unknown edge"):
        verify_collision_free(ref_dixon1, ref_dixon1_result.pairs, extra)
    with pytest.raises(ValueError, match="unknown vertex"):
        verify_collision_free(
            ref_dixon1,
            [CollisionPair("zz", ("q0", "p1"), 0.0, 0.0)],
            DIXON1_REF_HEIGHTS,
        )


_PATH = static_graph(3, [("n0", "n1"), ("n1", "n2")])


@pytest.mark.parametrize(
    "call",
    [
        build_collision_graph,
        lambda g, pairs: verify_collision_free(g, pairs, {"n0-n1": 0, "n1-n2": 1}),
        exists_arrangement,
        lambda g, pairs: assign_heights(g, pairs, Partition(("n0-n1",), ("n1-n2",))),
    ],
    ids=["build_collision_graph", "verify_collision_free", "exists_arrangement", "assign_heights"],
)
def test_incident_pairs_are_rejected(call):
    with pytest.raises(ValueError, match="incident"):
        call(_PATH, fake_pairs([("n1", ("n1", "n2"))]))


def test_flipped_pairs_plan_like_canonical_pairs(ref_dixon1, ref_dixon1_result, ref_partition):
    pairs = ref_dixon1_result.pairs
    flipped = fake_pairs((p.vertex, p.edge[::-1]) for p in pairs)
    assert [p.edge for p in flipped] != [p.edge for p in pairs]
    c = build_collision_graph(ref_dixon1, pairs)
    assert build_collision_graph(ref_dixon1, flipped) == c
    assert decide_partition(build_collision_graph(ref_dixon1, flipped)) == decide_partition(c)
    heights = assign_heights(ref_dixon1, pairs, ref_partition)
    assert assign_heights(ref_dixon1, flipped, ref_partition) == heights
    broken = dict(DIXON1_REF_HEIGHTS, **{"q0-p3": 0})
    for h in (heights, broken):
        want = verify_collision_free(ref_dixon1, pairs, h)
        assert verify_collision_free(ref_dixon1, flipped, h) == want
    assert exists_arrangement(ref_dixon1, flipped) == exists_arrangement(ref_dixon1, pairs)


def test_verify_isolated_vertex_constrains_nothing():
    g = static_graph(3, [("n0", "n1")])
    pairs = fake_pairs([("n2", ("n0", "n1"))])
    assert verify_collision_free(g, pairs, {"n0-n1": 0}).ok


# ---------------------------------------------------------------------------
# exact decision


def test_exists_reference_instances(
    ref_dixon1, ref_dixon1_result, ref_s2, ref_s2_result, ref_dixon2, ref_dixon2_result
):
    w1 = exists_arrangement(ref_dixon1, ref_dixon1_result.pairs)
    assert w1 is not None
    assert verify_collision_free(ref_dixon1, ref_dixon1_result.pairs, w1).ok

    w2 = exists_arrangement(ref_s2, ref_s2_result.pairs)
    assert w2 is not None
    assert verify_collision_free(ref_s2, ref_s2_result.pairs, w2).ok

    assert exists_arrangement(ref_dixon2, ref_dixon2_result.pairs) is None


def test_exists_with_no_pairs_uses_canonical_order():
    g = static_graph(4, [("n0", "n1"), ("n1", "n2"), ("n2", "n3")])
    assert exists_arrangement(g, ()) == {"n0-n1": 0, "n1-n2": 1, "n2-n3": 2}


def test_exists_verifies_every_pair_of_a_generator(ref_dixon1, ref_dixon1_result, monkeypatch):
    seen = []
    real = plan.verify_collision_free

    def spy(g, pairs, heights):
        pairs = tuple(pairs)
        seen.append(len(pairs))
        return real(g, pairs, heights)

    monkeypatch.setattr(plan, "verify_collision_free", spy)
    pairs = ref_dixon1_result.pairs
    assert exists_arrangement(ref_dixon1, (p for p in pairs)) is not None
    assert seen == [len(pairs)] == [6]


def test_exists_validates_pairs(ref_dixon1):
    with pytest.raises(ValueError, match="unknown vertex"):
        exists_arrangement(ref_dixon1, [CollisionPair("zz", ("q0", "p1"), 0.0, 0.0)])
    with pytest.raises(ValueError, match="unknown edge"):
        exists_arrangement(ref_dixon1, [CollisionPair("p0", ("p1", "p2"), 0.0, 0.0)])


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=75)
def test_exists_matches_brute_force(seed):
    rng = random.Random(seed)
    g, pairs = random_instance(rng, max_edges=6, max_pairs=8)
    got = exists_arrangement(g, pairs)
    assert (got is not None) == brute_force_exists(g, pairs)
    if got is not None:
        assert verify_collision_free(g, pairs, got).ok


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=75)
def test_partition_route_is_sound(seed):
    rng = random.Random(seed)
    g, pairs = random_instance(rng, max_edges=6, max_pairs=8)
    c = build_collision_graph(g, pairs)
    dec = decide_partition(c)
    if dec.found:
        heights = assign_heights(g, pairs, dec.partition)
        assert verify_collision_free(g, pairs, heights).ok
        # a found split implies the exact decision is YES as well
        assert exists_arrangement(g, pairs) is not None


def _traced(monkeypatch, real, blame_all):
    """Patch ``plan._search`` to run ``real`` counting the first tries it
    calls ``step`` on and the most depths one back-up leaves with their
    second choice untried; with ``blame_all`` every failure blames every
    earlier depth, which is plain chronological backtracking.

    The search answers a try from a remembered failure without calling
    ``step``.  Plain backtracking meets no choices twice, so it calls
    ``step`` on every try and its count is its expansions.  Only failures
    are answered from memory, so the choices that stand are those of the
    calls that stood, and a back-up is measured where both tries of a depth
    fail in calls: a lower bound on the widest one."""
    seen = {"expansions": 0, "widest": 0}

    def search(n, step, undo, budget, what):
        chosen = []  # the standing choices
        zero = None  # (depth, what it rests on) when the last call was a failed 0

        def traced(i, b):
            nonlocal zero
            del chosen[i:]
            assert len(chosen) == i
            seen["expansions"] += not b
            why = step(i, b)
            if blame_all and why is not None:
                why = (1 << i) - 1
            if why is None:
                chosen.append(b)
            elif b and zero is not None and zero[0] == i:  # both failed: which depths does it drop?
                keep = (zero[1] | why).bit_length()
                seen["widest"] = max(seen["widest"], chosen[keep:].count(0))
            zero = (i, why) if why is not None and not b else None
            return why

        return real(n, traced, undo, budget, what)

    monkeypatch.setattr(plan, "_search", search)
    return seen


def _mid_size_instance(rng, size):
    """``size`` random edges on about size/2.5 vertices, 1.2 to 1.5 pairs an edge."""
    nv = rng.randint(round(size * 0.35), size // 2)
    edges = rng.sample([(f"n{a}", f"n{b}") for a in range(nv) for b in range(a + 1, nv)], size)
    g = static_graph(nv, edges)
    cand = [(v, e) for v in g.vertices for e in g.edges if v not in e]
    return g, fake_pairs(rng.sample(cand, round(size * rng.uniform(1.2, 1.5))))


def test_backjumping_gives_the_answers_of_plain_backtracking(monkeypatch):
    rng = random.Random(23)
    instances = [random_instance(rng) for _ in range(300)]
    instances += [_mid_size_instance(rng, rng.randint(20, 40)) for _ in range(20)]
    graphs = [oriented_graph(rng, rng.randint(10, 14), 0.6) for _ in range(100)]
    graphs += [build_collision_graph(g, pairs) for g, pairs in instances]
    real = plan._search

    def widest_jump(run, budget):
        seen = _traced(monkeypatch, real, blame_all=False)
        got = run()
        plain = _traced(monkeypatch, real, blame_all=True)
        assert run() == got
        assert plain["widest"] == 0
        # the real search decides within plain backtracking's expansions
        limit = getattr(plan, budget)
        monkeypatch.setattr(plan, "_search", real)
        monkeypatch.setattr(plan, budget, plain["expansions"])
        assert run() == got
        monkeypatch.setattr(plan, budget, limit)
        return seen["widest"]

    for budget, runs in (
        ("EXACT_SEARCH_BUDGET", [partial(exists_arrangement, g, pairs) for g, pairs in instances]),
        ("SPLIT_SEARCH_BUDGET", [partial(decide_partition, c) for c in graphs]),
    ):
        assert max(widest_jump(run, budget) for run in runs) >= 2


def _first_solution(n, nogoods):
    """The first of the 2^n choices, item 0 first and 0 before 1, that no
    nogood (a mask of items, and the choices there) matches; None if none."""
    for k in range(1 << n):
        x = int(format(k, f"0{n}b")[::-1], 2) if n else 0
        if not any(x & mask == bits for mask, bits in nogoods):
            return [x >> i & 1 for i in range(n)]
    return None


def test_search_remembers_failures_on_synthetic_nogoods():
    # step(i, b) fails when a nogood whose deepest item is i matches the
    # standing choices, and names that nogood's other items
    rng = random.Random(25)
    for _ in range(300):
        n = rng.randint(1, 14)
        nogoods = []
        for _ in range(rng.randint(0, 3 * n)):
            items = rng.sample(range(n), rng.randint(1, min(n, 4)))
            mask = sum(1 << i for i in items)
            nogoods.append((mask, sum(rng.randint(0, 1) << i for i in items)))
        cur = 0  # bit i holds the choice standing at item i
        last = {}  # (i, b) -> its last failure's mask, and the choices that stood there

        def step(i, b):
            nonlocal cur
            if (i, b) in last:  # called again only once the choices it rested on changed
                why, held = last[i, b]
                assert (cur ^ held) & why
            cur |= b << i
            for mask, bits in nogoods:
                if mask.bit_length() == i + 1 and cur & mask == bits:
                    why = mask & ~(1 << i)
                    last[i, b] = why, cur & why
                    return why
            return None

        def undo(i, b):
            nonlocal cur
            cur &= ~(1 << i)

        found = plan._search(n, step, undo, 1 << 20, "test search")
        want = _first_solution(n, nogoods)
        assert ([cur >> i & 1 for i in range(n)] if found else None) == want


def test_both_planners_solve_default_dixon1_40x40():
    # 1560 pairs, so a search that recursed once per item or constraint
    # would pass the default recursion limit
    p = axis_params(40, 40)
    g = dixon1(p)
    pairs = fake_pairs(sorted(dixon1_rule_pairs(p)))
    dec = decide_partition(build_collision_graph(g, pairs))
    assert dec.found
    assert verify_collision_free(g, pairs, assign_heights(g, pairs, dec.partition)).ok
    witness = exists_arrangement(g, pairs)
    assert witness is not None
    assert verify_collision_free(g, pairs, witness).ok


# ---------------------------------------------------------------------------
# closed form


def test_dixon1_heights_table():
    assert dixon1_heights(4, 3) == DIXON1_43_CLOSED_FORM
    assert dixon1_heights(1, 1) == {"q0-p0": 1}
    assert dixon1_heights(2, 2) == {
        "q0-p0": 1, "q0-p1": 2, "q1-p0": 0, "q1-p1": -1
    }
    with pytest.raises(ValueError):
        dixon1_heights(0, 1)


def test_dixon1_heights_verify_on_reference(ref_dixon1, ref_dixon1_result):
    heights = dixon1_heights(4, 3)
    assert verify_collision_free(ref_dixon1, ref_dixon1_result.pairs, heights).ok


# The Dixon-1 theorem as a certificate: dixon1_heights(m, n) is
# collision-free for every sign vector.  The crossing rule adds an outer
# pair only where two signs agree, so every sign vector's pair set lies in
# the all-equal one's; sign vectors move no edge label, and each pair is
# verified alone, so heights that verify on the all-equal set verify on
# every subset of it.  Detection matching the rule is checked on sampled
# parameters only (acceptance criterion 5).


def test_dixon1_rule_pairs_lie_in_the_all_equal_set():
    vectors = 0
    for m, n in itertools.product(range(1, 7), repeat=2):
        top = dixon1_rule_pairs(axis_params(m, n))
        for sx in itertools.product((1, -1), repeat=m - 1):
            for sy in itertools.product((1, -1), repeat=n - 1):
                assert dixon1_rule_pairs(axis_params(m, n, sx, sy)) <= top, (sx, sy)
                vectors += 1
    assert vectors == 3969


def test_dixon1_heights_verify_on_the_all_equal_set():
    sizes = [*itertools.product(range(1, 13), repeat=2), *((k, k) for k in range(13, 41))]
    assert len(sizes) == 172
    for m, n in sizes:
        p = axis_params(m, n)
        pairs = fake_pairs(sorted(dixon1_rule_pairs(p)))
        assert verify_collision_free(dixon1(p), pairs, dixon1_heights(m, n)).ok, (m, n)


# The Dixon-2 theorem as a certificate: no arrangement exists for any
# parameters.  The crossing rule has no parameters: the same 24 pairs on the
# same K(4,4) whenever b > a and d > a.  ``exists`` loses nothing by putting
# each pair's edge below or above every edge at its vertex, and a 2-SAT
# refutation from those choices' two-cycles alone rules every choice set
# out, so it proves the NO for every parameter choice.  Detection matching
# the rule is checked on sampled parameters only (acceptance criterion 4).


def test_dixon2_no_rests_on_a_six_pair_refutation(ref_dixon1):
    edges = [(str(i), str(j)) for i in range(1, 5) for j in range(5, 9)]
    assert dixon2(Dixon2Params(1.0, 2.0, 3.0)).edges == tuple(edges)
    pairs = dixon2_partner_pairs()
    steps = two_sat_refutation(edges, pairs)

    def arcs(pair, above):
        """(lower, upper) edges: the pair's edge below or above every edge at its vertex."""
        v, e = pair
        return {(f, e) if above else (e, f) for f in edges if v in f}

    x = steps[0][0]
    assert (x[0], not x[1]) in [z for _, z, _ in steps[:-1]]
    for (y, z, (lower, upper)), after in zip(steps, steps[1:] + steps[:1]):
        assert y[0] in pairs and z[0] in pairs and y[0] != z[0]
        assert after[0] == z  # the steps close a walk x -> ... -> not x -> ... -> x
        # choice y and the other choice of z's pair close a two-cycle, so y forces z
        assert (lower, upper) in arcs(*y)
        assert (upper, lower) in arcs(z[0], not z[1])
    assert len({y[0] for y, _, _ in steps}) == 6
    assert len(steps) == 12
    # the pairs of a YES instance have no refutation
    assert two_sat_refutation(ref_dixon1.edges, DIXON1_REF_PAIRS) is None


# ---------------------------------------------------------------------------
# file format


def test_heights_json_round_trip(ref_dixon1, ref_partition):
    text = heights_to_json(ref_dixon1.edge_labels, DIXON1_REF_HEIGHTS, ref_partition)
    heights, part = heights_from_json(text)
    assert heights == DIXON1_REF_HEIGHTS
    assert part == ref_partition

    bare = heights_to_json(ref_dixon1.edge_labels, DIXON1_REF_HEIGHTS)
    heights, part = heights_from_json(bare)
    assert heights == DIXON1_REF_HEIGHTS
    assert part is None


@needs_digit_limit
def test_heights_json_rejects_an_integer_past_the_digit_limit():
    with pytest.raises(GraphFormatError, match="invalid JSON: an integer has more than") as err:
        heights_from_json(f'{{"heights": {{"a-b": {HUGE_INT}}}}}')
    assert "set_int_max_str_digits" not in str(err.value)


def test_heights_json_rejects_json_nested_too_deeply():
    with pytest.raises(GraphFormatError, match="invalid JSON: nested too deeply"):
        heights_from_json('{"heights": ' + TOO_DEEP)


def test_heights_json_rejects_bad_data():
    with pytest.raises(GraphFormatError, match="invalid JSON"):
        heights_from_json("{")
    with pytest.raises(GraphFormatError, match="'heights' mapping"):
        heights_from_json('{"nope": 1}')
    with pytest.raises(GraphFormatError, match="must be an integer"):
        heights_from_json('{"heights": {"a-b": 1.5}}')
    with pytest.raises(GraphFormatError, match="must be an integer"):
        heights_from_json('{"heights": {"a-b": true}}')
    with pytest.raises(GraphFormatError, match="'upper' and 'lower'"):
        heights_from_json('{"heights": {"a-b": 1}, "partition": {"upper": []}}')
