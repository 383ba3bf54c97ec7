import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmodel import plan
from lmodel.cgraph import CollisionGraph, build_collision_graph
from lmodel.families import Dixon1Params, dixon1
from lmodel.motion import CollisionPair, GraphFormatError, SearchCapError
from lmodel.plan import (
    CyclicGraphError,
    Partition,
    Violation,
    assign_heights,
    cyclic_side,
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
    DIXON1_REF_UPPER,
    S2_HEIGHTS,
    S2_TRIANGLE,
)
from synth import (
    HUGE_INT,
    TOO_DEEP,
    brute_force_exists,
    dixon1_rule_pairs,
    fake_pairs,
    needs_digit_limit,
    random_instance,
    static_graph,
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
    got = plan._sweep(ref_cgraph, 1, +1, plan._mask(ref_cgraph, ref_partition.upper))
    assert got == {"q0-p0": 1, "q0-p1": 2, "q0-p2": 3, "q0-p3": 4}


def test_heights_down_reference_lower_class(ref_cgraph, ref_partition):
    got = plan._sweep(ref_cgraph, 0, -1, plan._mask(ref_cgraph, ref_partition.lower))
    assert got == {
        "q1-p0": 0, "q1-p1": -1, "q1-p2": -2, "q1-p3": -3,
        "q2-p0": -4, "q2-p1": -5, "q2-p2": -6, "q2-p3": -7,
    }


def test_sweep_rejects_cycles(ref_cgraph):
    with pytest.raises(CyclicGraphError) as exc:
        plan._sweep(ref_cgraph, 1, +1, plan._mask(ref_cgraph, ref_cgraph.nodes))
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
    c = CollisionGraph(tuple(nodes), frozenset(arcs))

    everything = bytearray([1]) * n
    up = plan._sweep(c, 1, +1, everything)
    assert sorted(up.values()) == list(range(1, n + 1))
    down = plan._sweep(c, 0, -1, everything)
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
    assert cyclic_side(ref_cgraph, ref_partition) is None
    everything = Partition(tuple(ref_cgraph.nodes), ())
    assert cyclic_side(ref_cgraph, everything) is not None


def test_decide_partition_reference(ref_cgraph):
    dec = decide_partition(ref_cgraph)
    assert dec.found
    assert dec.reason is None
    assert cyclic_side(ref_cgraph, dec.partition) is None
    # both classes come back in canonical node order
    idx = ref_cgraph.index
    for side in (dec.partition.upper, dec.partition.lower):
        assert list(side) == sorted(side, key=idx.__getitem__)


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
    c = CollisionGraph(("w", "x", "y", "z"), frozenset(arcs))
    dec = decide_partition(c)
    assert not dec.found
    assert dec.reason == "exhausted"
    assert dec.odd_cycle is None


def test_decide_partition_checks_every_placed_node():
    # w is two-cycled to a, x, y and z, so they share a side; the directed
    # triangle x -> y -> z -> x misses a, the first of them
    arcs = {("w", n) for n in "axyz"} | {(n, "w") for n in "axyz"}
    arcs |= {("x", "y"), ("y", "z"), ("z", "x")}
    dec = decide_partition(CollisionGraph(("w", "a", "x", "y", "z"), frozenset(arcs)))
    assert dec.reason == "exhausted"


def test_decide_partition_backtracks_a_failed_flip():
    # two-cycles a-b, c-d and c-e; b -> e -> d -> b closes once b, d and e
    # share a side, so the c component's first flip fails and d and e must
    # leave the lower side before the second flip is tried
    arcs = {("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"), ("c", "e"), ("e", "c")}
    arcs |= {("b", "e"), ("e", "d"), ("d", "b")}
    dec = decide_partition(CollisionGraph(("a", "b", "c", "d", "e"), frozenset(arcs)))
    assert dec.partition == Partition(("a", "d", "e"), ("b", "c"))


def test_decide_partition_expansion_budget(monkeypatch):
    # 25 nodes off every two-cycle: no longer refused for their count alone
    nodes = tuple(f"e{i}" for i in range(25))
    c = CollisionGraph(nodes, frozenset())
    dec = decide_partition(c)
    assert dec.found
    assert cyclic_side(c, dec.partition) is None
    # the same search needs 25 expansions, so a budget of 10 runs out
    monkeypatch.setattr(plan, "SPLIT_SEARCH_BUDGET", 10)
    with pytest.raises(SearchCapError, match="10 expansions"):
        decide_partition(c)


def test_exists_expansion_budget(monkeypatch):
    # dixon1 K(6,5): 30 edges, so the exact search makes at least 30 first tries
    p = Dixon1Params(6, 5, range(1, 6), range(1, 5), [1] * 5, [1] * 4)
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


def test_assign_heights_rejects_cyclic_side(ref_dixon1, ref_dixon1_result):
    all_up = Partition(ref_dixon1.edge_labels, ())
    with pytest.raises(CyclicGraphError):
        assign_heights(ref_dixon1, ref_dixon1_result.pairs, all_up)


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
    """Patch ``plan._search`` to run ``real`` counting its expansions and the
    most depths one back-up leaves with their second choice untried; with
    ``blame_all`` every failure blames every earlier depth, which is plain
    chronological backtracking."""
    seen = {"expansions": 0, "widest": 0}

    def search(n, step, undo, budget, what):
        tried = []  # the last choice tried at each depth down to the current one

        def traced(i, b):
            if b:  # the search came back to i: which depths past it never tried a 1?
                seen["widest"] = max(seen["widest"], tried[i + 1 :].count(0))
            else:
                seen["expansions"] += 1
            del tried[i:]
            tried.append(b)
            why = step(i, b)
            return (1 << i) - 1 if blame_all and why is not None else why

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


def _oriented_graph(rng, n, density):
    """Each pair of n nodes joined with probability ``density`` by one arc,
    either way: no two-cycles, and dense enough that the split search backtracks."""
    nodes = tuple(f"e{i}" for i in range(n))
    arcs = [
        (nodes[x], nodes[y]) if rng.random() < 0.5 else (nodes[y], nodes[x])
        for x in range(n)
        for y in range(x + 1, n)
        if rng.random() < density
    ]
    return CollisionGraph(nodes, frozenset(arcs))


def test_backjumping_gives_the_answers_of_plain_backtracking(monkeypatch):
    rng = random.Random(23)
    instances = [random_instance(rng) for _ in range(300)]
    instances += [_mid_size_instance(rng, rng.randint(20, 40)) for _ in range(20)]
    graphs = [_oriented_graph(rng, rng.randint(10, 14), 0.6) for _ in range(100)]
    graphs += [build_collision_graph(g, pairs) for g, pairs in instances]
    real = plan._search

    def widest_jump(run):
        seen = _traced(monkeypatch, real, blame_all=False)
        got = run()
        plain = _traced(monkeypatch, real, blame_all=True)
        assert run() == got
        assert seen["expansions"] <= plain["expansions"]
        assert plain["widest"] == 0
        return seen["widest"]

    assert max(widest_jump(lambda: exists_arrangement(g, pairs)) for g, pairs in instances) >= 2
    assert max(widest_jump(lambda: decide_partition(c)) for c in graphs) >= 2


def test_both_planners_solve_default_dixon1_40x40():
    # 1560 pairs, so a search that recursed once per item or constraint
    # would pass the default recursion limit
    p = Dixon1Params(40, 40, range(1, 40), range(1, 40), [1] * 39, [1] * 39)
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
