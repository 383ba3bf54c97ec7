import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmodel import plan
from lmodel.cgraph import (
    CollisionGraph,
    bipartition,
    build_collision_graph,
    find_cycle,
    induced,
    is_acyclic,
    multi_edged_subgraph,
    on_cycle,
    to_dot,
    topo_order,
)
from lmodel.motion import CollisionPair
from lmodel.plan import CyclicGraphError, decide_partition, partition_is_valid

from expected import (
    DIXON1_REF_ARCS,
    DIXON1_REF_TWO_CYCLES,
    DIXON1_REF_UPPER,
    S2_TRIANGLE,
)
from synth import fake_pairs, static_graph


@pytest.fixture(scope="module")
def ref_cgraph(ref_dixon1, ref_dixon1_result):
    return build_collision_graph(ref_dixon1, ref_dixon1_result.pairs)


def test_build_reference_arcs(ref_dixon1, ref_cgraph):
    assert ref_cgraph.nodes == ref_dixon1.edge_labels
    assert ref_cgraph.arcs == DIXON1_REF_ARCS


def test_successors_are_canonically_ordered(ref_cgraph):
    assert ref_cgraph.successors["q0-p0"] == (
        "q0-p1", "q0-p2", "q0-p3", "q1-p0", "q2-p0"
    )
    assert ref_cgraph.successors["q2-p3"] == ()


def test_build_rejects_foreign_pairs(ref_dixon1):
    with pytest.raises(ValueError, match="unknown vertex"):
        build_collision_graph(ref_dixon1, [CollisionPair("zz", ("q0", "p1"), 0.0, 0.0)])
    with pytest.raises(ValueError, match="unknown edge"):
        build_collision_graph(ref_dixon1, [CollisionPair("p0", ("p1", "p2"), 0.0, 0.0)])


def test_collision_graph_validation():
    with pytest.raises(ValueError, match="duplicate"):
        CollisionGraph(("a", "a"), frozenset())
    with pytest.raises(ValueError, match="self-arc"):
        CollisionGraph(("a",), frozenset([("a", "a")]))
    with pytest.raises(ValueError, match="leaves the node set"):
        CollisionGraph(("a",), frozenset([("a", "b")]))


def test_induced_upper_class(ref_cgraph):
    sub = induced(ref_cgraph, DIXON1_REF_UPPER)
    assert sub.nodes == DIXON1_REF_UPPER
    assert sub.arcs == frozenset(
        [
            ("q0-p0", "q0-p1"),
            ("q0-p0", "q0-p2"),
            ("q0-p0", "q0-p3"),
            ("q0-p1", "q0-p3"),
        ]
    )
    ok, witness = is_acyclic(sub)
    assert ok and witness is None


def test_induced_rejects_unknown_nodes(ref_cgraph):
    with pytest.raises(ValueError, match="unknown nodes"):
        induced(ref_cgraph, ["nope"])


def test_full_reference_graph_is_cyclic(ref_cgraph):
    ok, witness = is_acyclic(ref_cgraph)
    assert not ok
    assert witness[0] == witness[-1]
    assert len(witness) >= 3
    for u, v in zip(witness, witness[1:]):
        assert (u, v) in ref_cgraph.arcs


def test_multi_edged_reference(ref_cgraph):
    u = multi_edged_subgraph(ref_cgraph)
    assert u.nodes == ("q0-p1", "q0-p2", "q0-p3", "q1-p0", "q2-p0")
    assert u.edges == DIXON1_REF_TWO_CYCLES


def test_bipartition_reference(ref_cgraph):
    u = multi_edged_subgraph(ref_cgraph)
    bip = bipartition(u)
    assert bip.bipartite
    assert bip.odd_cycle is None
    assert bip.coloring == {
        "q0-p1": 0,
        "q0-p2": 0,
        "q0-p3": 0,
        "q1-p0": 1,
        "q2-p0": 1,
    }
    assert len(bip.components) == 1
    assert set(bip.components[0]) == set(u.nodes)


def test_bipartition_of_empty_structure():
    c = CollisionGraph(("a", "b"), frozenset([("a", "b")]))
    u = multi_edged_subgraph(c)
    assert u.nodes == ()
    assert u.edges == frozenset()
    bip = bipartition(u)
    assert bip.bipartite
    assert bip.coloring == {}
    assert bip.components == ()


def test_s2_odd_cycle_is_the_triangle(ref_s2, ref_s2_result):
    c = build_collision_graph(ref_s2, ref_s2_result.pairs)
    u = multi_edged_subgraph(c)
    bip = bipartition(u)
    assert not bip.bipartite
    assert bip.coloring is None
    cyc = bip.odd_cycle
    assert cyc[0] == cyc[-1]
    assert len(cyc) == 4
    assert set(cyc) == S2_TRIANGLE
    for x, y in zip(cyc, cyc[1:]):
        assert (x, y) in u.edges or (y, x) in u.edges


def test_to_dot_small_graph():
    c = CollisionGraph(("x", "y"), frozenset([("x", "y"), ("y", "x")]))
    assert to_dot(c) == (
        'digraph C {\n'
        '  "x";\n'
        '  "y";\n'
        '  "x" -> "y";\n'
        '  "y" -> "x";\n'
        '  "x" -> "y" [dir=none, color=red];\n'
        '}\n'
    )


def test_to_dot_reference_mentions_every_node(ref_cgraph):
    dot = to_dot(ref_cgraph)
    for lab in ref_cgraph.nodes:
        assert f'"{lab}";' in dot
    assert dot.count("->") == len(ref_cgraph.arcs) + len(DIXON1_REF_TWO_CYCLES)


# ---------------------------------------------------------------------------
# randomized structure properties


def kahn_is_acyclic(c):
    indeg = {n: 0 for n in c.nodes}
    for _, v in c.arcs:
        indeg[v] += 1
    queue = [n for n in c.nodes if indeg[n] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for w in c.successors[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(c.nodes)


def brute_force_split(c):
    """Is there any split of the nodes into two acyclic sides?"""
    for mask in range(2 ** len(c.nodes)):
        up = [n for k, n in enumerate(c.nodes) if mask >> k & 1]
        lo = [n for n in c.nodes if n not in up]
        if kahn_is_acyclic(induced(c, up)) and kahn_is_acyclic(induced(c, lo)):
            return True
    return False


def random_digraph(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    nodes = tuple(f"e{i}" for i in range(n))
    possible = [(a, b) for a in nodes for b in nodes if a != b]
    arcs = rng.sample(possible, rng.randint(0, len(possible)))
    return CollisionGraph(nodes, frozenset(arcs))


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150)
def test_is_acyclic_matches_kahn(seed):
    c = random_digraph(seed)
    ok, witness = is_acyclic(c)
    assert ok == kahn_is_acyclic(c)
    if not ok:
        assert witness[0] == witness[-1]
        for u, v in zip(witness, witness[1:]):
            assert (u, v) in c.arcs


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150)
def test_ordering_core_matches_kahn(seed):
    c = random_digraph(seed)
    acyclic = kahn_is_acyclic(c)
    order = topo_order(c.succ)
    assert (len(order) == len(c.nodes)) == acyclic
    assert any(on_cycle(c.succ, x) for x in range(len(c.nodes))) != acyclic
    if acyclic:
        pos = {c.nodes[x]: k for k, x in enumerate(order)}
        assert all(pos[u] < pos[v] for u, v in c.arcs)


def _swept(c, start, step, alive=None):
    try:
        return list(plan._sweep(c, start, step, alive).items())
    except CyclicGraphError as err:
        return err.cycle


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=127))
@settings(max_examples=200)
def test_masks_match_induced_copies(seed, bits):
    c = random_digraph(seed)
    alive = bytearray(bits >> x & 1 for x in range(len(c.nodes)))
    sub = induced(c, [n for n, a in zip(c.nodes, alive) if a])
    back = [c.index[n] for n in sub.nodes]
    cyc = find_cycle(sub.succ)
    assert find_cycle(c.succ, alive) == (None if cyc is None else [back[x] for x in cyc])
    assert topo_order(c.succ, alive) == [back[x] for x in topo_order(sub.succ)]
    for start, step in ((1, +1), (0, -1)):
        assert _swept(c, start, step, alive) == _swept(sub, start, step)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100)
def test_decide_partition_matches_brute_force(seed):
    c = random_digraph(seed)
    dec = decide_partition(c)
    assert dec.found == brute_force_split(c)
    if dec.found:
        assert partition_is_valid(c, dec.partition)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150)
def test_multi_edged_captures_exactly_the_two_cycles(seed):
    c = random_digraph(seed)
    u = multi_edged_subgraph(c)
    want_nodes = {a for a, b in c.arcs if (b, a) in c.arcs}
    assert set(u.nodes) == want_nodes
    for x, y in u.edges:
        assert c.index[x] < c.index[y]
        assert (x, y) in c.arcs and (y, x) in c.arcs


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100)
def test_induced_on_full_node_set_is_identity(seed):
    c = random_digraph(seed)
    assert induced(c, c.nodes) == c


def test_build_from_synthetic_pairs():
    g = static_graph(4, [("n0", "n1"), ("n1", "n2"), ("n2", "n3")])
    pairs = fake_pairs([("n0", ("n2", "n3")), ("n3", ("n0", "n1"))])
    c = build_collision_graph(g, pairs)
    assert c.arcs == frozenset(
        [("n0-n1", "n2-n3"), ("n2-n3", "n0-n1")]
    )
    u = multi_edged_subgraph(c)
    assert u.edges == frozenset([("n0-n1", "n2-n3")])
