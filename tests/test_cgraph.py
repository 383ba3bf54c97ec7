import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmodel import plan
from lmodel.cgraph import (
    CollisionGraph,
    build_collision_graph,
    find_cycle,
    on_cycle,
    to_dot,
    topo_order,
    two_colour,
)
from lmodel.motion import CollisionPair
from lmodel.plan import CyclicGraphError, Partition, assign_heights, decide_partition

from expected import (
    DIXON1_REF_ARCS,
    DIXON1_REF_TWO_CYCLES,
    DIXON1_REF_UPPER,
    S2_TRIANGLE,
)
from synth import (
    class_cycles,
    collision_graph,
    fake_pairs,
    random_partners,
    static_graph,
    two_colour_reference,
)


@pytest.fixture(scope="module")
def ref_cgraph(ref_dixon1, ref_dixon1_result):
    return build_collision_graph(ref_dixon1, ref_dixon1_result.pairs)


def test_build_reference_arcs(ref_dixon1, ref_cgraph):
    assert ref_cgraph.nodes == ref_dixon1.edge_labels
    assert ref_cgraph.arcs == DIXON1_REF_ARCS


def induced(c, keep):
    """Reference for the node masks: the subgraph of c on the nodes in keep, as a copy."""
    keep = set(keep)
    nodes = [n for n in c.nodes if n in keep]
    return collision_graph(nodes, [(u, v) for u, v in c.arcs if u in keep and v in keep])


def labels(c, xs):
    return tuple(c.nodes[x] for x in xs)


def test_successors_are_canonically_ordered(ref_cgraph):
    index = ref_cgraph.nodes.index
    assert labels(ref_cgraph, ref_cgraph.succ[index("q0-p0")]) == (
        "q0-p1", "q0-p2", "q0-p3", "q1-p0", "q2-p0"
    )
    assert ref_cgraph.succ[index("q2-p3")] == ()


def test_build_rejects_foreign_pairs(ref_dixon1):
    with pytest.raises(ValueError, match="unknown vertex"):
        build_collision_graph(ref_dixon1, [CollisionPair("zz", ("q0", "p1"), 0.0, 0.0)])
    with pytest.raises(ValueError, match="unknown edge"):
        build_collision_graph(ref_dixon1, [CollisionPair("p0", ("p1", "p2"), 0.0, 0.0)])


def test_collision_graph_validation():
    with pytest.raises(ValueError, match="duplicate"):
        CollisionGraph(("a", "a"), [(), ()])
    with pytest.raises(ValueError, match="self-arc"):
        CollisionGraph(("a",), [(0,)])
    with pytest.raises(ValueError, match="leaves the node set"):
        CollisionGraph(("a",), [(1,)])
    with pytest.raises(ValueError, match="leaves the node set"):
        CollisionGraph(("a", "b"), [(-1,), ()])
    for row in ((2, 1), (1, 1)):
        with pytest.raises(ValueError, match="not ascending and unrepeated"):
            CollisionGraph(("a", "b", "c"), [row, (), ()])
    for rows in ([(1,)], [(1,), (), ()]):
        with pytest.raises(ValueError, match="rows of heads for 2 nodes"):
            CollisionGraph(("a", "b"), rows)
    assert CollisionGraph(iter("ab"), iter([[1], []])) == (("a", "b"), ((1,), ()))


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
    assert find_cycle(sub.succ) is None


def test_induced_rejects_unknown_nodes(ref_dixon1, ref_dixon1_result):
    # a class of a split is a node mask, and a mask knows only the graph's nodes
    split = Partition(("nope",), ref_dixon1.edge_labels)
    with pytest.raises(ValueError, match="split the edge set"):
        assign_heights(ref_dixon1, ref_dixon1_result.pairs, split)


def test_full_reference_graph_is_cyclic(ref_cgraph):
    witness = labels(ref_cgraph, find_cycle(ref_cgraph.succ))
    assert witness[0] == witness[-1]
    assert len(witness) >= 3
    for u, v in zip(witness, witness[1:]):
        assert (u, v) in ref_cgraph.arcs


def test_multi_edged_reference(ref_cgraph):
    c = ref_cgraph
    assert tuple(n for n, ys in zip(c.nodes, c.partners) if ys) == (
        "q0-p1", "q0-p2", "q0-p3", "q1-p0", "q2-p0"
    )
    assert frozenset(labels(c, xy) for xy in c.two_cycles) == DIXON1_REF_TWO_CYCLES


def test_bipartition_reference(ref_cgraph):
    components, odd_cycle = two_colour(ref_cgraph.partners)
    assert odd_cycle is None
    # one component, coloured by BFS parity from q0-p1, in BFS order
    assert [(labels(ref_cgraph, zero), labels(ref_cgraph, one)) for zero, one in components] == [
        (("q0-p1", "q0-p2", "q0-p3"), ("q1-p0", "q2-p0"))
    ]


def test_bipartition_of_empty_structure():
    c = collision_graph(("a", "b"), [("a", "b")])
    assert c.partners == ((), ())
    assert c.two_cycles == []
    assert two_colour(c.partners) == ([], None)


def test_s2_odd_cycle_is_the_triangle(ref_s2, ref_s2_result):
    c = build_collision_graph(ref_s2, ref_s2_result.pairs)
    components, cyc = two_colour(c.partners)
    assert components is None
    assert cyc[0] == cyc[-1]
    assert len(cyc) == 4
    assert set(labels(c, cyc)) == S2_TRIANGLE
    for x, y in zip(cyc, cyc[1:]):
        assert y in c.partners[x]


def test_to_dot_small_graph():
    c = collision_graph(("x", "y"), [("x", "y"), ("y", "x")])
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


def test_to_dot_reference_text(ref_cgraph):
    # every node, then the arcs in (index u, index v) order, then the two-cycles
    assert to_dot(ref_cgraph) == (
        'digraph C {\n'
        '  "q0-p0";\n  "q0-p1";\n  "q0-p2";\n  "q0-p3";\n'
        '  "q1-p0";\n  "q1-p1";\n  "q1-p2";\n  "q1-p3";\n'
        '  "q2-p0";\n  "q2-p1";\n  "q2-p2";\n  "q2-p3";\n'
        '  "q0-p0" -> "q0-p1";\n'
        '  "q0-p0" -> "q0-p2";\n'
        '  "q0-p0" -> "q0-p3";\n'
        '  "q0-p0" -> "q1-p0";\n'
        '  "q0-p0" -> "q2-p0";\n'
        '  "q0-p1" -> "q0-p3";\n'
        '  "q0-p1" -> "q1-p0";\n'
        '  "q0-p1" -> "q2-p0";\n'
        '  "q0-p2" -> "q1-p0";\n'
        '  "q0-p2" -> "q2-p0";\n'
        '  "q0-p3" -> "q1-p0";\n'
        '  "q0-p3" -> "q2-p0";\n'
        '  "q1-p0" -> "q0-p1";\n'
        '  "q1-p0" -> "q0-p2";\n'
        '  "q1-p0" -> "q0-p3";\n'
        '  "q1-p1" -> "q0-p3";\n'
        '  "q2-p0" -> "q0-p1";\n'
        '  "q2-p0" -> "q0-p2";\n'
        '  "q2-p0" -> "q0-p3";\n'
        '  "q2-p1" -> "q0-p3";\n'
        '  "q0-p1" -> "q1-p0" [dir=none, color=red];\n'
        '  "q0-p1" -> "q2-p0" [dir=none, color=red];\n'
        '  "q0-p2" -> "q1-p0" [dir=none, color=red];\n'
        '  "q0-p2" -> "q2-p0" [dir=none, color=red];\n'
        '  "q0-p3" -> "q1-p0" [dir=none, color=red];\n'
        '  "q0-p3" -> "q2-p0" [dir=none, color=red];\n'
        '}\n'
    )


# ---------------------------------------------------------------------------
# randomized structure properties


def kahn_is_acyclic(c):
    indeg = [0] * len(c.nodes)
    for _, v in c.arcs:
        indeg[c.nodes.index(v)] += 1
    queue = [x for x, d in enumerate(indeg) if d == 0]
    seen = 0
    while queue:
        x = queue.pop()
        seen += 1
        for y in c.succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                queue.append(y)
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
    return collision_graph(nodes, arcs)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150)
def test_is_acyclic_matches_kahn(seed):
    c = random_digraph(seed)
    cycle = find_cycle(c.succ)
    assert (cycle is None) == kahn_is_acyclic(c)
    if cycle is not None:
        witness = labels(c, cycle)
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


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=127))
@settings(max_examples=200)
def test_on_cycle_returns_a_closed_path(seed, bits):
    c = random_digraph(seed)
    alive = bytearray(bits >> x & 1 for x in range(len(c.nodes)))
    acyclic = find_cycle(c.succ, alive) is None
    for x in range(len(c.nodes)):
        path = on_cycle(c.succ, x, alive)
        # reference: does some arc into x leave a node that x reaches through alive nodes?
        reached, todo = {x}, [x]
        while todo:
            for y in c.succ[todo.pop()]:
                if alive[y] and y not in reached:
                    reached.add(y)
                    todo.append(y)
        assert (path is not None) == any(x in c.succ[u] for u in reached)
        if path is None:
            continue
        assert not (acyclic and alive[x])
        assert path[0] == path[-1] == x
        assert all(v in c.succ[u] for u, v in zip(path, path[1:]))
        assert all(alive[y] for y in path[1:-1])


def _swept(c, side, labels):
    try:
        return list(plan._sweep(c, side, labels).items())
    except CyclicGraphError as err:
        assert err.side == side
        return err.cycle


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=127))
@settings(max_examples=200)
def test_masks_match_induced_copies(seed, bits):
    c = random_digraph(seed)
    alive = bytearray(bits >> x & 1 for x in range(len(c.nodes)))
    sub = induced(c, [n for n, a in zip(c.nodes, alive) if a])
    back = [c.nodes.index(n) for n in sub.nodes]
    cyc = find_cycle(sub.succ)
    assert find_cycle(c.succ, alive) == (None if cyc is None else [back[x] for x in cyc])
    assert topo_order(c.succ, alive) == [back[x] for x in topo_order(sub.succ)]
    for side in ("upper", "lower"):
        assert _swept(c, side, sub.nodes) == _swept(sub, side, sub.nodes)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100)
def test_decide_partition_matches_brute_force(seed):
    c = random_digraph(seed)
    dec = decide_partition(c)
    assert dec.found == brute_force_split(c)
    if dec.found:
        assert class_cycles(c, dec.partition) == (None, None)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150)
def test_multi_edged_captures_exactly_the_two_cycles(seed):
    c = random_digraph(seed)
    index = c.nodes.index
    want = {(index(a), index(b)) for a, b in c.arcs if (b, a) in c.arcs}
    assert {(x, y) for x, ys in enumerate(c.partners) for y in ys} == want
    assert all(list(ys) == sorted(ys) for ys in c.partners)
    assert c.two_cycles == sorted((x, y) for x, y in want if x < y)


def shortest_odd_closed_walk(partners):
    """Reference: the length of a shortest odd closed walk on the two-cycle
    structure, by BFS over (node, parity) states from every node; None if
    there is none."""
    best = None
    for s in range(len(partners)):
        dist = {(s, 0): 0}
        queue = deque([(s, 0)])
        while queue:
            x, parity = queue.popleft()
            for y in partners[x]:
                if (y, 1 - parity) not in dist:
                    dist[y, 1 - parity] = dist[x, parity] + 1
                    queue.append((y, 1 - parity))
        if (s, 1) in dist and (best is None or dist[s, 1] < best):
            best = dist[s, 1]
    return best


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200)
def test_two_colour_matches_parity_reference(seed):
    c = random_digraph(seed)
    partners = c.partners
    components, cyc = two_colour(partners)
    shortest = shortest_odd_closed_walk(partners)
    assert (components is None) == (shortest is not None)
    if components is not None:
        colour, home = {}, {}
        for k, (zero, one) in enumerate(components):
            for x in zero + one:
                assert x not in colour
                colour[x], home[x] = int(x in one), k
        assert set(colour) == {x for x, ys in enumerate(partners) if ys}
        assert all(colour[x] != colour[y] and home[x] == home[y] for x, y in c.two_cycles)
        least = [min(zero + one) for zero, one in components]
        assert least == sorted(least)
        assert all(colour[x] == 0 for x in least)
    else:
        assert cyc[0] == cyc[-1]
        assert all(y in partners[x] for x, y in zip(cyc, cyc[1:]))
        assert len(cyc) - 1 == shortest


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300)
def test_two_colour_matches_its_reference(seed):
    # the running best and its cut-off walks pick the reference's witness
    rng = random.Random(seed)
    partners = random_partners(rng, rng.randint(2, 24), rng.randint(1, 6))
    assert two_colour(partners) == two_colour_reference(partners)
    partners = random_digraph(seed).partners
    assert two_colour(partners) == two_colour_reference(partners)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100)
def test_induced_on_full_node_set_is_identity(seed):
    c = random_digraph(seed)
    everything = bytearray([1]) * len(c.nodes)
    assert find_cycle(c.succ, everything) == find_cycle(c.succ)
    assert topo_order(c.succ, everything) == topo_order(c.succ)
    assert induced(c, c.nodes) == c


def test_build_from_synthetic_pairs():
    g = static_graph(4, [("n0", "n1"), ("n1", "n2"), ("n2", "n3")])
    pairs = fake_pairs([("n0", ("n2", "n3")), ("n3", ("n0", "n1"))])
    c = build_collision_graph(g, pairs)
    assert c.arcs == frozenset(
        [("n0-n1", "n2-n3"), ("n2-n3", "n0-n1")]
    )
    assert c.two_cycles == [(0, 2)]
