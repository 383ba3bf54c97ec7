"""Helpers for building small synthetic instances in tests.

The graphs built here carry static (constant) motions, so any vertex/edge
pair can be declared a "collision" freely; the planning layer only sees the
pair list and the incidence structure, never the geometry.
"""
import itertools
import sys

import pytest

from lmodel.cgraph import CollisionGraph, find_cycle
from lmodel.exprs import const
from lmodel.motion import CollisionPair, MovingGraph, edge_label

# the most digits int() reads from a string here; 0 where it has no limit
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", int)()

# a JSON integer literal one digit past that limit
needs_digit_limit = pytest.mark.skipif(DIGIT_LIMIT == 0, reason="int() has no digit limit")
HUGE_INT = "9" * (DIGIT_LIMIT + 1)

# JSON nested past any recursion limit
TOO_DEEP = "[" * 100000


def static_graph(n_vertices, edges, prefix="n"):
    verts = tuple(f"{prefix}{i}" for i in range(n_vertices))
    motion = {v: (const(float(i)), const(0.0)) for i, v in enumerate(verts)}
    return MovingGraph(verts, tuple(edges), motion)


def collision_graph(nodes, label_arcs):
    """The CollisionGraph on ``nodes`` whose arcs are the (tail, head) label
    pairs ``label_arcs``."""
    nodes = tuple(nodes)
    index = {n: i for i, n in enumerate(nodes)}
    heads = [set() for _ in nodes]
    for u, v in label_arcs:
        heads[index[u]].add(index[v])
    return CollisionGraph(nodes, [sorted(ys) for ys in heads])


def class_cycles(c, partition):
    """``find_cycle`` on each class of ``partition`` as a node mask of c,
    upper then lower: (None, None) when both classes are acyclic."""
    return tuple(find_cycle(c.succ, bytearray([n in side for n in c.nodes])) for side in partition)


def fake_pairs(items):
    """CollisionPair records for (vertex, edge) tuples, witness pinned at 0."""
    return tuple(CollisionPair(v, tuple(e), 0.0, 0.0) for v, e in items)


def brute_force_exists(g, pairs):
    """Try every injective height order.  Reference oracle, exponential."""
    labels = g.edge_labels
    n = len(labels)
    idx = {lab: i for i, lab in enumerate(labels)}
    cons = []
    for p in pairs:
        inc = [idx[lab] for lab in g.incident[p.vertex]]
        if inc:
            cons.append((idx[edge_label(p.edge)], inc))
    for perm in itertools.permutations(range(n)):
        ok = True
        for target, inc in cons:
            lo = min(perm[i] for i in inc)
            hi = max(perm[i] for i in inc)
            if lo <= perm[target] <= hi:
                ok = False
                break
        if ok:
            return True
    return False


def random_instance(rng, max_edges=8, max_pairs=10):
    nv = rng.randint(3, 6)
    possible = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
    ne = rng.randint(1, min(max_edges, len(possible)))
    chosen = rng.sample(possible, ne)
    g = static_graph(nv, [(f"n{a}", f"n{b}") for a, b in chosen])
    cand = [(v, e) for v in g.vertices for e in g.edges if v not in e]
    k = rng.randint(0, min(len(cand), max_pairs)) if cand else 0
    return g, fake_pairs(rng.sample(cand, k))


def dixon1_rule_pairs(p):
    """Predicted crossing set for the axis family, from its geometry.

    The x-slider passes through every edge anchored at the y-slider and vice
    versa, and two same-side vertices of one axis cross the inner one's
    anchor edge.
    """
    out = set()
    for i in range(1, p.m):
        out.add(("p0", ("q0", f"p{i}")))
    for j in range(1, p.n):
        out.add(("q0", (f"q{j}", "p0")))
    for i in range(1, p.m):
        for k in range(i + 1, p.m):
            if p.sx[i - 1] * p.sx[k - 1] > 0:
                out.add((f"p{i}", ("q0", f"p{k}")))
    for j in range(1, p.n):
        for k in range(j + 1, p.n):
            if p.sy[j - 1] * p.sy[k - 1] > 0:
                out.add((f"q{j}", (f"q{k}", "p0")))
    return out


# sign patterns of the two four-vertex orbits, by vertex number mod 4
_D2_PATTERN = {1: (1, 1), 2: (-1, 1), 3: (-1, -1), 4: (1, -1)}


def dixon2_partner_pairs():
    """Predicted crossing set: each vertex sweeps the edges at its antipode."""
    out = set()
    for v in range(1, 5):
        w = v + 4
        for i in range(1, 5):
            if i != v:
                out.add((str(v), (str(i), str(w))))
    for v in range(5, 9):
        w = v - 4
        for j in range(5, 9):
            if j != v:
                out.add((str(v), (str(w), str(j))))
    return out


def dixon2_expected_length(p, i, j):
    """Edge length by the sign-pattern relation of the two endpoints."""
    si = _D2_PATTERN[i]
    sj = _D2_PATTERN[j - 4]
    if si == sj:
        return p.a
    if si[0] == sj[0]:
        return p.d
    if si[1] == sj[1]:
        return p.b
    return p.c


def random_dixon1_params(rng):
    from lmodel.families import Dixon1Params

    m = rng.randint(2, 5)
    n = rng.randint(2, 5)
    a, cur = [], 0.0
    for _ in range(m - 1):
        cur += rng.uniform(0.5, 2.0)
        a.append(cur)
    b, cur = [], 0.0
    for _ in range(n - 1):
        cur += rng.uniform(0.5, 2.0)
        b.append(cur)
    sx = tuple(rng.choice((1, -1)) for _ in range(m - 1))
    sy = tuple(rng.choice((1, -1)) for _ in range(n - 1))
    return Dixon1Params(m, n, tuple(a), tuple(b), sx, sy)


def two_colour_reference(partners):
    """:func:`lmodel.cgraph.two_colour` as it was written first: it keeps every
    odd-cycle candidate and takes the least of the shortest at the end."""

    def bfs(s):
        dist, parent, queue = {s: 0}, {s: s}, [s]
        for x in queue:
            for y in partners[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
        return dist, parent

    colour = {}
    components = []
    for s, ys in enumerate(partners):
        if ys and s not in colour:
            dist, _ = bfs(s)
            colour.update((x, d % 2) for x, d in dist.items())
            components.append(tuple([x for x, d in dist.items() if d % 2 == k] for k in (0, 1)))
    if all(colour[x] != colour[y] for x in colour for y in partners[x]):
        return components, None
    cycles = []
    for s in colour:
        dist, parent = bfs(s)
        for x in dist:
            for y in partners[x]:
                if x < y and dist[x] == dist[y]:
                    px, py = [x], [y]
                    while px[-1] != py[-1]:
                        px.append(parent[px[-1]])
                        py.append(parent[py[-1]])
                    cycles.append(px + py[-2::-1] + [x])
    return None, min(cycles, key=lambda cyc: (len(cyc), cyc))


def random_partners(rng, n, degree):
    """A random undirected graph on n nodes with about ``degree`` neighbours
    each, as ascending neighbour lists (a two-cycle partner structure)."""
    adj = [set() for _ in range(n)]
    for _ in range(n * degree // 2):
        x, y = rng.sample(range(n), 2)
        adj[x].add(y)
        adj[y].add(x)
    return [sorted(ys) for ys in adj]
