"""Independent answers the benchmark checks the program against.

Nothing here calls into ``lmodel``: the crossing rules come from the family
geometry described in the README, and the height, arc and cycle checks are
written from the definitions, so a wrong answer from the program cannot be
confirmed by the program itself.
"""
from __future__ import annotations


def label(u: str, v: str) -> str:
    return f"{u}-{v}"


def dixon1_edges(m: int, n: int) -> list[tuple[str, str]]:
    return [(f"q{j}", f"p{i}") for j in range(n) for i in range(m)]


def dixon1_pairs(m: int, n: int, sx, sy) -> set[tuple[str, str]]:
    """Crossings of the axis family K(m,n) as (vertex, edge label).

    p0 oscillates along the x axis through the origin, so it sweeps every
    edge anchored at q0, and q0 likewise sweeps every edge anchored at p0.
    An outer x-slider crosses the q0 edge of every slider further out on the
    same side of the axis, and the same holds for the y class.
    """
    out = set()
    for i in range(1, m):
        out.add(("p0", label("q0", f"p{i}")))
    for j in range(1, n):
        out.add(("q0", label(f"q{j}", "p0")))
    for i in range(1, m):
        for k in range(i + 1, m):
            if sx[i - 1] == sx[k - 1]:
                out.add((f"p{i}", label("q0", f"p{k}")))
    for j in range(1, n):
        for k in range(j + 1, n):
            if sy[j - 1] == sy[k - 1]:
                out.add((f"q{j}", label(f"q{k}", "p0")))
    return out


def dixon2_edges() -> list[tuple[str, str]]:
    return [(str(i), str(j)) for i in range(1, 5) for j in range(5, 9)]


def dixon2_pairs() -> set[tuple[str, str]]:
    """Crossings of dixon2: vertex v sweeps every edge at its antipode v±4
    except the edge joining the two."""
    out = set()
    for v in range(1, 9):
        w = v + 4 if v <= 4 else v - 4
        for e in dixon2_edges():
            if str(w) in e and str(v) not in e:
                out.add((str(v), label(*e)))
    return out


# the 14 crossings of s2 at its default lengths (a=1, b=11/5, c=3/2)
S2_PAIRS = frozenset(
    [
        ("v2", "v8-v4"), ("v2", "v8-v5"), ("v3", "v1-v4"), ("v3", "v8-v4"),
        ("v3", "v4-v6"), ("v4", "v3-v2"), ("v4", "v3-v5"), ("v5", "v7-v6"),
        ("v5", "v4-v6"), ("v6", "v1-v5"), ("v6", "v8-v5"), ("v6", "v3-v5"),
        ("v8", "v1-v2"), ("v8", "v3-v2"),
    ]
)


def incident(edges) -> dict[str, list[str]]:
    inc: dict[str, list[str]] = {}
    for u, v in edges:
        inc.setdefault(u, []).append(label(u, v))
        inc.setdefault(v, []).append(label(u, v))
    return inc


def heights_violations(edges, pairs, heights) -> int:
    """Pairs whose crossed edge sits inside the closed height range of the
    edges at the crossing vertex; a missing height counts as a violation."""
    labels = [label(u, v) for u, v in edges]
    if set(heights) != set(labels):
        return max(1, len(pairs))
    inc = incident(edges)
    bad = 0
    for v, e in pairs:
        hs = [heights[f] for f in inc.get(v, [])]
        if hs and min(hs) <= heights[e] <= max(hs):
            bad += 1
    return bad


def collision_arcs(edges, pairs) -> set[tuple[str, str]]:
    """f -> e for every edge f at a vertex that crosses e."""
    inc = incident(edges)
    return {(f, e) for v, e in pairs for f in inc.get(v, []) if f != e}


def two_cycles(arcs) -> set[frozenset]:
    return {frozenset(a) for a in arcs if (a[1], a[0]) in arcs}


def acyclic(nodes, arcs) -> bool:
    nodes = set(nodes)
    succ: dict[str, list[str]] = {n: [] for n in nodes}
    indeg = dict.fromkeys(nodes, 0)
    for u, v in arcs:
        if u in nodes and v in nodes:
            succ[u].append(v)
            indeg[v] += 1
    ready = [n for n in nodes if indeg[n] == 0]
    seen = 0
    while ready:
        n = ready.pop()
        seen += 1
        for m in succ[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    return seen == len(nodes)


def is_odd_two_cycle_loop(cycle, arcs) -> bool:
    """A closed node sequence (first == last) of odd length whose every step
    is a two-cycle of the collision graph."""
    if len(cycle) < 4 or cycle[0] != cycle[-1]:
        return False
    body = cycle[:-1]
    if len(set(body)) != len(body) or len(body) % 2 == 0:
        return False
    twos = two_cycles(arcs)
    return all(frozenset((a, b)) in twos for a, b in zip(cycle, cycle[1:]))
