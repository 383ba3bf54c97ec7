"""The collision graph: one node per edge of the moving graph.

An arc e -> f means some endpoint of e collides with f, i.e. e must stay
clear of f's layer while that endpoint crosses it.  Node order is inherited
from the canonical edge order and drives every tie-break below, so repeated
runs produce identical output.

The graph is stored by node index: ``CollisionGraph.succ[x]`` lists the
heads of x's arcs, and the ordering core below runs on it.  Labels serve
only for printing (``CollisionGraph.arcs``, :func:`to_dot`).  An optional
``alive`` node mask restricts the core to the subgraph the mask induces.
The two-cycle structure, an undirected graph on ``CollisionGraph.partners``,
is two-coloured by index as well (:func:`two_colour`).
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from heapq import heappop, heappush
from operator import lt
from typing import Iterable, Sequence

from .motion import CollisionPair, MovingGraph, edge_label, pair_edge

__all__ = [
    "CollisionGraph",
    "build_collision_graph",
    "pair_constraints",
    "find_cycle",
    "on_cycle",
    "topo_order",
    "two_colour",
    "to_dot",
]


class CollisionGraph(namedtuple("CollisionGraph", "nodes succ")):
    """Nodes in canonical order, and for each node the heads of its arcs by
    index, ascending: the graph the ordering core below runs on."""

    def __new__(cls, nodes: Iterable[str], succ: Iterable[Iterable[int]]):
        self = super().__new__(cls, tuple(nodes), tuple(map(tuple, succ)))
        nodes, n = self.nodes, len(self.nodes)
        if len(set(nodes)) != n:
            raise ValueError("duplicate nodes")
        if len(self.succ) != n:
            raise ValueError(f"{len(self.succ)} rows of heads for {n} nodes")
        for x, ys in enumerate(self.succ):
            if not all(map(lt, ys, ys[1:])):
                raise ValueError(f"the heads of {nodes[x]!r} are not ascending and unrepeated")
            if ys and (ys[0] < 0 or ys[-1] >= n):
                raise ValueError(f"an arc out of {nodes[x]!r} leaves the node set")
            if x in ys:
                raise ValueError(f"self-arc at {nodes[x]!r}")
        return self

    @property
    def arcs(self) -> frozenset[tuple[str, str]]:
        """Every arc as a (tail, head) label pair; built anew on each read."""
        return frozenset((u, self.nodes[y]) for u, ys in zip(self.nodes, self.succ) for y in ys)

    @cached_property
    def partners(self) -> tuple[tuple[int, ...], ...]:
        """``partners[x]`` lists the y, ascending, that x forms a directed
        two-cycle with: y in ``succ[x]`` and x in ``succ[y]``."""
        heads = [set(ys) for ys in self.succ]
        return tuple(tuple([y for y in ys if x in heads[y]]) for x, ys in enumerate(self.succ))

    @property
    def two_cycles(self) -> list[tuple[int, int]]:
        """Each directed two-cycle once, as an index pair (x, y) with x < y,
        in index order."""
        return [(x, y) for x, ys in enumerate(self.partners) for y in ys if x < y]


def pair_constraints(
    g: MovingGraph, pairs: Iterable[CollisionPair]
) -> list[tuple[int, tuple[int, ...]]]:
    """Each pair (v, e), checked by :func:`lmodel.motion.pair_edge`, as
    (index of e, indices of the edges at v), in canonical edge order."""
    index = {lab: i for i, lab in enumerate(g.edge_labels)}
    # tuples built from lists: from generators they raised plan-synth's peak RSS ~0.3 MB
    at = {v: tuple([index[lab] for lab in labs]) for v, labs in g.incident.items()}
    return [(index[edge_label(pair_edge(g, p.vertex, p.edge))], at[p.vertex]) for p in pairs]


def build_collision_graph(g: MovingGraph, pairs: Iterable[CollisionPair]) -> CollisionGraph:
    """An arc from each edge at v to e, for each pair (v, e)."""
    heads: list[set[int]] = [set() for _ in g.edge_labels]
    for e, at_v in pair_constraints(g, pairs):
        for f in at_v:
            heads[f].add(e)
    return CollisionGraph(g.edge_labels, [sorted(ys) for ys in heads])


# ---------------------------------------------------------------------------
# int-indexed ordering core: succ[i] lists the heads of the arcs out of node i


def find_cycle(succ: Sequence[Sequence[int]], alive: bytearray | None = None) -> list[int] | None:
    """Closed node sequence of some cycle through nodes marked in ``alive``
    (all if None), or None; roots and arc heads are visited in index order,
    so the witness is canonical."""
    # 0 unseen, 1 on the current path, 2 done; dead nodes count as done
    color = bytearray(len(succ)) if alive is None else bytearray(2 - 2 * a for a in alive)
    for root in range(len(succ)):
        if color[root]:
            continue
        color[root] = 1
        path, stack = [root], [iter(succ[root])]
        while stack:
            for y in stack[-1]:
                if color[y] == 1:
                    return path[path.index(y):] + [y]
                if not color[y]:
                    color[y] = 1
                    path.append(y)
                    stack.append(iter(succ[y]))
                    break
            else:
                color[path.pop()] = 2
                stack.pop()
    return None


def on_cycle(
    succ: Sequence[Sequence[int]], x: int, alive: bytearray | None = None
) -> list[int] | None:
    """Closed path from x back to x through nodes marked in ``alive`` (all
    if None), or None when there is none.  Decides whether arcs or nodes
    just added at x closed a cycle, and shows the cycle that explains it."""
    parent = [-1] * len(succ)  # the node each node was first reached from
    stack = [x]
    while stack:
        u = stack.pop()
        for y in succ[u]:
            if y == x:
                path = [x]
                while u != x:
                    path.append(u)
                    u = parent[u]
                path.append(x)
                path.reverse()
                return path
            if parent[y] < 0 and (alive is None or alive[y]):
                parent[y] = u
                stack.append(y)
    return None


def topo_order(succ: Sequence[Sequence[int]], alive: bytearray | None = None) -> list[int]:
    """Kahn sort of the nodes marked in ``alive`` (all if None), taking the
    lowest ready index first; shorter than the marked set exactly when it
    has a cycle.  Repeated arcs are fine."""
    live = range(len(succ)) if alive is None else [x for x in range(len(succ)) if alive[x]]
    indeg = [0] * len(succ)
    for x in live:
        for y in succ[x]:
            indeg[y] += 1
    ready = [x for x in live if indeg[x] == 0]  # sorted, hence a heap
    out = []
    while ready:
        x = heappop(ready)
        out.append(x)
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0 and (alive is None or alive[y]):
                heappush(ready, y)
    return out


def two_colour(
    partners: Sequence[Sequence[int]],
) -> tuple[list[tuple[list[int], list[int]]] | None, list[int] | None]:
    """Two-colour the undirected graph joining each node x to ``partners[x]``.

    Nodes without partners are left out.  Each component is coloured by the
    parity of the BFS distance from its least node, neighbours taken in
    index order.  Returns ``(components, None)`` when no edge joins two
    nodes of one colour, each component as (colour-0 nodes, colour-1 nodes)
    in BFS order, the components in order of their least node.  Otherwise
    returns ``(None, cycle)``, ``cycle`` a shortest odd cycle, closed (its
    first node repeated at the end).  The candidates close each edge between
    two nodes at one BFS distance from some root through their lowest
    common BFS ancestor; of the shortest, the least in node order is taken.
    """

    def bfs(s: int) -> tuple[dict[int, int], dict[int, int]]:
        # distances and parents of the nodes reached from s, in the order reached
        dist, parent, queue = {s: 0}, {s: s}, [s]
        for x in queue:  # grows while it is read
            for y in partners[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
        return dist, parent

    colour: dict[int, int] = {}
    components = []
    for s, ys in enumerate(partners):
        if ys and s not in colour:
            dist, _ = bfs(s)
            colour.update((x, d % 2) for x, d in dist.items())
            components.append(tuple([x for x, d in dist.items() if d % 2 == k] for k in (0, 1)))
    if all(colour[x] != colour[y] for x in colour for y in partners[x]):
        return components, None
    best: list[int] = []  # the least of the shortest candidates so far
    for s in colour:
        dist, parent = bfs(s)
        for x in dist:
            for y in partners[x]:
                if x < y and dist[x] == dist[y]:
                    # the candidate has 2 * len(px) entries; past the best it cannot win
                    px, py = [x], [y]
                    while px[-1] != py[-1] and (not best or 2 * len(px) < len(best)):
                        px.append(parent[px[-1]])
                        py.append(parent[py[-1]])
                    cyc = px + py[-2::-1] + [x]
                    if px[-1] == py[-1] and (not best or (len(cyc), cyc) < (len(best), best)):
                        best = cyc
    return None, best


def to_dot(c: CollisionGraph) -> str:
    nodes = c.nodes
    lines = ["digraph C {"] + [f'  "{n}";' for n in nodes]
    lines += [f'  "{nodes[x]}" -> "{nodes[y]}";' for x, ys in enumerate(c.succ) for y in ys]
    lines += [f'  "{nodes[x]}" -> "{nodes[y]}" [dir=none, color=red];' for x, y in c.two_cycles]
    return "\n".join(lines) + "\n}\n"
