"""The collision graph: one node per edge of the moving graph.

An arc e -> f means some endpoint of e collides with f, i.e. e must stay
clear of f's layer while that endpoint crosses it.  Node order is inherited
from the canonical edge order and drives every tie-break below, so repeated
runs produce identical output.

The ordering core below runs on the int lists ``CollisionGraph.succ``.  An
optional ``alive`` node mask restricts it to the subgraph the mask induces,
with the witnesses and orders an :func:`induced` copy would give.
"""
from __future__ import annotations

from collections import deque, namedtuple
from functools import cached_property
from heapq import heappop, heappush
from typing import Iterable, NamedTuple, Sequence

from .motion import CollisionPair, MovingGraph, edge_label, pair_edge

__all__ = [
    "CollisionGraph",
    "MultiEdgedSubgraph",
    "BipartiteResult",
    "build_collision_graph",
    "pair_constraints",
    "induced",
    "is_acyclic",
    "find_cycle",
    "on_cycle",
    "topo_order",
    "multi_edged_subgraph",
    "bipartition",
    "to_dot",
]


class CollisionGraph(namedtuple("CollisionGraph", "nodes arcs")):
    """Nodes in canonical order, and the arcs between them."""

    def __new__(cls, nodes: Iterable[str], arcs: Iterable[tuple[str, str]]):
        self = super().__new__(cls, tuple(nodes), frozenset(arcs))
        known = set(self.nodes)
        if len(known) != len(self.nodes):
            raise ValueError("duplicate nodes")
        for u, v in self.arcs:
            if u == v:
                raise ValueError(f"self-arc at {u!r}")
            if u not in known or v not in known:
                raise ValueError(f"arc ({u!r}, {v!r}) leaves the node set")
        return self

    @cached_property
    def index(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.nodes)}

    @cached_property
    def successors(self) -> dict[str, tuple[str, ...]]:
        succ: dict[str, list[str]] = {n: [] for n in self.nodes}
        for u, v in self.arcs:
            succ[u].append(v)
        return {n: tuple(sorted(vs, key=self.index.__getitem__)) for n, vs in succ.items()}

    @cached_property
    def succ(self) -> tuple[tuple[int, ...], ...]:
        """``successors`` by node index, for the ordering core below."""
        return tuple(tuple(self.index[v] for v in self.successors[n]) for n in self.nodes)


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
    labels = g.edge_labels
    arcs = {(labels[f], labels[e]) for e, at_v in pair_constraints(g, pairs) for f in at_v}
    return CollisionGraph(labels, frozenset(arcs))


def induced(c: CollisionGraph, keep: Iterable[str]) -> CollisionGraph:
    keep_set = set(keep)
    unknown = keep_set - set(c.nodes)
    if unknown:
        raise ValueError(f"unknown nodes: {sorted(unknown)}")
    nodes = tuple(n for n in c.nodes if n in keep_set)
    arcs = frozenset((u, v) for (u, v) in c.arcs if u in keep_set and v in keep_set)
    return CollisionGraph(nodes, arcs)


def is_acyclic(c: CollisionGraph) -> tuple[bool, tuple[str, ...] | None]:
    """DFS cycle check. On failure returns a closed node sequence as witness."""
    cyc = find_cycle(c.succ)
    return (True, None) if cyc is None else (False, tuple(c.nodes[i] for i in cyc))


# ---------------------------------------------------------------------------
# int-indexed ordering core: succ[i] lists the successors of node i


def find_cycle(succ: Sequence[Sequence[int]], alive: bytearray | None = None) -> list[int] | None:
    """Closed node sequence of some cycle through nodes marked in ``alive``
    (all if None), or None; roots and successors are visited in index order,
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


def on_cycle(succ: Sequence[Sequence[int]], x: int, alive: bytearray | None = None) -> bool:
    """Does x reach itself through nodes marked in ``alive`` (all if None)?
    Decides whether arcs or nodes just added at x closed a cycle."""
    seen = bytearray(len(succ))
    stack = [x]
    while stack:
        for y in succ[stack.pop()]:
            if y == x:
                return True
            if not seen[y] and (alive is None or alive[y]):
                seen[y] = 1
                stack.append(y)
    return False


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


class MultiEdgedSubgraph(namedtuple("MultiEdgedSubgraph", "nodes edges")):
    """Nodes on directed two-cycles (a tuple), one undirected edge per
    two-cycle (a frozenset of node pairs)."""

    @cached_property
    def index(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.nodes)}

    @cached_property
    def neighbors(self) -> dict[str, tuple[str, ...]]:
        nb: dict[str, list[str]] = {n: [] for n in self.nodes}
        for u, v in self.edges:
            nb[u].append(v)
            nb[v].append(u)
        return {n: tuple(sorted(vs, key=self.index.__getitem__)) for n, vs in nb.items()}


def multi_edged_subgraph(c: CollisionGraph) -> MultiEdgedSubgraph:
    idx = c.index
    und = frozenset((u, v) for u, v in c.arcs if (v, u) in c.arcs and idx[u] < idx[v])
    members = {n for uv in und for n in uv}
    return MultiEdgedSubgraph(tuple(n for n in c.nodes if n in members), und)


class BipartiteResult(NamedTuple):
    bipartite: bool
    coloring: dict[str, int] | None
    components: tuple[tuple[str, ...], ...]
    odd_cycle: tuple[str, ...] | None


def _bfs(u: MultiEdgedSubgraph, s: str) -> tuple[dict[str, int], dict[str, str | None]]:
    """BFS distances and parents of the nodes reachable from s, in the order reached."""
    dist: dict[str, int] = {s: 0}
    parent: dict[str, str | None] = {s: None}
    queue = deque([s])
    while queue:
        n = queue.popleft()
        for nb in u.neighbors[n]:
            if nb not in dist:
                dist[nb] = dist[n] + 1
                parent[nb] = n
                queue.append(nb)
    return dist, parent


def bipartition(u: MultiEdgedSubgraph) -> BipartiteResult:
    """Two-color u per connected component; on failure find a shortest odd cycle.

    A node's color is the parity of its BFS distance from the first node of
    its component (in canonical order), so the coloring is canonical too.
    The odd-cycle witness is a closed node sequence of minimum length, which
    for a triangle-containing graph is always a triangle.
    """
    color: dict[str, int] = {}
    comps: list[tuple[str, ...]] = []
    for start in u.nodes:
        if start not in color:
            dist, _ = _bfs(u, start)
            color.update((n, d % 2) for n, d in dist.items())
            comps.append(tuple(dist))
    if all(color[x] != color[y] for x, y in u.edges):
        return BipartiteResult(True, color, tuple(comps), None)
    return BipartiteResult(False, None, tuple(comps), _shortest_odd_cycle(u))


def _shortest_odd_cycle(u: MultiEdgedSubgraph) -> tuple[str, ...]:
    """Close every edge between two nodes at one BFS distance through their
    lowest common ancestor; the shortest such cycle, least in node order."""
    cycles = []
    for s in u.nodes:
        dist, parent = _bfs(u, s)
        for x, y in u.edges:
            if x in dist and dist[x] == dist[y]:
                px, py = [x], [y]
                while px[-1] != py[-1]:
                    px.append(parent[px[-1]])
                    py.append(parent[py[-1]])
                cycles.append(tuple(px + py[-2::-1] + [x]))
    return min(cycles, key=lambda cyc: (len(cyc), [u.index[n] for n in cyc]))


def to_dot(c: CollisionGraph) -> str:
    idx = c.index
    lines = ["digraph C {"]
    for n in c.nodes:
        lines.append(f'  "{n}";')
    for u, v in sorted(c.arcs, key=lambda a: (idx[a[0]], idx[a[1]])):
        lines.append(f'  "{u}" -> "{v}";')
    two = multi_edged_subgraph(c)
    for u, v in sorted(two.edges, key=lambda e: (idx[e[0]], idx[e[1]])):
        lines.append(f'  "{u}" -> "{v}" [dir=none, color=red];')
    lines.append("}")
    return "\n".join(lines) + "\n"
