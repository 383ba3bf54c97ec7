"""Integer layer planning over the collision graph.

An arrangement lifts every edge of the moving graph to an integer height.
A collision pair (v, e) is harmless when e's height lies strictly outside
the closed range spanned by the heights of the edges at v, so v's pin can
pass e's layer without touching it.

``decide_partition`` searches for a split of the edge set into an upper and
a lower class whose induced collision subgraphs are both acyclic.  Such a
split always yields a collision-free arrangement (sweep the upper class
upward from 1, the lower class downward from 0), but its absence proves
nothing; ``exists_arrangement`` decides the general question exactly by
branching, per collision pair, on whether the colliding edge goes below or
above every edge at the vertex.

Each class of a split is a node mask on the one collision graph.

Both searches backjump: a failed choice names, through the cycle that
:func:`lmodel.cgraph.on_cycle` finds, the earlier choices it rests on
(the items that placed the cycle's nodes, or the pairs that added its
arcs).  When both choices of an item fail at once, the search backs up
straight to the latest choice named, skipping only subtrees without a
solution, so it returns what plain backtracking returns.
"""
from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Sequence

from .cgraph import (
    CollisionGraph,
    build_collision_graph,
    find_cycle,
    on_cycle,
    pair_constraints,
    topo_order,
    two_colour,
)
from .motion import CollisionPair, GraphFormatError, MovingGraph, SearchCapError, parse_json

__all__ = [
    "CyclicGraphError",
    "Partition",
    "PartitionDecision",
    "Violation",
    "VerifyReport",
    "make_partition",
    "cyclic_side",
    "decide_partition",
    "assign_heights",
    "verify_collision_free",
    "exists_arrangement",
    "dixon1_heights",
    "heights_to_json",
    "heights_from_json",
]


class CyclicGraphError(ValueError):
    def __init__(self, cycle: Sequence[str]):
        super().__init__("graph has a directed cycle: " + " -> ".join(cycle))
        self.cycle = tuple(cycle)


# search nodes ``decide_partition`` may expand before giving up; the hardest
# 40-edge instance of the perfbench plan-synth pool exhausts in about 7k
SPLIT_SEARCH_BUDGET = 1 << 16

# search nodes ``exists_arrangement`` may expand before giving up; the
# hardest instance of that pool decides in about 21.5k
EXACT_SEARCH_BUDGET = 1 << 20


class Partition(NamedTuple):
    upper: tuple[str, ...]
    lower: tuple[str, ...]


def make_partition(all_labels: Sequence[str], upper: Iterable[str]) -> Partition:
    upper_set = set(upper)
    unknown = upper_set - set(all_labels)
    if unknown:
        raise ValueError(f"unknown edge labels in partition: {sorted(unknown)}")
    return Partition(
        tuple(l for l in all_labels if l in upper_set),
        tuple(l for l in all_labels if l not in upper_set),
    )


def _mask(c: CollisionGraph, labels: Iterable[str]) -> bytearray:
    alive = bytearray(len(c.nodes))
    for lab in labels:
        if lab not in c.index:
            raise ValueError(f"unknown node {lab!r}")
        alive[c.index[lab]] = 1
    return alive


def _sweep(c: CollisionGraph, start: int, step: int, alive: bytearray) -> dict[str, int]:
    # a node's wave is its longest path from an in-degree-0 node of the
    # masked subgraph; waves are numbered in turn, each in canonical node order
    succ = c.succ
    order = topo_order(succ, alive)
    if len(order) < alive.count(1):
        raise CyclicGraphError([c.nodes[i] for i in find_cycle(succ, alive)])
    wave = [0] * len(succ)
    for x in order:
        for y in succ[x]:
            wave[y] = max(wave[y], wave[x] + 1)
    ranked = sorted(order, key=lambda x: (wave[x], x))
    return {c.nodes[x]: start + step * k for k, x in enumerate(ranked)}


def cyclic_side(c: CollisionGraph, p: Partition) -> tuple[str, tuple[str, ...]] | None:
    """The first class of p, "upper" then "lower", whose induced subgraph has
    a cycle, with that cycle; None when both are acyclic."""
    for name, side in (("upper", p.upper), ("lower", p.lower)):
        cycle = find_cycle(c.succ, _mask(c, side))
        if cycle is not None:
            return name, tuple(c.nodes[i] for i in cycle)
    return None


def _search(n: int, step, undo, budget: int, what: str) -> bool:
    """Depth-first over one binary choice per item 0..n-1, 0 before 1:
    ``step(i, b)`` applies choice b to item i and returns None when it
    stands, else a bitmask of the earlier depths its failure rests on (the
    failure recurs whatever is chosen at the other depths); ``undo(i, b)``
    takes it back.  When both choices at a depth fail at once, no choice
    after the deepest depth they name can help, so the search backs up
    straight to it (Gaschnig's backjumping); otherwise it backs up one
    depth.  It skips only subtrees without a solution, so it finds the same
    first solution as plain backtracking.  On success every choice stays
    applied.  The first try at a depth expands a search node; past
    ``budget`` of them the search raises :class:`SearchCapError`, naming
    itself ``what``."""
    chosen: list[int] = []  # the stack: the standing choice at each depth
    b = 0
    failed = None  # what the 0 at this depth rests on, when it failed at once
    left = budget
    while len(chosen) < n:
        if not b:
            left -= 1
            if left < 0:
                raise SearchCapError(f"{what} ran past {budget} expansions")
        why = step(len(chosen), b)
        if why is None:
            chosen.append(b)
            b = 0
            continue
        undo(len(chosen), b)
        if not b:
            failed, b = why, 1
            continue
        if failed is not None:  # both failed at once: drop the depths past those they name
            keep = (failed | why).bit_length()
            while len(chosen) > keep:
                undo(len(chosen) - 1, chosen.pop())
            failed = None
        while b:  # back up to the last 0
            if not chosen:
                return False
            b = chosen.pop()
            undo(len(chosen), b)
        b = 1
    return True


class PartitionDecision(NamedTuple):
    partition: Partition | None
    reason: str | None = None
    odd_cycle: tuple[str, ...] | None = None

    @property
    def found(self) -> bool:
        return self.partition is not None


def decide_partition(c: CollisionGraph) -> PartitionDecision:
    """Search for a bipartition of c with both induced subgraphs acyclic.

    Every pair of nodes joined by a directed two-cycle must be separated, so
    the two-cycle structure is two-colored first; a non-bipartite structure
    kills the search immediately, with a shortest odd cycle as witness.
    What remains is one flip choice per connected component plus a free side
    choice per node not on any two-cycle, enumerated depth-first with
    acyclicity checked as each choice lands.  A search that expands more
    than ``SPLIT_SEARCH_BUDGET`` nodes undecided raises
    :class:`SearchCapError` rather than running on.
    """
    items, odd_cycle = two_colour(c.partners)
    if odd_cycle is not None:
        return PartitionDecision(None, "not-bipartite", tuple([c.nodes[x] for x in odd_cycle]))
    items += [([x], []) for x, ys in enumerate(c.partners) if not ys]

    succ = c.succ
    upper, lower = bytearray(len(succ)), bytearray(len(succ))
    owner = [0] * len(succ)  # the item that places each node
    for i, item in enumerate(items):
        for x in item[0] + item[1]:
            owner[x] = i

    def place(nodes: list[int], side: bytearray) -> int | None:
        # the side was acyclic before, so any new cycle runs through nodes;
        # it rests on the items that placed its nodes
        for x in nodes:
            side[x] = 1
        for x in nodes:
            cycle = on_cycle(succ, x, side)
            if cycle is not None:
                why = 0
                for y in cycle:
                    why |= 1 << owner[y]
                return why
        return None

    def step(i: int, flip: int) -> int | None:
        why = place(items[i][flip], upper)
        if why is None:
            why = place(items[i][1 - flip], lower)
        return None if why is None else why & ~(1 << i)

    def undo(i: int, flip: int) -> None:
        for x in items[i][0] + items[i][1]:  # each node is in one item, so both sides held 0
            upper[x] = lower[x] = 0

    if _search(len(items), step, undo, SPLIT_SEARCH_BUDGET, "split search"):
        return PartitionDecision(make_partition(c.nodes, (n for n, b in zip(c.nodes, upper) if b)))
    return PartitionDecision(None, "exhausted")


def assign_heights(
    g: MovingGraph, pairs: Iterable[CollisionPair], partition: Partition
) -> dict[str, int]:
    """Sweep the upper class up from 1 and the lower class down from 0.

    Requires both induced collision subgraphs to be acyclic (else
    :class:`CyclicGraphError`); the result always verifies collision-free.
    """
    labels = g.edge_labels
    up_set, lo_set = set(partition.upper), set(partition.lower)
    if up_set & lo_set or up_set | lo_set != set(labels):
        raise ValueError("partition must split the edge set into two disjoint parts")
    pairs = tuple(pairs)
    c = build_collision_graph(g, pairs)
    heights = _sweep(c, 1, +1, _mask(c, partition.upper))
    heights.update(_sweep(c, 0, -1, _mask(c, partition.lower)))
    report = verify_collision_free(g, pairs, heights)
    if not report.ok:
        raise RuntimeError("internal error: sweep heights failed verification")
    return heights


class Violation(NamedTuple):
    vertex: str
    edge: tuple[str, str]
    edge_height: int
    lo: int
    hi: int


class VerifyReport(NamedTuple):
    ok: bool
    violations: tuple[Violation, ...]


def verify_collision_free(
    g: MovingGraph, pairs: Iterable[CollisionPair], heights: dict[str, int]
) -> VerifyReport:
    """Check every pair: the edge's height must avoid the closed height range
    of the edges at the colliding vertex.  A vertex with no edges constrains
    nothing."""
    by_label = g.edge_by_label
    for lab in g.edge_labels:
        if lab not in heights:
            raise ValueError(f"missing height for edge {lab!r}")
    for lab in heights:
        if lab not in by_label:
            raise ValueError(f"height given for unknown edge {lab!r}")
    pairs = tuple(pairs)
    hs = [heights[lab] for lab in g.edge_labels]
    violations = []
    for p, (e, at_v) in zip(pairs, pair_constraints(g, pairs)):
        vals = [hs[f] for f in at_v]
        if vals and min(vals) <= hs[e] <= max(vals):
            violations.append(Violation(p.vertex, g.edges[e], hs[e], min(vals), max(vals)))
    return VerifyReport(not violations, tuple(violations))


def exists_arrangement(
    g: MovingGraph, pairs: Iterable[CollisionPair]
) -> dict[str, int] | None:
    """Decide exactly whether any collision-free arrangement exists.

    Any collision-free arrangement can be perturbed, pair by pair, into one
    where each colliding edge sits strictly below or strictly above *all*
    edges at its vertex, so branching on that binary choice per pair loses
    nothing.  Each choice contributes strict order constraints; a choice set
    is feasible exactly when the constraint digraph is acyclic.  Returns a
    witness assignment (heights 0..len-1 along a topological order) or None.
    A search that expands more than ``EXACT_SEARCH_BUDGET`` nodes undecided
    raises :class:`SearchCapError` rather than running on.
    """
    pairs = tuple(pairs)
    labels = g.edge_labels
    # most-constrained first; the sort is stable so ties keep input order;
    # a vertex without edges constrains nothing
    constraints = [con for con in pair_constraints(g, pairs) if con[1]]
    constraints.sort(key=lambda con: -len(con[1]))

    # the constraint digraph; a choice appends its arcs, backtracking pops
    # them; beside each arc, the depth that appended it
    succ: list[list[int]] = [[] for _ in labels]
    by: list[list[int]] = [[] for _ in labels]

    def step(i: int, above: int) -> int | None:
        e, inc = constraints[i]
        for f in inc:  # below: arcs e -> f; above: arcs f -> e
            u = f if above else e
            succ[u].append(e if above else f)
            by[u].append(i)
        cycle = on_cycle(succ, e)  # every new arc touches e, so any new cycle does too
        if cycle is None:
            return None
        # the cycle rests on the depths that appended its arcs, each arc's earliest copy
        why = 0
        for u, v in zip(cycle, cycle[1:]):
            why |= 1 << by[u][succ[u].index(v)]
        return why & ~(1 << i)

    def undo(i: int, above: int) -> None:
        e, inc = constraints[i]
        for f in inc:
            u = f if above else e
            succ[u].pop()
            by[u].pop()

    if not _search(len(constraints), step, undo, EXACT_SEARCH_BUDGET, "exact search"):
        return None

    out = topo_order(succ)
    if len(out) != len(labels):
        raise RuntimeError("internal error: constraint digraph has a cycle")
    heights = {labels[i]: k for k, i in enumerate(out)}
    report = verify_collision_free(g, pairs, heights)
    if not report.ok:
        raise RuntimeError("internal error: witness failed verification")
    return heights


def dixon1_heights(m: int, n: int) -> dict[str, int]:
    """Closed-form collision-free heights for the K_{m,n} axis family.

    The q0 row climbs 1..m; every other q row descends in blocks of m+1 so
    rows never interleave.  Valid for any sign vectors.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    heights = {}
    for i in range(m):
        heights[f"q0-p{i}"] = i + 1
    for j in range(1, n):
        for i in range(m):
            heights[f"q{j}-p{i}"] = -(j - 1) * (m + 1) - i
    return heights


# ---------------------------------------------------------------------------
# file format


def heights_to_json(
    labels: Sequence[str], heights: dict[str, int], partition: Partition | None = None
) -> str:
    data: dict = {"heights": {lab: int(heights[lab]) for lab in labels}}
    if partition is not None:
        data["partition"] = {"upper": list(partition.upper), "lower": list(partition.lower)}
    return json.dumps(data, indent=2) + "\n"


def heights_from_json(text: str) -> tuple[dict[str, int], Partition | None]:
    data = parse_json(text)
    if not isinstance(data, dict) or not isinstance(data.get("heights"), dict):
        raise GraphFormatError("heights file must be an object with a 'heights' mapping")
    heights = {}
    for lab, h in data["heights"].items():
        if not isinstance(h, int) or isinstance(h, bool):
            raise GraphFormatError(f"height of {lab!r} must be an integer, got {h!r}")
        heights[str(lab)] = h
    partition = None
    if "partition" in data:
        p = data["partition"]
        if (
            not isinstance(p, dict)
            or not isinstance(p.get("upper"), list)
            or not isinstance(p.get("lower"), list)
        ):
            raise GraphFormatError("'partition' must hold 'upper' and 'lower' arrays")
        partition = Partition(tuple(map(str, p["upper"])), tuple(map(str, p["lower"])))
    return heights, partition
