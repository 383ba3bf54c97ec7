#!/usr/bin/env python3
"""Randomized stress run for the planning layer.

Builds random synthetic instances (static graphs with freely declared
collision pairs) and checks the exact decision against brute-force
enumeration of all height orders.  Where the bipartition route finds a
split, the swept heights must verify; where it finds none ("exhausted" or
"not-bipartite"), brute-force enumeration of all splits must find none
either.  Both searches are also rerun as plain backtracking, every failure
blaming every earlier choice: backjumping must find the same witness and
the same split decision.  Exits nonzero on any mismatch.
"""
import argparse
import itertools
import random
import sys
import time

from lmodel import plan
from lmodel.cgraph import build_collision_graph
from lmodel.exprs import const
from lmodel.motion import CollisionPair, MovingGraph, edge_label
from lmodel.plan import (
    assign_heights,
    decide_partition,
    exists_arrangement,
    verify_collision_free,
)


def random_instance(rng, max_edges, max_pairs):
    nv = rng.randint(3, 6)
    verts = tuple(f"n{i}" for i in range(nv))
    motion = {v: (const(float(i)), const(0.0)) for i, v in enumerate(verts)}
    possible = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
    chosen = rng.sample(possible, rng.randint(1, min(max_edges, len(possible))))
    g = MovingGraph(verts, tuple((f"n{a}", f"n{b}") for a, b in chosen), motion)
    cand = [(v, e) for v in g.vertices for e in g.edges if v not in e]
    k = rng.randint(0, min(len(cand), max_pairs)) if cand else 0
    pairs = tuple(CollisionPair(v, e, 0.0, 0.0) for v, e in rng.sample(cand, k))
    return g, pairs


def brute_force(g, pairs):
    labels = g.edge_labels
    idx = {lab: i for i, lab in enumerate(labels)}
    cons = [
        (idx[edge_label(p.edge)], [idx[lab] for lab in g.incident[p.vertex]])
        for p in pairs
        if g.incident[p.vertex]
    ]
    for perm in itertools.permutations(range(len(labels))):
        if all(
            not (min(perm[i] for i in inc) <= perm[t] <= max(perm[i] for i in inc))
            for t, inc in cons
        ):
            return True
    return False


def acyclic(nodes, arcs):
    """Peel off nodes with no arc in from the rest until none are left."""
    left = set(nodes)
    while left:
        sources = {n for n in left if not any(u in left and v == n for u, v in arcs)}
        if not sources:
            return False
        left -= sources
    return True


def brute_force_split(c):
    nodes = c.nodes
    for mask in range(2 ** len(nodes)):
        upper = {n for k, n in enumerate(nodes) if mask >> k & 1}
        if acyclic(upper, c.arcs) and acyclic(set(nodes) - upper, c.arcs):
            return True
    return False


def plain_backtracking(run):
    """``run()`` with every search failure blaming all earlier depths, so
    the searches back up one depth at a time."""
    search = plan._search

    def plain(n, step, undo, budget, what):
        def blame_all(i, b):
            return None if step(i, b) is None else (1 << i) - 1

        return search(n, blame_all, undo, budget, what)

    plan._search = plain
    try:
        return run()
    finally:
        plan._search = search


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-edges", type=int, default=7)
    ap.add_argument("--max-pairs", type=int, default=10)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    solvable = splits = mismatches = 0
    for k in range(args.trials):
        g, pairs = random_instance(rng, args.max_edges, args.max_pairs)
        witness = exists_arrangement(g, pairs)
        if witness != plain_backtracking(lambda: exists_arrangement(g, pairs)):
            mismatches += 1
            print(f"MISMATCH trial {k}: plain backtracking finds another witness")
        want = brute_force(g, pairs)
        if (witness is not None) != want:
            mismatches += 1
            print(f"MISMATCH trial {k}: exact={witness is not None} brute={want}")
            continue
        if witness is not None:
            solvable += 1
            if not verify_collision_free(g, pairs, witness).ok:
                mismatches += 1
                print(f"MISMATCH trial {k}: witness does not verify")
        c = build_collision_graph(g, pairs)
        dec = decide_partition(c)
        if dec != plain_backtracking(lambda: decide_partition(c)):
            mismatches += 1
            print(f"MISMATCH trial {k}: plain backtracking decides the split otherwise")
        if dec.found:
            splits += 1
            heights = assign_heights(g, pairs, dec.partition)
            if not verify_collision_free(g, pairs, heights).ok:
                mismatches += 1
                print(f"MISMATCH trial {k}: swept heights do not verify")
        elif brute_force_split(c):
            mismatches += 1
            print(f"MISMATCH trial {k}: split search says {dec.reason}, but a split exists")
    dt = time.perf_counter() - t0

    print(f"{args.trials} trials, seed {args.seed}: {solvable} solvable, "
          f"{splits} with an acyclic split, {mismatches} mismatches, {dt:.2f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
