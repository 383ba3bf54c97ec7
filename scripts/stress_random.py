#!/usr/bin/env python3
"""Randomized stress run for the planning layer.

Builds random synthetic instances (static graphs of up to 7 edges with up
to 10 freely declared collision pairs) and checks the exact decision against brute-force
enumeration of all height orders.  Where the bipartition route finds a
split, the swept heights must verify; where it finds none ("exhausted" or
"not-bipartite"), brute-force enumeration of all splits must find none
either.  Both searches are also rerun as plain backtracking, every failure
blaming every earlier choice: backjumping must find the same witness and
the same split decision.  Each trial also splits a dense oriented collision
graph of 10 to 14 nodes, big enough that the split search backs up over
several choices, and compares it with plain backtracking and, up to 10
nodes, with every split.  Every "not-bipartite" witness must be a shortest
odd cycle: its length is compared with the odd girth of the two-cycle
structure, found by BFS on its bipartite double cover.  Exits nonzero on
any mismatch.
"""
import argparse
import random
import sys
import time
from pathlib import Path

from lmodel import plan
from lmodel.cgraph import build_collision_graph
from lmodel.plan import (
    assign_heights,
    decide_partition,
    exists_arrangement,
    verify_collision_free,
)

# the generators and brute-force references of the tier-1 tests
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from synth import (  # noqa: E402
    brute_force_exists,
    brute_force_split,
    odd_girth,
    oriented_graph,
    random_instance,
)


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
    args = ap.parse_args()

    rng = random.Random(args.seed)
    dense_rng = random.Random(f"{args.seed}-dense")  # leaves rng's instances as they were
    t0 = time.perf_counter()
    solvable = splits = odd = mismatches = 0
    for k in range(args.trials):
        g, pairs = random_instance(rng, max_edges=7, max_pairs=10)
        witness = exists_arrangement(g, pairs)
        if witness != plain_backtracking(lambda: exists_arrangement(g, pairs)):
            mismatches += 1
            print(f"MISMATCH trial {k}: plain backtracking finds another witness")
        want = brute_force_exists(g, pairs)
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
        if dec.reason == "not-bipartite":
            odd += 1
            girth = odd_girth(c.partners)
            length = len(dec.odd_cycle) - 1
            if length != girth:
                mismatches += 1
                print(f"MISMATCH trial {k}: odd cycle of {length}, but the odd girth is {girth}")
        dense = oriented_graph(dense_rng, dense_rng.randint(10, 14), 0.6)
        dec = decide_partition(dense)
        if dec != plain_backtracking(lambda: decide_partition(dense)):
            mismatches += 1
            print(f"MISMATCH trial {k}: plain backtracking splits the dense graph otherwise")
        if len(dense.nodes) <= 10 and dec.found != brute_force_split(dense):
            mismatches += 1
            print(f"MISMATCH trial {k}: dense split={dec.found} brute={not dec.found}")
    dt = time.perf_counter() - t0

    print(f"{args.trials} trials, seed {args.seed}: {solvable} solvable, "
          f"{splits} with an acyclic split, {odd} not bipartite, {mismatches} mismatches, "
          f"{dt:.2f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
