#!/usr/bin/env python3
"""Run the three built-in families through the whole pipeline and print a summary.

For each instance: detect collisions, try the acyclic-bipartition route, then
settle the question exactly. Timings are wall clock.
"""
import time

from lmodel.cgraph import build_collision_graph
from lmodel.collide import detect_all
from lmodel.families import Dixon1Params, Dixon2Params, dixon1, dixon2, s2
from lmodel.plan import assign_heights, decide_partition, exists_arrangement


def run(name, g):
    t0 = time.perf_counter()
    result = detect_all(g)
    t_detect = time.perf_counter() - t0
    c = build_collision_graph(g, result.pairs)

    t0 = time.perf_counter()
    decision = decide_partition(c)
    if decision.found:
        heights = assign_heights(g, result.pairs, decision.partition)
        plan = f"split found, heights {min(heights.values())}..{max(heights.values())}"
    else:
        plan = f"no split ({decision.reason})"
        if decision.odd_cycle:
            plan += f", odd cycle {' - '.join(decision.odd_cycle[:-1])}"
    t_plan = time.perf_counter() - t0

    t0 = time.perf_counter()
    witness = exists_arrangement(g, result.pairs)
    t_exact = time.perf_counter() - t0
    exact = "YES" if witness is not None else "NO"

    print(f"{name}")
    print(f"  graph     {len(g.vertices)} vertices, {len(g.edges)} edges")
    margin = "-" if result.clear_margin is None else f"{result.clear_margin:.4f}"
    print(f"  detect    {len(result.pairs)} collision pairs of {result.probed} probed, "
          f"clear margin {margin}, {t_detect:.3f}s")
    print(f"  cgraph    {sum(map(len, c.succ))} arcs, {len(c.two_cycles)} two-cycles")
    print(f"  plan      {plan}, {t_plan:.3f}s")
    print(f"  exists    {exact}, {t_exact:.3f}s")
    print()


def main():
    run("axis family K(4,3), radii (1,2,3)/(1,2), signs (+,-,+)/(+,-)",
        dixon1(Dixon1Params(4, 3, (1.0, 2.0, 3.0), (1.0, 2.0), (1, -1, 1), (1, -1))))
    run("separating instance (8 vertices, 13 edges)", s2())
    run("bound family K(4,4), lengths a=1 b=2 d=3", dixon2(Dixon2Params(1.0, 2.0, 3.0)))


if __name__ == "__main__":
    main()
