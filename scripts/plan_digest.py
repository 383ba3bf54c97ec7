#!/usr/bin/env python3
"""Print one sha256 over planning's exact output on a fixed seeded corpus.

usage: PYTHONPATH=src python scripts/plan_digest.py [--each] [--expect HEX]

Two checkouts that print the same digest plan byte for byte alike: the
``decide_partition`` decisions (partition, reason, odd cycle), the
``assign_heights`` tables of found and of forced splits, the cycle of every
forced split that ``assign_heights`` refuses with ``CyclicGraphError``, the
``verify_collision_free`` reports and the ``exists_arrangement`` witnesses.
Error messages are left out: a refused split records its cycle, a search
that runs past its budget only that it did.
``--each`` also prints one digest per instance, to find the one that moved.
``--expect HEX`` exits 1 unless the digest is HEX.  The output holds no
floats, so the digest is the same on every platform.

The corpus: the README K(4,3), s2, dixon2(1,2,3), dixon1 K(6,6) and
K(10,10) with the CLI's default radii and signs (pairs from ``detect_all``),
and seeded static graphs of 10 to 30 edges with freely declared pairs.
"""
import argparse
import hashlib
import random
import sys
from pathlib import Path

from lmodel.cgraph import build_collision_graph
from lmodel.collide import detect_all
from lmodel.families import Dixon1Params, Dixon2Params, dixon1, dixon2, s2
from lmodel.motion import SearchCapError
from lmodel.plan import (
    CyclicGraphError,
    Partition,
    assign_heights,
    decide_partition,
    exists_arrangement,
    verify_collision_free,
)

# the instance generators of the tier-1 tests
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from synth import axis_params, fake_pairs, static_graph  # noqa: E402


def _static(rng, n_edges, pair_factor):
    """A static graph with ``n_edges`` random edges and random declared pairs."""
    nv = max(4, int(n_edges**0.5 * 2))
    possible = [(f"n{a}", f"n{b}") for a in range(nv) for b in range(a + 1, nv)]
    g = static_graph(nv, rng.sample(possible, n_edges))
    cand = [(v, e) for v in g.vertices for e in g.edges if v not in e]
    return g, fake_pairs(rng.sample(cand, min(len(cand), int(n_edges * pair_factor))))


def corpus():
    """(name, graph, pairs) triples, always in the same order."""
    readme = dixon1(Dixon1Params(4, 3, (1.0, 2.0, 3.0), (1.0, 2.0), (1, -1, 1), (1, -1)))
    for name, g in (
        ("readme-4x3", readme),
        ("s2", s2()),
        ("dixon2-1-2-3", dixon2(Dixon2Params(1.0, 2.0, 3.0))),
        ("dixon1-6x6", dixon1(axis_params(6, 6))),
        ("dixon1-10x10", dixon1(axis_params(10, 10))),
    ):
        yield name, g, detect_all(g).pairs
    rng = random.Random(5)
    for k in range(24):
        n_edges = 10 + k % 21 if k < 21 else 30
        factor = (0.3, 0.6, 1.0, 1.5)[k % 4]
        g, pairs = _static(rng, n_edges, factor)
        yield f"static-{k}-{n_edges}e-{len(pairs)}p", g, pairs


def _heights(g, pairs, partition, out):
    try:
        heights = assign_heights(g, pairs, partition)
    except CyclicGraphError as err:
        out.append(f"cyclic {err.cycle!r}")
        return
    out.append(f"heights {heights!r}")
    out.append(f"verify {verify_collision_free(g, pairs, heights)!r}")


def outcome(g, pairs, seed):
    """The exact text of what planning returns on one instance."""
    out = []
    labels = g.edge_labels
    c = build_collision_graph(g, pairs)
    try:
        decision = decide_partition(c)
    except SearchCapError:
        out.append("decide SearchCapError")
    else:
        out.append(f"decide {decision!r}")
        if decision.found:
            _heights(g, pairs, decision.partition, out)
    rng = random.Random(seed)
    forced = [Partition(labels, ()), Partition((), labels)]
    for _ in range(6):
        up = {lab for lab in labels if rng.random() < 0.5}
        forced.append(
            Partition(tuple(l for l in labels if l in up), tuple(l for l in labels if l not in up))
        )
    for p in forced:
        _heights(g, pairs, p, out)
    for _ in range(2):
        scrambled = {lab: rng.randint(-3, 3) for lab in labels}
        out.append(f"verify {verify_collision_free(g, pairs, scrambled)!r}")
    out.append(f"exists {exists_arrangement(g, pairs)!r}")
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--each", action="store_true", help="also print one digest per instance")
    ap.add_argument("--expect", metavar="HEX", help="exit 1 unless the digest is HEX")
    args = ap.parse_args()
    total = hashlib.sha256()
    for k, (name, g, pairs) in enumerate(corpus()):
        text = f"{name}\n{outcome(g, pairs, k)}\n".encode()
        total.update(text)
        if args.each:
            print(f"{hashlib.sha256(text).hexdigest()[:16]}  {name}")
    print(total.hexdigest())
    if args.expect is not None and total.hexdigest() != args.expect:
        print(f"plan_digest: expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
