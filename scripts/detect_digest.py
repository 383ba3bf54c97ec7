#!/usr/bin/env python3
"""Print one sha256 over detection's exact output on a fixed seeded corpus.

usage: PYTHONPATH=src python scripts/detect_digest.py [--each] [--expect HEX] [--bounds]

Two checkouts that print the same digest give byte-identical detection
results: pairs with their witness times and gaps, ambiguous probes, clear
margins, probe counts, warnings and ``DetectionError`` failure lists.
``--each`` also prints one digest per instance, to find the one that moved.
``--expect HEX`` exits 1 unless the digest is HEX.  Detection's floats come
from numpy's ``sin`` and ``cos``, whose last bit may differ from one CPU to
another, so the digest is only comparable on one machine.

``--bounds`` first checks the rule that lets detection drop pairs: with
``check_bounds`` (``tests/synth.py``) it refines every bracket of every
pair of every instance with the tier-1 reference ``refine_everything``,
prints per instance how many pairs the coarse and then the fine grid keep,
and how many of all brackets detection refines, and exits 1 if detection's
brackets are not exactly all brackets of the pairs the fine grid keeps, if
a pair's bound on either grid exceeds one of its refined minima, or if a
dropped pair refines below ten times eps or below the clear margin of the
kept pairs.  Those are inequalities, so they hold on every CPU.

The corpus: three seeded detect ladders (dixon1 K(10,10) and K(14,14) and a
dixon2), s2, dixon2(1,2,3), the README K(4,3) at the default and at a dense
grid, ten seeded small dixon1 K(m,n), a graph whose constants sit under
powers, and one instance each that fails on the grid, fails during
refinement and lands in the ambiguity band.
"""
import argparse
import hashlib
import math
import random
import sys
from pathlib import Path

import numpy as np

from lmodel import exprs as E
from lmodel.collide import DetectionConfig
from lmodel.families import Dixon1Params, Dixon2Params, dixon1, dixon2, s2
from lmodel.motion import MovingGraph

# the outcome text and the pruning checker of the tier-1 tests
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from synth import check_bounds, outcome  # noqa: E402


def _radii(rng, count):
    out, cur = [], 0.0
    for _ in range(count):
        cur = round(cur + rng.uniform(0.5, 2.0), 3)
        out.append(cur)
    return tuple(out)


def _dixon1_params(rng, m, n):
    return Dixon1Params(
        m,
        n,
        _radii(rng, m - 1),
        _radii(rng, n - 1),
        tuple(rng.choice((1, -1)) for _ in range(m - 1)),
        tuple(rng.choice((1, -1)) for _ in range(n - 1)),
    )


def _static(vertices, edges, coords):
    motion = {
        v: tuple(E.parse_expression(c) if isinstance(c, str) else c for c in xy)
        for v, xy in zip(vertices, coords)
    }
    return MovingGraph(tuple(vertices), tuple(edges), motion)


def corpus():
    """(name, graph, config) triples, always in the same order."""
    for seed in (0, 7, 11):
        rng = random.Random(seed)
        yield f"ladder{seed}-dixon1-10x10", dixon1(_dixon1_params(rng, 10, 10)), None
        yield f"ladder{seed}-dixon1-14x14", dixon1(_dixon1_params(rng, 14, 14)), None
        a = round(rng.uniform(0.8, 1.5), 3)
        p = Dixon2Params(a, round(a + rng.uniform(0.5, 2.0), 3), round(a + rng.uniform(0.5, 2.0), 3))
        yield f"ladder{seed}-dixon2", dixon2(p), None
    yield "s2", s2(), None
    yield "dixon2-1-2-3", dixon2(Dixon2Params(1.0, 2.0, 3.0)), None
    readme = dixon1(Dixon1Params(4, 3, (1.0, 2.0, 3.0), (1.0, 2.0), (1, -1, 1), (1, -1)))
    yield "readme-4x3", readme, None
    yield "readme-4x3-dense", readme, DetectionConfig(samples=20011)
    rng = random.Random(1)
    for k in range(10):
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        yield f"dixon1-{k}-{m}x{n}", dixon1(_dixon1_params(rng, m, n)), None
    yield "const-powers", _static(
        ("a", "b", "c", "d"),
        (("a", "b"), ("c", "d")),
        (
            ("2^3*sin(t)/8", "0.5^2*cos(t)"),
            ("3^3*sin(t)/27+1", "1.5^2*cos(t)"),
            ("sin(t)^3", "cos(2*t)-0.7^3"),
            ("(1+0.3)^2*cos(t)", "t^2/9-1.1^5"),
        ),
    ), None
    yield "grid-error", _static(
        ("a", "b", "c"), (("b", "c"),), (("sqrt(sin(t))", "0"), ("0", "0"), ("1", "0"))
    ), None
    ts = np.linspace(0.0, 2 * math.pi, DetectionConfig().samples)
    c = repr(float((ts[1000] + ts[1001]) / 2))
    yield "refine-error", _static(
        ("s0", "s1", "v", "w"),
        (("s0", "s1"), ("v", "w")),
        (("-1", "0"), ("1", "0"), ("0", f"sqrt((t-{c})^2-0.0000000001)"), ("0", "5")),
    ), None
    yield "ambiguity-band", _static(
        ("s0", "s1", "v"), (("s0", "s1"),), (("-1", "0"), ("1", "0"), ("0", "0.00071"))
    ), None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--each", action="store_true", help="also print one digest per instance")
    ap.add_argument("--expect", metavar="HEX", help="exit 1 unless the digest is HEX")
    ap.add_argument(
        "--bounds",
        action="store_true",
        help="check the pair bounds and the dropped pairs against refined minima",
    )
    args = ap.parse_args()
    above = 0
    if args.bounds:
        for name, g, cfg in corpus():
            pairs, (coarse, fine), total, refined, bad = check_bounds(g, cfg)
            above += bad
            print(
                f"kept {coarse:5d} then {fine:5d} of {pairs:5d} pairs, "
                f"{refined:5d} of {total:6d} brackets refined  {name}"
            )
            if bad:
                print(f"detect_digest: {bad} fault(s) in the pruning of {name}", file=sys.stderr)
    total = hashlib.sha256()
    for name, g, cfg in corpus():
        text = f"{name}\n{outcome(g, cfg)}\n".encode()
        total.update(text)
        if args.each:
            print(f"{hashlib.sha256(text).hexdigest()[:16]}  {name}")
    print(total.hexdigest())
    if above:
        return 1
    if args.expect is not None and total.hexdigest() != args.expect:
        print(f"detect_digest: expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
