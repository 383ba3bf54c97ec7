"""Seeded inputs for the three workloads.

All of this is set-up: the families build graphs here, and a timed pass
only ever sees the graph JSON text, pair records and command lines made
here.  The same seed always gives the same inputs.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from lmodel import CollisionPair, Dixon1Params, Dixon2Params, dixon1, dixon2, s2, save_graph

import oracle

WORKLOADS = ("detect-ladder", "plan-synth", "cli-quickstart")

# detect-ladder instance names, also used as trace instance ids
LADDER = ("dixon1-10x10", "dixon1-14x14", "s2", "dixon2")


@dataclass(frozen=True)
class Instance:
    name: str
    family: str  # dixon1 | dixon2 | s2 | synth
    graph_text: str
    edges: tuple[tuple[str, str], ...]
    expected_pairs: frozenset | None = None  # (vertex, edge label), for detection
    pairs: tuple[CollisionPair, ...] = ()  # declared pairs, synth only
    expect_split: str = ""  # frozen decide_partition outcome, synth only
    expect_exists: str = ""  # frozen exists answer, synth only


def _radii(rng: random.Random, count: int) -> tuple[float, ...]:
    out, cur = [], 0.0
    for _ in range(count):
        cur = round(cur + rng.uniform(0.5, 2.0), 3)
        out.append(cur)
    return tuple(out)


def dixon1_params(rng: random.Random, m: int, n: int) -> Dixon1Params:
    return Dixon1Params(
        m,
        n,
        _radii(rng, m - 1),
        _radii(rng, n - 1),
        tuple(rng.choice((1, -1)) for _ in range(m - 1)),
        tuple(rng.choice((1, -1)) for _ in range(n - 1)),
    )


def dixon2_params(rng: random.Random) -> Dixon2Params:
    a = round(rng.uniform(0.8, 1.5), 3)
    return Dixon2Params(
        a, round(a + rng.uniform(0.5, 2.0), 3), round(a + rng.uniform(0.5, 2.0), 3)
    )


def _dixon1_instance(name: str, p: Dixon1Params) -> Instance:
    return Instance(
        name,
        "dixon1",
        save_graph(dixon1(p)),
        tuple(oracle.dixon1_edges(p.m, p.n)),
        frozenset(oracle.dixon1_pairs(p.m, p.n, p.sx, p.sy)),
    )


def _dixon2_instance(p: Dixon2Params) -> Instance:
    return Instance(
        "dixon2",
        "dixon2",
        save_graph(dixon2(p)),
        tuple(oracle.dixon2_edges()),
        frozenset(oracle.dixon2_pairs()),
    )


def detect_ladder(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    g = s2()
    return [
        _dixon1_instance("dixon1-10x10", dixon1_params(rng, 10, 10)),
        _dixon1_instance("dixon1-14x14", dixon1_params(rng, 14, 14)),
        Instance("s2", "s2", save_graph(g), g.edges, oracle.S2_PAIRS),
        _dixon2_instance(dixon2_params(rng)),
    ]


# ---------------------------------------------------------------------------
# plan-synth

# The instance pool is drawn once from POOL_SEED; a run's seed renames the
# vertices and flips edge orientations.  That keeps every answer, so
# SYNTH_EXPECT checks every seed, and keeps edge and pair order, on which
# the search work depends: shuffling them as well moved the pass time of
# this heavy-tailed search by 30% (IQR over median) from seed to seed.
POOL_SEED = 0
SYNTH_SIZES = (20, 30, 40)
SYNTH_PER_SIZE = 8
# per pool instance: split outcome (F found, B not-bipartite, X exhausted,
# R refused by the free-node cap) and exists answer (Y, N); computed once
# without caps and frozen
SYNTH_EXPECT = "FYBNXYBNBNBNFYBNBNFYFYBNBYBNBNFYFYXYFYFYFYRYFYRY"


def _pool() -> list[tuple[int, list[tuple[int, int]], list[tuple[int, int]]]]:
    """(vertex count, edges as vertex index pairs, pairs as (vertex, edge index))."""
    rng = random.Random(POOL_SEED)
    pool = []
    for size in SYNTH_SIZES:
        for _ in range(SYNTH_PER_SIZE):
            nv = rng.randint(round(size * 0.35), size // 2)
            edges = rng.sample([(a, b) for a in range(nv) for b in range(a + 1, nv)], size)
            cand = [(v, k) for v in range(nv) for k, e in enumerate(edges) if v not in e]
            pairs = rng.sample(cand, round(size * rng.uniform(1.2, 1.5)))
            pool.append((nv, edges, pairs))
    return pool


def plan_synth(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    out = []
    for k, (nv, edges, pairs) in enumerate(_pool()):
        names = [f"n{i}" for i in rng.sample(range(nv), nv)]
        oriented = [
            (names[b], names[a]) if rng.random() < 0.5 else (names[a], names[b])
            for a, b in edges
        ]
        text = json.dumps(
            {
                "vertices": [{"id": names[i], "x": str(i), "y": "0"} for i in range(nv)],
                "edges": [list(e) for e in oriented],
            }
        )
        out.append(
            Instance(
                f"synth-{len(edges)}e-{k % SYNTH_PER_SIZE}",
                "synth",
                text,
                tuple(oriented),
                pairs=tuple(CollisionPair(names[v], oriented[i], 0.0, 0.0) for v, i in pairs),
                expect_split=SYNTH_EXPECT[2 * k],
                expect_exists=SYNTH_EXPECT[2 * k + 1],
            )
        )
    return out


# ---------------------------------------------------------------------------
# cli-quickstart


@dataclass(frozen=True)
class CliStep:
    command: str
    args: tuple[str, ...]
    expect_exit: int


@dataclass(frozen=True)
class CliCase:
    instance: Instance
    steps: tuple[CliStep, ...]
    files: dict = field(default_factory=dict)  # name -> text written at set-up


def _csv(vals) -> str:
    return ",".join(repr(float(v)) for v in vals)


def _signs(vals) -> str:
    return ",".join("+" if s > 0 else "-" for s in vals)


def _steps(prefix: str, generate: tuple[str, ...], heights: str, no: bool) -> tuple[CliStep, ...]:
    gj, pj = f"{prefix}graph.json", f"{prefix}pairs.json"
    code = 1 if no else 0
    return (
        CliStep("generate", ("generate",) + generate + ("--out", gj), 0),
        CliStep("validate", ("validate", gj, "--out", f"{prefix}validate.json"), 0),
        CliStep("detect", ("detect", gj, "--out", pj), 0),
        CliStep("cgraph", ("cgraph", gj, pj, "--dot", f"{prefix}cgraph.dot"), 0),
        CliStep("plan", ("plan", gj, pj, "--out", f"{prefix}plan.json"), code),
        CliStep("verify", ("verify", gj, pj, heights, "--out", f"{prefix}verify.json"), code),
        CliStep("exists", ("exists", gj, pj, "--out", f"{prefix}exists.json"), code),
    )


def cli_quickstart(seed: int) -> list[CliCase]:
    """The README quick-start on a seeded dixon1 K(4,3), where every command
    exits 0, and on a seeded dixon2, where plan, verify and exists exit 1.
    dixon2 has no split, so verify checks a candidate table written at
    set-up; no table can pass there."""
    rng = random.Random(seed)
    p1 = dixon1_params(rng, 4, 3)
    p2 = dixon2_params(rng)
    # "--sx=-,+" keeps argparse from reading a leading "-" as an option
    gen1 = ("--family", "dixon1", "--m", "4", "--n", "3", "--a", _csv(p1.a), "--b", _csv(p1.b),
            f"--sx={_signs(p1.sx)}", f"--sy={_signs(p1.sy)}")
    gen2 = ("--family", "dixon2", "--a", repr(p2.a), "--b", repr(p2.b), "--d", repr(p2.d))
    labels = [oracle.label(*e) for e in oracle.dixon2_edges()]
    candidate = json.dumps({"heights": {lab: i for i, lab in enumerate(labels)}})
    return [
        CliCase(_dixon1_instance("dixon1-4x3", p1), _steps("d1-", gen1, "d1-plan.json", False)),
        CliCase(
            _dixon2_instance(p2),
            _steps("d2-", gen2, "d2-candidate.json", True),
            {"d2-candidate.json": candidate},
        ),
    ]


def build(workload: str, seed: int):
    if workload == "detect-ladder":
        return detect_ladder(seed)
    if workload == "plan-synth":
        return plan_synth(seed)
    if workload == "cli-quickstart":
        return cli_quickstart(seed)
    raise ValueError(f"unknown workload {workload!r}")
