"""Command-line pipeline.

Exit codes follow one rule everywhere: 0 means success (and "yes" for
decision commands), 1 means a sound mathematical "no" (no valid partition,
no arrangement, verification failed), 2 means the run itself went wrong
(bad usage, unreadable file, invalid data, internal error).  Results go to
stdout or --out as JSON; progress, timings, warnings, tracebacks to stderr.
"""
from __future__ import annotations

import argparse
import sys
import time

from .exprs import ExprDomainError
from .motion import (
    DetectionError,
    MovingGraph,
    SearchCapError,
    load_graph,
    pairs_from_json,
    pairs_to_json,
    save_graph,
    to_json,
)

# Each command imports only the modules it runs: only detect and validate
# evaluate trajectories, so only they import numpy, and only the planning
# commands import the collision graph and the planner.  The library names
# (``lmodel.__all__``) resolve here through the package's one table on first
# use, and the commands look them up in this module at call time
# (``_bound``), so a caller can still replace them here.
_package = sys.modules[__package__]


def __getattr__(name: str):
    # only library names: anything else, ``__path__`` among them, is absent
    if name not in _package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_package, name)


def _bound(name: str):
    return getattr(sys.modules[__name__], name)


EXIT_OK = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_graph_file(path: str) -> MovingGraph:
    return load_graph(_read(path))


def _float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None


def _csv_floats(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in raw.split(",") if x.strip() != "")
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {raw!r}") from None


_SIGNS = {"+": 1, "-": -1, "+1": 1, "-1": -1, "1": 1}


def _csv_signs(raw: str) -> tuple[int, ...]:
    out = []
    for piece in raw.split(","):
        piece = piece.strip()
        if piece == "":
            continue
        if piece not in _SIGNS:
            raise ValueError(f"signs must be '+' or '-', got {piece!r}")
        out.append(_SIGNS[piece])
    return tuple(out)


def _interval(raw: str) -> tuple[float, float]:
    """The ``--interval`` option 'a:b'; a parse error names the option."""
    parts = raw.split(":")
    try:
        if len(parts) != 2:
            raise ValueError(f"expected an interval 'a:b', got {raw!r}")
        return _float(parts[0]), _float(parts[1])
    except ValueError as err:
        raise ValueError(f"--interval: {err}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args: argparse.Namespace) -> int:
    def option(name: str, parse):
        """Option --name parsed by ``parse``; a parse error names the option."""
        try:
            return parse(getattr(args, name))
        except ValueError as err:
            raise ValueError(f"--{name}: {err}") from None

    fam = args.family
    if fam == "dixon1":
        if args.m is None or args.n is None:
            raise ValueError("dixon1 needs --m and --n")
        m, n = args.m, args.n
        a = option("a", _csv_floats) if args.a else tuple(float(k) for k in range(1, m))
        b = option("b", _csv_floats) if args.b else tuple(float(k) for k in range(1, n))
        sx = option("sx", _csv_signs) if args.sx else (1,) * (m - 1)
        sy = option("sy", _csv_signs) if args.sy else (1,) * (n - 1)
        g = _bound("dixon1")(_bound("Dixon1Params")(m, n, a, b, sx, sy))
    elif fam == "dixon2":
        if args.a is None or args.b is None or args.d is None:
            raise ValueError("dixon2 needs --a, --b and --d")
        g = _bound("dixon2")(_bound("Dixon2Params")(*(option(k, _float) for k in "abd")))
    else:
        given = {k: option(k, _float) for k in "abc" if getattr(args, k) is not None}
        g = _bound("s2")(_bound("S2Params")(**given))
    _emit(save_graph(g), args.out)
    _say(f"generate: {fam} with {len(g.vertices)} vertices, {len(g.edges)} edges")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    g = _load_graph_file(args.graph)
    validate = _bound("validate_edge_lengths")
    t0 = time.perf_counter()
    report = validate(g, samples=args.samples, tol=args.tol)
    dt = time.perf_counter() - t0
    data = {
        "pass": report.passed,
        "tol": report.tol,
        "samples": args.samples,
        "edges": [
            {"edge": list(s.edge), "mean": s.mean, "max_deviation": s.max_deviation}
            for s in report.edges
        ],
        "isolated_vertices": list(g.isolated_vertices),
    }
    _emit(to_json(data), args.out)
    worst = max((s.max_deviation for s in report.edges), default=0.0)
    _say(f"validate: {len(report.edges)} edges, worst deviation {worst:.17g}, {dt:.3f}s")
    if g.isolated_vertices:
        _say(f"validate: isolated vertices present: {', '.join(g.isolated_vertices)}")
    return EXIT_OK if report.passed else EXIT_NO


def cmd_detect(args: argparse.Namespace) -> int:
    g = _load_graph_file(args.graph)
    if args.interval is not None:
        domain = _interval(args.interval)
        try:
            g = MovingGraph(g.vertices, g.edges, g.motion, domain)
        except ValueError as err:
            raise ValueError(f"--interval: {err}") from None
    cfg = _bound("DetectionConfig")(samples=args.samples, collide_eps=args.eps)
    t0 = time.perf_counter()
    result = _bound("detect_all")(g, cfg)
    dt = time.perf_counter() - t0
    _warn_if_not_periodic(g)
    margin = result.clear_margin if args.report_margin else None
    _emit(pairs_to_json(result.pairs, args.graph, margin=margin), args.out)
    _say(f"detect: {result.probed} pairs probed, {len(result.pairs)} collisions, {dt:.3f}s")
    if result.clear_margin is not None:
        _say(f"detect: clear margin {result.clear_margin:.17g}")
    for probe in result.ambiguous:
        _say(
            f"detect: AMBIGUOUS ({probe.vertex}, {probe.edge[0]}-{probe.edge[1]}): "
            f"min gap {probe.min_gap:.17g} at t={probe.witness_t:.17g}"
        )
    return EXIT_OK


def _warn_if_not_periodic(g: MovingGraph) -> None:
    """Warn about the first vertex that ends the domain away from its start.

    Runs after detection, whose grid holds both ends: a vertex that fails
    to evaluate there has failed every pair it is in, so it is on no pair
    and is skipped.
    """
    t0, t1 = g.domain
    eval_position = _bound("eval_position")
    for v in g.vertices:
        try:
            x0, y0 = eval_position(g, v, t0)
            x1, y1 = eval_position(g, v, t1)
        except ExprDomainError:
            continue
        if abs(x0 - x1) > 1e-9 or abs(y0 - y1) > 1e-9:
            _say(
                f"detect: warning: motion of {v!r} does not return to its start over "
                f"[{t0:.17g}, {t1:.17g}]; collisions outside this window are not seen"
            )
            return


def cmd_cgraph(args: argparse.Namespace) -> int:
    g = _load_graph_file(args.graph)
    pairs = pairs_from_json(_read(args.pairs), g)
    c = _bound("build_collision_graph")(g, pairs)
    _emit(_bound("to_dot")(c), args.dot)
    arcs = sum(map(len, c.succ))
    _say(f"cgraph: {len(c.nodes)} nodes, {arcs} arcs, {len(c.two_cycles)} two-cycles")
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    g = _load_graph_file(args.graph)
    pairs = pairs_from_json(_read(args.pairs), g)
    assign = _bound("assign_heights")
    t0 = time.perf_counter()
    if args.upper is not None:
        wanted = tuple(x.strip() for x in args.upper.split(",") if x.strip() != "")
        partition = _bound("make_partition")(g.edge_labels, wanted)
        try:
            heights = assign(g, pairs, partition)
        except _bound("CyclicGraphError") as err:
            side, cycle = err.side, list(err.cycle)
            data = dict(result="NO", reason="partition-not-acyclic", side=side, cycle=cycle)
            _emit(to_json(data), args.out)
            _say(f"plan: the given {side} class contains the cycle {' -> '.join(cycle)}")
            return EXIT_NO
    else:
        decision = _bound("decide_partition")(_bound("build_collision_graph")(g, pairs))
        if not decision.found:
            data = {"result": "NO", "reason": decision.reason}
            if decision.odd_cycle is not None:
                data["odd_cycle"] = list(decision.odd_cycle)
            _emit(to_json(data), args.out)
            dt = time.perf_counter() - t0
            _say(f"plan: no acyclic bipartition ({decision.reason}), {dt:.3f}s")
            return EXIT_NO
        partition = decision.partition
        heights = assign(g, pairs, partition)
    _emit(_bound("heights_to_json")(g.edge_labels, heights, partition), args.out)
    dt = time.perf_counter() - t0
    if heights:
        _say(f"plan: heights span [{min(heights.values())}, {max(heights.values())}], {dt:.3f}s")
    else:
        _say(f"plan: no edges, so no heights, {dt:.3f}s")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph_file(args.graph)
    pairs = pairs_from_json(_read(args.pairs), g)
    heights, _ = _bound("heights_from_json")(_read(args.heights))
    report = _bound("verify_collision_free")(g, pairs, heights)
    data = {
        "ok": report.ok,
        "violations": [
            {
                "vertex": v.vertex,
                "edge": list(v.edge),
                "edge_height": v.edge_height,
                "range": [v.lo, v.hi],
            }
            for v in report.violations
        ],
    }
    _emit(to_json(data), args.out)
    _say(f"verify: {len(report.violations)} violation(s) over {len(pairs)} pairs")
    return EXIT_OK if report.ok else EXIT_NO


def cmd_exists(args: argparse.Namespace) -> int:
    g = _load_graph_file(args.graph)
    pairs = pairs_from_json(_read(args.pairs), g)
    exists = _bound("exists_arrangement")
    t0 = time.perf_counter()
    witness = exists(g, pairs)
    dt = time.perf_counter() - t0
    if witness is None:
        _emit(to_json({"result": "NO"}), args.out)
        _say(f"exists: no collision-free arrangement, {dt:.3f}s")
        return EXIT_NO
    data = {"result": "YES", "heights": {lab: witness[lab] for lab in g.edge_labels}}
    _emit(to_json(data), args.out)
    _say(f"exists: witness found, {dt:.3f}s")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lmodel",
        description="Detect vertex-edge collisions in a planar moving graph and "
        "plan collision-free integer heights for its edges.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a built-in family instance as graph JSON")
    g.add_argument("--family", required=True, choices=("dixon1", "dixon2", "s2"))
    g.add_argument("--m", type=int, help="dixon1: size of the x-axis class")
    g.add_argument("--n", type=int, help="dixon1: size of the y-axis class")
    g.add_argument("--a", help="dixon1: csv radii; dixon2/s2: length parameter a")
    g.add_argument("--b", help="dixon1: csv radii; dixon2/s2: length parameter b")
    g.add_argument("--c", help="s2: length parameter c")
    g.add_argument("--d", help="dixon2: length parameter d")
    g.add_argument("--sx", help="dixon1: csv axis-side signs for p1..")
    g.add_argument("--sy", help="dixon1: csv axis-side signs for q1..")
    g.add_argument("--out")
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser("validate", help="check that every edge length stays constant")
    v.add_argument("graph")
    v.add_argument("--samples", type=int, default=512)
    v.add_argument(
        "--tol",
        type=float,
        default=1e-9,
        help="largest deviation of an edge's length from its mean, times max(1, mean length) "
        "(default %(default)g)",
    )
    v.add_argument("--out")
    v.set_defaults(func=cmd_validate)

    d = sub.add_parser("detect", help="find all vertex-edge collision pairs")
    d.add_argument("graph")
    d.add_argument("--samples", type=int, default=2048)
    d.add_argument("--eps", type=float, default=1e-7)
    d.add_argument("--interval", help="override the analysis interval, as 'a:b'")
    d.add_argument("--report-margin", action="store_true")
    d.add_argument("--out")
    d.set_defaults(func=cmd_detect)

    c = sub.add_parser("cgraph", help="export the collision graph as DOT")
    c.add_argument("graph")
    c.add_argument("pairs")
    c.add_argument("--dot", help="output path (default stdout)")
    c.set_defaults(func=cmd_cgraph)

    p = sub.add_parser("plan", help="find heights via an acyclic bipartition")
    p.add_argument("graph")
    p.add_argument("pairs")
    p.add_argument("--upper", help="csv edge labels to force into the upper class")
    p.add_argument("--out")
    p.set_defaults(func=cmd_plan)

    w = sub.add_parser("verify", help="check a height assignment against the pairs")
    w.add_argument("graph")
    w.add_argument("pairs")
    w.add_argument("heights")
    w.add_argument("--out")
    w.set_defaults(func=cmd_verify)

    e = sub.add_parser("exists", help="decide exactly whether any heights work")
    e.add_argument("graph")
    e.add_argument("pairs")
    e.add_argument("--out")
    e.set_defaults(func=cmd_exists)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (  # GraphFormatError is a ValueError
        ExprDomainError,
        DetectionError,
        SearchCapError,
        ValueError,
        OSError,
    ) as err:
        _say(f"error: {err}")
        return EXIT_ERROR
    except MemoryError as err:  # e.g. a --samples grid too large to allocate
        _say(f"error: out of memory: {err}" if str(err) else "error: out of memory")
        return EXIT_ERROR
    except Exception as err:
        if isinstance(err, ModuleNotFoundError) and err.name == "numpy":
            # only validate and detect import numpy; planning never needs it
            _say(f"error: {args.command} needs numpy ({err})")
        else:  # a fault of the program, never a "no"
            import traceback

            traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
