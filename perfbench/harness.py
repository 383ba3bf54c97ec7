"""Timed passes over a workload, and the checks that judge their answers.

Every call into a layer goes through :class:`Runner`, which times it,
enforces its cap and records its outcome.  An operation that raises, is
refused (``SearchCapError``), runs past its cap or later fails a check is
counted as failed and charged its cap instead of its time, so a fix that
removes a fast refusal lowers the pass time.  Checks run after the timed
pass, on the kept results.
"""
from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from lmodel import (
    SearchCapError,
    assign_heights,
    build_collision_graph,
    decide_partition,
    detect_all,
    exists_arrangement,
    load_graph,
    validate_edge_lengths,
    verify_collision_free,
)

import oracle
from workloads import LADDER
from spans import Span, Tracer, self_times, tally

HERE = Path(__file__).resolve().parent
CLI_CHILD = HERE / "cli_child.py"

# metric name -> unit; BENCHMARK.json lists the same names
END_TO_END = {"wall_s": "s", "setup_s": "s", "ok_frac": "ratio", "peak_rss_mb": "MB"}

CLI_COMMANDS = ("generate", "validate", "detect", "cgraph", "plan", "verify", "exists")
PER_LAYER = {
    "motion.load_graph_s": "s",
    "motion.validate_s": "s",
    "collide.detect_s": "s",
    **{f"collide.detect_s.{name}": "s" for name in LADDER},
    "collide.pairs_probed": "count",
    "collide.collisions": "count",
    "collide.ambiguous": "count",
    "collide.hit_ratio": "ratio",
    "cgraph.build_s": "s",
    "cgraph.arcs": "count",
    "cgraph.two_cycles": "count",
    "plan.decide_partition_s": "s",
    "plan.assign_heights_s": "s",
    "plan.exists_s": "s",
    "plan.exists_s.max": "s",
    "plan.verify_s": "s",
    "plan.split_found": "count",
    "plan.split_no": "count",
    "plan.split_refused": "count",
    "plan.split_capped": "count",
    "plan.exists_yes": "count",
    "plan.exists_no": "count",
    "plan.exists_capped": "count",
    "cli.python_start_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_lmodel_s": "s",
    **{f"cli.{cmd}_s": "s" for cmd in CLI_COMMANDS},
    "cli.exit_code_mismatches": "count",
    **{f"{layer}.self_s": "s" for layer in ("motion", "collide", "cgraph", "plan", "cli", "bench")},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

# per-operation caps in seconds; a failed operation is charged its cap
CAPS = {
    "motion.load_graph": 5.0,
    "motion.validate": 10.0,
    "collide.detect": 30.0,
    "cgraph.build": 5.0,
    "plan.decide_partition": 1.0,
    "plan.assign_heights": 5.0,
    "plan.exists": 2.0,
    "plan.verify": 5.0,
    "cli": 10.0,
}


class OpCapped(Exception):
    """Raised by the alarm when an operation runs past its cap."""


def _on_alarm(signum, frame):
    raise OpCapped()


@dataclass
class Op:
    name: str
    instance: str
    cap: float
    seconds: float
    outcome: str  # ok | refused | capped | error | wrong
    detail: str = ""
    counts: dict = field(default_factory=dict)
    span: Span | None = None

    @property
    def failed(self) -> bool:
        return self.outcome != "ok"

    @property
    def charged(self) -> float:
        return self.cap if self.failed else self.seconds

    def fail(self, detail: str) -> None:
        """Mark a returned answer wrong; an earlier failure stands."""
        if self.outcome == "ok":
            self.outcome, self.detail = "wrong", detail


class Runner:
    """Runs one pass's operations; with a tracer, each also gets a span and
    its work counters, so untraced passes time nothing but the calls."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.ops: list[Op] = []
        signal.signal(signal.SIGALRM, _on_alarm)

    def call(self, name: str, instance: str, fn, *args, cap: float | None = None):
        cap = CAPS[name] if cap is None else cap
        span = self.tracer.open(name, instance) if self.tracer else None
        value, detail = None, ""
        t0 = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, cap)
                value = fn(*args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            outcome = "ok"
        except OpCapped:
            outcome = "capped"
        except SearchCapError as err:
            outcome, detail = "refused", str(err)
        except Exception as err:  # a failed operation; the message goes to the failure list
            outcome, detail = "error", f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - t0
        counts = {}
        if span is not None:
            self.tracer.close(span)
            counts = tally(name, outcome, value)
        op = Op(name, instance, cap, seconds, outcome, detail, counts, span)
        self.ops.append(op)
        return op, value

    @contextmanager
    def span(self, name: str, instance: str = ""):
        """A span of the benchmark's own (pass, instance) when tracing."""
        if self.tracer is None:
            yield
            return
        span = self.tracer.open(name, instance)
        try:
            yield
        finally:
            self.tracer.close(span)


# ---------------------------------------------------------------------------
# in-process pipeline (detect-ladder, plan-synth)


def run_pipeline(runner: Runner, inst) -> dict:
    """Graph JSON text to verified answers for one instance.  Returns the
    (op, value) of every step by step key, plus the pairs planned on."""
    r: dict = {}

    def step(key, name, fn, *args):
        op, value = runner.call(name, inst.name, fn, *args)
        r[key] = (op, value)
        return value if op.outcome == "ok" else None

    g = step("load", "motion.load_graph", load_graph, inst.graph_text)
    if g is None:
        return r
    if inst.family == "synth":
        pairs = inst.pairs
    else:
        step("validate", "motion.validate", validate_edge_lengths, g)
        det = step("detect", "collide.detect", detect_all, g)
        if det is None:
            return r
        pairs = det.pairs
    r["pairs"] = pairs
    c = step("build", "cgraph.build", build_collision_graph, g, pairs)
    if c is not None:
        dec = step("decide", "plan.decide_partition", decide_partition, c)
        if dec is not None and dec.found:
            h = step("assign", "plan.assign_heights", assign_heights, g, pairs, dec.partition)
            if h is not None:
                step("verify_split", "plan.verify", verify_collision_free, g, pairs, h)
    w = step("exists", "plan.exists", exists_arrangement, g, pairs)
    if w is not None:
        step("verify_exists", "plan.verify", verify_collision_free, g, pairs, w)
    return r


# expected answers per family: split letter (F found, B not-bipartite,
# N any "no"), exists answer (Y, N)
FAMILY_EXPECT = {"dixon1": ("F", "Y"), "s2": ("B", "Y"), "dixon2": ("N", "N")}

SPLIT_LETTER = {"not-bipartite": "B", "exhausted": "X"}


def _pair_set(pairs) -> set[tuple[str, str]]:
    return {(p.vertex, oracle.label(*p.edge)) for p in pairs}


def check_pipeline(inst, r: dict) -> None:
    """Mark every wrong answer in ``r`` as a failed operation."""

    def ok(key):
        return key in r and r[key][0].outcome == "ok"

    def val(key):
        return r[key][1]

    if ok("validate") and not val("validate").passed:
        r["validate"][0].fail("edge lengths are not constant")
    if ok("detect"):
        got = _pair_set(val("detect").pairs)
        if got != inst.expected_pairs:
            diff = len(got ^ inst.expected_pairs)
            r["detect"][0].fail(f"pair set differs from the rule in {diff} pairs")
    if "pairs" not in r:
        return
    edges, pairs = inst.edges, _pair_set(r["pairs"])
    arcs = oracle.collision_arcs(edges, pairs)
    if ok("build") and set(val("build").arcs) != arcs:
        r["build"][0].fail("collision arcs differ from the pair set")

    split, exists = (
        (inst.expect_split, inst.expect_exists)
        if inst.family == "synth"
        else FAMILY_EXPECT[inst.family]
    )
    if ok("decide"):
        dec = val("decide")
        got = "F" if dec.found else SPLIT_LETTER.get(dec.reason, "?")
        if split == "N":
            agrees = got != "F"
        elif split == "R":  # refused at freeze time: any certified answer will do
            agrees = got in "FX"
        else:
            agrees = got == split
        if not agrees:
            r["decide"][0].fail(f"split outcome {got}, expected {split}")
        elif dec.found:
            p = dec.partition
            if set(p.upper) | set(p.lower) != {oracle.label(*e) for e in edges} or not (
                oracle.acyclic(p.upper, arcs) and oracle.acyclic(p.lower, arcs)
            ):
                r["decide"][0].fail("split sides are not both acyclic")
        elif dec.reason == "not-bipartite":
            cyc = dec.odd_cycle or ()
            if not oracle.is_odd_two_cycle_loop(cyc, arcs):
                r["decide"][0].fail("odd-cycle witness is not an odd loop of two-cycles")
            elif inst.family == "s2" and len(cyc) != 4:
                r["decide"][0].fail(f"s2 witness is not a triangle: {cyc}")
    for src, chk in (("assign", "verify_split"), ("exists", "verify_exists")):
        if not ok(src) or val(src) is None:
            continue
        bad = oracle.heights_violations(edges, pairs, val(src))
        if bad:
            r[src][0].fail(f"height table violates {bad} pairs")
        if ok(chk) and val(chk).ok != (bad == 0):
            r[chk][0].fail(f"verify says ok={val(chk).ok}, independent check finds {bad}")
        if ok(chk) and not val(chk).ok:
            r[src][0].fail("height table fails verify_collision_free")
    if ok("exists"):
        got = "Y" if val("exists") is not None else "N"
        if exists in "YN" and got != exists:
            r["exists"][0].fail(f"exists answered {got}, expected {exists}")
        if got == "N" and ok("decide") and val("decide").found:
            r["exists"][0].fail("exists says NO although a split was found")


# ---------------------------------------------------------------------------
# CLI subprocesses (cli-quickstart)


def _spawn(argv, cwd, env, err_path):
    """Run one child to its end; returns (exit code, peak RSS in KiB)."""
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def run_cli_case(runner: Runner, case, workdir: Path, env: dict) -> dict:
    """Run the quick-start commands of one case as subprocesses, in order."""
    r = {}
    inst = case.instance
    for step in case.steps:
        stem = f"{inst.name}.{step.command}"
        if runner.tracer:
            spans_path = workdir / f"{stem}.spans.json"
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(CLI_CHILD), str(spans_path), inst.name,
                    repr(time.perf_counter()), *step.args]
        else:
            argv = [sys.executable, "-m", "lmodel", *step.args]
        op, value = runner.call(
            f"cli.{step.command}", inst.name, _spawn, argv, workdir, env,
            workdir / f"{stem}.err", cap=CAPS["cli"],
        )
        if runner.tracer and op.outcome == "ok":
            data = _read_json(spans_path)
            if data is None:
                op.fail("traced child wrote no spans")
            else:
                runner.tracer.adopt(data["spans"], op.span)
                for k, v in data["counts"].items():
                    op.counts[k] = op.counts.get(k, 0) + v
        r[step.command] = (op, value)
    return r


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def check_cli_case(case, r: dict, workdir: Path) -> None:
    inst = case.instance
    edges = inst.edges
    files = {s.command: s.args for s in case.steps}
    no = any(s.expect_exit == 1 for s in case.steps)  # no arrangement exists
    for step in case.steps:
        op, value = r[step.command]
        if op.outcome == "ok" and value[0] != step.expect_exit:
            op.counts["cli.exit_code_mismatches"] = 1
            op.fail(f"exit code {value[0]}, README says {step.expect_exit}")

    def out(command):
        """Parsed output file of a command that exited as expected, else None."""
        op, _ = r[command]
        if op.outcome != "ok":
            return None
        data = _read_json(workdir / files[command][-1])
        if data is None:
            op.fail("output file missing or not JSON")
        return data

    def fail(command, why):
        r[command][0].fail(why)

    g = out("generate")
    if g is not None and sorted(map(tuple, g.get("edges", []))) != sorted(edges):
        fail("generate", "generated edge set differs")
    v = out("validate")
    if v is not None and v.get("pass") is not True:
        fail("validate", "edge lengths are not constant")
    p = out("detect")
    if p is not None:
        got = {(e["vertex"], oracle.label(*e["edge"])) for e in p.get("pairs", [])}
        if got != inst.expected_pairs:
            fail("detect", "pair set differs from the rule")
    for command in ("plan", "exists"):
        data = out(command)
        if data is None:
            continue
        if no:
            if data.get("result") != "NO":
                fail(command, "expected a NO")
        elif oracle.heights_violations(edges, inst.expected_pairs, data.get("heights", {})):
            fail(command, "height table violates the pairs")
    w = out("verify")
    if w is not None and w.get("ok") is not (not no):
        fail("verify", f"verify says ok={w.get('ok')}")


# ---------------------------------------------------------------------------
# passes and their metrics


@dataclass
class Pass:
    raw_s: float  # measured time of the pass
    ops: list[Op]
    tracer: Tracer | None
    child_rss_kib: int = 0  # largest CLI child

    @property
    def wall_s(self) -> float:
        """The pass time with every failed operation charged its cap."""
        return self.raw_s + sum(op.charged - op.seconds for op in self.ops)


def one_pass(workload: str, inputs, tracer: Tracer | None, workdir: Path | None = None,
             env: dict | None = None) -> Pass:
    """One timed pass over the workload's inputs, then the checks."""
    runner = Runner(tracer)
    t0 = time.perf_counter()
    with runner.span("bench.pass"):
        results = []
        for item in inputs:
            name = item.instance.name if workload == "cli-quickstart" else item.name
            with runner.span("bench.instance", name):
                if workload == "cli-quickstart":
                    results.append((item, run_cli_case(runner, item, workdir, env)))
                else:
                    results.append((item, run_pipeline(runner, item)))
    raw = time.perf_counter() - t0
    rss = 0
    for item, r in results:
        if workload == "cli-quickstart":
            check_cli_case(item, r, workdir)
            rss = max([rss] + [value[1] for _, value in r.values() if value])
        else:
            check_pipeline(item, r)
    return Pass(raw, runner.ops, tracer, rss)


def layer_metrics(p: Pass) -> dict:
    """Per-layer metrics of one traced pass."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    for s in p.tracer.spans:
        d = s.end - s.start
        for key in (f"{s.name}_s", f"{s.name}_s.{s.instance}"):
            if key in m:
                m[key] += d
        if s.name == "plan.exists":
            m["plan.exists_s.max"] = max(m["plan.exists_s.max"], d)
    for op in p.ops:
        for key, n in op.counts.items():
            m[key] += n
    if m["collide.pairs_probed"]:
        m["collide.hit_ratio"] = m["collide.collisions"] / m["collide.pairs_probed"]
    for layer, t in self_times(p.tracer.spans).items():
        m[f"{layer}.self_s"] = t
    m["trace.wall_s"] = p.raw_s
    return m
