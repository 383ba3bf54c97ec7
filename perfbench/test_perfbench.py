"""Tests of the benchmark itself: python -m pytest perfbench -q"""
import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from lmodel import build_collision_graph, detect_all, load_graph  # noqa: E402
from lmodel.collide import CollisionPair  # noqa: E402
from spans import Tracer  # noqa: E402


def _synth(letters):
    """The first plan-synth instance whose frozen answers are ``letters``."""
    return next(i for i in workloads.plan_synth(0) if i.expect_split + i.expect_exists == letters)


def _ladder(name, seed=0):
    return next(i for i in workloads.detect_ladder(seed) if i.name == name)


def _run(inst):
    runner = harness.Runner(Tracer())
    r = harness.run_pipeline(runner, inst)
    harness.check_pipeline(inst, r)
    return runner, r


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)
    assert workloads.build(workload, 7) != workloads.build(workload, 8)


def test_same_seed_same_counters():
    insts = workloads.plan_synth(3)[:8] + [_ladder("dixon2", 3)]
    first, second = [], []
    for out in (first, second):
        for inst in insts:
            runner, _ = _run(inst)
            out.append([(op.name, op.outcome, sorted(op.counts.items())) for op in runner.ops])
    assert first == second
    assert all(op[1] == "ok" for ops in first for op in ops)


def test_seed_keeps_frozen_synth_answers():
    for seed in (0, 5):
        for inst in workloads.plan_synth(seed)[:16]:
            runner, _ = _run(inst)
            assert not [op for op in runner.ops if op.outcome in ("wrong", "error")], inst.name


def test_tampered_height_table_fails(monkeypatch):
    inst = _synth("FY")
    real = harness.exists_arrangement

    def tampered(g, pairs):
        heights = real(g, pairs)
        return dict.fromkeys(heights, 0)  # every pair now lies inside its range

    monkeypatch.setattr(harness, "exists_arrangement", tampered)
    _, r = _run(inst)
    assert r["exists"][0].outcome == "wrong"
    assert r["decide"][0].outcome == "ok"


def test_tampered_table_caught_even_if_verify_agrees(monkeypatch):
    inst = _synth("FY")
    real = harness.exists_arrangement
    monkeypatch.setattr(harness, "exists_arrangement", lambda g, p: dict.fromkeys(real(g, p), 0))
    monkeypatch.setattr(
        harness, "verify_collision_free", lambda g, p, h: type("R", (), {"ok": True})()
    )
    _, r = _run(inst)
    assert r["exists"][0].outcome == "wrong"
    assert r["verify_exists"][0].outcome == "wrong"


def test_tampered_pair_set_fails(monkeypatch):
    inst = _ladder("dixon2")
    real = harness.detect_all

    def dropped(g):
        res = real(g)
        return type(res)(res.pairs[1:], res.ambiguous, res.clear_margin, res.probed)

    monkeypatch.setattr(harness, "detect_all", dropped)
    runner, r = _run(inst)
    assert r["detect"][0].outcome == "wrong"
    assert r["detect"][0].charged == harness.CAPS["collide.detect"]


def test_capped_operation_is_charged_its_cap():
    runner = harness.Runner()
    op, value = runner.call("plan.exists", "x", time.sleep, 1.0, cap=0.05)
    assert op.outcome == "capped" and value is None
    assert op.seconds < 0.5
    assert op.charged == 0.05
    p = harness.Pass(raw_s=op.seconds, ops=[op], tracer=None)
    assert p.wall_s == pytest.approx(0.05)


def test_refused_split_is_charged_its_cap():
    inst = _ladder("dixon1-10x10")
    g = load_graph(inst.graph_text)
    pairs = [CollisionPair(v, g.edge_by_label[e], 0.0, 0.0) for v, e in inst.expected_pairs]
    runner = harness.Runner()
    op, _ = runner.call("plan.decide_partition", inst.name, harness.decide_partition,
                        build_collision_graph(g, pairs))
    assert op.outcome == "refused"
    assert op.charged == harness.CAPS["plan.decide_partition"] > op.seconds


def test_oracle_rules_match_detection():
    for seed in (0, 1):
        p = workloads.dixon1_params(random.Random(seed), 4, 3)
        inst = workloads._dixon1_instance("k43", p)
        pairs = detect_all(load_graph(inst.graph_text)).pairs
        got = {(c.vertex, oracle.label(*c.edge)) for c in pairs}
        assert got == inst.expected_pairs
    assert len(oracle.dixon2_pairs()) == 24


def test_traced_pass_self_times_cover_the_pass():
    tracer = Tracer()
    p = harness.one_pass("plan-synth", workloads.plan_synth(0)[:8], tracer)
    m = harness.layer_metrics(p)
    assert set(m) == set(harness.PER_LAYER)
    layers = sum(m[f"{x}.self_s"] for x in ("motion", "cgraph", "plan", "bench"))
    assert layers == pytest.approx(m["trace.wall_s"], rel=0.01)
    assert m["plan.exists_yes"] + m["plan.exists_no"] == 8


def test_cli_quickstart_traced_pass(tmp_path):
    cases = workloads.cli_quickstart(0)
    for case in cases:
        for name, text in case.files.items():
            (tmp_path / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(run.SRC)}
    p = harness.one_pass("cli-quickstart", cases, Tracer(), tmp_path, env)
    assert [op.outcome for op in p.ops] == ["ok"] * 14
    m = harness.layer_metrics(p)
    assert m["cli.exit_code_mismatches"] == 0
    assert m["cli.import_numpy_s"] > 0 and m["motion.load_graph_s"] > 0
    assert m["plan.exists_yes"] == 1 and m["plan.exists_no"] == 1


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan-synth", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_cli_exit_code_mismatch_fails(tmp_path):
    case = workloads.cli_quickstart(0)[1]  # dixon2: plan exits 1
    steps = tuple(
        dataclasses.replace(s, expect_exit=0) if s.command == "plan" else s for s in case.steps
    )
    case = dataclasses.replace(case, steps=steps)
    for name, text in case.files.items():
        (tmp_path / name).write_text(text)
    runner = harness.Runner()
    env = {**os.environ, "PYTHONPATH": str(run.SRC)}
    r = harness.run_cli_case(runner, case, tmp_path, env)
    harness.check_cli_case(case, r, tmp_path)
    bad = [op for op in runner.ops if op.failed]
    assert [op.name for op in bad] == ["cli.plan"]
    assert bad[0].counts == {"cli.exit_code_mismatches": 1}
    assert bad[0].charged == harness.CAPS["cli"]
