"""Benchmark for lmodel: one workload, one measured run, one result line.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
./src and its CLI run as ``python -m lmodel``.  Workloads: detect-ladder,
plan-synth, cli-quickstart (see NOTES.md).  The run first times set-up in
separate processes, then repeats timed passes over the workload's inputs
for S seconds and checks every answer.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics and the tracing overhead.  The
last line of stdout is the result as JSON; the line before it holds the
host context and per-pass detail, which also go to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

SETUP_PROBES = 7


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    lmodel and built the workload's inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return ready


def host_context() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def measure(harness, workload: str, inputs, seconds: float, trace: bool, env: dict):
    """Timed passes for ``seconds``: untraced ones, alternating with traced
    ones when ``trace`` is set.  CLI passes work in a scratch directory."""
    from spans import Tracer

    workdir = TMP_DIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    untraced, traced = [], []
    try:
        if workload == "cli-quickstart":
            for case in inputs:
                for name, text in case.files.items():
                    (workdir / name).write_text(text)
        deadline = time.perf_counter() + seconds
        while True:
            untraced.append(harness.one_pass(workload, inputs, None, workdir, env))
            if trace:
                traced.append(harness.one_pass(workload, inputs, Tracer(), workdir, env))
            if time.perf_counter() >= deadline:
                return untraced, traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass  # another run still uses it


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "lmodel" / "__init__.py").is_file():
        print(f"run.py: no lmodel sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.probe_setup:
        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    load_before = os.getloadavg()
    setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    import harness

    inputs = workloads.build(args.workload, args.seed)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    untraced, traced = measure(harness, args.workload, inputs, args.seconds, args.trace, env)
    load_after = os.getloadavg()

    ops = [op for p in untraced + traced for op in p.ops]
    failed = [op for op in ops if op.failed]
    if args.workload == "cli-quickstart":
        peak_kib = max(p.child_rss_kib for p in untraced)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    e2e = {
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "setup_s": statistics.median(setup),
        "ok_frac": 1.0 - len(failed) / len(ops),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    if args.trace:
        per_pass = [harness.layer_metrics(p) for p in traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in harness.PER_LAYER}
        values["trace.untraced_wall_s"] = statistics.median(p.raw_s for p in untraced)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        units = harness.PER_LAYER
    else:
        values, units = e2e, harness.END_TO_END
    result = {
        "correct": not any(op.outcome in ("wrong", "error") for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }

    failures: dict = {}
    for op in failed:
        key = f"{op.name} {op.instance}: {op.outcome} {op.detail}".strip()
        failures[key] = failures.get(key, 0) + 1
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {**host_context(), "loadavg_before": load_before, "loadavg_after": load_after},
        "setup_s_samples": setup,
        "wall_s_passes": [p.wall_s for p in untraced],
        "raw_s_passes": [p.raw_s for p in untraced],
        "traced_raw_s_passes": [p.raw_s for p in traced],
        "end_to_end": e2e,
        "fail_frac": len(failed) / len(ops),
        "failures": failures,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**detail, "result": result}, indent=1))
    if args.trace:
        spans = [p.tracer.records() for p in traced]
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
