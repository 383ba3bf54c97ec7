"""Traced stand-in for ``python -m lmodel`` in the traced cli-quickstart run.

usage: cli_child.py SPANS_OUT INSTANCE LAUNCH_TIME <lmodel arguments>

Times interpreter start (from LAUNCH_TIME, the parent's clock reading just
before it spawned this process), ``import numpy`` and ``import lmodel.cli``,
wraps the library functions the CLI calls in spans, runs the CLI and writes
the spans and work counters to SPANS_OUT.  The exit code is the CLI's.
"""
import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

recorded = []
counts = {}


def record(name, instance, start, end, parent=None):
    recorded.append({"sid": len(recorded), "name": name, "instance": instance,
                     "start": start, "end": end, "parent": parent})


def main() -> int:
    out, instance, launched = sys.argv[1], sys.argv[2], float(sys.argv[3])
    record("cli.python_start", instance, launched, STARTED)
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    record("cli.import_numpy", instance, t0, t1)
    from lmodel import SearchCapError, cli

    t2 = time.perf_counter()
    record("cli.import_lmodel", instance, t1, t2)
    from spans import tally

    wrapped = {
        "load_graph": "motion.load_graph",
        "validate_edge_lengths": "motion.validate",
        "detect_all": "collide.detect",
        "build_collision_graph": "cgraph.build",
        "decide_partition": "plan.decide_partition",
        "assign_heights": "plan.assign_heights",
        "exists_arrangement": "plan.exists",
        "verify_collision_free": "plan.verify",
    }
    main_sid = len(recorded)

    def wrap(fn, name):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            outcome, value = "error", None
            try:
                value = fn(*args, **kwargs)
                outcome = "ok"
                return value
            except SearchCapError:
                outcome = "refused"
                raise
            finally:
                record(name, instance, start, time.perf_counter(), main_sid)
                for k, v in tally(name, outcome, value).items():
                    counts[k] = counts.get(k, 0) + v

        return traced

    for attr, name in wrapped.items():
        setattr(cli, attr, wrap(getattr(cli, attr), name))
    record("cli.main", instance, time.perf_counter(), 0.0)
    try:
        code = cli.main(sys.argv[4:])
    finally:
        recorded[main_sid]["end"] = time.perf_counter()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorded, "counts": counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
