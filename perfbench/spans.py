"""Spans for the traced run, kept in memory and written out at the end.

A span covers one call into a layer's public function (or one CLI
subprocess, or one pass or instance of the benchmark itself).  Spans of the
CLI child processes are recorded there and adopted here under the span of
the subprocess that made them; ``time.perf_counter`` reads the system-wide
monotonic clock on Linux, so the times of both processes line up.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    sid: int
    name: str  # "<layer>.<function>", e.g. "collide.detect"
    instance: str
    start: float
    end: float = 0.0
    parent: int | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def open(self, name: str, instance: str = "") -> Span:
        parent = self._open[-1].sid if self._open else None
        span = Span(len(self.spans), name, instance, time.perf_counter(), parent=parent)
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.remove(span)

    def adopt(self, records: list[dict], parent: Span) -> None:
        """Append spans recorded by a child process under ``parent``."""
        base = len(self.spans)
        for rec in records:
            up = rec["parent"]
            self.spans.append(
                Span(
                    base + rec["sid"],
                    rec["name"],
                    rec["instance"],
                    rec["start"],
                    rec["end"],
                    parent.sid if up is None else base + up,
                )
            )

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer that no child span covers.  Children of one span
    run one after another, so their durations are summed, not merged."""
    child_time = [0.0] * len(spans)
    index = {s.sid: i for i, s in enumerate(spans)}
    for s in spans:
        if s.parent is not None:
            child_time[index[s.parent]] += s.end - s.start
    out: dict[str, float] = {}
    for s, inner in zip(spans, child_time):
        out[s.layer] = out.get(s.layer, 0.0) + (s.end - s.start) - inner
    return out


def tally(name: str, outcome: str, value) -> dict[str, int]:
    """Work counters of one call, read off its result."""
    if name == "collide.detect" and outcome == "ok":
        return {
            "collide.pairs_probed": value.probed,
            "collide.collisions": len(value.pairs),
            "collide.ambiguous": len(value.ambiguous),
        }
    if name == "cgraph.build" and outcome == "ok":
        arcs = value.arcs
        two = sum(1 for u, v in arcs if (v, u) in arcs) // 2
        return {"cgraph.arcs": len(arcs), "cgraph.two_cycles": two}
    if name == "plan.decide_partition":
        if outcome == "ok":
            return {"plan.split_found" if value.found else "plan.split_no": 1}
        if outcome in ("refused", "capped"):
            return {f"plan.split_{outcome}": 1}
    if name == "plan.exists":
        if outcome == "ok":
            return {"plan.exists_yes" if value is not None else "plan.exists_no": 1}
        if outcome == "capped":
            return {"plan.exists_capped": 1}
    return {}
