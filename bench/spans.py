"""In-memory spans for the benchmark's traced runs, and the per-layer
metrics computed from them.

A span records name, start, end, parent span and op id.  The benchmark
opens spans around each call into a public function, from outside the
program.  A span's self time is its duration minus the durations of its
child spans; for a trial harness the children are the direct calls the
benchmark replays on the harness's own instances (they run after the
harness call, not inside it), so the difference is the harness's time
outside the sampler, the forward map and the decoder.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from time import perf_counter

SPAN_SUFFIXES = ("calls", "busy_s", "self_s", "p50_ms", "p95_ms", "unique_frac", "cap_hits")


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> dict:
        self.record["start"] = perf_counter()
        return self.record

    def __exit__(self, *exc) -> None:
        self.record["end"] = perf_counter()
        self.tracer.spans.append(self.record)


class Tracer:
    """Collects spans and counters; `op` and `pass_index` tag new spans.
    Counters restart with each pass, since they repeat exactly."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = 0
        self.pass_index = -1
        self._next_id = 0

    def begin_pass(self) -> None:
        self.pass_index += 1
        self.counters = defaultdict(float)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def span(self, name: str, parent: int | None = None) -> _Span:
        self._next_id += 1
        return _Span(self, {
            "id": self._next_id,
            "name": name,
            "op": self.op,
            "pass": self.pass_index,
            "parent": parent,
        })

    def write_jsonl(self, path, header: dict, footer: dict) -> None:
        """One JSON object per line: header, every span, footer."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps(footer) + "\n")


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile: the smallest value with at least `share` of
    the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def layer_metrics(tracer: Tracer, names: list[str]) -> dict[str, float]:
    """Per-layer values for each requested span or counter metric.

    Counts (calls and counters) come from the last traced pass; they repeat
    exactly from pass to pass.  Busy and self times are medians over the
    traced passes; percentiles pool every span of the layer.
    """
    passes = tracer.pass_index + 1
    child_time: dict[int, float] = defaultdict(float)
    for rec in tracer.spans:
        if rec["parent"] is not None:
            child_time[rec["parent"]] += rec["end"] - rec["start"]
    by_layer: dict[str, list[dict]] = defaultdict(list)
    for rec in tracer.spans:
        by_layer[rec["name"]].append(rec)

    out: dict[str, float] = {}
    for name in names:
        layer, _, suffix = name.rpartition(".")
        if suffix not in SPAN_SUFFIXES:
            out[name] = float(tracer.counters.get(name, 0))
            continue
        recs = by_layer.get(layer, [])
        durations = [r["end"] - r["start"] for r in recs]
        last = [r for r in recs if r["pass"] == passes - 1]
        if suffix == "calls":
            out[name] = len(last)
        elif suffix in ("busy_s", "self_s"):
            per_pass = [0.0] * passes
            for r in recs:
                d = r["end"] - r["start"]
                if suffix == "self_s":
                    d -= child_time.get(r["id"], 0.0)
                per_pass[r["pass"]] += d
            out[name] = statistics.median(per_pass) if passes else 0.0
        elif suffix == "p50_ms":
            out[name] = statistics.median(durations) * 1e3 if durations else 0.0
        elif suffix == "p95_ms":
            out[name] = percentile(durations, 0.95) * 1e3 if durations else 0.0
        elif suffix == "unique_frac":
            out[name] = sum(1 for r in last if r.get("decisions") == 1) / len(last) if last else 0.0
        elif suffix == "cap_hits":
            out[name] = sum(1 for r in last if r.get("decisions", 0) >= 2)
    return out
