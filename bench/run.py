"""Run one benchmark workload against the pooltest source tree beside it.

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0

The workload's fixed op list (built from --seed by workloads.py) is run
pass after pass until --seconds have elapsed and at least MIN_OPS ops have
been timed.  Every op's output is checked against an independent
reference.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, taken from traced passes
alternated with untraced ones, and the spans are written as JSON lines to
bench/out/trace-<workload>.jsonl.  The line before it is the run record
(machine, commit, seed, sample counts, failures by cause).

The exit status is nonzero, with no result line, when the pooltest
sources are missing or a run cannot be completed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from spans import Tracer, layer_metrics, percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_OPS = 200        # so that at least 10 op samples lie beyond the p95
PROBE_LOOPS = 6000
# The probe's fastest time on the 2-core Xeon VM the benchmark was built
# on (CPython 3.11.7); speed-corrected latencies are seconds at that speed.
PROBE_REF_S = 1.25e-3
HARD_LIMIT_S = 120   # stop starting passes after this, whatever --seconds says
SETUP_PROBES = 15
TRACED_PASSES = 3    # bounds the spans a traced run holds in memory
CLI_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("exact", "asymptotic", "trials"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import pooltest, build the workload's inputs and exit (set-up probe)")
    return ap.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path and import pooltest from it."""
    if not (SRC / "pooltest" / "__init__.py").is_file():
        raise SystemExit(f"error: no pooltest sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pooltest

    if Path(pooltest.__file__).resolve().parent != SRC / "pooltest":
        raise SystemExit(f"error: imported pooltest from {pooltest.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    """HEAD of the checkout's git metadata, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_path = git / ref_name
        if ref_path.is_file():
            return ref_path.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Outcomes:
    """Failures by cause across every op a run attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.by_cause: dict[str, int] = {}
        self.known: set[str] = set()
        self.violations: list[str] = []

    def record(self, label: str, cause: str | None, known: str | None, detail: str = "") -> None:
        """Count one attempted op; `known` is its documented failure cause."""
        self.attempted += 1
        if cause is None:
            return
        self.failed += 1
        self.by_cause[cause] = self.by_cause.get(cause, 0) + 1
        if cause == known:
            self.known.add(f"{label}: {cause}")
        elif len(self.violations) < 20:
            self.violations.append(f"{label}: {cause}: {detail}"[:500])


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes at the machine's current speed."""
    t0 = perf_counter()
    s = 0.0
    for i in range(1, PROBE_LOOPS):
        s += math.log(i * 0.5) * 1.0001 / (i + 0.5)
    return perf_counter() - t0


def corrected(seconds: float, before: float, after: float) -> float:
    """A duration rescaled to the probe's reference speed, given the speed
    probes timed just before and just after it (see README, "Noise")."""
    return seconds * 2 * PROBE_REF_S / (before + after)


def run_pass(ops, outcomes: Outcomes, tracer=None) -> tuple[list[float], list[float]]:
    """Run every op once.  Returns each op's latency in seconds, and its
    corrected latency."""
    raw, fixed = [], []
    if tracer is not None:
        tracer.begin_pass()
    for k, op in enumerate(ops):
        span = nullcontext({})
        if tracer is not None:
            tracer.op = k
            span = tracer.span(op.layer)
        result = exc = None
        before = speed_probe()
        t0 = perf_counter()
        with span as rec:
            try:
                result = op.call()
            except Exception as err:  # counted as a failed op; the run goes on
                exc = err
        latency = perf_counter() - t0
        raw.append(latency)
        fixed.append(corrected(latency, before, speed_probe()))
        cause, detail = op.judge(result, exc)
        outcomes.record(op.label, cause, op.known, detail)
        if tracer is None:
            continue
        for name, value in op.static.items():
            tracer.count(name, value)
        if cause is not None:
            tracer.count(f"{op.layer}.failed")
            tracer.count(f"{op.layer}.failed.{cause}")
        if exc is None and op.counters is not None:
            for name, value in op.counters(result).items():
                tracer.count(name, value)
        if exc is None and op.replay is not None:
            replayed = op.replay(tracer, rec["id"])
            if any(getattr(result, f"errors_{c}") != v for c, v in replayed.items()):
                tracer.count("replay.mismatch")
    return raw, fixed


def measure(ops, seconds: float, outcomes: Outcomes, tracer=None, between=None):
    """Run untraced passes, each followed by a traced one while fewer than
    TRACED_PASSES have run (given a tracer), until the time is up and
    enough ops were timed, calling `between` after each round.  Returns
    the per-pass raw latency lists of untraced passes, and the per-pass
    corrected latency lists of untraced and of traced passes."""
    raw, plain, traced = [], [], []
    start = perf_counter()
    while True:
        lat, fixed = run_pass(ops, outcomes)
        raw.append(lat)
        plain.append(fixed)
        if tracer is not None and len(traced) < TRACED_PASSES:
            traced.append(run_pass(ops, outcomes, tracer)[1])
        if between is not None:
            between()
        elapsed = perf_counter() - start
        # traced runs report no op percentiles, so they need no sample floor
        enough = tracer is not None or sum(map(len, plain)) >= MIN_OPS
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and enough):
            return raw, plain, traced


def list_seconds(passes: list[list[float]]) -> float:
    """Time to complete the op list once: the sum over ops of each op's
    median latency across passes (see README, "Noise")."""
    return sum(statistics.median(op) for op in zip(*passes))


class SetupProbe:
    """Wall time of fresh interpreters that import pooltest and build the
    workload's inputs, timed from outside.  Probes are spread over the run
    (one after each pass) so that their median covers the same stretch of
    machine load as the ops.  Each is corrected by speed probes the child
    times on its own core, before importing pooltest and after building
    the inputs; the probes' own time is taken out first."""

    def __init__(self, workload: str, seed: int) -> None:
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", workload, "--seed", str(seed)]
        self.times: list[float] = []

    def __call__(self) -> None:
        if len(self.times) < SETUP_PROBES:
            t0 = perf_counter()
            out = subprocess.run(self.cmd, cwd=ROOT, check=True, capture_output=True,
                                 text=True).stdout
            wall = perf_counter() - t0
            before, after = json.loads(out)["speed_probes_s"]
            self.times.append(corrected(wall - before - after, before, after))

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self()
        return self.times


def run_cli(commands, outcomes: Outcomes) -> dict[str, float]:
    """Run each (subcommand, argv) as `python -m pooltest` from the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    metrics = {}
    for sub, argv in commands:
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pooltest", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        metrics[f"cli.{sub}.wall_s"] = perf_counter() - t0
        metrics[f"cli.{sub}.exit"] = proc.returncode
        ok = proc.returncode == 0 and proc.stdout.strip()
        outcomes.record(f"pooltest {sub}", None if ok else f"cli_exit_{proc.returncode}", None,
                        proc.stderr.strip()[-300:])
    return metrics


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    before = speed_probe() if args.setup_only else 0.0
    os.environ.pop("POOLTEST_THREADS", None)  # library defaults: one worker
    import_program()
    import workloads

    ops = workloads.OP_LISTS[args.workload](args.seed)
    if args.setup_only:
        print(json.dumps({"speed_probes_s": [before, speed_probe()]}))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    outcomes = Outcomes()
    setup_probe = None if args.trace else SetupProbe(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    raw, plain, traced = measure(ops, args.seconds, outcomes, tracer, setup_probe)
    setup = setup_probe.finish() if setup_probe else []

    latencies = [t for lat in plain for t in lat]
    raw_latencies = [t for lat in raw for t in lat]
    pass_walls = [sum(lat) for lat in raw]
    values: dict[str, float] = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "wall_s": list_seconds(plain),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p95_ms": percentile(latencies, 0.95) * 1e3,
    }
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        commands = workloads.cli_commands(args.seed, OUT_DIR / "merged-or.json")
        values.update(run_cli(commands, outcomes))
        # the untraced passes paired with the traced ones, so both sides
        # take their medians over the same number of passes
        values["trace.overhead_frac"] = (
            list_seconds(traced) / list_seconds(plain[: len(traced)]) - 1
        )
        names = [m["name"] for m in spec["per_layer"]]
        values.update(layer_metrics(tracer, [n for n in names if n not in values]))
    values["ok_frac"] = 1 - outcomes.failed / outcomes.attempted

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    beyond_p95 = sum(1 for t in latencies if t * 1e3 > values["op_p95_ms"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "commit": commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "passes": len(plain),
        "traced_passes": len(traced),
        "ops_per_pass": len(ops),
        "op_samples": len(latencies),
        "op_samples_beyond_p95": beyond_p95,
        "pass_walls_s": pass_walls,
        "uncorrected": {
            "wall_s": list_seconds(raw),
            "op_p50_ms": statistics.median(raw_latencies) * 1e3,
            "op_p95_ms": percentile(raw_latencies, 0.95) * 1e3,
        },
        "setup_probes_s": setup,
        "failed_frac": outcomes.failed / outcomes.attempted,
        "failures_by_cause": outcomes.by_cause,
        "known_failures": sorted(outcomes.known),
        "violations": outcomes.violations,
    }
    if tracer is not None:
        record["untraced"] = {k: values[k] for k in ("wall_s", "op_p50_ms", "op_p95_ms")}
        record["replay_mismatches"] = int(tracer.counters.get("replay.mismatch", 0))
        layers = sorted({rec["name"] for rec in tracer.spans})
        self_s = layer_metrics(tracer, [f"{layer}.self_s" for layer in layers])
        tracer.write_jsonl(OUT_DIR / f"trace-{args.workload}.jsonl", {"record": record},
                           {"metrics": metrics, "self_s": self_s})
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not outcomes.violations,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
