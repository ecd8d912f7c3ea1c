"""combinekit benchmark: one seeded workload per run, closed loop.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {referee,combine,scan} --seed N \
        --seconds S --trace {0,1}

One caller in one thread sends each op after the previous verdict.  The
program is imported from ``src/`` of this checkout and receives only the
generated inputs: formula text, cubes and theory handles built through
``registry``/``catalog``.  Every op is refereed after its timer stops
(see ``workloads.py``); a wrong verdict, ``IterationCapExceeded`` or any
other unexpected exception counts as a failed op.

``--trace 0`` runs a fixed number of whole rounds: enough for S seconds
of ops at the workload's nominal round time (measured on a 2-vCPU Xeon
VM), and at least 1010 ops, so ten samples lie beyond p99.  The work
therefore depends only on S and the seed, never on the machine's speed,
and a faster program does the same ops in less time.  It reports the
end-to-end metrics of BENCHMARK.json.  Set-up is timed 21 times, at
round boundaries spread over the run, and reported as the median.
``--trace 1`` runs the workload's fixed number of rounds untraced, then
reloads and runs the same rounds with timing wrappers installed
(``tracer.py``), reports the per-layer metrics of BENCHMARK.json, and
writes spans, per-size buckets and run metadata to ``.bench_out/``.  The
last stdout line is the JSON result; lines before it start with ``#``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer
from workloads import WORKLOADS, BenchmarkError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = (
    "brute",
    "catalog",
    "combine",
    "diagonal",
    "errors",
    "formulas",
    "registry",
    "sets",
    "spectra",
    "theories",
)
SETUP_REPEATS = 21
MIN_OPS = 1010


def load(workload_cls, seed: int, tracer: Tracer | None = None):
    """Import combinekit afresh, load the registry and build the workload's
    theory handles and formula enumeration.  With a tracer, wrap the traced
    names before the registry loads and the workload's theory handles after.
    Returns (seconds, workload)."""
    for name in [n for n in sys.modules if n.split(".")[0] == "combinekit"]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("combinekit")
    ck = SimpleNamespace(**{m: importlib.import_module(f"combinekit.{m}") for m in MODULES})
    if tracer is not None:
        tracer.install()
    registry = ck.registry.load_registry()
    workload = workload_cls(ck, registry, seed)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.install_theories(workload.theories())
    if not Path(ck.registry.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"combinekit imported from {ck.registry.__file__}, not {SRC}")
    return elapsed, workload


class Pass:
    """Per-op times, verdicts and the round-0 fingerprint of one pass."""

    def __init__(self):
        self.times: list[float] = []
        self.verdicts: list[str] = []
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.rounds = 0
        self.round0_ops = 0
        self.by_bucket: dict[str, list[float]] = {}
        self._inputs = hashlib.sha256()
        self._verdicts = hashlib.sha256()

    def fingerprint(self) -> dict:
        return {
            "inputs": self._inputs.hexdigest()[:16],
            "verdicts": self._verdicts.hexdigest()[:16],
        }


def rounds_for(workload, seconds: float) -> int:
    per_round = len(workload.round_ops(0))
    return max(math.ceil(MIN_OPS / per_round), math.ceil(seconds / workload.round_seconds))


def timed_setup(workload_cls, seed: int) -> float:
    """Time one more set-up, then put back the modules of the workload that
    is running, so that its imports at call time still find its own."""
    running = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "combinekit"}
    elapsed, _ = load(workload_cls, seed)
    for name in [n for n in sys.modules if n.split(".")[0] == "combinekit"]:
        del sys.modules[name]
    sys.modules.update(running)
    gc.collect()
    return elapsed


def run_pass(workload, rounds: int, tracer=None, before_round=None) -> Pass:
    gc.collect()
    p = Pass()
    while p.rounds < rounds:
        if before_round is not None:
            before_round(p.rounds)
        if tracer is not None:
            tracer.begin_op(-1, "generate")
        ops = workload.round_ops(p.rounds)
        for op in ops:
            bucket = workload.bucket(op)
            if tracer is not None:
                tracer.begin_op(len(p.times), bucket)
            start = time.perf_counter()
            try:
                result = workload.execute(op)
            except Exception as exc:  # any op failure is counted, not fatal
                result = exc
            elapsed = time.perf_counter() - start
            if isinstance(result, Exception):
                ok, verdict = False, f"error:{type(result).__name__}"
                p.errors[verdict] = p.errors.get(verdict, 0) + 1
            else:
                ok, verdict = workload.check(op, result)
            p.times.append(elapsed)
            p.verdicts.append(verdict)
            p.by_bucket.setdefault(bucket, []).append(elapsed)
            p.failed += not ok
            if p.rounds == 0:
                p._inputs.update(workload.input_token(op).encode() + b"\n")
                p._verdicts.update(verdict.encode() + b"\n")
        if p.rounds == 0:
            p.round0_ops = len(ops)
        p.rounds += 1
    return p


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_commit() -> str:
    """HEAD's commit, with "-dirty" for uncommitted changes, or "unknown"
    outside a git checkout."""

    def git(*cmd):
        return subprocess.run(
            ["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()

    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        commit = git("rev-parse", "HEAD")
        return commit + ("-dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def metadata(args, p: Pass) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "rounds": p.rounds,
        "ops": len(p.times),
        "ops_per_round": p.round0_ops,
    }


def bucket_stats(p: Pass) -> dict:
    return {
        b: {
            "ops": len(ts),
            "total_s": sum(ts),
            "p50_ms": statistics.median(ts) * 1e3,
            "max_ms": max(ts) * 1e3,
        }
        for b, ts in sorted(p.by_bucket.items())
    }


def emit(lines: list[str], result: dict):
    for line in lines:
        print("# " + line)
    print(json.dumps(result), flush=True)


def end_to_end(args, spec, workload_cls):
    elapsed, workload = load(workload_cls, args.seed)
    setups = [elapsed]
    rounds = rounds_for(workload, args.seconds)
    # The machine's speed drifts over seconds to minutes when other tenants
    # load it, so the other set-ups are timed at round boundaries spread
    # over the whole run, and their median stands for the run as the op
    # times do.
    slots = [i * rounds // (SETUP_REPEATS - 1) for i in range(SETUP_REPEATS - 1)]

    def before_round(r):
        setups.extend(timed_setup(workload_cls, args.seed) for _ in range(slots.count(r)))

    p = run_pass(workload, rounds, before_round=before_round)
    values = {
        "ops_per_s": len(p.times) / sum(p.times),
        "op_p50_ms": statistics.median(p.times) * 1e3,
        "op_p99_ms": percentile(p.times, 0.99) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    fp = p.fingerprint()
    diag = getattr(workload, "diagonal_digest", lambda: None)()
    fp["diagonal"] = diag[:16] if diag else "-"
    correct = p.failed == 0 and (args.workload != "scan" or diag is not None)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    lines = [
        "meta " + json.dumps(metadata(args, p)),
        "fingerprint " + " ".join(f"{k}={v}" for k, v in fp.items()),
        f"failed_frac={p.failed / len(p.times):.6f} failed={p.failed} attempted={len(p.times)}"
        + (f" errors={json.dumps(p.errors)}" if p.errors else ""),
        f"counters {json.dumps(workload.counters())}",
    ]
    emit(lines, {"correct": correct, "attempted": len(p.times), "failed": p.failed, "metrics": metrics})


def layer_values(tracer: Tracer, workload) -> dict:
    """Per-layer numbers by metric name: `<layer>.calls` and `<layer>.self_s`
    for every traced layer, and the work counts.  A layer the workload never
    reached is absent and reads as 0."""
    values = dict(tracer.counts)
    values.update({f"{n}.calls": c for n, c in tracer.calls.items()})
    values.update({f"{n}.self_s": t for n, t in tracer.self_s.items()})
    tried = values.get("combine.arrangements_tried", 0)
    values["combine.sat_per_arrangement"] = values.get("combine.sat_verdicts", 0) / tried if tried else 0.0
    values["catalog.withheld"] = workload.withheld
    return values


def traced(args, spec, workload_cls):
    """One untraced pass, then a traced pass from a fresh load, so both
    start from the same cold caches."""
    _, workload = load(workload_cls, args.seed)
    plain = run_pass(workload, rounds=workload_cls.trace_rounds)
    tracer = Tracer()
    try:
        _, workload = load(workload_cls, args.seed, tracer)
        wrapped = run_pass(workload, rounds=workload_cls.trace_rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    overhead = sum(wrapped.times) / sum(plain.times) - 1

    values = layer_values(tracer, workload)
    coverage = {
        "yielded_equals_arrangements_tried": values.get("formulas.enumerate_arrangements.yielded", 0)
        == workload.arrangements_tried,
        "loop_iterations_match_verdicts": values.get("combine.loop_iterations", 0)
        == workload.loop_iterations,
        "traced_verdicts_equal_untraced": plain.verdicts == wrapped.verdicts,
    }
    correct = plain.failed == 0 and wrapped.failed == 0 and all(coverage.values())
    meta = metadata(args, wrapped)
    meta["trace_overhead"] = overhead
    meta["untraced_s"] = sum(plain.times)
    meta["traced_s"] = sum(wrapped.times)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {
        "meta": meta,
        "coverage": coverage,
        "fingerprint": wrapped.fingerprint(),
        "values": dict(sorted(values.items())),
        "buckets": tracer.buckets,
        "untraced_buckets": bucket_stats(plain),
        "spans": tracer.spans_json(),
    }
    path.write_text(json.dumps(doc))
    lines = [
        "meta " + json.dumps(meta),
        "coverage " + json.dumps(coverage),
        f"trace_overhead={overhead:.4f} (traced {sum(wrapped.times):.3f}s vs untraced {sum(plain.times):.3f}s)",
        f"trace written to {path.relative_to(ROOT)}",
    ]
    emit(lines, {"correct": correct, "attempted": len(wrapped.times), "failed": wrapped.failed, "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "combinekit" / "__init__.py").is_file():
        print(f"combinekit sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    os.environ.pop("COMBINEKIT_CONFIG", None)
    (traced if args.trace else end_to_end)(args, spec, WORKLOADS[args.workload])
    return 0


if __name__ == "__main__":
    sys.exit(main())
