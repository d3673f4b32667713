"""Benchmark of cemlogrank: one workload per invocation, timed without
tracing, or with ``--trace 1`` also split into per-layer spans.

    python3 perfbench/run.py --workload csv_coarse_test --seed 0 --seconds 50 --trace 0

Run from anywhere; the program is imported from ``src/`` beside this
directory.  Every result is checked (see README.md).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics of BENCHMARK.json with ``--trace 0``
and its per-layer metrics with ``--trace 1``.  A full run record goes to
``perfbench/out/``.  The exit code is 0 only when every check passed.
"""

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

from measure import (
    GcWatch,
    ImportProbe,
    Ledger,
    Tracer,
    busy_time,
    cpu_seconds,
    peak_rss_mb,
    self_time,
    tail_percentile,
    union_length,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
# Per-layer times of calls that only one workload makes.  They read exactly 0
# on every run of the other, so BENCHMARK.json does not list them; they are
# printed and recorded with the listed ones.
WORKLOAD_LAYERS = [
    ("simulate.generate.busy_s", "s"),
    ("dataio.read_cohort_csv.busy_s", "s"),
    ("dataio.load_scheme.busy_s", "s"),
    ("dataio.load_weight_fn.busy_s", "s"),
    ("dataio.result_report.busy_s", "s"),
    ("dataio.write_experiment_outputs.busy_s", "s"),
    ("iptw.fit_logistic.busy_s", "s"),
    ("iptw.iptw_weights.busy_s", "s"),
    ("iptw.iptw_logrank.busy_s", "s"),
    ("experiment.run_experiment.busy_s", "s"),
    ("experiment.run_replicate.serial_s", "s"),
    ("experiment.summarize_method.busy_s", "s"),
]
# What a user of the command line imports before any work.
SETUP_IMPORT = "cemlogrank.cli"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """Commit of the checkout, read from its own .git only."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "mp_start_method": multiprocessing.get_start_method(),
    }


class Run:
    """One invocation: set-up, checks, the untraced loop and the traced loop."""

    def __init__(self, wl, ledger, reference: dict):
        self.wl = wl
        self.ledger = ledger
        self.reference = reference
        self.seen: dict[str, dict] = {}

    def verify(self, label: str, i: int, summary: dict, *extra: dict) -> None:
        key = self.wl.input_key(i)
        self.ledger.check(
            self.wl.cohorts_per_op,
            label,
            summary,
            self.reference.get(key, {}),
            self.seen.get(key, {}),
            self.wl.invariants(summary),
            *extra,
        )
        self.seen[key] = {**summary, **self.seen.get(key, {})}

    def untraced(self, i: int) -> tuple[float, bool]:
        start = time.perf_counter()
        result = self.ledger.run(self.wl.cohorts_per_op, self.wl.op, i)
        wall = time.perf_counter() - start
        summary = None if result is None else self.wl.observe(i, result, self.ledger)
        if summary is not None:
            self.verify(f"op {i}", i, summary)
        return wall, summary is not None

    def untraced_loop(self, seconds: float, first: int) -> tuple[list[float], float, int]:
        """Latencies of the ops that succeeded, the wall of all, next index."""
        latencies, wall, i = [], 0.0, first
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            dt, ok = self.untraced(i)
            wall += dt
            if ok:
                latencies.append(dt)
            i += 1
        return latencies, wall, i

    def traced_loop(self, seconds: float, first: int):
        tracer, gc_watch = Tracer(), GcWatch()
        per_op: list[dict] = []
        counters: dict[str, list] = defaultdict(list)
        deadline = time.perf_counter() + seconds
        i = first
        with gc_watch.installed():
            while True:
                pause, collections, cpu = gc_watch.pause_s, gc_watch.collections, cpu_seconds()
                out = self.ledger.run(self.wl.cohorts_per_op, self.wl.traced, i, tracer)
                per_op.append(
                    {
                        "python.gc.pause_s": gc_watch.pause_s - pause,
                        "python.gc.collections": gc_watch.collections - collections,
                        "process.cpu_s": cpu_seconds() - cpu,
                    }
                )
                if out is not None:
                    summary, op_counters, extra = out
                    self.verify(f"traced op {i}", i, summary, *extra)
                    for name, values in op_counters.items():
                        counters[name] += values
                i += 1
                if time.perf_counter() >= deadline:
                    break
        return tracer, per_op, counters


def accounting(tracer: Tracer) -> list[dict]:
    """Per root span: its wall, the busy time of each child call, and the
    gap no child covers.  Children run one after another, so the busy times
    plus the gap add up to the wall."""
    rows = []
    for index, root in enumerate(tracer.spans):
        if root.parent is not None:
            continue
        children = tracer.children(index)
        rows.append(
            {
                "root": root.name,
                "op": root.op,
                "wall_s": root.duration,
                "busy_s": {c: busy_time(children, c) for c in sorted({c.name for c in children})},
                "gap_s": self_time(tracer.spans, index),
            }
        )
    return rows


def layer_metrics(names, tracer, per_op, counters, ledger, untraced_p50, workers) -> dict:
    """Per-op medians of each declared per-layer metric; a layer the
    workload never calls reads 0."""
    roots = tracer.roots("op")
    ops = [tracer.spans[i].op for i in roots]
    by_op = {op: [s for s in tracer.spans if s.op == op] for op in ops}

    def per_op_median(fn):
        return median([fn(by_op[op]) for op in ops]) if ops else 0.0

    def efficiency(spans):
        parallel = busy_time(spans, "experiment.run_experiment")
        return busy_time(spans, "experiment.run_replicate") / (workers * parallel) if parallel else 0.0

    values = {}
    for name in names:
        if name.count(".") == 1 and name.endswith(".busy_s"):
            layer = name[: -len("busy_s")]
            values[name] = per_op_median(
                lambda spans: union_length((s.start, s.end) for s in spans if s.name.startswith(layer))
            )
        elif name.endswith(".busy_s"):
            span = name[: -len(".busy_s")]
            values[name] = per_op_median(lambda spans: busy_time(spans, span))
        elif name == "experiment.run_replicate.serial_s":
            values[name] = per_op_median(lambda spans: busy_time(spans, "experiment.run_replicate"))
        elif name == "experiment.parallel_efficiency":
            values[name] = per_op_median(efficiency)
        elif name in per_op[0]:
            values[name] = median([row[name] for row in per_op])
        elif name == "trace.overhead_s":
            values[name] = median([tracer.spans[i].duration for i in roots]) - untraced_p50 if roots else 0.0
        elif name == "trace.gap_s":
            values[name] = median([self_time(tracer.spans, i) for i in roots]) if roots else 0.0
        elif name == "errors.mismatches":
            values[name] = sum(v for k, v in ledger.errors.items() if k.endswith(".errors.Mismatch"))
        elif name == "errors.total":
            values[name] = sum(ledger.errors.values())
        elif ".errors." in name:
            values[name] = ledger.errors.get(name, 0)
        elif name in counters:
            values[name] = median(counters[name])
        else:
            values[name] = 0
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "cemlogrank" / "__init__.py").is_file():
        print(f"error: the program's source is missing: {SRC / 'cemlogrank'}", file=sys.stderr)
        return 2
    # One BLAS thread per process, set before numpy is first imported: the
    # pool's forked workers would otherwise oversubscribe the cores.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    probes = [ImportProbe(SRC, SETUP_IMPORT) for _ in range(SETUP_REPEATS)]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        sys.path.insert(0, str(SRC))
        import cemlogrank
        from cemlogrank.errors import CemLogrankError

        if Path(cemlogrank.__file__).resolve().parent != SRC.resolve() / "cemlogrank":
            print(f"error: cemlogrank was imported from {cemlogrank.__file__}, not {SRC}", file=sys.stderr)
            return 2
        import workloads

        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        workdir.mkdir(parents=True)
        record = measure_workload(args, spec, workloads, workdir, CemLogrankError, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        for probe in probes:
            probe.close()

    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    report(record, path, {m["name"] for section in ("end_to_end", "per_layer") for m in spec[section]})
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {
        m["name"]: {"value": record[section][m["name"]]["value"], "unit": m["unit"]} for m in spec[section]
    }
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if record["correct"] else 1


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure_workload(args, spec, workloads, workdir, error_type, probes) -> dict:
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)

    def setup(probe) -> float:
        """The import in a fresh interpreter plus input preparation."""
        return probe.seconds() + timed(wl.prepare)

    setups = [setup(probes[0])]

    reference = {}
    if args.seed == workloads.DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text())[wl.name]
    ledger = Ledger(error_type)
    run = Run(wl, ledger, reference)

    checked = ledger.run(1, wl.crosscheck)
    if checked is not None:
        ledger.check(1, "crosscheck", *checked)

    run.untraced(0)  # warm-up: checked and counted, not timed
    budget = args.seconds / 2 if args.trace else args.seconds
    # The host's speed drifts over tens of seconds, so the other set-ups
    # (which rebuild the same inputs) are spread through the timed loop.
    latencies, wall, next_op = [], 0.0, 1
    for probe in probes[1:]:
        more, more_wall, next_op = run.untraced_loop(budget / (len(probes) - 1), first=next_op)
        latencies += more
        wall += more_wall
        setups.append(setup(probe))
    if not latencies:
        raise SystemExit(f"error: no operation of {wl.name} succeeded: {dict(ledger.errors)}")
    p50 = median(latencies)
    tail_pct, tail = tail_percentile(latencies)
    cohorts = len(latencies) * wl.cohorts_per_op
    end_to_end = {
        "latency_p50_s": {"value": p50, "unit": "s", "samples": len(latencies)},
        "latency_tail_s": {
            "value": tail,
            "unit": "s",
            "samples": len(latencies),
            "percentile": tail_pct,
        },
        "cohorts_per_s": {"value": cohorts / wall, "unit": "1/s", "samples": cohorts, "wall_s": wall},
        "setup_s": {"value": median(setups), "unit": "s", "samples": len(setups), "all": setups},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB", "samples": 1},
    }

    record = {
        "workload": wl.name,
        "environment": environment(),
        "settings": {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "closed_loop_callers": 1,
            "setup_repeats": SETUP_REPEATS,
            "reference_checked": bool(reference),
        },
        "end_to_end": end_to_end,
        "latencies_s": latencies,
    }

    if args.trace:
        tracer, per_op, counters = run.traced_loop(budget, first=next_op)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        units.update(WORKLOAD_LAYERS)
        names = list(units)
        values = layer_metrics(
            names, tracer, per_op, counters, ledger, p50, workloads.WORKERS
        )
        traced_ops = len(tracer.roots("op"))
        record["per_layer"] = {
            n: {"value": values[n], "unit": units[n], "samples": traced_ops} for n in names
        }
        record["settings"]["tracing_overhead_s"] = values.get("trace.overhead_s")
        record["accounting"] = accounting(tracer)

    # counted after the traced loop, whose cohorts count too
    end_to_end["failed_frac"] = {"value": ledger.failed_frac, "unit": "ratio", "samples": ledger.attempted}
    record.update(
        correct=ledger.correct,
        attempted=ledger.attempted,
        failed=ledger.failed,
        errors=dict(ledger.errors),
        mismatches=ledger.mismatch_lines,
        notes=ledger.notes,
    )
    return record


def report(record: dict, path: Path, listed: set[str]) -> None:
    """Every metric with its unit and sample count; those that BENCHMARK.json
    does not list are marked as reported only."""
    s = record["settings"]
    print(f"workload {record['workload']}  seed {s['seed']}  trace {s['trace']}  record {path}")
    for section in ("end_to_end", "per_layer"):
        for name, m in record.get(section, {}).items():
            extra = f"n={m['samples']}"
            if "percentile" in m:
                extra += f", p{m['percentile']:.1f}"
            if name not in listed:
                extra += ", reported only"
            print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:6s} ({extra})")
    print(f"  correct={record['correct']} attempted={record['attempted']} failed={record['failed']}")
    for line in record["mismatches"][:20]:
        print(f"  mismatch {line}")


if __name__ == "__main__":
    sys.exit(main())
