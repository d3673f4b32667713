"""Measurement primitives of the benchmark: order statistics, spans with their
self- and busy-time arithmetic, garbage-collector and process observers, and
the ledger that counts failed operations.

Standard library only, so that it imports before numpy and the program.
"""

import gc
import math
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# A tail percentile is reported only where at least this many samples lie
# beyond it, so that one slow sample cannot set it.
MIN_BEYOND = 10


def tail_percentile(samples) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least
    MIN_BEYOND samples beyond it.

    The k-th smallest of n samples (1-based) is the 100*k/n-th percentile; the
    highest k with n - k >= MIN_BEYOND is n - MIN_BEYOND.  With MIN_BEYOND or
    fewer samples no percentile qualifies, and the maximum is reported as the
    100th percentile instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    k = n - MIN_BEYOND
    if k < 1:
        return 100.0, xs[-1]
    return 100.0 * k / n, xs[k - 1]


# ---------------------------------------------------------------------------
# Spans


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the index of the enclosing span in the
    tracer's list, or None for an operation's root; spans of one operation
    share ``op``."""

    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals; overlaps count once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(spans: list[Span], index: int) -> float:
    """Duration of span ``index`` minus the part of it its children cover."""
    span = spans[index]
    covered = [
        (max(s.start, span.start), min(s.end, span.end))
        for s in spans
        if s.parent == index and s.end > span.start and s.start < span.end
    ]
    return span.duration - union_length(covered)


def busy_time(spans, name: str) -> float:
    """Time during which at least one span called ``name`` was open."""
    return union_length((s.start, s.end) for s in spans if s.name == name)


class Tracer:
    """Records spans in memory around calls made by the benchmark."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        # reserve the slot so that children, recorded first, can point here
        self.spans.append(None)
        self._stack.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._op)

    @contextmanager
    def op(self, op_id: int, name: str = "op"):
        """Root span of one operation; spans opened inside belong to it."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        self._op = op_id
        with self.span(name):
            yield

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def roots(self, name: str = "op") -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent is None and s.name == name]

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]


# ---------------------------------------------------------------------------
# Observers of the interpreter and the process


class GcWatch:
    """Collector pauses and collections, seen through ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = 0
        self._started = None

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1
            self._started = None

    @contextmanager
    def installed(self):
        gc.callbacks.append(self)
        try:
            yield self
        finally:
            gc.callbacks.remove(self)


class ImportProbe:
    """A fresh interpreter that times importing ``module`` when told to.

    Create it while this process is still small: a child inherits its
    parent's memory peak up to its exec, and would otherwise report this
    process's size instead of that of a fresh import."""

    def __init__(self, src, module: str):
        code = (
            "import sys, time; sys.stdin.readline(); t = time.perf_counter(); "
            f"import {module}; print(time.perf_counter() - t)"
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def seconds(self) -> float:
        out, _ = self.proc.communicate("go\n", timeout=120)
        if self.proc.returncode != 0:
            raise RuntimeError(f"import probe exited with code {self.proc.returncode}")
        return float(out.split()[-1])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped
    child, in MB (``ru_maxrss`` is in KiB on Linux)."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


# ---------------------------------------------------------------------------
# Failure accounting


def raising_layer(exc: BaseException) -> str:
    """Module of cemlogrank holding the innermost frame of the traceback."""
    layer = "bench"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("cemlogrank."):
            layer = module.split(".")[1]
        tb = tb.tb_next
    return layer


def same_value(observed, expected, rel: float = 1e-10, abs_floor: float = 1e-12) -> bool:
    """Floats agree to ``rel`` relative (``abs_floor`` absolute near zero);
    counts, flags and strings agree exactly."""
    pair = (observed, expected)
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair) and any(
        isinstance(v, float) for v in pair
    ):
        return math.isclose(observed, expected, rel_tol=rel, abs_tol=abs_floor)
    return observed == expected


def mismatches(observed: dict, expected: dict) -> list[str]:
    """Keys present in both whose values disagree, as readable lines."""
    return [
        f"{key}: got {observed[key]!r}, expected {expected[key]!r}"
        for key in sorted(expected.keys() & observed.keys())
        if not same_value(observed[key], expected[key])
    ]


class Ledger:
    """Counts attempted and failed cohorts, errors per layer and class, and
    correctness mismatches."""

    def __init__(self, error_type: type[BaseException]):
        self.error_type = error_type
        self.attempted = 0
        self.failed = 0
        self.errors: Counter[str] = Counter()
        self.mismatch_lines: list[str] = []
        self.notes: list[str] = []

    @property
    def correct(self) -> bool:
        return not self.mismatch_lines

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def run(self, cohorts: int, fn, *args):
        """Call fn(*args) as one operation on ``cohorts`` cohorts.  An error
        of the program's own type counts all of them failed and gives None."""
        self.attempted += cohorts
        try:
            return fn(*args)
        except self.error_type as exc:
            self.errors[f"{raising_layer(exc)}.errors.{type(exc).__name__}"] += 1
            self.failed += cohorts
            return None

    def fail(self, cohorts: int, key: str) -> None:
        """An operation that returned but failed, e.g. a non-zero exit."""
        self.errors[key] += 1
        self.failed += cohorts

    def check(self, cohorts: int, label: str, observed: dict, *expected: dict) -> bool:
        """Compare one operation's results with every expectation given; any
        mismatch fails its cohorts once.  Each key is ``<layer>.<quantity>``,
        and a mismatch is counted against that layer."""
        bad = [line for exp in expected for line in mismatches(observed, exp)]
        if not bad:
            return True
        self.failed += cohorts
        for line in bad:
            self.errors[line.split(".", 1)[0] + ".errors.Mismatch"] += 1
            self.mismatch_lines.append(f"{label}: {line}")
        return False
