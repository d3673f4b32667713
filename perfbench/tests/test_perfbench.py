"""Tests of the benchmark itself: the tail-percentile rule, span arithmetic,
and that a wrong statistic trips the correctness gate and failed_frac."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import measure  # noqa: E402
from measure import Ledger, Span, Tracer, busy_time, self_time, tail_percentile, union_length  # noqa: E402


class TestTailPercentile:
    @pytest.mark.parametrize("n", [11, 27, 40, 100, 1000])
    def test_ten_samples_lie_beyond(self, n):
        samples = [float(k) for k in range(n, 0, -1)]
        percentile, value = tail_percentile(samples)
        assert sum(1 for x in samples if x > value) == measure.MIN_BEYOND
        assert percentile == pytest.approx(100.0 * (n - measure.MIN_BEYOND) / n)

    def test_hundred_samples_give_p90(self):
        assert tail_percentile(range(1, 101)) == (90.0, 90)

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_too_few_samples_report_the_maximum(self, n):
        assert tail_percentile(range(n)) == (100.0, n - 1)

    def test_no_samples(self):
        with pytest.raises(ValueError):
            tail_percentile([])


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class TestSpans:
    def test_union_counts_overlaps_once(self):
        assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == pytest.approx(4.0)
        assert union_length([]) == 0.0

    def test_self_time_subtracts_children_not_grandchildren_twice(self):
        # op [0, 10] holds a [1, 4] (which holds a.inner [2, 3]) and b [5, 9]
        tr = Tracer(clock=ScriptedClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]))
        with tr.op(7):
            with tr.span("a"):
                with tr.span("a.inner"):
                    pass
            with tr.span("b"):
                pass
        (root,) = tr.roots()
        assert tr.spans[root].duration == 10.0
        assert self_time(tr.spans, root) == pytest.approx(10.0 - 3.0 - 4.0)
        a = next(i for i, s in enumerate(tr.spans) if s.name == "a")
        assert self_time(tr.spans, a) == pytest.approx(2.0)
        assert {s.op for s in tr.spans} == {7}
        assert [s.name for s in tr.children(root)] == ["a", "b"]

    def test_self_time_clips_and_merges_overlapping_children(self):
        spans = [
            Span("op", 0.0, 10.0, None, 0),
            Span("x", 2.0, 6.0, 0, 0),
            Span("y", 4.0, 8.0, 0, 0),
            Span("z", 9.0, 12.0, 0, 0),
        ]
        assert self_time(spans, 0) == pytest.approx(10.0 - 6.0 - 1.0)

    def test_busy_time_unions_spans_of_one_name(self):
        spans = [
            Span("f", 0.0, 2.0, None, 0),
            Span("f", 1.0, 3.0, None, 0),
            Span("f", 10.0, 11.0, None, 1),
            Span("g", 0.0, 100.0, None, 0),
        ]
        assert busy_time(spans, "f") == pytest.approx(4.0)
        assert busy_time(spans, "h") == 0.0

    def test_operations_do_not_nest(self):
        tr = Tracer()
        with tr.op(0):
            with pytest.raises(RuntimeError):
                with tr.op(1):
                    pass


class TestLedger:
    REFERENCE = {"logrank.statistic": 0.25, "matching.n1": 12, "matching.omega_n": True}

    def test_agreement_within_tolerance_passes(self):
        ledger = Ledger(ValueError)
        ledger.attempted = 1
        observed = {"logrank.statistic": 0.25 * (1 + 1e-12), "matching.n1": 12, "matching.omega_n": True}
        assert ledger.check(1, "op 0", observed, self.REFERENCE)
        assert ledger.correct and ledger.failed == 0

    def test_wrong_statistic_fails_the_cohort_once(self):
        ledger = Ledger(ValueError)
        ledger.attempted = 4
        observed = {"logrank.statistic": 0.25 * (1 + 1e-8), "matching.n1": 13, "matching.omega_n": True}
        assert not ledger.check(2, "op 3", observed, self.REFERENCE, self.REFERENCE)
        assert not ledger.correct
        assert ledger.failed == 2 and ledger.failed_frac == 0.5
        assert ledger.errors["logrank.errors.Mismatch"] == 2
        assert ledger.errors["matching.errors.Mismatch"] == 2

    def test_program_errors_count_per_layer_and_class(self):
        from cemlogrank import Cohort, SubjectRecord, SeparationError, fit_logistic

        ledger = Ledger(SeparationError)
        one_arm = Cohort(
            subjects=tuple(SubjectRecord(i, (0.0, 1.0), 1, 1.0, True) for i in range(4)), horizon=2.0
        )
        assert ledger.run(3, fit_logistic, one_arm) is None
        assert ledger.errors == {"iptw.errors.SeparationError": 1}
        assert (ledger.attempted, ledger.failed) == (3, 3)
        assert ledger.correct


class InstantImport:
    def __init__(self, src, module):
        pass

    def seconds(self):
        return 0.0

    def close(self):
        pass


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """The runner with a 2000-subject CSV workload, no subprocess import
    timing, and its output kept in a temporary directory."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    import run
    import workloads

    class TinyCsv(workloads.CsvCoarseTest):
        name = "csv_tiny"
        n = 2000

    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, TinyCsv.name, TinyCsv)
    monkeypatch.setattr(run, "ImportProbe", InstantImport)
    return run, workloads


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_clean_traced_run_reports_every_layer_metric(bench, capsys):
    run, _ = bench
    argv = ["--workload", "csv_tiny", "--seed", "3", "--seconds", "0.6", "--trace", "1"]
    assert run.main(argv) == 0
    out = last_json(capsys)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 4
    assert list(out["metrics"]) == [m["name"] for m in spec["per_layer"]]
    record = json.loads((run.OUT / "csv_tiny-seed3-trace1.json").read_text())
    assert record["accounting"]
    for row in record["accounting"]:
        assert sum(row["busy_s"].values()) + row["gap_s"] == pytest.approx(row["wall_s"], abs=1e-9)
    assert record["per_layer"]["dataio.read_cohort_csv.busy_s"]["value"] > 0
    assert record["per_layer"]["iptw.fit_logistic.busy_s"]["value"] == 0


def test_wrong_statistic_trips_the_gate_and_failed_frac(bench, capsys, monkeypatch):
    run, _ = bench
    import cemlogrank.cli

    honest = cemlogrank.cli.run_test

    def skewed(mc, *args, **kwargs):
        result = honest(mc, *args, **kwargs)
        return dataclasses.replace(result, standardized=result.standardized + 1e-6)

    monkeypatch.setattr(cemlogrank.cli, "run_test", skewed)
    argv = ["--workload", "csv_tiny", "--seed", "3", "--seconds", "0.3", "--trace", "0"]
    assert run.main(argv) == 1
    out = last_json(capsys)
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] - 1  # every op but the oracle cross-check
    record = json.loads((run.OUT / "csv_tiny-seed3-trace0.json").read_text())
    assert record["end_to_end"]["failed_frac"]["value"] == out["failed"] / out["attempted"]
    assert record["errors"]["logrank.errors.Mismatch"] == out["failed"]


def test_wrong_statistic_path_fails_the_oracle_crosscheck(bench, monkeypatch):
    _, workloads = bench
    from cemlogrank.errors import CemLogrankError

    honest = workloads.logrank.statistic_path

    def skewed(mc, weight_fn=None):
        return [(t, v + 1e-6) for t, v in honest(mc, weight_fn)]

    monkeypatch.setattr(workloads.logrank, "statistic_path", skewed)
    wl = workloads.WORKLOADS["csv_tiny"](3, None)
    ledger = Ledger(CemLogrankError)
    assert not ledger.check(1, "crosscheck", *ledger.run(1, wl.crosscheck))
    assert ledger.failed == 1
    assert any("_statistic" in line for line in ledger.mismatch_lines)


def test_import_probe_times_a_fresh_import_and_ends():
    probe = measure.ImportProbe(Path(__file__).parent, "json")
    try:
        assert 0.0 < probe.seconds() < 60.0
    finally:
        probe.close()
    assert probe.proc.returncode == 0
