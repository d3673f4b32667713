import csv
import io
import math
import os
import signal
import time

import numpy as np
import pytest

from cemlogrank import ExperimentConfig, ReplicateRecord, Scenario, experiment, run_experiment, run_replicate
from cemlogrank.dataio import experiment_report, samples_csv_text
from cemlogrank.errors import RankDeficiencyError, SeparationError, WeightOverflowError
from cemlogrank.experiment import summarize_method
from test_api import RECORD_FIELDS

# the fields a failed method leaves empty
RESULT_FIELDS = RECORD_FIELDS[RECORD_FIELDS.index("statistic"):]

# the n = 60 model2 experiment, whose IPTW fit separates in some replicates
SEPARATING = dict(
    scenario=Scenario(n=60, assignment_model="model2", hypothesis="null"),
    replications=20,
    method="both",
)


def tiny_config(**kwargs):
    defaults = dict(
        scenario=Scenario(n=400, assignment_model="model1", hypothesis="null", seed=77),
        replications=12,
        method="both",
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_bin_rule(self):
        assert tiny_config(scenario=Scenario(n=5000, seed=1)).bins_per_dim == 12
        assert tiny_config(scenario=Scenario(n=2500, seed=1)).bins_per_dim == 10
        assert tiny_config(scenario=Scenario(n=7500, seed=1)).bins_per_dim == 14

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(replications=0)
        with pytest.raises(ValueError):
            tiny_config(alpha=1.0)
        with pytest.raises(ValueError):
            tiny_config(method="all")
        with pytest.raises(ValueError):
            tiny_config(theta=0.0)
        with pytest.raises(ValueError):
            tiny_config(box_lo=(0.0, 0.0), box_hi=(1.0, 1.0))

    def test_roundtrip_dict(self):
        cfg = tiny_config()
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


class TestRunExperiment:
    def test_records_cover_every_replicate_and_method(self):
        res = run_experiment(tiny_config())
        assert len(res.records) == 24
        assert [r.replicate for r in res.records if r.method == "cem"] == list(range(12))
        assert {r.method for r in res.records} == {"cem", "iptw"}

    def test_same_cohort_shared_across_methods(self):
        res = run_experiment(tiny_config())
        cem = [r for r in res.records if r.method == "cem"]
        iptw = [r for r in res.records if r.method == "iptw"]
        for c, i in zip(cem, iptw):
            assert c.replicate == i.replicate
            assert c.treated_total == i.treated_total

    def test_deterministic_rerun(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config())
        assert a.records == b.records
        assert samples_csv_text(a) == samples_csv_text(b)
        assert experiment_report(a) == experiment_report(b)

    def test_worker_count_does_not_change_outputs(self):
        seq = run_experiment(tiny_config(threads=1))
        # one block per worker, down to one replicate each, and more workers
        # asked for than there are replicates
        for threads in (2, 3, 4, 12, 15):
            par = run_experiment(tiny_config(threads=threads))
            assert samples_csv_text(seq) == samples_csv_text(par), threads
            assert experiment_report(seq) == experiment_report(par), threads

    def test_single_replicate_degenerate_summary(self):
        res = run_experiment(tiny_config(replications=1, method="cem"))
        s = res.summaries["cem"]
        assert s.replications == 1
        assert s.sd is None and s.skewness is None and s.ks_distance is None
        assert s.histogram_edges is None and s.qq_sample is None
        assert math.isfinite(s.mean)
        rows = samples_csv_text(res).strip().splitlines()
        assert len(rows) == 2  # header + one record

    def test_summary_contents(self):
        res = run_experiment(tiny_config(replications=20))
        s = res.summaries["cem"]
        assert s.replications == 20
        assert sum(s.histogram_counts) == 20
        assert len(s.qq_sample) == 20 and len(s.qq_theoretical) == 20
        assert s.qq_sample == sorted(s.qq_sample)
        for rate in (s.rejection_rate_two_sided, s.rejection_rate_upper, s.rejection_rate_lower):
            assert 0.0 <= rate <= 1.0
        assert s.mean_treated_total > 0
        assert s.omega_n_rate is not None
        i = res.summaries["iptw"]
        assert i.omega_n_rate is None
        assert i.match_exponent_mean == pytest.approx(
            float(np.mean([math.log(r.n1) / math.log(400) for r in res.records if r.method == "iptw"]))
        )

    def test_samples_csv_shape(self):
        res = run_experiment(tiny_config(replications=3))
        lines = samples_csv_text(res).strip().splitlines()
        assert lines[0] == ",".join(RECORD_FIELDS)
        assert len(lines) == 1 + 6
        rows = list(csv.DictReader(io.StringIO(samples_csv_text(res))))
        first = rows[0]
        assert first["replicate"] == "0" and first["method"] == "cem" and first["status"] == "ok"
        assert first["omega_n"] in ("true", "false")
        iptw_row = next(row for row in rows if row["method"] == "iptw")
        assert iptw_row["omega_n"] == ""  # coverage flag undefined for iptw


class TestFailures:
    """A method's numeric failure in a replicate is a record with its status
    and no result, and the summary covers the ok records only."""

    @pytest.mark.parametrize(
        "target, error, status",
        [
            ("fit_logistic", SeparationError, "separation"),
            ("iptw_weights", WeightOverflowError, "overflow"),
            ("fit_logistic", RankDeficiencyError, "rank_deficient"),
            ("run_test", SeparationError, "separation"),
        ],
    )
    def test_each_numeric_failure_is_recorded(self, monkeypatch, target, error, status):
        def fail(*args):
            raise error("failed")

        monkeypatch.setattr(experiment, target, fail)
        cem, iptw = run_replicate(tiny_config(), 3)
        failed, ran = (cem, iptw) if target == "run_test" else (iptw, cem)
        assert (failed.replicate, failed.status, ran.status) == (3, status, "ok")
        assert failed.treated_total == ran.treated_total > 0
        assert all(getattr(failed, name) is None for name in RESULT_FIELDS)
        assert all(getattr(ran, name) is not None for name in RESULT_FIELDS if name != "omega_n")

    def test_failed_rows_are_written_empty(self):
        res = run_experiment(ExperimentConfig(**SEPARATING))
        rows = list(csv.DictReader(io.StringIO(samples_csv_text(res))))
        failed = [row for row in rows if row["status"] != "ok"]
        assert failed and {(row["method"], row["status"]) for row in failed} == {("iptw", "separation")}
        assert all(row[name] == "" for row in failed for name in RESULT_FIELDS)
        assert all(row["treated_total"] != "" for row in failed)

    def test_summary_covers_the_ok_records(self):
        res = run_experiment(ExperimentConfig(**SEPARATING))
        iptw = [r for r in res.records if r.method == "iptw"]
        ok = [r for r in iptw if r.status == "ok"]
        s = res.summaries["iptw"]
        assert 0 < len(ok) < len(iptw)
        assert s.replications == len(ok)
        assert s.failure_rate == (len(iptw) - len(ok)) / len(iptw)
        assert s.mean == float(np.mean([r.statistic for r in ok]))
        assert s.mean_treated_total == float(np.mean([r.treated_total for r in ok]))
        assert res.summaries["cem"].failure_rate == 0.0 and res.summaries["cem"].replications == 20

    def test_no_ok_record_leaves_every_statistic_none(self):
        config = tiny_config()
        records = [ReplicateRecord(r, "iptw", "separation", 0) for r in range(3)]
        s = summarize_method(records, config).to_dict()
        assert (s.pop("method"), s.pop("replications"), s.pop("failure_rate")) == ("iptw", 0, 1.0)
        assert set(s.values()) == {None}

    def test_no_records_is_a_value_error(self):
        with pytest.raises(ValueError, match="got an empty list"):
            summarize_method([], tiny_config())


def assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class ReplicateError(Exception):
    pass


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this exception does not pickle")


class Unloadable(Exception):
    # pickles with empty args, so unpickling calls Unloadable() and fails
    def __init__(self, message):
        super().__init__()
        self.message = message


def failing_at(*replicates, error=ReplicateError):
    """A run_replicate that raises ``error`` naming the replicate at each
    of ``replicates`` and otherwise runs the real one."""
    real = experiment.run_replicate

    def run(config, replicate):
        if replicate in replicates:
            raise error(f"replicate {replicate} failed")
        return real(config, replicate)

    return run


class TestForkedWorkers:
    """With more than one worker, each forked child runs one contiguous
    block of replicates; the parent reaps every child on every path."""

    @pytest.mark.parametrize("threads", [2, 4])
    def test_separation_is_recorded_as_at_one_worker(self, threads):
        serial = run_experiment(ExperimentConfig(**SEPARATING, threads=1))
        forked = run_experiment(ExperimentConfig(**SEPARATING, threads=threads))
        assert "separation" in {r.status for r in serial.records}
        assert forked.records == serial.records
        assert samples_csv_text(forked) == samples_csv_text(serial)
        assert experiment_report(forked) == experiment_report(serial)
        assert_no_children_left()

    @pytest.mark.parametrize("threads", [1, 2, 3, 4, 12])
    def test_lowest_failing_replicate_wins(self, monkeypatch, threads):
        monkeypatch.setattr(experiment, "run_replicate", failing_at(5, 9, 11))
        with pytest.raises(ReplicateError, match="^replicate 5 failed$"):
            run_experiment(tiny_config(threads=threads))
        assert_no_children_left()

    def test_killed_worker_names_its_replicates(self, monkeypatch):
        real = experiment.run_replicate

        def killed(config, replicate):
            if replicate == 7:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(config, replicate)

        monkeypatch.setattr(experiment, "run_replicate", killed)
        message = rf"^the worker for replicates 4 to 7 ended without a result \(killed by signal {int(signal.SIGKILL)}\)$"
        with pytest.raises(RuntimeError, match=message):
            run_experiment(tiny_config(threads=3))
        assert_no_children_left()

    @pytest.mark.parametrize("error, code", [(Unpicklable, 1), (Unloadable, 0)])
    def test_exception_that_cannot_cross_names_its_replicates(self, monkeypatch, error, code):
        monkeypatch.setattr(experiment, "run_replicate", failing_at(8, error=error))
        with pytest.raises(RuntimeError, match=rf"replicates 6 to 11 ended without a result \(exit code {code}\)$"):
            run_experiment(tiny_config(threads=2))
        assert_no_children_left()

    def test_parent_failure_reaps_every_worker(self, monkeypatch):
        real_read, real_run = experiment._read_to_eof, experiment.run_replicate
        reads = []

        def read(fd):
            reads.append(fd)
            if len(reads) == 2:
                raise OSError("read failed")
            return real_read(fd)

        def hanging(config, replicate):
            if replicate == 11:
                time.sleep(60)
            return real_run(config, replicate)

        monkeypatch.setattr(experiment, "_read_to_eof", read)
        monkeypatch.setattr(experiment, "run_replicate", hanging)
        start = time.perf_counter()
        with pytest.raises(OSError, match="read failed"):
            run_experiment(tiny_config(threads=4))
        assert time.perf_counter() - start < 30
        assert_no_children_left()

    def test_interrupt_reaps_every_worker(self, monkeypatch):
        real = experiment.run_replicate

        def interrupting(config, replicate):
            if replicate == 0:
                os.kill(os.getppid(), signal.SIGINT)
                time.sleep(60)
            return real(config, replicate)

        monkeypatch.setattr(experiment, "run_replicate", interrupting)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_experiment(tiny_config(threads=3))
        assert time.perf_counter() - start < 30
        assert_no_children_left()
