import math
import os
import signal
import time

import numpy as np
import pytest

from cemlogrank import ExperimentConfig, Scenario, experiment, run_experiment
from cemlogrank.dataio import experiment_report, samples_csv_text
from cemlogrank.errors import SeparationError


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
        assert lines[0] == "replicate,method,statistic,omega_n,n1"
        assert len(lines) == 1 + 6
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "cem"
        assert first[3] in ("true", "false")
        iptw_row = next(l for l in lines[1:] if l.split(",")[1] == "iptw")
        assert iptw_row.split(",")[3] == ""  # coverage flag undefined for iptw


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
    def test_separation_is_raised_as_at_one_worker(self, threads):
        config = dict(
            scenario=Scenario(n=60, assignment_model="model2", hypothesis="null"),
            replications=20,
            method="both",
        )
        with pytest.raises(SeparationError) as serial:
            run_experiment(ExperimentConfig(**config, threads=1))
        with pytest.raises(SeparationError) as forked:
            run_experiment(ExperimentConfig(**config, threads=threads))
        assert str(forked.value) == str(serial.value)
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
