"""The benchmark's workloads, run end to end on small inputs.

``perfbench/workloads.py`` calls ``run_replicate``, ``summarize_method``,
``ExperimentResult``, the CSV reader, the command line and the matched
cohort's fields itself, so a change to any of them that would break the
benchmark fails here first."""

import json
from pathlib import Path

from cemlogrank import Scenario, dataio, generate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class InstantImport:
    """Stands in for the runner's fresh-interpreter import timing."""

    def __init__(self, src, module):
        pass

    def seconds(self):
        return 0.0

    def close(self):
        pass


def run_workload(monkeypatch, tmp_path, capsys, variant) -> dict:
    """The runner's last output line for the small workload class that
    ``variant(workloads)`` returns, run at seed 3 with tracing."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    workload = variant(workloads)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "ImportProbe", InstantImport)
    monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
    argv = ["--workload", workload.name, "--seed", "3", "--seconds", "0.3", "--trace", "1"]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_replicate_workload_runs_correct(monkeypatch, tmp_path, capsys):
    def tiny_replicate(workloads):
        monkeypatch.setattr(workloads, "REPLICATIONS", 2)

        class TinyReplicate(workloads.Replicate):
            name = "replicate_tiny"
            cohorts_per_op = 2

        return TinyReplicate

    out = run_workload(monkeypatch, tmp_path, capsys, tiny_replicate)
    assert out["correct"] and out["failed"] == 0


def test_csv_workload_runs_correct(monkeypatch, tmp_path, capsys):
    def small_csv(workloads):
        class SmallCsvCoarseTest(workloads.CsvCoarseTest):
            name = "csv_coarse_test_small"
            n = 2000

        return SmallCsvCoarseTest

    out = run_workload(monkeypatch, tmp_path, capsys, small_csv)
    assert out["correct"] and out["failed"] == 0
    # the grid counter is the number of distinct event times in (0, horizon]
    # of the workload's input, rebuilt here as the workload builds it
    record = json.loads((tmp_path / "csv_coarse_test_small-seed3-trace1.json").read_text())
    path = tmp_path / "input.csv"
    dataio.write_cohort_csv(generate(Scenario(n=2000, assignment_model="model1", seed=3)), path)
    cohort = dataio.read_cohort_csv(path)
    rows = zip(cohort.times.tolist(), cohort.events.tolist())
    event_times = {t for t, event in rows if event and 0.0 < t <= cohort.horizon}
    assert record["per_layer"]["survival.grid_times"]["value"] == len(event_times)
