"""The benchmark's replicate workload, run end to end on two replicates.

``perfbench/workloads.py`` calls ``run_replicate``, ``summarize_method``,
``ExperimentResult`` and the matched cohort's fields itself, so a change to
any of them that would break the benchmark fails here first."""

import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class InstantImport:
    """Stands in for the runner's fresh-interpreter import timing."""

    def __init__(self, src, module):
        pass

    def seconds(self):
        return 0.0

    def close(self):
        pass


def test_replicate_workload_runs_correct(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    monkeypatch.setattr(workloads, "REPLICATIONS", 2)

    class TinyReplicate(workloads.Replicate):
        name = "replicate_tiny"
        cohorts_per_op = 2

    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "ImportProbe", InstantImport)
    monkeypatch.setitem(workloads.WORKLOADS, TinyReplicate.name, TinyReplicate)
    argv = ["--workload", TinyReplicate.name, "--seed", "3", "--seconds", "0.3", "--trace", "1"]
    assert run.main(argv) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
