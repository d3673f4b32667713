"""The cohort is held as columns: production paths build no SubjectRecord,
the row view is lazy, and IPTW weights travel in cohort order.  The row
types, which only the benchmark harness still reads, are tested here and
nowhere else among the tests."""

import dataclasses
import gc
import json
import math
import re

import numpy as np
import pytest

from cemlogrank import (
    Cohort,
    ExperimentConfig,
    IptwWeights,
    MatchedCohort,
    Scenario,
    SubjectRecord,
    WeightFunction,
    fit_logistic,
    generate,
    grid_scheme,
    iptw_logrank,
    iptw_weights,
    match,
    run_replicate,
    statistic_path,
)
from cemlogrank import oracle
from cemlogrank.cli import main
from cemlogrank.dataio import read_cohort_csv, write_cohort_csv
from cemlogrank.survival import build_event_grid

SCHEME = {"box_lo": [-5.0, -5.0, -5.0], "box_hi": [5.0, 5.0, 5.0], "bins_per_dim": 4, "binary_dims": 2}


def records_forbidden(monkeypatch):
    def refuse(self):
        raise AssertionError("a SubjectRecord was built")

    monkeypatch.setattr(SubjectRecord, "__post_init__", refuse)


def strata_forbidden(monkeypatch):
    def refuse(self):
        raise AssertionError("the per-subject stratum_of dict was built")

    monkeypatch.setattr(MatchedCohort, "stratum_of", property(refuse))


class TestNoRecordsOnProductionPaths:
    def test_cli_and_replicate_build_no_records(self, tmp_path, monkeypatch, capsys):
        records_forbidden(monkeypatch)
        (tmp_path / "scheme.json").write_text(json.dumps(SCHEME))
        data, scheme = str(tmp_path / "data.csv"), str(tmp_path / "scheme.json")
        assert main(["simulate", "--n", "300", "--seed", "2", "--output", data]) == 0
        assert main(["test", data, "--scheme", scheme]) == 0
        assert main(["test", data, "--method", "iptw"]) == 0
        assert main(["match", data, "--scheme", scheme]) == 0
        assert "Traceback" not in capsys.readouterr().err

        config = ExperimentConfig(Scenario(n=500, seed=3), replications=1, method="both")
        assert [r.method for r in run_replicate(config, 0)] == ["cem", "iptw"]

        cohort = generate(Scenario(n=500, seed=3))
        mc = match(cohort, grid_scheme(SCHEME["box_lo"], SCHEME["box_hi"], 4, 2))
        assert len(cohort.subjects) == len(cohort) == 500
        assert len(mc.stratum_of) == 500
        assert mc.unmatched_count == 500 - mc.n1 - mc.n0

    def test_cli_reads_strata_from_the_matched_columns(self, tmp_path, monkeypatch, capsys):
        records_forbidden(monkeypatch)
        strata_forbidden(monkeypatch)
        (tmp_path / "scheme.json").write_text(json.dumps(SCHEME))
        (tmp_path / "config.json").write_text(
            json.dumps({"scenario": {"n": 300, "seed": 3}, "replications": 2, "method": "both"})
        )
        data, scheme = str(tmp_path / "data.csv"), str(tmp_path / "scheme.json")
        assert main(["simulate", "--n", "300", "--seed", "2", "--output", data]) == 0
        assert main(["match", data, "--scheme", scheme]) == 0
        assert main(["test", data, "--scheme", scheme]) == 0
        assert main(["experiment", "--config", str(tmp_path / "config.json"), "--output-dir", str(tmp_path / "out")]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_aligned_weights_skip_the_id_lookup(self, monkeypatch):
        # weights come back in cohort order, so the IPTW test reads them by
        # position: there is no id lookup, and no SubjectRecord is built
        cohort = generate(Scenario(n=400, seed=4))
        weights = iptw_weights(fit_logistic(cohort), cohort)
        assert weights.ids == cohort.ids
        assert not hasattr(IptwWeights, "by_id")
        records_forbidden(monkeypatch)
        iptw_logrank(cohort, weights)


def test_oracle_builds_no_records(monkeypatch):
    # the oracle sums over the cohort's columns, compensators included; it
    # never reads the row view
    cohort = generate(Scenario(n=300, seed=7))
    mc = match(cohort, grid_scheme(SCHEME["box_lo"], SCHEME["box_hi"], 4, 2))
    wf = WeightFunction(breakpoints=(4.0,), values=(1.0, 0.5))
    hazard = Scenario(n=300, seed=7).hazard_model()
    records_forbidden(monkeypatch)
    assert oracle.stratum_by_comparison(mc) == mc.stratum_of
    for weight_fn in (None, wf):
        assert oracle.statistic_by_enumeration(mc, weight_fn) == pytest.approx(
            statistic_path(mc, weight_fn)[-1][1], abs=1e-12
        )
    decomposition = oracle.statistic_decomposition(mc, hazard)
    assert decomposition.total == pytest.approx(statistic_path(mc)[-1][1], abs=1e-10)
    assert math.isfinite(oracle.classical_logrank(cohort).standardized)
    assert math.isfinite(oracle.nelson_aalen_difference(cohort))
    assert len(oracle.weights_by_enumeration(mc, 5.0)) == len(cohort)
    assert oracle.pooled_by_enumeration(mc, 1, 0.0) == mc.n1
    assert oracle.compensator(cohort, hazard, 5.0).shape == (len(cohort),)
    assert oracle.martingale_residual_mean(Scenario(n=50, seed=7), replications=100).draws == 5000


class TestNoRowChurn:
    """The dataset CSV is read and written in column blocks.  A tokenizer
    that builds one list per row allocates enough containers to start the
    cyclic garbage collector over and over (at 50 000 rows, 123 collections
    in one read)."""

    def collections_during(self, call, *args):
        """``call(*args)`` and the generations of the collections it started."""
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            result = call(*args)
        finally:
            gc.callbacks.remove(count)
        return result, started

    def test_reading_and_writing_20k_rows_start_no_collection(self, tmp_path):
        cohort = generate(Scenario(n=20_000, seed=5))
        path = tmp_path / "data.csv"
        assert self.collections_during(write_cohort_csv, cohort, path)[1] == []
        read, started = self.collections_during(read_cohort_csv, path, cohort.horizon)
        assert started == []
        assert read.ids == tuple(map(str, cohort.ids))
        assert np.array_equal(read.covariate_matrix, cohort.covariate_matrix)


class TestColumns:
    def records(self):
        return (
            SubjectRecord("a", (0.5, 1.0), 1, 2.0, True),
            SubjectRecord("b", (0.25, 0.0), 0, 3.0, False),
            SubjectRecord("c", (-1.0, 1.0), 0, 0.0, True),
        )

    def test_records_and_columns_give_equal_cohorts(self):
        from_records = Cohort(subjects=self.records(), horizon=5.0)
        from_columns = Cohort.from_columns(
            ("a", "b", "c"),
            [[0.5, 1.0], [0.25, 0.0], [-1.0, 1.0]],
            [1, 0, 0],
            [2.0, 3.0, 0.0],
            [True, False, True],
            5.0,
        )
        assert from_records == from_columns
        assert hash(from_records) == hash(from_columns)
        assert tuple(from_columns.subjects) == self.records()
        assert from_columns.subjects[1] == self.records()[1]
        assert from_columns.arms.dtype == np.int8 and from_columns.events.dtype == bool
        assert from_columns != Cohort(subjects=self.records(), horizon=6.0)

    def test_row_view_is_lazy_and_cached(self):
        cohort = generate(Scenario(n=50, seed=1))
        assert "_records" not in cohort.__dict__
        assert len(cohort.subjects) == 50
        assert "_records" not in cohort.__dict__
        first = cohort.subjects[0]
        assert cohort.subjects[0] is first
        assert first.id == 0 and first.covariates == tuple(cohort.covariate_matrix[0].tolist())

    def test_immutable(self):
        cohort = generate(Scenario(n=20, seed=1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cohort.horizon = 3.0
        for column in (cohort.covariate_matrix, cohort.arms, cohort.times, cohort.events):
            with pytest.raises(ValueError):
                column[0] = 1
        with pytest.raises(TypeError):
            cohort.subjects[0] = None

    def test_range_ids_give_the_tuple_id_cohort(self):
        columns = (np.zeros((3, 1)), [1, 0, 1], [1.0, 2.0, 3.0], [True, False, True], 5.0)
        cohort = Cohort.from_columns(range(3), *columns)
        assert cohort.ids == (0, 1, 2)
        assert cohort == Cohort.from_columns((0, 1, 2), *columns)

    def test_columns_are_copied(self):
        times = np.array([1.0, 2.0])
        cohort = Cohort.from_columns((0, 1), np.zeros((2, 1)), [1, 0], times, [True, True], 3.0)
        times[0] = 9.0
        assert cohort.times[0] == 1.0

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"ids": ()}, "cohort must contain at least one subject"),
            ({"horizon": 0.0}, "horizon must be finite and positive, got 0.0"),
            ({"horizon": math.nan}, "horizon must be finite and positive, got nan"),
            ({"arms": [1, 2]}, "arm must be 0 or 1, got 2"),
            ({"times": [1.0, -0.5]}, "observed_time must be finite and nonnegative, got -0.5"),
            ({"times": [math.inf, 1.0]}, "observed_time must be finite and nonnegative, got inf"),
            ({"ids": ("a", "a")}, "subject ids must be unique"),
            ({"covariates": [1.0, 2.0]}, "all subjects must share one covariate dimension"),
            ({"events": [True]}, "every column needs one entry per subject"),
            ({"covariates": [[0.1], [math.nan]]}, "covariates must be finite"),
            ({"arms": [1, None]}, "arm must be 0 or 1, got None"),
            # a scalar or 2-D column has no one entry per subject
            ({"ids": range(1), "covariates": [[0.0]], "arms": 1, "times": [1.0], "events": [True]},
             "every column needs one entry per subject"),
            ({"ids": range(1), "covariates": [[0.0]], "arms": [1], "times": [1.0], "events": True},
             "every column needs one entry per subject"),
            ({"events": [[True], [False]]}, "every column needs one entry per subject"),
            # ragged rows are named by the cohort's rule, not by numpy
            ({"covariates": [[0.1], [0.1, 0.2]]}, "all subjects must share one covariate dimension"),
        ],
    )
    def test_validation_messages(self, change, message):
        columns = {
            "ids": ("a", "b"),
            "covariates": [[0.1], [0.2]],
            "arms": [1, 0],
            "times": [1.0, 2.0],
            "events": [True, False],
            "horizon": 5.0,
        }
        columns.update(change)
        with pytest.raises(ValueError, match=message):
            Cohort.from_columns(**columns)

    def test_ragged_records_rejected(self):
        with pytest.raises(ValueError, match="one covariate dimension"):
            Cohort(
                subjects=(SubjectRecord("a", (0.1,), 1, 1.0, True), SubjectRecord("b", (0.1, 0.2), 0, 1.0, True)),
                horizon=5.0,
            )


def make_record(id, time, event, arm=0, x=(0.5,)):
    return SubjectRecord(id=id, covariates=tuple(x), arm=arm, observed_time=time, event=event)


class TestRecordValidation:
    def test_bad_arm(self):
        with pytest.raises(ValueError):
            make_record("a", 1.0, True, arm=2)

    def test_negative_time(self):
        with pytest.raises(ValueError):
            make_record("a", -1.0, True)

    def test_nonfinite_time(self):
        with pytest.raises(ValueError):
            make_record("a", math.inf, True)


class TestEventValidation:
    """A record's event flag is 0 or 1 (bools included), as a column's is."""

    @pytest.mark.parametrize("event", ["no", 2, math.nan, 0.5, None])
    def test_record_rejects_a_bad_event(self, event):
        with pytest.raises(ValueError, match=rf"^event must be 0 or 1, got {re.escape(repr(event))}$"):
            make_record("a", 1.0, event)

    @pytest.mark.parametrize("event", [True, False, 1, 0, 1.0, np.bool_(True), np.int8(0)])
    def test_record_accepts_zero_and_one(self, event):
        assert make_record("a", 1.0, event).event == event


def test_records_give_the_one_covariate_layout():
    # the records route of test_dataio.py's every-route layout check
    g = generate(Scenario(n=2004, seed=4))
    matrix = Cohort(subjects=g.subjects, horizon=g.horizon).covariate_matrix
    assert matrix.flags.c_contiguous and matrix.tobytes() == g.covariate_matrix.tobytes()


def test_event_grid_is_the_event_steps_read_on_the_time_axis():
    cohort = generate(Scenario(n=500, seed=2, horizon=5.0))
    grid = build_event_grid(cohort)
    assert 0 < len(grid) < np.count_nonzero(cohort.events)
    assert np.array_equal(grid, cohort.time_axis[0][cohort.event_steps[0]])


class TestWeightAlignment:
    @pytest.mark.parametrize("kind", ["reordered", "partial"])
    def test_only_weights_in_cohort_order_are_accepted(self, kind):
        cohort = generate(Scenario(n=300, seed=6))
        weights = iptw_weights(fit_logistic(cohort), cohort)
        assert weights.ids == cohort.ids
        iptw_logrank(cohort, weights)
        rng = np.random.default_rng(0)
        keep = rng.permutation(len(cohort)) if kind == "reordered" else np.arange(1, len(cohort))
        other = IptwWeights(ids=tuple(cohort.ids[i] for i in keep), values=weights.values[keep])
        with pytest.raises(ValueError, match="cohort order"):
            iptw_logrank(cohort, other)

    def test_values_are_a_read_only_array_aligned_with_ids(self):
        weights = IptwWeights(ids=("a", "b"), values=(1.5, 2.0))
        assert weights.values.dtype == float and not weights.values.flags.writeable
        assert weights.ids == ("a", "b") and weights.values.tolist() == [1.5, 2.0]
        with pytest.raises(ValueError):
            IptwWeights(ids=("a",), values=(1.0, 2.0))
