"""The cohort is held as columns: production paths build no SubjectRecord,
the row view is lazy, and IPTW weights travel in cohort order."""

import dataclasses
import json
import math

import numpy as np
import pytest

from cemlogrank import (
    Cohort,
    ExperimentConfig,
    IptwWeights,
    Scenario,
    SubjectRecord,
    fit_logistic,
    generate,
    grid_scheme,
    iptw_logrank,
    iptw_weights,
    match,
    run_replicate,
)
from cemlogrank.cli import main

SCHEME = {"box_lo": [-5.0, -5.0, -5.0], "box_hi": [5.0, 5.0, 5.0], "bins_per_dim": 4, "binary_dims": 2}


def records_forbidden(monkeypatch):
    def refuse(self):
        raise AssertionError("a SubjectRecord was built")

    monkeypatch.setattr(SubjectRecord, "__post_init__", refuse)


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

    def test_aligned_weights_skip_the_id_lookup(self, monkeypatch):
        cohort = generate(Scenario(n=400, seed=4))
        weights = iptw_weights(fit_logistic(cohort), cohort)
        assert weights.ids == cohort.ids

        def refuse(self):
            raise AssertionError("weights were looked up by id")

        monkeypatch.setattr(IptwWeights, "by_id", refuse)
        iptw_logrank(cohort, weights)


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


class TestWeightAlignment:
    def test_reordered_weights_give_the_same_test(self):
        cohort = generate(Scenario(n=300, seed=6))
        weights = iptw_weights(fit_logistic(cohort), cohort)
        order = np.random.default_rng(0).permutation(len(cohort))
        shuffled = IptwWeights(
            ids=tuple(cohort.ids[i] for i in order), values=weights.values[order]
        )
        assert iptw_logrank(cohort, shuffled) == iptw_logrank(cohort, weights)

    def test_weights_missing_still_named(self):
        cohort = generate(Scenario(n=10, seed=6))
        partial = IptwWeights(ids=cohort.ids[1:], values=np.ones(9))
        with pytest.raises(ValueError, match="weights missing for 1 subjects"):
            iptw_logrank(cohort, partial)

    def test_values_are_a_read_only_array_aligned_with_ids(self):
        weights = IptwWeights(ids=("a", "b"), values=(1.5, 2.0))
        assert weights.values.dtype == float and not weights.values.flags.writeable
        assert weights.by_id() == {"a": 1.5, "b": 2.0}
        with pytest.raises(ValueError):
            IptwWeights(ids=("a",), values=(1.0, 2.0))
