import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemlogrank import __version__, dataio, experiment, match, run_test
from cemlogrank.cli import main

SCHEME = {"box_lo": [-5.0, -5.0, -5.0], "box_hi": [5.0, 5.0, 5.0], "bins_per_dim": 4, "binary_dims": 2}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "scheme.json").write_text(json.dumps(SCHEME))
    return tmp_path


def simulate(workdir, name="data.csv", n=300, seed=11, extra=()):
    out = workdir / name
    code = main(
        ["simulate", "--n", str(n), "--model", "model1", "--hypothesis", "null",
         "--seed", str(seed), "--output", str(out), *extra]
    )
    assert code == 0
    return out


class TestSimulate:
    def test_writes_csv_with_expected_header(self, workdir):
        path = simulate(workdir)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "id,x1,x2,x3,x4,x5,z,time,event"
        assert len(lines) == 301

    def test_rerun_is_byte_identical(self, workdir):
        a = simulate(workdir, "a.csv").read_bytes()
        b = simulate(workdir, "b.csv").read_bytes()
        assert a == b

    def test_missing_n_is_input_error(self, workdir, capsys):
        code = main(["simulate", "--output", str(workdir / "x.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_zero_baseline_with_an_overflowing_covariate_term(self, workdir):
        config = workdir / "config.json"
        config.write_text('{"n": 200, "seed": 5, "baseline_log_hazard": -Infinity, "covariate_log_hazard": 1e308}')
        assert main(["simulate", "--config", str(config), "--output", str(workdir / "x.csv")]) == 0
        rows = (workdir / "x.csv").read_text().splitlines()[1:]
        assert len(rows) == 200 and {row.rsplit(",", 1)[1] for row in rows} == {"0"}


# Modules that match and test never use: scipy's import costs over a second
# of a cold start.  Of the resident set, the simulation RNG and a process
# pool (concurrent.futures and multiprocessing, which no command loads)
# together take about 4 MB, OpenSSL (_hashlib, loaded by hashlib) 3.6 MB and
# statistics, with the fractions and decimal it loads, 0.5 MB.
UNUSED_BY_TEST = ("scipy", "numpy.random", "concurrent.futures", "multiprocessing", "_hashlib", "statistics")


def unused_modules_after(code: str, unused=UNUSED_BY_TEST) -> list[str]:
    """The modules under ``unused`` that a fresh interpreter holds after
    running ``code``."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    modules = json.loads(out.stdout.splitlines()[-1])
    return [m for m in modules if any(m == u or m.startswith(u + ".") for u in unused)]


def unused_modules_after_main(argv: list[str], unused=UNUSED_BY_TEST) -> list[str]:
    """The modules under ``unused`` that a fresh interpreter holds after a
    successful ``main(argv)``."""
    code = f"import sys\nfrom cemlogrank.cli import main\nif main({argv!r}) != 0:\n    sys.exit('{argv[0]} failed')"
    return unused_modules_after(code, unused)


def test_import_loads_no_scipy():
    assert unused_modules_after("import cemlogrank.cli") == []


@pytest.mark.parametrize("method", ["cem", "iptw"])
def test_test_command_loads_neither_the_rng_nor_the_pool(workdir, method):
    data = simulate(workdir, n=300)
    out = workdir / "result.json"
    argv = ["test", str(data), "--method", method, "--scheme", str(workdir / "scheme.json"), "--output", str(out)]
    assert unused_modules_after_main(argv) == []
    assert json.loads(out.read_text())["method"] == method


def test_match_command_loads_only_what_it_runs(workdir):
    data = simulate(workdir, n=300)
    out = workdir / "matched.json"
    argv = ["match", str(data), "--scheme", str(workdir / "scheme.json"), "--output", str(out)]
    assert unused_modules_after_main(argv) == []
    assert json.loads(out.read_text())["n_subjects"] == 300


def test_test_path_holds_each_subject_once(workdir, traced_peak):
    # the steps of ``test --method cem`` at n = 50 000 build no id tuple, and
    # their traced peak, the cohort included, was 6.7 MiB (10.4 MiB when the
    # reader kept a string per id and match an n x d code matrix)
    data = simulate(workdir, n=50_000, seed=0)
    scheme = dataio.load_scheme(workdir / "scheme.json")

    def test_path():
        cohort = dataio.read_cohort_csv(data)
        report = dataio.result_report(run_test(match(cohort, scheme)), {}, scheme=scheme)
        return cohort, report

    (cohort, report), _, peak = traced_peak(test_path)
    assert "ids" not in cohort.__dict__
    assert peak <= 8 * 2**20
    assert report["n1"] > 0 and len(cohort.ids) == 50_000 and cohort.ids[:2] == ("0", "1")


class TestMatch:
    def test_report_covers_every_subject(self, workdir):
        data = simulate(workdir, n=10)
        out = workdir / "matched.json"
        code = main(["match", str(data), "--scheme", str(workdir / "scheme.json"), "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["assignments"]) == 10
        matched = sum(1 for a in report["assignments"] if a["matched"])
        assert matched == report["n1"] + report["n0"]
        assert report["n_subjects"] == 10
        assert report["version"] == __version__
        assert "config_fingerprint" in report and "scheme_fingerprint" in report

    def test_bad_arm_value_names_the_line(self, workdir, capsys):
        data = workdir / "bad.csv"
        data.write_text(
            "id,x1,x2,x3,x4,x5,z,time,event\n"
            "a,0,0,0,0,0,0,1.0,1\n"
            "b,0,0,0,0,0,2,2.0,1\n"
        )
        code = main(["match", str(data), "--scheme", str(workdir / "scheme.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "z" in err

    def test_uncovering_scheme_warns_and_marks_everyone_unmatched(self, workdir, capsys):
        data = workdir / "far.csv"
        data.write_text(
            "id,x1,x2,x3,x4,x5,z,time,event\n"
            "a,99,0,0,0,0,1,1.0,1\n"
            "b,99,0,0,0,0,0,2.0,1\n"
        )
        out = workdir / "matched.json"
        code = main(["match", str(data), "--scheme", str(workdir / "scheme.json"), "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n1"] == 0 and report["n0"] == 0
        assert report["warnings"]
        assert "warning" in capsys.readouterr().err

    def test_dimension_mismatch_is_input_error(self, workdir, capsys):
        data = workdir / "narrow.csv"
        data.write_text("id,x1,z,time,event\na,0.5,1,1.0,1\nb,0.4,0,2.0,1\n")
        code = main(["match", str(data), "--scheme", str(workdir / "scheme.json")])
        assert code == 2


class TestTest:
    def test_cem_result_fields(self, workdir, capsys):
        data = simulate(workdir, n=400)
        capsys.readouterr()
        code = main(["test", str(data), "--scheme", str(workdir / "scheme.json")])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        for key in ("statistic", "variance_estimate", "standardized", "p_two_sided",
                    "omega_n", "n1", "n0", "unmatched_count", "scheme", "config_fingerprint"):
            assert key in result
        assert result["method"] == "cem"
        assert isinstance(result["omega_n"], bool)
        assert result["version"] == __version__

    def test_exit_zero_even_when_rejecting(self, workdir):
        out = workdir / "res.json"
        data = simulate(workdir, n=400, extra=())
        code = main(["test", str(data), "--scheme", str(workdir / "scheme.json"),
                     "--alpha", "0.9999", "--output", str(out)])
        assert code == 0

    def test_iptw_embeds_model_summary(self, workdir, capsys):
        data = simulate(workdir, n=400)
        capsys.readouterr()
        code = main(["test", str(data), "--method", "iptw"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["method"] == "iptw"
        model = result["model"]
        assert set(model) == {"feature_columns", "coefficients", "iterations", "log_likelihood"}
        assert model["feature_columns"] == ["x1", "x2"]
        assert len(model["coefficients"]) == 3
        assert result["omega_n"] is None

    def test_weight_function_changes_statistic(self, workdir, capsys):
        data = simulate(workdir, n=400)
        capsys.readouterr()
        main(["test", str(data), "--scheme", str(workdir / "scheme.json")])
        base = json.loads(capsys.readouterr().out)
        wf = workdir / "wf.json"
        wf.write_text(json.dumps({"breakpoints": [], "values": [3.0]}))
        main(["test", str(data), "--scheme", str(workdir / "scheme.json"), "--weight-fn", str(wf)])
        scaled = json.loads(capsys.readouterr().out)
        assert scaled["statistic"] == pytest.approx(3.0 * base["statistic"], rel=1e-12)
        assert scaled["standardized"] == pytest.approx(base["standardized"], rel=1e-12)

    def test_cem_without_scheme_is_input_error(self, workdir):
        data = simulate(workdir, n=50)
        assert main(["test", str(data)]) == 2

    def test_emit_path(self, workdir, capsys):
        data = simulate(workdir, n=100)
        capsys.readouterr()
        main(["test", str(data), "--scheme", str(workdir / "scheme.json"), "--emit-path"])
        result = json.loads(capsys.readouterr().out)
        assert "path" in result and len(result["path"]) > 0

    def test_single_arm_dataset_is_numeric_error(self, workdir, capsys):
        data = workdir / "one_arm.csv"
        data.write_text(
            "id,x1,x2,x3,x4,x5,z,time,event\n"
            "a,0,0,0,0,0,1,1.0,1\n"
            "b,0,0,0,0,0,1,2.0,1\n"
        )
        code = main(["test", str(data), "--method", "iptw"])
        assert code == 3
        assert "numeric" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e307, 1e-310])
    def test_overflowing_propensity_fit_is_numeric_error(self, workdir, capsys, scale):
        # x1 stays finite, so the reader accepts it, but centring it (1e307:
        # the sum of 1000 such values overflows) or mapping its slope back
        # (1e-310) leaves the float range; the suite turns a RuntimeWarning
        # into an error as well
        rows = [line.split(",") for line in simulate(workdir, n=1000, seed=1).read_text().splitlines()]
        for row in rows[1:]:
            row[1] = repr(float(row[1]) * scale)
        data = workdir / "huge.csv"
        data.write_text("".join(",".join(row) + "\n" for row in rows))
        capsys.readouterr()
        assert main(["test", str(data), "--method", "iptw"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and err.count("\n") == 1
        assert "rescale the covariates" in err
        assert main(["test", str(data), "--scheme", str(workdir / "scheme.json")]) == 0

    @pytest.mark.parametrize("method", ["iptw", "cem"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_covariate_is_input_error_naming_the_line(self, workdir, capsys, method, bad):
        data = workdir / "nan.csv"
        data.write_text(
            "id,x1,x2,x3,x4,x5,z,time,event\n"
            "a,0.1,0.2,0.3,0,1,1,1.0,1\n"
            "\n"
            "b,0.4,0.5,0.6,1,0,0,2.0,1\n"
            f"c,0.7,{bad},0.9,0,0,1,3.0,0\n"
            "d,0.2,0.3,0.4,1,1,0,4.0,1\n"
        )
        code = main(["test", str(data), "--method", method, "--scheme", str(workdir / "scheme.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 5" in err and "finite" in err
        assert "Traceback" not in err

    def test_field_over_the_csv_limit_is_input_error_naming_the_line(self, workdir, capsys):
        # only a quoted file goes through csv.reader, whose field limit stays
        # as it is; an unquoted file has no limit on a field
        limit = csv.field_size_limit()
        rows = simulate(workdir, n=50).read_text().splitlines()
        long_id = "a" * 200_000
        assert len(long_id) > limit
        data = workdir / "big.csv"
        data.write_text("\n".join(rows[:3] + [long_id + rows[3][rows[3].index(","):]] + rows[4:]) + "\n")
        assert main(["test", str(data), "--scheme", str(workdir / "scheme.json")]) == 0
        data.write_text("\n".join(rows[:3] + [f'"{long_id}"' + rows[3][rows[3].index(","):]] + rows[4:]) + "\n")
        capsys.readouterr()
        assert main(["test", str(data), "--scheme", str(workdir / "scheme.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 4: field larger than field limit" in err
        assert "Traceback" not in err
        assert csv.field_size_limit() == limit


class TestExperiment:
    def config(self, workdir, **overrides):
        cfg = {
            "scenario": {"n": 300, "assignment_model": "model1", "hypothesis": "null", "seed": 5},
            "replications": 6,
            "method": "both",
        }
        cfg.update(overrides)
        path = workdir / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_outputs_written_and_reproducible(self, workdir):
        cfg = self.config(workdir)
        out1 = workdir / "run1"
        out2 = workdir / "run2"
        assert main(["experiment", "--config", str(cfg), "--output-dir", str(out1)]) == 0
        assert main(["experiment", "--config", str(cfg), "--output-dir", str(out2)]) == 0
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        summary = json.loads((out1 / "summary.json").read_text())
        assert set(summary["methods"]) == {"cem", "iptw"}
        assert summary["version"] == __version__
        rows = (out1 / "samples.csv").read_text().strip().splitlines()
        assert rows[0] == "replicate,method,statistic,omega_n,n1"
        assert len(rows) == 1 + 12

    def test_flag_overrides(self, workdir):
        cfg = self.config(workdir)
        out = workdir / "run3"
        assert main(["experiment", "--config", str(cfg), "--method", "cem",
                     "--replications", "2", "--output-dir", str(out)]) == 0
        rows = (out / "samples.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        assert all(r.split(",")[1] == "cem" for r in rows[1:])

    def test_config_and_grid_are_built_once(self, workdir):
        cfg = workdir / "config.json"
        cfg.write_text(json.dumps(with_fields("experiment", replications=1, threads=1)))
        with mock.patch.object(experiment, "grid_scheme", wraps=experiment.grid_scheme) as spy:
            code = main(["experiment", "--config", str(cfg), "--seed", "4", "--alpha", "0.1",
                         "--output-dir", str(workdir / "out")])
        assert code == 0 and spy.call_count == 1

    def test_schema_violation_fails_before_work(self, workdir, capsys):
        cfg = self.config(workdir, replications=0)
        out = workdir / "never"
        assert main(["experiment", "--config", str(cfg), "--output-dir", str(out)]) == 2
        assert not out.exists()

    def test_invalid_json_is_input_error(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        assert main(["experiment", "--config", str(bad)]) == 2

    def test_summary_is_strict_json(self, workdir):
        # n = 60 leaves a method whose two statistics are equal: no skewness
        cfg = workdir / "config.json"
        cfg.write_text(json.dumps(VALID_DOCS["experiment"]))
        out = workdir / "small"
        assert main(["experiment", "--config", str(cfg), "--output-dir", str(out)]) == 0

        def reject(token):
            raise ValueError(f"summary.json holds the non-JSON token {token}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert None in (s["skewness"] for s in summary["methods"].values())

    def test_forked_workers_load_no_pool(self, workdir):
        cfg = self.config(workdir)
        out = workdir / "forked"
        argv = ["experiment", "--config", str(cfg), "--threads", "2", "--output-dir", str(out)]
        assert unused_modules_after_main(argv, ("concurrent.futures", "multiprocessing")) == []
        assert len((out / "samples.csv").read_text().splitlines()) == 1 + 12

    def test_worker_failure_exits_as_at_one_worker(self, workdir, capsys):
        # the n = 60 model2 experiment separates in some replicates
        cfg = workdir / "config.json"
        cfg.write_text(json.dumps({
            "scenario": {"n": 60, "assignment_model": "model2", "hypothesis": "null"},
            "replications": 20, "method": "both",
        }))  # fmt: skip
        errors = []
        for threads in ("1", "2"):
            out = workdir / f"threads{threads}"
            assert main(["experiment", "--config", str(cfg), "--threads", threads, "--output-dir", str(out)]) == 3
            assert not out.exists()
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and errors[0].startswith("numeric failure: ")

    def test_zero_baseline_hazard_is_echoed_and_fingerprinted(self, workdir):
        # a baseline_log_hazard of -Infinity (a zero hazard) is a valid config;
        # its report echoes the value as read, and its fingerprint hashes it
        cfg = workdir / "config.json"
        cfg.write_text(json.dumps(with_fields("experiment", baseline_log_hazard=-math.inf)))
        out = workdir / "zero-hazard"
        assert main(["experiment", "--config", str(cfg), "--output-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["scenario"]["baseline_log_hazard"] == -math.inf
        assert len(summary["config_fingerprint"]) == 64


class TestFlagValidation:
    """Out-of-range flags exit 2 with an error line naming the flag."""

    @pytest.mark.parametrize(
        "extra",
        [
            ["--alpha", "1.5"],
            ["--alpha", "0"],
            ["--method", "iptw", "--alpha", "2"],
        ],
    )
    def test_bad_alpha(self, workdir, capsys, extra):
        data = simulate(workdir, n=100)
        capsys.readouterr()
        code = main(["test", str(data), "--scheme", str(workdir / "scheme.json"), *extra])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--alpha" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["test", "match"])
    @pytest.mark.parametrize("horizon", ["-1", "nan", "0"])
    def test_bad_horizon(self, workdir, capsys, command, horizon):
        data = simulate(workdir, n=100)
        capsys.readouterr()
        code = main([command, str(data), "--scheme", str(workdir / "scheme.json"), "--horizon", horizon])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "horizon" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["test", "match"])
    @pytest.mark.parametrize("horizon", ["-1", "nan", "inf", "0"])
    def test_bad_horizon_is_named_before_the_dataset_is_opened(self, workdir, capsys, command, horizon):
        missing = workdir / "missing.csv"
        code = main([command, str(missing), "--scheme", str(workdir / "scheme.json"), "--horizon", horizon])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: horizon must be finite and positive, got {float(horizon)!r}\n"

    @pytest.mark.parametrize(
        "argv, named",
        [
            ([], "--method cem requires --scheme"),
            (["--scheme", "{w}/missing.json"], "{w}/missing.json"),
            (["--scheme", "{w}/scheme.json", "--weight-fn", "{w}/missing.json"], "{w}/missing.json"),
            (["--method", "iptw", "--features", "y1"], "bad feature column 'y1'"),
        ],
        ids=["no-scheme", "scheme-file", "weight-fn-file", "features"],
    )
    def test_flags_are_checked_before_the_dataset_is_read(self, workdir, capsys, monkeypatch, argv, named):
        def refuse(*args, **kwargs):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(dataio, "read_cohort_csv", refuse)
        code = main(["test", str(workdir / "data.csv"), *(a.format(w=workdir) for a in argv)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and named.format(w=workdir) in err


class TestLibraryChecksExit2:
    """Values the library's own checks reject exit 2 with one error line;
    ``{w}`` stands for the work directory.  No case starts a worker."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "1", "--output", "{w}/x.csv"],
            ["simulate", "--n", "10", "--replicate", "-1", "--output", "{w}/x.csv"],
            ["experiment", "--config", "{w}/config.json", "--theta", "1000", "--output-dir", "{w}/o"],
            ["experiment", "--config", "{w}/config.json", "--threads", "0", "--output-dir", "{w}/o"],
            ["experiment", "--config", "{w}/config.json", "--seed", "-1", "--output-dir", "{w}/o"],
            ["test", "{w}/data.csv", "--method", "iptw", "--features", "x9"],
            ["test", "{w}/narrow.csv", "--scheme", "{w}/scheme.json"],
            ["test", "{w}/data.csv", "--method", "iptw", "--features", "x2,x2"],
            ["test", "{w}/data.csv", "--method", "iptw", "--features", "x0"],
        ],
        ids=[
            "simulate-n", "simulate-replicate", "theta", "threads", "seed", "features", "dimension",
            "features-duplicate", "features-x0",
        ],
    )
    def test_exit_2_with_one_error_line(self, workdir, capsys, argv):
        simulate(workdir, n=100)
        (workdir / "narrow.csv").write_text("id,x1,z,time,event\na,0.5,1,1.0,1\nb,0.4,0,2.0,1\n")
        (workdir / "config.json").write_text(
            json.dumps({"scenario": {"n": 200, "seed": 5}, "replications": 2})
        )
        capsys.readouterr()
        code = main([a.format(w=workdir) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
        assert not (workdir / "o").exists()


def iptw_on_scaled_x1(workdir, capsys, scale):
    """Exit codes and stderr lines of ``test --method iptw`` on a simulated
    CSV and on a copy with x1 times ``scale``, and the standardized statistic
    of each report written."""
    data = simulate(workdir, n=200, seed=1)
    header, *rows = data.read_text().splitlines()
    lines = [header]
    for row in rows:
        fields = row.split(",")
        fields[1] = repr(float(fields[1]) * scale)
        lines.append(",".join(fields))
    scaled = workdir / "scaled.csv"
    scaled.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    reports = [path.with_suffix(".json") for path in (data, scaled)]
    codes = [main(["test", str(path), "--method", "iptw", "--output", str(report)])
             for path, report in zip((data, scaled), reports)]
    err = capsys.readouterr().err.splitlines()
    stats = [json.loads(r.read_text())["standardized"] for r in reports if r.exists()]
    return codes, err, stats


@pytest.mark.parametrize("scale, code", [(1e-5, 0), (1e-100, 0), (1e-200, 0), (1e-310, 3)])
def test_iptw_fit_does_not_read_small_units_as_separation(workdir, capsys, scale, code):
    # the fit exists whatever the units of x1; only a slope beyond the float
    # range asks for other units, and never as separation
    codes, err, stats = iptw_on_scaled_x1(workdir, capsys, scale)
    assert codes == [0, code]
    if code == 0:
        assert stats[1] == pytest.approx(stats[0], rel=1e-12)
    else:
        assert len(err) == 1 and err[0].startswith("numeric failure:")
        assert "rescale the covariates" in err[0] and "separation" not in err[0]


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e300])
def test_iptw_fit_does_not_read_large_units_as_overflow(workdir, capsys, scale):
    # the fit runs on standardized features, so nothing overflows below
    # about 1e307 times the simulated covariates
    codes, err, stats = iptw_on_scaled_x1(workdir, capsys, scale)
    assert codes == [0, 0]
    assert stats[1] == pytest.approx(stats[0], rel=1e-12)


class TestUnusablePaths:
    """A path that cannot be opened, read or written exits 2 with an error
    line naming it; ``{w}`` stands for the work directory."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["test", "{w}/missing.csv", "--method", "iptw"], "{w}/missing.csv"),
            (["match", "{w}/data.csv", "--scheme", "{w}/missing.json"], "{w}/missing.json"),
            (["test", "{w}/data.csv", "--scheme", "{w}/scheme.json", "--weight-fn", "{w}/missing.json"],
             "{w}/missing.json"),
            (["experiment", "--config", "{w}/missing.json"], "{w}/missing.json"),
            (["test", "{w}", "--method", "iptw"], "{w}"),
            (["test", "{w}/data.csv", "--scheme", "{w}/scheme.json", "--output", "{w}/absent/out.json"],
             "{w}/absent/out.json"),
            (["test", "{w}/latin1.csv", "--method", "iptw"], "{w}/latin1.csv"),
            (["simulate", "--config", "{w}/latin1.csv", "--output", "{w}/x.csv"], "{w}/latin1.csv"),
        ],
        ids=["dataset", "scheme", "weight-fn", "config", "directory", "output-dir", "non-utf8",
             "non-utf8-config"],
    )
    def test_exit_2_naming_the_path(self, workdir, capsys, argv, named):
        simulate(workdir, n=100)
        (workdir / "latin1.csv").write_bytes(
            "id,x1,z,time,event\nr\u00e9,0.5,1,1.0,1\n".encode("latin-1")
        )
        capsys.readouterr()
        code = main([a.format(w=workdir) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and named.format(w=workdir) in errors[0]


def sha256_of(*paths) -> list[str]:
    import hashlib

    return [hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in paths]


class TestPinnedOutputs:
    """``simulate`` and ``match`` outputs are pinned byte for byte to the
    record-based implementation that preceded the columnar cohort; ``test``
    and ``experiment`` outputs to the columnar code with its standardized
    propensity fit (numpy 2.4.6, x86-64: the fit runs through LAPACK).
    Reports fingerprint the dataset path, so every run uses relative paths."""

    SIMULATE_SHA256 = "52cad80df97182f1a57c466d64b84921048db9259f1c71efb5b3ea70b7acfd7f"
    MATCH_SHA256 = "e6bf94af228a25973b9afd38bc32a4d9a19fec0a70e9b45e2f0c6e219fc7a0f6"
    TEST_SHA256 = {
        "cem": "6a2f134bae2c4c1ac5a0e05dd8ee7f1682957351f0d755fdb23bb7c08b2832f0",
        "cem_path": "260811e7b0ba629a14d1f7f840dcf01a18766489fea2f35af3e609154dec8d82",
        "iptw": "07ea33fd3d935b7182bb8ab2e0e1a9fd7c4688e7e53cd5fb20c1d79963f2406c",
    }
    # summary.json, samples.csv
    EXPERIMENT_SHA256 = [
        "be57ccd9284446a3fa9b62fea6b68c6c2ffec4fe115dcb2dd55dcb490d9fcb77",
        "22f53995634daada79726a5753437f6a0445c232693d10083fbfdbb3455369df",
    ]

    def test_simulate_and_match_bytes(self, workdir, monkeypatch):
        monkeypatch.chdir(workdir)
        assert main(["simulate", "--n", "200", "--seed", "1", "--output", "data.csv"]) == 0
        assert main(["match", "data.csv", "--scheme", "scheme.json", "--output", "matched.json"]) == 0
        assert sha256_of("data.csv", "matched.json") == [self.SIMULATE_SHA256, self.MATCH_SHA256]

    def test_test_bytes(self, workdir, monkeypatch):
        # cem with a 3-step weight function, with and without the path, and iptw
        monkeypatch.chdir(workdir)
        Path("steps.json").write_text(json.dumps({"breakpoints": [2.0, 5.0], "values": [1.0, 0.8, 0.5]}))
        assert main(["simulate", "--n", "200", "--seed", "1", "--output", "data.csv"]) == 0
        runs = {"cem": [], "cem_path": ["--emit-path"], "iptw": ["--method", "iptw"]}
        for name, extra in runs.items():
            argv = ["test", "data.csv", "--scheme", "scheme.json", "--weight-fn", "steps.json", *extra]
            assert main([*argv, "--output", f"{name}.json"]) == 0
        assert dict(zip(runs, sha256_of(*(f"{name}.json" for name in runs)))) == self.TEST_SHA256

    def test_experiment_bytes(self, workdir, monkeypatch):
        monkeypatch.chdir(workdir)
        config = {"scenario": {"n": 2000, "assignment_model": "model2", "hypothesis": "null", "seed": 3},
                  "replications": 12, "method": "both", "threads": 1}
        Path("config.json").write_text(json.dumps(config))
        assert main(["experiment", "--config", "config.json", "--output-dir", "out"]) == 0
        assert sha256_of("out/summary.json", "out/samples.csv") == self.EXPERIMENT_SHA256


def test_reports_are_written_in_one_json_format(workdir):
    data = simulate(workdir, n=100)
    scheme = str(workdir / "scheme.json")
    config = workdir / "config.json"
    config.write_text(json.dumps(VALID_DOCS["experiment"]))
    assert main(["match", str(data), "--scheme", scheme, "--output", str(workdir / "matched.json")]) == 0
    assert main(["test", str(data), "--scheme", scheme, "--output", str(workdir / "result.json")]) == 0
    assert main(["experiment", "--config", str(config), "--output-dir", str(workdir / "out")]) == 0
    for path in (workdir / "matched.json", workdir / "result.json", workdir / "out" / "summary.json"):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


# Values a hostile JSON file may hold in place of any field; the markers are
# spliced in as raw JSON text: an array nested 100 000 deep, a literal too
# large for a float and a large finite one.
HOSTILE_VALUES = [None, True, -1, 0, 2, 2.5, "x", [], {}, [1], math.nan, math.inf, -math.inf,
                  "<deep>", "<huge>", "<big>"]
RAW = {'"<deep>"': "[" * 100_000 + "]" * 100_000, '"<huge>"': "1e400", '"<big>"': "1e200"}
# valid documents of each kind; any integer a mutation can set keeps threads
# at most 2, n at most 200 and replications at most 3, so no run is large
VALID_DOCS = {
    "scheme": SCHEME,
    "edges": {"continuous_edges": [[-5.0, 0.0, 5.0]] * 3, "binary_dims": 2},
    "weight-fn": {"breakpoints": [2.0], "values": [1.0, 0.5]},
    "experiment": {
        "scenario": {"n": 60, "assignment_model": "model1", "hypothesis": "null", "seed": 5,
                     "treatment_log_hazard": -0.4, "covariate_log_hazard": 0.25,
                     "baseline_log_hazard": -2.0, "censor_upper": 10.0, "horizon": 10.0},
        "replications": 2, "method": "both", "box_lo": [-5.0, -5.0, -5.0], "box_hi": [5.0, 5.0, 5.0],
        "theta": 0.3, "alpha": 0.05, "threads": 1,
    },
    "simulate": {"n": 60, "seed": 1, "horizon": 10.0, "censor_upper": 10.0},
}
ARGV = {
    "scheme": ["match", "{w}/data.csv", "--scheme", "{f}"],
    "edges": ["match", "{w}/data.csv", "--scheme", "{f}"],
    "weight-fn": ["test", "{w}/data.csv", "--scheme", "{w}/scheme.json", "--weight-fn", "{f}"],
    "experiment": ["experiment", "--config", "{f}", "--output-dir", "{w}/out"],
    "simulate": ["simulate", "--config", "{f}", "--output", "{w}/out.csv"],
}


def field_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))
        elif isinstance(value, list):
            yield from (prefix + (key, i) for i in range(len(value)))


def render(doc) -> str:
    text = json.dumps(doc)
    for marker, raw in RAW.items():
        text = text.replace(marker, raw)
    return text


def with_fields(kind, **fields):
    """A valid document of ``kind`` with some fields replaced; scenario fields
    of an experiment config are replaced inside its scenario."""
    doc = copy.deepcopy(VALID_DOCS[kind])
    for key, value in fields.items():
        (doc["scenario"] if kind == "experiment" and key in doc["scenario"] else doc)[key] = value
    return doc


@st.composite
def hostile_documents(draw):
    """A kind and the text of one of its documents with one to three fields
    replaced, deleted or added, or with a hostile top level."""
    kind = draw(st.sampled_from(sorted(VALID_DOCS)))
    doc = copy.deepcopy(VALID_DOCS[kind])
    if draw(st.integers(0, 9)) == 0:
        doc = copy.deepcopy(draw(st.sampled_from(HOSTILE_VALUES)))
    else:
        for _ in range(draw(st.integers(1, 3))):
            path = draw(st.sampled_from(list(field_paths(doc)) + [("extra",)]))
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if draw(st.integers(0, 4)) == 0 and isinstance(parent, dict):
                parent.pop(path[-1], None)
            elif not (isinstance(parent, list) and len(parent) <= path[-1]):
                parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(HOSTILE_VALUES)))
    return kind, render(doc)


@pytest.fixture(scope="module")
def hostile_workdir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("hostile-json")
    (workdir / "scheme.json").write_text(json.dumps(SCHEME))
    assert main(["simulate", "--n", "100", "--seed", "3", "--output", str(workdir / "data.csv")]) == 0
    return workdir


def run_on_document(workdir, kind, text, flags=()) -> tuple[int, str]:
    """Exit code and stderr of the command that reads a ``kind`` document,
    given ``flags`` as well."""
    path = workdir / "doc.json"
    path.write_text(text)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main([a.format(w=workdir, f=path) for a in ARGV[kind]] + list(flags))
    return code, stderr.getvalue()


@settings(max_examples=150, deadline=None)
@given(document=hostile_documents())
def test_hostile_json_keeps_the_exit_code_contract(hostile_workdir, document):
    code, err = run_on_document(hostile_workdir, *document)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error:")


@pytest.mark.parametrize(
    "kind, doc",
    [
        ("weight-fn", [1]),
        ("weight-fn", {"breakpoints": [math.nan], "values": [1.0, 2.0]}),
        ("scheme", with_fields("scheme", bins_per_dim=math.inf)),
        ("scheme", with_fields("scheme", box_hi=["<huge>", 5.0, 5.0])),
        ("scheme", "<deep>"),
        ("experiment", with_fields("experiment", n=2.5)),
        ("experiment", with_fields("experiment", n="<huge>")),
        ("experiment", with_fields("experiment", seed=-1)),
        ("experiment", with_fields("experiment", replications=2.5)),
        ("experiment", with_fields("experiment", threads=1.5)),
        ("simulate", [1]),
        ("simulate", with_fields("simulate", seed=1.5)),
        ("scheme", with_fields("scheme", bins_per_dim=2.9)),
        ("scheme", with_fields("scheme", binary_dims=1.7)),
        ("scheme", with_fields("scheme", bins_per_dim=10**6 + 1)),
        ("experiment", with_fields("experiment", theta=1000)),
        ("experiment", with_fields("experiment", direction="two_sided")),
        ("weight-fn", {"breakpoints": [2.0], "values": [1.0, "<big>"]}),
    ],
    ids=["weight-fn-array", "nan-breakpoint", "infinite-bins", "infinite-box", "deep-array", "fractional-n",
         "huge-n", "negative-seed", "fractional-replications", "fractional-threads",
         "scenario-array", "fractional-seed", "fractional-bins", "fractional-binary-dims",
         "bins-over-ceiling", "theta-overflow", "removed-direction", "huge-weight"],
)
def test_invalid_json_document_exits_2_naming_the_file(hostile_workdir, kind, doc):
    code, err = run_on_document(hostile_workdir, kind, render(doc))
    assert code == 2
    assert err.startswith("error:") and "doc.json" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "kind, doc, message",
    [
        ("scheme", {"edges": 3},
         "a scheme needs continuous_edges, or box_lo, box_hi and bins_per_dim; missing box_lo, box_hi, bins_per_dim"),
        ("scheme", {"continuous_edges": 3}, "continuous_edges must be a list of edge lists"),
        ("weight-fn", {"values": None}, "a weight function needs a values list, and a breakpoints list if any"),
        ("weight-fn", {}, "a weight function needs a values list, and a breakpoints list if any"),
    ],
    ids=["scheme-no-keys", "scheme-edges-number", "weight-fn-null-values", "weight-fn-no-values"],
)
def test_malformed_object_exits_2_with_its_owners_message(hostile_workdir, kind, doc, message):
    code, err = run_on_document(hostile_workdir, kind, render(doc))
    assert code == 2
    assert err.startswith("error:") and "doc.json" in err and err.endswith(f": {message}\n")


def test_rates_beyond_the_float_range_run_without_warning(hostile_workdir):
    # an infinite rate is an event at time 0, a zero rate no event at all;
    # the suite turns any warning into an error
    doc = with_fields("experiment", hypothesis="alternative", baseline_log_hazard=800,
                      treatment_log_hazard=800, covariate_log_hazard=800)
    code, err = run_on_document(hostile_workdir, "experiment", render(doc))
    assert code == 0 and "Traceback" not in err


@pytest.mark.parametrize(
    "kind, field, file_value, flag_value",
    [
        ("simulate", "seed", 1, 4),
        ("simulate", "seed", -1, 4),
        ("experiment", "seed", 1, 4),
        ("experiment", "seed", -1, 4),
        ("experiment", "replications", 0, 1),
    ],
    ids=["simulate-seed", "simulate-bad-seed", "experiment-seed", "experiment-bad-seed",
         "experiment-bad-replications"],
)
def test_flag_replaces_the_file_value_before_validation(workdir, kind, field, file_value, flag_value):
    # a flag writes the same outputs as a file holding its value, whether
    # the file's own value is valid or not
    written = {"simulate": ["out.csv"], "experiment": ["out/summary.json", "out/samples.csv"]}[kind]
    flags = [f"--{field}", str(flag_value)]
    assert run_on_document(workdir, kind, render(with_fields(kind, **{field: file_value})), flags) == (0, "")
    flagged = [(workdir / name).read_bytes() for name in written]
    assert run_on_document(workdir, kind, render(with_fields(kind, **{field: flag_value}))) == (0, "")
    assert [(workdir / name).read_bytes() for name in written] == flagged
