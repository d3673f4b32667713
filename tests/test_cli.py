import json

import pytest

from cemlogrank import __version__
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
        assert model["converged"] is True
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

    def test_schema_violation_fails_before_work(self, workdir, capsys):
        cfg = self.config(workdir, replications=0)
        out = workdir / "never"
        assert main(["experiment", "--config", str(cfg), "--output-dir", str(out)]) == 2
        assert not out.exists()

    def test_invalid_json_is_input_error(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        assert main(["experiment", "--config", str(bad)]) == 2


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


class TestPinnedOutputs:
    """``simulate`` and ``match`` outputs are pinned byte for byte to the
    record-based implementation that preceded the columnar cohort."""

    SIMULATE_SHA256 = "52cad80df97182f1a57c466d64b84921048db9259f1c71efb5b3ea70b7acfd7f"
    MATCH_SHA256 = "e6bf94af228a25973b9afd38bc32a4d9a19fec0a70e9b45e2f0c6e219fc7a0f6"

    def test_simulate_and_match_bytes(self, workdir, monkeypatch):
        import hashlib

        # the match report fingerprints the dataset path, so it stays relative
        monkeypatch.chdir(workdir)
        assert main(["simulate", "--n", "200", "--seed", "1", "--output", "data.csv"]) == 0
        assert main(["match", "data.csv", "--scheme", "scheme.json", "--output", "matched.json"]) == 0
        digests = [hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in ("data.csv", "matched.json")]
        assert digests == [self.SIMULATE_SHA256, self.MATCH_SHA256]
