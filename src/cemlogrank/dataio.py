"""File formats: dataset CSV, scheme and weight-function JSON, result and
experiment outputs.  Every emitted JSON embeds the library version and a
fingerprint of the canonicalized configuration that produced it.
"""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DatasetFormatError
from .experiment import ExperimentConfig, ExperimentResult
from .logrank import TestResult, WeightFunction
from .matching import CoarseningScheme, MatchedCohort, MatchReason, omega_n_holds
from .survival import Cohort, SubjectRecord
from .util import fingerprint


def read_cohort_csv(path, horizon: float | None = None) -> Cohort:
    """Load a dataset with header ``id,x1,...,xd,z,time,event``.

    Covariates must be finite, z and event 0/1, and time a nonnegative
    decimal.  Subject ids are kept as strings.  When no horizon is given, the
    largest observed time is used.  Malformed content raises
    DatasetFormatError naming the line.
    """
    with open(path, newline="") as fh:
        return _parse_cohort(fh, horizon, str(path))


def _parse_cohort(fh, horizon, name) -> Cohort:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetFormatError(f"{name}: empty file") from None
    if len(header) < 4 or header[0] != "id" or header[-3:] != ["z", "time", "event"]:
        raise DatasetFormatError(
            f"{name}: header must be id,x1,...,xd,z,time,event, got {','.join(header)}"
        )
    d = len(header) - 4
    expected = [f"x{j + 1}" for j in range(d)]
    if header[1:-3] != expected:
        raise DatasetFormatError(
            f"{name}: covariate columns must be {','.join(expected)}, got {','.join(header[1:-3])}"
        )
    subjects = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DatasetFormatError(
                f"{name} line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            covs = tuple(float(v) for v in row[1:-3])
        except ValueError:
            raise DatasetFormatError(f"{name} line {lineno}: unparseable covariate") from None
        if row[-3] not in ("0", "1"):
            raise DatasetFormatError(f"{name} line {lineno}: z must be 0 or 1, got {row[-3]!r}")
        try:
            time = float(row[-2])
        except ValueError:
            raise DatasetFormatError(f"{name} line {lineno}: unparseable time {row[-2]!r}") from None
        if not (math.isfinite(time) and time >= 0.0):
            raise DatasetFormatError(f"{name} line {lineno}: time must be finite and nonnegative")
        if row[-1] not in ("0", "1"):
            raise DatasetFormatError(f"{name} line {lineno}: event must be 0 or 1, got {row[-1]!r}")
        subjects.append(
            SubjectRecord(
                id=row[0],
                covariates=covs,
                arm=int(row[-3]),
                observed_time=time,
                event=row[-1] == "1",
            )
        )
    if not subjects:
        raise DatasetFormatError(f"{name}: no data rows")
    if len({s.id for s in subjects}) != len(subjects):
        raise DatasetFormatError(f"{name}: duplicate subject ids")
    if horizon is None:
        horizon = max(s.observed_time for s in subjects)
        if horizon <= 0:
            raise DatasetFormatError(f"{name}: all times are zero; pass an explicit horizon")
    cohort = Cohort(subjects=tuple(subjects), horizon=float(horizon))
    finite = np.isfinite(cohort.covariate_matrix).all(axis=1)
    if not finite.all():
        lineno = _line_of_row(fh, int(np.argmin(finite)))
        raise DatasetFormatError(f"{name} line {lineno}: covariates must be finite")
    return cohort


def _line_of_row(fh, index: int) -> int:
    """Line number of the data row at ``index``, counting as the parser does."""
    fh.seek(0)
    rows = csv.reader(fh)
    next(rows)
    return [lineno for lineno, row in enumerate(rows, start=2) if row][index]


def write_cohort_csv(cohort: Cohort, path) -> None:
    d = len(cohort.subjects[0].covariates)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"x{j + 1}" for j in range(d)] + ["z", "time", "event"])
        for s in cohort.subjects:
            writer.writerow(
                [s.id]
                + [repr(v) for v in s.covariates]
                + [s.arm, repr(s.observed_time), 1 if s.event else 0]
            )


def load_scheme(path) -> CoarseningScheme:
    try:
        with open(path) as fh:
            data = json.load(fh)
        return CoarseningScheme.from_dict(data)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: invalid scheme: {exc}") from exc


def load_weight_fn(path) -> WeightFunction:
    try:
        with open(path) as fh:
            return WeightFunction.from_dict(json.load(fh))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: invalid weight function: {exc}") from exc


def load_experiment_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
        return ExperimentConfig.from_dict(data)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: invalid experiment config: {exc}") from exc


def _stamp(payload: dict, config_source: dict) -> dict:
    payload["version"] = __version__
    payload["config_fingerprint"] = fingerprint(config_source)
    return payload


def match_report(mc: MatchedCohort, config_source: dict) -> dict:
    """Machine-readable matching outcome: per-subject stratum or reason."""
    assignments = []
    for s in mc.cohort.subjects:
        stratum = mc.stratum_of[s.id]
        if isinstance(stratum, MatchReason):
            assignments.append({"id": s.id, "stratum": None, "matched": False, "reason": stratum.value})
        else:
            assignments.append(
                {"id": s.id, "stratum": list(stratum), "matched": True, "reason": "matched"}
            )
    warnings = []
    if mc.n1 == 0:
        warnings.append("no matched treated subjects")
    if mc.n1 + mc.n0 == 0:
        warnings.append("no subjects matched; scheme may not cover the data")
    payload = {
        "scheme": mc.scheme.to_dict(),
        "scheme_fingerprint": fingerprint(mc.scheme.to_dict()),
        "n_subjects": len(mc.cohort.subjects),
        "n1": mc.n1,
        "n0": mc.n0,
        "unmatched_count": mc.unmatched_count,
        "omega_n": omega_n_holds(mc),
        "assignments": assignments,
        "warnings": warnings,
    }
    return _stamp(payload, config_source)


def result_report(
    result: TestResult,
    config_source: dict,
    scheme: CoarseningScheme | None = None,
    seed: int | None = None,
    model: dict | None = None,
) -> dict:
    payload = result.to_dict()
    if scheme is not None:
        payload["scheme"] = scheme.to_dict()
        payload["scheme_fingerprint"] = fingerprint(scheme.to_dict())
    if seed is not None:
        payload["seed"] = seed
    if model is not None:
        payload["model"] = model
    return _stamp(payload, config_source)


def samples_csv_text(result: ExperimentResult) -> str:
    """Per-replicate rows: replicate, method, statistic, omega_n, n1."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["replicate", "method", "statistic", "omega_n", "n1"])
    for r in result.records:
        omega = "" if r.omega_n is None else ("true" if r.omega_n else "false")
        writer.writerow([r.replicate, r.method, repr(r.statistic), omega, r.n1])
    return buf.getvalue()


def experiment_report(result: ExperimentResult) -> dict:
    # the worker count is an execution detail: outputs must be byte-identical
    # across it, so it is neither echoed nor fingerprinted
    config_dict = result.config.to_dict()
    config_dict.pop("threads", None)
    payload = {
        "config": config_dict,
        "methods": {m: s.to_dict() for m, s in result.summaries.items()},
    }
    return _stamp(payload, config_dict)


def write_experiment_outputs(result: ExperimentResult, output_dir) -> tuple[Path, Path]:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary_path = out / "summary.json"
    samples_path = out / "samples.csv"
    summary_path.write_text(json.dumps(experiment_report(result), indent=2, sort_keys=True) + "\n")
    samples_path.write_text(samples_csv_text(result))
    return summary_path, samples_path
