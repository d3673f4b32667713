"""File formats: dataset CSV, scheme and weight-function JSON, result and
experiment outputs.  Every emitted JSON embeds the library version and a
fingerprint of the canonicalized configuration that produced it.
"""

import csv
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DatasetFormatError
from .experiment import ExperimentConfig, ExperimentResult
from .logrank import TestResult, WeightFunction
from .matching import CoarseningScheme, MatchedCohort, MatchReason, omega_n_holds
from .survival import Cohort
from .util import fingerprint


# Rows parsed per vectorized block; only the id strings outlive their block.
CHUNK_ROWS = 4096


def read_cohort_csv(path, horizon: float | None = None) -> Cohort:
    """Load a dataset with header ``id,x1,...,xd,z,time,event``.

    Covariates must be finite, z and event 0/1, and time a nonnegative
    decimal.  Subject ids are kept as strings.  When no horizon is given, the
    largest observed time is used.  Malformed content raises
    DatasetFormatError naming the line of the earliest bad row.

    Rows are parsed in blocks of CHUNK_ROWS into column arrays, so the whole
    file is never held as rows; a block that fails a check is re-read row by
    row only to name the line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return _parse_cohort(fh, horizon, str(path))
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


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
    ids: list[str] = []
    seen: set[str] = set()
    blocks = []
    lineno = 1
    while rows := list(itertools.islice(reader, CHUNK_ROWS)):
        data = [row for row in rows if row]
        if data:
            try:
                block_ids, *columns = _parse_block(data, len(header), seen)
            except ValueError:
                k, message = _first_bad_row(data, len(header), seen)
                line = lineno + 1 + [i for i, row in enumerate(rows) if row][k]
                raise DatasetFormatError(f"{name} line {line}: {message}") from None
            ids += block_ids
            seen.update(block_ids)
            blocks.append(columns)
        lineno += len(rows)
    if not ids:
        raise DatasetFormatError(f"{name}: no data rows")
    covariates, arms, times, events = (np.concatenate(c) for c in zip(*blocks))
    if horizon is None:
        horizon = float(times.max())
        if horizon <= 0:
            raise DatasetFormatError(f"{name}: all times are zero; pass an explicit horizon")
    try:
        return Cohort.from_columns(ids, covariates, arms, times, events, float(horizon))
    except ValueError as exc:
        raise DatasetFormatError(f"{name}: {exc}") from None


def _parse_block(data: list[list[str]], width: int, seen: set[str]) -> tuple:
    """Ids and column arrays of well-formed rows; ValueError when any row is
    bad."""
    if set(map(len, data)) != {width}:
        raise ValueError("field count")
    columns = list(zip(*data))
    ids = columns[0]
    if len(set(ids)) != len(ids) or not seen.isdisjoint(ids):
        raise ValueError("duplicate id")
    # np.array calls float() on each string, as the row checks do
    covariates = np.array(columns[1:-3], dtype=float).reshape(width - 4, len(data)).T
    times = np.array(columns[-2], dtype=float)
    if not (np.isfinite(covariates).all() and np.isfinite(times).all() and (times >= 0.0).all()):
        raise ValueError("range")
    flags = []
    for column in (columns[-3], columns[-1]):
        if not set(column) <= {"0", "1"}:
            raise ValueError("flag")
        # every cell is one ASCII character, '0' or '1'
        flags.append(np.frombuffer("".join(column).encode("ascii"), dtype=np.uint8) == ord("1"))
    arms, events = flags
    return ids, covariates, arms.astype(np.int8), times, events


def _first_bad_row(data: list[list[str]], width: int, seen: set[str]) -> tuple[int, str]:
    """Index and message of the first row failing a check, the checks of a
    row taken in order: field count, covariates, z, time, event, id."""
    block_seen = set()
    for k, row in enumerate(data):
        if len(row) != width:
            return k, f"expected {width} fields, got {len(row)}"
        try:
            covs = [float(v) for v in row[1:-3]]
        except ValueError:
            return k, "unparseable covariate"
        if not all(math.isfinite(v) for v in covs):
            return k, "covariates must be finite"
        if row[-3] not in ("0", "1"):
            return k, f"z must be 0 or 1, got {row[-3]!r}"
        try:
            time = float(row[-2])
        except ValueError:
            return k, f"unparseable time {row[-2]!r}"
        if not (math.isfinite(time) and time >= 0.0):
            return k, "time must be finite and nonnegative"
        if row[-1] not in ("0", "1"):
            return k, f"event must be 0 or 1, got {row[-1]!r}"
        if row[0] in seen or row[0] in block_seen:
            return k, f"duplicate subject id {row[0]!r}"
        block_seen.add(row[0])
    raise AssertionError("a block failed its checks but no row did")


def write_cohort_csv(cohort: Cohort, path) -> None:
    d = cohort.covariate_matrix.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"x{j + 1}" for j in range(d)] + ["z", "time", "event"])
        for sid, covs, arm, time, event in zip(
            cohort.ids,
            cohort.covariate_matrix.tolist(),
            cohort.arms.tolist(),
            cohort.times.tolist(),
            cohort.events.tolist(),
        ):
            writer.writerow([sid] + [repr(v) for v in covs] + [arm, repr(time), 1 if event else 0])


def load_json_object(path, what: str, build):
    """``build(data)`` for the JSON object ``data`` in the file ``path``;
    text that is not UTF-8 JSON, a top level that is not an object, or an
    object that ``build`` rejects raises ConfigError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        return build(data)
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid {what}: {exc}") from exc


def load_scheme(path) -> CoarseningScheme:
    return load_json_object(path, "scheme", CoarseningScheme.from_dict)


def load_weight_fn(path) -> WeightFunction:
    return load_json_object(path, "weight function", WeightFunction.from_dict)


def load_experiment_config(path) -> ExperimentConfig:
    return load_json_object(path, "experiment config", ExperimentConfig.from_dict)


def _stamp(payload: dict, config_source: dict) -> dict:
    payload["version"] = __version__
    payload["config_fingerprint"] = fingerprint(config_source)
    return payload


def match_report(mc: MatchedCohort, config_source: dict) -> dict:
    """Machine-readable matching outcome: per-subject stratum or reason."""
    assignments = []
    for sid, stratum in mc.stratum_of.items():
        if isinstance(stratum, MatchReason):
            assignments.append({"id": sid, "stratum": None, "matched": False, "reason": stratum.value})
        else:
            assignments.append(
                {"id": sid, "stratum": list(stratum), "matched": True, "reason": "matched"}
            )
    warnings = []
    if mc.n1 == 0:
        warnings.append("no matched treated subjects")
    if mc.n1 + mc.n0 == 0:
        warnings.append("no subjects matched; scheme may not cover the data")
    payload = {
        "scheme": mc.scheme.to_dict(),
        "scheme_fingerprint": fingerprint(mc.scheme.to_dict()),
        "n_subjects": len(mc.cohort),
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
    model: dict | None = None,
) -> dict:
    payload = result.to_dict()
    if scheme is not None:
        payload["scheme"] = scheme.to_dict()
        payload["scheme_fingerprint"] = fingerprint(scheme.to_dict())
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
