"""File formats: dataset CSV, scheme and weight-function JSON, result and
experiment outputs.  Every emitted JSON embeds the library version and a
fingerprint of the canonicalized configuration that produced it.
"""

import csv
import functools
import io
import itertools
import json
import math
import os
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DatasetFormatError
from .experiment import ExperimentResult
from .logrank import TestResult, WeightFunction
from .matching import _REASONS, CoarseningScheme, MatchedCohort, omega_n_holds
from .survival import Cohort
from .util import fingerprint, require_positive


# Records parsed per vectorized block.  A block's columns and id hashes are
# copied into buffers for the whole file, and of the block itself only its
# ids joined into one string and its start lines outlive it, so while parsing
# the reader holds the cohort's data, 8 bytes per id and one block's strings.
CHUNK_ROWS = 2048

# Characters for which csv.writer (QUOTE_MINIMAL, "\r\n" ending) quotes a field
_QUOTED = (",", '"', "\r", "\n")

_DUPLICATE = "duplicate subject id {!r}"


def read_cohort_csv(path, horizon: float | None = None) -> Cohort:
    """Load a dataset with header ``id,x1,...,xd,z,time,event``.

    Covariates must be finite, z and event 0/1, and time a nonnegative
    decimal.  Subject ids are kept as strings.  When no horizon is given, the
    largest observed time is used; a given horizon that is not finite and
    positive raises ConfigError before the file is opened.  Malformed
    content raises DatasetFormatError naming the earliest bad row by the
    physical line on which it starts.

    The input is read once, up to its end or its first fault, and never
    seeks, so a pipe is read as a file is.  Records are parsed in blocks of
    CHUNK_ROWS into column arrays, each copied once into buffers sized from
    the file, and each block's ids are kept as one string, their hashes in a
    buffer that finds any repeated id at the end.  The cohort builds its id
    tuple only when asked.  So the working set is the cohort plus its id
    hashes and one block's strings: a traced peak 2.2 MiB above the 2.7 MiB
    cohort at 50 000 subjects, and 7.0 MiB above the 27.1 MiB cohort at
    500 000.  The covariate matrix is C-ordered, as every cohort's is.
    """
    if horizon is not None:
        require_positive("horizon", horizon)
    with open(path, encoding="utf-8", newline="") as fh:
        id_blocks, covariates, arms, times, events = _parse_columns(fh, str(path))
    if horizon is None:
        horizon = float(times.max())
        if horizon <= 0:
            raise DatasetFormatError(f"{path}: all times are zero; pass an explicit horizon")
    build_ids = functools.partial(_ids_from_blocks, id_blocks)
    return Cohort._from_checked_columns(build_ids, covariates, arms, times, events, float(horizon))


class _BadBlock(Exception):
    """A block failed its checks; the argument is its records' field lists."""


def _parse_columns(fh, name) -> tuple:
    """The id blocks and the column arrays of a well-formed file, read in one
    pass; DatasetFormatError naming the earliest bad row otherwise.

    Each block's rows are copied once, into buffers sized at the first rows:
    the file's size over their bytes per row, with 1/64 slack.  The bytes are
    counted from below, so the guess tends to be high; buffers that fall
    short, as a pipe's (of size 0) do, grow by a quarter.  At the end they
    are trimmed to the rows read.  Every buffer is C-ordered, the covariates
    an n x d matrix.  A bad row is named from the rows held when the pass
    stops: at a block that fails its checks, a record csv.reader rejects,
    text that is not UTF-8, or the end."""
    blocks = _record_blocks(fh)
    # buffers of the covariates, arms, times, events and the ids' hashes
    id_blocks, line_blocks, buffers, n = [], [], None, 0
    # where the next record starts, and the failing block's rows or a fault
    line, width, rows, fault = 1, 0, None, None
    try:
        first = next(blocks, None)
        if first is None:
            raise DatasetFormatError(f"{name}: empty file")
        (head,), starts = first
        header = _fields(head)
        _check_header(header, name)
        width, line = len(header), starts[-1]
        size, least = os.fstat(fh.fileno()).st_size, _least_bytes([head])
        for records, starts in blocks:
            line = starts[-1]
            if buffers is None:
                least += _least_bytes(records)
            lines = np.fromiter(itertools.compress(starts, records), dtype=np.int64)
            # in place, so that emptying the list frees the block's strings,
            # which the suspended generator also refers to
            records[:] = filter(None, records)
            if records:
                # the nonblank records' start lines, a range when consecutive
                consecutive = lines[-1] - lines[0] == len(lines) - 1
                line_blocks.append(range(lines[0], lines[-1] + 1) if consecutive else lines)
                ids, *columns = _parse_block(records, width)
                columns.append(_id_hashes(ids))
                stop = n + len(ids)
                if buffers is None:
                    guess = stop * size // least
                    cap = max(stop, guess + guess // 64)
                    buffers = [np.empty((cap, *column.shape[1:]), column.dtype) for column in columns]
                elif stop > len(buffers[0]):
                    _resize(buffers, max(stop, len(buffers[0]) * 5 // 4))
                for buffer, column in zip(buffers, columns):
                    buffer[n:stop] = column
                n = stop
                joined = "\n".join(ids)
                # a quoted id may hold a line break; such a block keeps its list
                id_blocks.append(joined if joined.count("\n") == len(ids) - 1 else ids)
    except _BadBlock as exc:
        (rows,) = exc.args
    except csv.Error as exc:
        fault = f"{name} line {line}: {exc}"
    except UnicodeDecodeError as exc:
        fault = f"{name}: not UTF-8 text ({exc.reason})"
    hashes = buffers.pop()[:n] if buffers else _id_hashes(())
    _raise_bad_row(name, id_blocks, line_blocks, hashes, rows, width)
    if fault or not id_blocks:
        raise DatasetFormatError(fault or f"{name}: no data rows")
    _resize(buffers, n)
    return id_blocks, *buffers


def _least_bytes(records: list) -> int:
    """The fewest bytes in which a block's records can be written: every
    character takes at least one, and every field is followed by a comma or
    a line ending."""
    if isinstance(records[0], str):
        return sum(map(len, records)) + len(records)
    return sum(map(len, itertools.chain.from_iterable(records))) + sum(max(len(r), 1) for r in records)


def _resize(buffers: list, cap: int) -> None:
    """Resize the reader's buffers in place to ``cap`` rows.  Each is
    C-ordered, so the rows it keeps stay where they are.  Resizing skips
    numpy's reference check, which is safe because no view of a buffer
    outlives the statement that makes it before the last resize."""
    for buffer in buffers:
        buffer.resize((cap, *buffer.shape[1:]), refcheck=False)


def _id_hashes(ids) -> np.ndarray:
    return np.fromiter(map(hash, ids), dtype=np.int64, count=len(ids))


def _raise_bad_row(name, id_blocks, line_blocks, hashes, rows, width) -> None:
    """Raise DatasetFormatError naming the earliest bad row: a repeated id
    among the rows of ``id_blocks``, found by sorting their ``hashes`` in
    place and comparing the ids of equal hashes, and else the first bad one
    of ``rows``, the field lists of the failing block after them."""
    hashes.sort()
    hits = hashes[1:][hashes[1:] == hashes[:-1]]
    if rows is None and not len(hits):
        return
    ids, seen, bad = _ids_from_blocks(id_blocks), set(), None
    for k in np.flatnonzero(np.isin(_id_hashes(ids), hits)).tolist():
        if ids[k] in seen:
            bad = k, _DUPLICATE.format(ids[k])
            break
        seen.add(ids[k])
    if bad is None and rows is not None:
        # of the earlier ids, only those the block repeats
        k, message = _first_bad_row(rows, width, {row[0] for row in rows}.intersection(ids))
        bad = len(ids) + k, message
    if bad is not None:
        k, message = bad
        line = next(itertools.islice(itertools.chain.from_iterable(line_blocks), k, None))
        raise DatasetFormatError(f"{name} line {line}: {message}")


def _ids_from_blocks(id_blocks: list) -> tuple[str, ...]:
    return tuple(
        itertools.chain.from_iterable(b.split("\n") if isinstance(b, str) else b for b in id_blocks)
    )


def _check_header(header: list[str], name: str) -> None:
    if len(header) < 4 or header[0] != "id" or header[-3:] != ["z", "time", "event"]:
        raise DatasetFormatError(
            f"{name}: header must be id,x1,...,xd,z,time,event, got {','.join(header)}"
        )
    expected = [f"x{j + 1}" for j in range(len(header) - 4)]
    if header[1:-3] != expected:
        raise DatasetFormatError(
            f"{name}: covariate columns must be {','.join(expected)}, got {','.join(header[1:-3])}"
        )


def _record_blocks(fh):
    r"""The file's records in blocks: the header alone, then up to CHUNK_ROWS
    records each.  A block comes with the physical line on which each of its
    records starts, and then the line on which the next one would.

    Until a block holds a quote, a record is its line without the line
    ending ('' when blank), lines ending at \n, \r\n or \r as csv.reader has
    them.  From that block on the records are csv.reader's field lists ([]
    when blank), since a quoted field may span lines."""
    size, start = 1, 1
    while lines := list(itertools.islice(fh, size)):
        if '"' in "".join(lines):
            yield from _csv_blocks(csv.reader(itertools.chain(lines, fh)), size, start - 1)
            return
        starts = range(start, start + len(lines) + 1)
        size, start = CHUNK_ROWS, start + len(lines)
        # a line holds no \r or \n but its ending; the raw lines go before the yield
        lines = [line.rstrip("\r\n") for line in lines]
        yield lines, starts


def _csv_blocks(reader, size: int, offset: int):
    """csv.reader's records in blocks, as ``_record_blocks`` gives them, with
    ``offset`` lines before the reader's first.  A csv.Error (a field over
    csv.field_size_limit()) is raised after the block of the records before
    it, so that an earlier bad row is named first."""
    while True:
        rows, starts, error = [], [offset + reader.line_num + 1], None
        try:
            for row in itertools.islice(reader, size):
                rows.append(row)
                starts.append(offset + reader.line_num + 1)
        except csv.Error as exc:
            error = exc
        if not rows and error is None:
            return
        if rows:
            yield rows, starts
        if error is not None:
            raise error
        size = CHUNK_ROWS


def _fields(record) -> list[str]:
    """A record's fields, from its line or from csv.reader."""
    return record.split(",") if isinstance(record, str) else record


def _parse_block(data: list, width: int) -> tuple:
    """Ids and column arrays of nonblank records that are all well formed;
    _BadBlock with their field lists when any record is bad.  Both
    tokenizers' records become the same column lists, and ``data`` is
    emptied once they are split."""
    if isinstance(data[0], str):
        if list(map(str.count, data, itertools.repeat(","))).count(width - 1) != len(data):
            raise _BadBlock(list(map(_fields, data)))
        flat = ",".join(data).split(",")
    else:
        if set(map(len, data)) != {width}:
            raise _BadBlock(data)
        flat = list(itertools.chain.from_iterable(data))
    del data[:]
    columns = [flat[k::width] for k in range(width)]
    del flat
    try:
        # np.array calls float() on each string, as the row checks do
        covariates = np.array(columns[1:-3], dtype=float).reshape(width - 4, len(columns[0])).T
        times = np.array(columns[-2], dtype=float)
    except ValueError:
        raise _BadBlock(list(zip(*columns))) from None
    finite = np.isfinite(covariates).all() and np.isfinite(times).all() and (times >= 0.0).all()
    if not (finite and set(columns[-3]) <= {"0", "1"} and set(columns[-1]) <= {"0", "1"}):
        raise _BadBlock(list(zip(*columns)))
    # every flag is one ASCII character, '0' or '1'
    arms, events = (
        np.frombuffer("".join(column).encode("ascii"), dtype=np.uint8) == ord("1")
        for column in (columns[-3], columns[-1])
    )
    return columns[0], covariates, arms.astype(np.int8), times, events


def _first_bad_row(data, width: int, seen: set[str]) -> tuple[int, str] | None:
    """Index and message of the first row failing a check, the checks of a
    row taken in order: field count, covariates, z, time, event, id unseen.
    The ids of the rows before it join ``seen``; None when no row fails."""
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
        if row[0] in seen:
            return k, _DUPLICATE.format(row[0])
        seen.add(row[0])
    return None


def write_cohort_csv(cohort: Cohort, path) -> None:
    r"""Write the cohort in the layout read_cohort_csv reads, byte for byte
    as csv.writer would: floats by repr, \r\n line endings, and an id quoted
    (its quotes doubled) only when it holds a comma, a quote or a line break.
    Blocks of CHUNK_ROWS rows are formatted one column at a time; ids given
    as a ``range`` are sliced from it, so the cohort's id tuple is not built.
    An id that UTF-8 cannot encode raises ConfigError naming it, and the
    partly written file is removed."""
    ids = cohort.ids if cohort._id_range is None else cohort._id_range
    d = cohort.covariate_matrix.shape[1]
    header = ["id"] + [f"x{j + 1}" for j in range(d)] + ["z", "time", "event"]
    flag = ("0", "1").__getitem__
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            for start in range(0, len(cohort), CHUNK_ROWS):
                block = slice(start, start + CHUNK_ROWS)
                columns = [
                    _id_column(ids[block]),
                    *(map(repr, column.tolist()) for column in cohort.covariate_matrix[block].T),
                    map(flag, cohort.arms[block].tolist()),
                    map(repr, cohort.times[block].tolist()),
                    map(flag, cohort.events[block].tolist()),
                ]
                fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")
    except UnicodeEncodeError as exc:
        # only an id can hold what UTF-8 cannot encode (a lone surrogate), and
        # the first id holding the failing character is the one written first
        Path(path).unlink()
        bad = exc.object[exc.start]
        sid = next(sid for sid in map(str, ids) if bad in sid)
        raise ConfigError(f"subject id {sid!r} cannot be encoded as UTF-8") from None


def _id_column(ids) -> list[str]:
    ids = list(map(str, ids))
    joined = "".join(ids)
    if any(c in joined for c in _QUOTED):
        ids = ['"' + s.replace('"', '""') + '"' if any(c in s for c in _QUOTED) else s for s in ids]
    return ids


def load_json_object(path, what: str, build):
    """``build(data)`` for the JSON object ``data`` in the file ``path``;
    text that is not UTF-8 JSON, a top level that is not an object, or an
    object that ``build`` rejects (with a ValueError, as every owner's
    ConfigError is) raises ConfigError naming the path.  Any other error in
    ``build`` is a fault of the program and is not caught."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError(f"expected a JSON object, got {type(data).__name__}")
        return build(data)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid {what}: {exc}") from exc


def load_scheme(path) -> CoarseningScheme:
    return load_json_object(path, "scheme", CoarseningScheme.from_dict)


def load_weight_fn(path) -> WeightFunction:
    return load_json_object(path, "weight function", WeightFunction.from_dict)


def json_text(payload: dict) -> str:
    """The text of every JSON report: indented, keys sorted, one final line break."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _stamp(payload: dict, config_source: dict) -> dict:
    payload["version"] = __version__
    payload["config_fingerprint"] = fingerprint(config_source)
    return payload


def match_report(mc: MatchedCohort, config_source: dict) -> dict:
    """Machine-readable matching outcome: per-subject stratum or reason, read
    off the matched columns in cohort order."""
    strata = [list(key) for key in mc.cell_keys]
    reasons = [None if reason is None else reason.value for reason in _REASONS]
    assignments = [
        {"id": sid, "stratum": strata[c], "matched": True, "reason": "matched"} if c >= 0
        else {"id": sid, "stratum": None, "matched": False, "reason": reasons[r]}
        for sid, c, r in zip(mc.cohort.ids, mc.cell.tolist(), mc.reason.tolist())
    ]
    warnings = []
    if mc.n1 == 0:
        warnings.append("no matched treated subjects")
    if mc.n1 + mc.n0 == 0:
        warnings.append("no subjects matched; scheme may not cover the data")
    scheme = mc.scheme.to_dict()
    payload = {
        "scheme": scheme,
        "scheme_fingerprint": fingerprint(scheme),
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
        payload["scheme"] = scheme_dict = scheme.to_dict()
        payload["scheme_fingerprint"] = fingerprint(scheme_dict)
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
    summary_path.write_text(json_text(experiment_report(result)))
    samples_path.write_text(samples_csv_text(result))
    return summary_path, samples_path
