"""Dataset CSV reader and writer: hostile input ends in exit 2 naming the
line of the earliest bad row, the chunked parse does not depend on the chunk
size, the column tokenizer agrees with csv.reader, and the writer with
csv.writer."""

import contextlib
import csv
import io
import json
import math
import os
import re
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cemlogrank import Cohort, ConfigError, MatchReason, Scenario, dataio, generate, grid_scheme, match
from cemlogrank.cli import main
from cemlogrank.oracle import stratum_by_comparison

HEADER = "id,x1,x2,z,time,event"
SCHEME = {"box_lo": [-5.0, -5.0], "box_hi": [5.0, 5.0], "bins_per_dim": 2}
CHUNKS = st.sampled_from([1, 2, 3, dataio.CHUNK_ROWS])

# every replacement makes its cell invalid
BAD_FLOATS = ["abc", "", "1.2.3", "0x1", "--1", "1;5"]
NONFINITE = ["nan", "NaN", "inf", "-inf", "1e400"]
BAD_FLAGS = ["2", "-1", "true", "", "1.0", " 1", "01"]
BAD_TIMES = ["-1", "-0.5", "inf", "nan", "abc", "", "1e400"]
CORRUPTIONS = ("covariate", "nonfinite", "z", "event", "time", "fields", "duplicate")


@st.composite
def valid_rows(draw):
    n = draw(st.integers(2, 12))
    coord = st.floats(-3.0, 3.0, allow_nan=False).map(repr)
    rows = []
    for i in range(n):
        rows.append(
            [
                f"s{i}",
                draw(coord),
                draw(coord),
                draw(st.sampled_from(["0", "1"])),
                repr(draw(st.floats(0.0, 10.0, allow_nan=False))),
                draw(st.sampled_from(["0", "1"])),
            ]
        )
    return rows


def corrupt(draw, rows, k, kind):
    row = rows[k]
    if kind == "covariate":
        row[draw(st.sampled_from([1, 2]))] = draw(st.sampled_from(BAD_FLOATS))
    elif kind == "nonfinite":
        row[draw(st.sampled_from([1, 2]))] = draw(st.sampled_from(NONFINITE))
    elif kind == "z":
        row[3] = draw(st.sampled_from(BAD_FLAGS))
    elif kind == "event":
        row[5] = draw(st.sampled_from(BAD_FLAGS))
    elif kind == "time":
        row[4] = draw(st.sampled_from(BAD_TIMES))
    elif kind == "fields":
        if draw(st.booleans()):
            row.pop()
        else:
            row.append("0")
    else:
        row[0] = rows[draw(st.integers(0, k - 1))][0]


def with_blank_lines(draw, rows) -> tuple[str, list[int]]:
    """File text with blank lines interleaved, and each row's line number."""
    lines, numbers = [HEADER], []
    for row in rows:
        lines += [""] * draw(st.integers(0, 2))
        numbers.append(len(lines) + 1)
        lines.append(",".join(row))
    lines += [""] * draw(st.integers(0, 2))
    return "\n".join(lines) + "\n", numbers


@settings(max_examples=200, deadline=None)
@given(rows=valid_rows(), chunk=CHUNKS, data=st.data())
def test_hostile_csv_exits_2_naming_the_earliest_bad_line(tmp_path_factory, rows, chunk, data):
    draw = data.draw
    count = draw(st.integers(1, min(2, len(rows))))
    bad = sorted(draw(st.lists(st.integers(0, len(rows) - 1), min_size=count, max_size=count, unique=True)))
    for k in bad:
        kinds = CORRUPTIONS if k > 0 else CORRUPTIONS[:-1]
        corrupt(draw, rows, k, draw(st.sampled_from(kinds)))
    text, numbers = with_blank_lines(draw, rows)

    workdir = tmp_path_factory.mktemp("hostile")
    (workdir / "data.csv").write_text(text)
    (workdir / "scheme.json").write_text(json.dumps(SCHEME))
    stderr = io.StringIO()
    with mock.patch.object(dataio, "CHUNK_ROWS", chunk), contextlib.redirect_stderr(stderr):
        code = main(["test", str(workdir / "data.csv"), "--scheme", str(workdir / "scheme.json")])
    err = stderr.getvalue()
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert re.findall(r"line (\d+):", err) == [str(numbers[bad[0]])]


@settings(max_examples=100, deadline=None)
@given(rows=valid_rows(), chunk=CHUNKS, data=st.data())
def test_chunk_size_does_not_change_the_cohort(tmp_path_factory, rows, chunk, data):
    text, _ = with_blank_lines(data.draw, rows)
    path = tmp_path_factory.mktemp("valid") / "data.csv"
    path.write_text(text)
    with mock.patch.object(dataio, "CHUNK_ROWS", chunk):
        cohort = dataio.read_cohort_csv(path, horizon=20.0)
    assert cohort == dataio.read_cohort_csv(path, horizon=20.0)
    assert cohort.ids == tuple(row[0] for row in rows)
    assert cohort.covariate_matrix.tolist() == [[float(row[1]), float(row[2])] for row in rows]
    assert cohort.arms.tolist() == [int(row[3]) for row in rows]
    assert cohort.times.tolist() == [float(row[4]) for row in rows]
    assert cohort.events.tolist() == [row[5] == "1" for row in rows]


def reference_read(path, horizon):
    """The dataset read one csv.reader record at a time: its Cohort, or the
    physical line on which the record holding the earliest bad row starts,
    or, for a file-level fault, None."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows, seen, line = [], set(), 1  # line: where the next record starts
        try:
            for record, row in enumerate(reader):
                if record == 0:
                    width = len(row)
                    if row != ["id", *(f"x{j + 1}" for j in range(width - 4)), "z", "time", "event"]:
                        return None
                elif row:
                    if not row_is_good(row, width, seen):
                        return line
                    seen.add(row[0])
                    rows.append(row)
                line = reader.line_num + 1
        except csv.Error:
            return line
    if not rows:
        return None
    return Cohort.from_columns(
        [row[0] for row in rows],
        [[float(v) for v in row[1:-3]] for row in rows],
        [int(row[-3]) for row in rows],
        [float(row[-2]) for row in rows],
        [row[-1] == "1" for row in rows],
        horizon,
    )


def row_is_good(row, width, seen) -> bool:
    try:
        covariates, time = [float(v) for v in row[1:-3]], float(row[-2])
    except (ValueError, IndexError):
        return False
    return (
        len(row) == width
        and all(map(math.isfinite, covariates))
        and math.isfinite(time)
        and time >= 0.0
        and row[-3] in ("0", "1")
        and row[-1] in ("0", "1")
        and row[0] not in seen
    )


# characters that csv.reader and the column tokenizer must read alike
ID_CHARS = st.sampled_from(["a", "1", " ", ",", '"', "\r", "\n", "\x00", "é"])
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


def rarely(draw) -> bool:
    return draw(st.integers(0, 15)) == 0


def quote(field: str) -> str:
    return '"' + field.replace('"', '""') + '"'


@st.composite
def csv_texts(draw):
    """Dataset texts with 0 to 3 covariates, blank lines, mixed line endings,
    quoted and bare fields, quoted line breaks, leading spaces and NUL
    characters.  Most rows are good; a bare id that holds a comma, quote or
    line break, a padded flag or a missing field makes a bad one."""
    d = draw(st.integers(0, 3))
    header = ["id", *(f"x{j + 1}" for j in range(d)), "z", "time", "event"]
    if rarely(draw):
        header[0] = quote("id")
    parts = [",".join(header), draw(ENDINGS)]
    number = st.floats(-3.0, 3.0, allow_nan=False).map(repr)
    for i in range(draw(st.integers(0, 12))):
        if rarely(draw) or rarely(draw):
            parts.append(draw(ENDINGS))
        sid = f"s{i}" + draw(st.text(ID_CHARS, max_size=3)) if draw(st.booleans()) else f"s{i}"
        flags = [draw(st.sampled_from(["0", "1"])) for _ in range(2)]
        covariates = [draw(number) for _ in range(d)]
        fields = [sid, *covariates, flags[0], repr(draw(st.floats(0.0, 9.0))), flags[1]]
        if rarely(draw):
            fields[draw(st.integers(1, d + 3))] = draw(st.sampled_from([" 1", " 0.5", "1 "]))
        if rarely(draw):
            fields.pop()
        if rarely(draw):
            fields = list(map(quote, fields))
        elif any(c in sid for c in ',"\r\n') and not rarely(draw):
            fields[0] = quote(sid)
        parts += [",".join(fields), draw(ENDINGS)]
    if draw(st.booleans()):
        parts.pop()
    return "".join(parts)


@settings(max_examples=150, deadline=None)
@given(text=csv_texts(), chunk=st.sampled_from([1, 2, 3, 5, dataio.CHUNK_ROWS]))
def test_column_tokenizer_reads_as_csv_reader_does(tmp_path_factory, text, chunk):
    path = tmp_path_factory.mktemp("tokens") / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = reference_read(path, 10.0)
    with mock.patch.object(dataio, "CHUNK_ROWS", chunk):
        try:
            cohort = dataio.read_cohort_csv(path, horizon=10.0)
        except dataio.DatasetFormatError as exc:
            line = re.search(r" line (\d+): ", str(exc))
            assert expected == (line and int(line[1])), str(exc)
        else:
            assert isinstance(expected, Cohort) and cohort == expected


def test_quoted_line_breaks_across_a_block_boundary(tmp_path):
    # the quote is first seen in the second block of two lines; the quoted
    # field spans the boundary and the rest of the file is read by csv.reader
    text = (
        "id,x1,z,time,event\r\n"
        "a,0.5,1,1.0,1\r\n"
        'b,0.25,0,2.0,0\r\n"c\r\n'
        '\r\nc",1.5,0,3.0,1\n'
        '"d ""q""",0.75,1,4.0,0\n'
        "e,2.5,1,5.0,1\n"
        "f,2.5,1,-5.0,1\n"
    )
    path = tmp_path / "data.csv"
    path.write_text(text, newline="")
    with mock.patch.object(dataio, "CHUNK_ROWS", 2):
        with pytest.raises(dataio.DatasetFormatError, match=r"line 9: time must be"):
            dataio.read_cohort_csv(path)
        path.write_text(text.rsplit("f,", 1)[0], newline="")
        cohort = dataio.read_cohort_csv(path)
    assert cohort.ids == ("a", "b", "c\r\n\r\nc", 'd "q"', "e")
    assert cohort == reference_read(path, 5.0)


def string_id_cohort(ids) -> Cohort:
    rng = np.random.default_rng(len(ids))
    n = len(ids)
    covariates, arms, times = rng.standard_normal((n, 3)), rng.integers(0, 2, n), rng.exponential(size=n)
    return Cohort.from_columns(ids, covariates, arms, times, rng.random(n) < 0.5, 10.0)


def reference_csv_bytes(cohort: Cohort) -> bytes:
    """The dataset as csv.writer writes it, one row at a time."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    d = cohort.covariate_matrix.shape[1]
    writer.writerow(["id"] + [f"x{j + 1}" for j in range(d)] + ["z", "time", "event"])
    for sid, covs, arm, time, event in zip(
        cohort.ids,
        cohort.covariate_matrix.tolist(),
        cohort.arms.tolist(),
        cohort.times.tolist(),
        cohort.events.tolist(),
    ):
        writer.writerow([sid] + [repr(v) for v in covs] + [arm, repr(time), 1 if event else 0])
    return buf.getvalue().encode("utf-8")


def encodes_as_utf8(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(
    ids=st.lists(st.text(ID_CHARS | st.characters(), max_size=6), min_size=1, max_size=12, unique=True),
    chunk=st.sampled_from([1, 2, 5, dataio.CHUNK_ROWS]),
)
@example(ids=["\ud800"], chunk=1)
def test_written_ids_read_back_and_match_csv_writer(tmp_path_factory, ids, chunk):
    # an id with a lone surrogate cannot be written as UTF-8: it is named,
    # and no partial file is left
    cohort = string_id_cohort(ids)
    path = tmp_path_factory.mktemp("written") / "data.csv"
    unwritable = [sid for sid in ids if not encodes_as_utf8(sid)]
    with mock.patch.object(dataio, "CHUNK_ROWS", chunk):
        if unwritable:
            with pytest.raises(ConfigError, match=re.escape(repr(unwritable[0]))):
                dataio.write_cohort_csv(cohort, path)
            assert not path.exists()
            return
        dataio.write_cohort_csv(cohort, path)
        assert path.read_bytes() == reference_csv_bytes(cohort)
        assert dataio.read_cohort_csv(path, horizon=10.0) == cohort


def test_written_generated_cohort_matches_csv_writer(tmp_path):
    ids = ["a,b", 'q"x', "line\nbreak", "cr\rx", "plain", " lead", ""]
    for cohort in (generate(Scenario(n=300, seed=7)), string_id_cohort(ids)):
        with mock.patch.object(dataio, "CHUNK_ROWS", 128):
            dataio.write_cohort_csv(cohort, tmp_path / "data.csv")
        assert (tmp_path / "data.csv").read_bytes() == reference_csv_bytes(cohort)
    assert dataio.read_cohort_csv(tmp_path / "data.csv", horizon=10.0).ids == tuple(ids)


def test_writing_a_generated_cohort_leaves_its_ids_unbuilt(tmp_path):
    # the ids are sliced from the cohort's range block by block
    cohort = generate(Scenario(n=300, seed=7))
    with mock.patch.object(dataio, "CHUNK_ROWS", 128):
        dataio.write_cohort_csv(cohort, tmp_path / "data.csv")
    assert "ids" not in cohort.__dict__


def test_repr_of_a_read_cohort_leaves_its_ids_unbuilt(tmp_path):
    path = tmp_path / "data.csv"
    dataio.write_cohort_csv(generate(Scenario(n=300, seed=7)), path)
    cohort = dataio.read_cohort_csv(path)
    assert repr(cohort) == f"Cohort(n=300, d=5, horizon={cohort.horizon!r})"
    assert "ids" not in cohort.__dict__


def test_reader_holds_the_cohort_and_one_block(tmp_path, traced_peak):
    # the raw lines and the per-block columns are released after their last
    # read, the columns are copied once into buffers sized from the file, and
    # the ids are kept as one string per block, so besides the cohort the
    # reader holds the id hashes and one block's strings: 2.2 MiB at
    # n = 50 000, and 6.9 MiB above the 27.1 MiB cohort at n = 500 000
    path = tmp_path / "data.csv"
    dataio.write_cohort_csv(generate(Scenario(n=50_000, seed=0)), path)
    cohort, held, peak = traced_peak(dataio.read_cohort_csv, path)
    assert len(cohort) == 50_000
    assert peak - held <= 6 * 2**20


def test_quoted_reader_holds_the_cohort_and_one_block(tmp_path, traced_peak):
    # csv.reader's rows of a quoted block become the same column lists as a
    # plain block's lines, and their fields size the buffers as the lines do:
    # 2.5 MiB above the cohort at n = 50 000
    g = generate(Scenario(n=50_000, seed=0))
    ids = [f"s,{i}" for i in range(len(g))]
    path = tmp_path / "data.csv"
    quoted = Cohort.from_columns(ids, g.covariate_matrix, g.arms, g.times, g.events, g.horizon)
    dataio.write_cohort_csv(quoted, path)
    cohort, held, peak = traced_peak(dataio.read_cohort_csv, path)
    assert peak - held <= 6 * 2**20
    assert cohort.ids == tuple(ids)


def test_reader_writes_each_column_once(tmp_path, traced_peak):
    # at 256 rows a block, the block's strings are small beside the columns,
    # so holding the columns a second time shows: the peak above the cohort
    # read 0.86 of the columns' bytes when the blocks were concatenated at
    # the end, and 0.45 with buffers sized from the file
    path = tmp_path / "data.csv"
    dataio.write_cohort_csv(generate(Scenario(n=20_000, seed=0)), path)
    with mock.patch.object(dataio, "CHUNK_ROWS", 256):
        cohort, held, peak = traced_peak(dataio.read_cohort_csv, path)
    columns = sum(getattr(cohort, name).nbytes for name in ("covariate_matrix", "arms", "times", "events"))
    assert peak - held < 0.6 * columns


def test_a_pipe_is_read_as_its_file(tmp_path):
    # a pipe cannot seek back for the row-by-row reread, so its bytes are
    # copied to a temporary file and read as a file of their size
    path = tmp_path / "data.csv"
    dataio.write_cohort_csv(generate(Scenario(n=1000, seed=4)), path)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    with mock.patch.object(dataio, "CHUNK_ROWS", 64):
        cohort = dataio.read_cohort_csv(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    expected = dataio.read_cohort_csv(path)
    assert cohort == expected and cohort.covariate_matrix.flags.c_contiguous
    for name in ("covariate_matrix", "arms", "times", "events"):
        a, b = getattr(cohort, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def read_through_a_fifo(tmp_path, data: bytes) -> Cohort:
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(data), daemon=True)
    writer.start()
    try:
        return dataio.read_cohort_csv(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


def test_a_bad_row_read_from_a_pipe_is_named(tmp_path):
    # naming the row reads the input again from its start, which a pipe's
    # temporary copy allows
    text = "id,x1,z,time,event\na,0.5,1,1.0,1\nb,oops,0,2.0,1\n"
    with pytest.raises(dataio.DatasetFormatError, match=r"fifo line 3: unparseable covariate$"):
        read_through_a_fifo(tmp_path, text.encode())


def test_a_regular_file_is_read_without_a_copy(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,x1,z,time,event\na,0.5,1,1.0,1\nb,oops,0,2.0,1\n")
    with mock.patch.object(dataio.tempfile, "TemporaryFile", side_effect=AssertionError("copied")):
        with pytest.raises(dataio.DatasetFormatError, match=r"line 3: unparseable covariate$"):
            dataio.read_cohort_csv(path)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0, 0.0, "5", True])
def test_a_bad_horizon_is_rejected_before_the_file_is_opened(tmp_path, horizon):
    # the horizon's own check raises, not the missing file's open
    with pytest.raises(ConfigError, match=r"^horizon must be finite and positive, got "):
        dataio.read_cohort_csv(tmp_path / "missing.csv", horizon=horizon)


def write_growing_file(cohort: Cohort, path) -> None:
    """The cohort written with its first four ids 300 characters long: the
    reader sizes its buffers from the first block's rows, so at 4 rows a
    block they hold too few rows and grow."""
    ids = ["L" * 296 + f"{i:04d}" if i < 4 else str(i) for i in range(len(cohort))]
    columns = (cohort.covariate_matrix, cohort.arms, cohort.times, cohort.events, cohort.horizon)
    dataio.write_cohort_csv(Cohort.from_columns(ids, *columns), path)


def test_buffers_sized_from_long_first_rows_grow_to_the_file(tmp_path):
    path = tmp_path / "data.csv"
    write_growing_file(generate(Scenario(n=2004, seed=4)), path)
    expected = dataio.read_cohort_csv(path)
    resize = mock.Mock(wraps=dataio._resize)
    with mock.patch.object(dataio, "CHUNK_ROWS", 4), mock.patch.object(dataio, "_resize", resize):
        cohort = dataio.read_cohort_csv(path)
    # every call but the last, which trims to the rows read, grows the buffers
    assert resize.call_count > 4
    assert cohort == expected and cohort.covariate_matrix.flags.c_contiguous
    for name in ("covariate_matrix", "arms", "times", "events"):
        a, b = getattr(cohort, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_every_route_to_a_cohort_gives_one_covariate_layout(tmp_path):
    g = generate(Scenario(n=2004, seed=4))
    columns = (g.arms, g.times, g.events, g.horizon)
    fortran = np.asfortranarray(g.covariate_matrix)
    assert not fortran.flags.c_contiguous
    plain, quoted, growing = (tmp_path / name for name in ("plain.csv", "quoted.csv", "growing.csv"))
    dataio.write_cohort_csv(g, plain)
    ids = [f"s,{i}" for i in range(len(g))]
    dataio.write_cohort_csv(Cohort.from_columns(ids, g.covariate_matrix, *columns), quoted)
    write_growing_file(g, growing)
    with mock.patch.object(dataio, "CHUNK_ROWS", 4):
        grown = dataio.read_cohort_csv(growing)
    cohorts = [
        g,
        Cohort.from_columns(range(len(g)), fortran, *columns),
        dataio.read_cohort_csv(plain),
        dataio.read_cohort_csv(quoted),
        read_through_a_fifo(tmp_path, plain.read_bytes()),
        grown,
    ]
    for cohort in cohorts:
        matrix = cohort.covariate_matrix
        assert matrix.flags.c_contiguous and matrix.tobytes() == g.covariate_matrix.tobytes()


# A duplicate id is found after the last block, by sorting the ids' hashes.
DUPLICATE_THEN_BAD_Z = (
    "id,x1,z,time,event\n"
    "a,0.5,1,1.0,1\n"
    "b,0.5,0,1.0,1\n"
    "c,0.5,1,1.0,1\n"
    "a,0.5,0,2.0,0\n"
    "d,0.5,1,1.0,1\n"
    "e,0.5,2,1.0,1\n"
)


def colliding_hashes(ids):
    return np.zeros(len(ids), dtype=np.int64)


def test_duplicate_in_an_early_block_is_named_before_a_later_bad_row(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(DUPLICATE_THEN_BAD_Z)
    with mock.patch.object(dataio, "CHUNK_ROWS", 2):
        with pytest.raises(dataio.DatasetFormatError, match=r"line 5: duplicate subject id 'a'$"):
            dataio.read_cohort_csv(path)


def test_colliding_hashes_leave_a_unique_file_as_read(tmp_path):
    path = tmp_path / "data.csv"
    dataio.write_cohort_csv(generate(Scenario(n=300, seed=2)), path)
    with mock.patch.object(dataio, "CHUNK_ROWS", 7):
        expected = dataio.read_cohort_csv(path)
        with mock.patch.object(dataio, "_id_hashes", colliding_hashes):
            cohort = dataio.read_cohort_csv(path)
    assert cohort == expected and cohort.ids == tuple(map(str, range(300)))
    for name in ("covariate_matrix", "arms", "times", "events"):
        a, b = getattr(cohort, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_colliding_hashes_still_find_a_duplicate(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(DUPLICATE_THEN_BAD_Z.replace("e,0.5,2,", "e,0.5,1,"))
    (tmp_path / "scheme.json").write_text(json.dumps({"continuous_edges": [[0.0, 1.0]]}))
    stderr = io.StringIO()
    with mock.patch.object(dataio, "CHUNK_ROWS", 2), mock.patch.object(
        dataio, "_id_hashes", colliding_hashes
    ), contextlib.redirect_stderr(stderr):
        code = main(["test", str(path), "--scheme", str(tmp_path / "scheme.json")])
    assert code == 2
    assert stderr.getvalue() == f"error: {path} line 5: duplicate subject id 'a'\n"


def test_match_report_assignments_equal_the_oracle():
    # string ids that read as numbers and do not sort in cohort order; some
    # points fall outside the box or hold a binary coordinate of 0.5
    rng = np.random.default_rng(21)
    n = 80
    ids = [str(n - i) for i in range(n)]
    covariates = np.column_stack(
        [rng.uniform(-0.2, 1.2, (n, 2)), rng.choice([0.0, 1.0, 0.5], n, p=[0.45, 0.45, 0.1])]
    )
    cohort = Cohort.from_columns(ids, covariates, rng.integers(0, 2, n), rng.exponential(size=n), rng.random(n) < 0.5, 10.0)
    mc = match(cohort, grid_scheme([0.0, 0.0], [1.0, 1.0], 3, binary_dims=1))
    expected = stratum_by_comparison(mc)
    assignments = json.loads(json.dumps(dataio.match_report(mc, {})))["assignments"]
    assert [a["id"] for a in assignments] == ids
    for a in assignments:
        cell = expected[a["id"]]
        if isinstance(cell, MatchReason):
            assert a == {"id": a["id"], "stratum": None, "matched": False, "reason": cell.value}
        else:
            assert a == {"id": a["id"], "stratum": list(cell), "matched": True, "reason": "matched"}
    assert {a["reason"] for a in assignments} == {"matched", "outside_region", "no_cross_arm_partner"}
