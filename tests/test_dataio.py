"""Dataset CSV reader: hostile input ends in exit 2 naming the line of the
earliest bad row, and the chunked parse does not depend on the chunk size."""

import contextlib
import io
import json
import re
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from cemlogrank import dataio
from cemlogrank.cli import main

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
