"""Flat key-value format and CSV trace serialization."""

import numpy as np
import pytest

from thermocover import kvio
from thermocover.errors import ConfigError
from thermocover.trace import _BOOL_COLUMNS, _ROW_FORMAT, COLUMNS, SimTrace


def test_kv_parse_types():
    text = "a = 1\nb = 1.5\nc = true\nd = hello  # comment\n\n# whole line\n"
    items = kvio.loads(text)
    assert items == {"a": "1", "b": "1.5", "c": "true", "d": "hello"}


def test_kv_round_trip():
    items = {"x": 1, "controller.H": 20, "w": 0.30000000000000004,
             "name": "exp1"}
    assert kvio.loads(kvio.dumps(items)) == {
        "x": "1", "controller.H": "20", "w": "0.30000000000000004",
        "name": "exp1"}


def test_kv_bad_line():
    with pytest.raises(ConfigError):
        kvio.loads("no assignment here\n")
    with pytest.raises(ConfigError):
        kvio.loads("= 3\n")
    with pytest.raises(ConfigError, match="^line 4: 'a' repeats line 1$"):
        kvio.loads("a = 1\nb = 2\n\na = 1\n")


def test_kv_overrides():
    out = kvio.apply_overrides({"a": 1}, ["a= 2", "b=x"])
    assert out == {"a": "2", "b": "x"}
    with pytest.raises(ConfigError):
        kvio.apply_overrides({}, ["oops"])


def _toy_trace(n=5):
    rows = [(float(k), 40.0, 39.5, 30.0, 25.0 + 0.1 * k, 24.0,
             k % 2 == 0, 0.8, 0.0, 1e-3 * k, False) for k in range(n)]
    return SimTrace.from_rows(rows)


def test_csv_round_trip(tmp_path):
    trace = _toy_trace()
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    back = SimTrace.from_csv(path)
    for col in COLUMNS:
        assert np.allclose(trace.column(col).astype(float),
                           back.column(col).astype(float))
    # serialization is deterministic down to the byte
    trace.to_csv(tmp_path / "again.csv")
    assert (tmp_path / "trace.csv").read_bytes() == \
        (tmp_path / "again.csv").read_bytes()


def test_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        SimTrace.from_csv(path)


def test_unknown_column_rejected():
    with pytest.raises(ConfigError):
        _toy_trace().column("nope")


def test_empty_trace_round_trip(tmp_path):
    trace = SimTrace.from_rows([])
    path = tmp_path / "empty.csv"
    trace.to_csv(path)
    back = SimTrace.from_csv(path)
    assert len(back) == 0


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257])
def test_csv_text_equals_per_row_format(n):
    # each block is formatted by one % over its rows: the bytes are those
    # of the row format applied row by row, special values included
    rng = np.random.default_rng(n)
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0]
    columns = {}
    for j, c in enumerate(COLUMNS):
        if c in _BOOL_COLUMNS:
            columns[c] = rng.random(n) < 0.5
        else:
            col = rng.normal(0.0, 30.0, n) * 10.0 ** rng.integers(-12, 12, n)
            where = rng.random(n) < 0.2
            col[where] = rng.choice(specials, np.count_nonzero(where))
            # the first row holds every special value across its columns
            col[:1] = specials[j % len(specials)]
            columns[c] = col
    trace = SimTrace(**columns)
    rows = zip(*(columns[c].tolist() for c in COLUMNS))
    expected = ",".join(COLUMNS) + "\n" + "".join(_ROW_FORMAT % row
                                                  for row in rows)
    assert trace.to_csv_text() == expected
    if n:
        first = expected.splitlines()[1].split(",")
        assert {"nan", "inf", "-inf", "-0", "0"} <= set(first)
