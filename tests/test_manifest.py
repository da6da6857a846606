import csv

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from gapsandwich.manifest import write_csv

ROWS = st.lists(st.tuples(st.text(), st.floats(allow_nan=False), st.integers(),
                          st.text()))


@given(ROWS)
@example([(",", float("inf"), 0, '"')])
@example([("a\nb", -0.0, -1, "c\r\nd")])
@example([("", 5e-324, 2**70, 'say "hi", twice')])
def test_write_csv_reads_back_every_value(tmp_path_factory, rows):
    # Floats come back bit for bit through float(), text unchanged, ints as
    # their str.
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    write_csv(str(path), "label,value,count,note", rows)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *back = list(csv.reader(fh))
    assert header == ["label", "value", "count", "note"]
    assert len(back) == len(rows)
    for (label, value, count, note), fields in zip(rows, back):
        assert fields[0] == label and fields[3] == note
        assert float(fields[1]).hex() == value.hex()
        assert fields[2] == str(count)


def test_write_csv_writes_a_numpy_float_as_its_python_repr(tmp_path):
    path = tmp_path / "np.csv"
    write_csv(str(path), "x,n", [(np.float64(0.1), np.int64(3))])
    assert path.read_bytes() == b"x,n\n0.1,3\n"
