"""The on-disk formats of the files module."""

import struct
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from twolayer_opt import files

EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         2.225073858507201e-308, 1.7976931348623157e308,
         -1.7976931348623157e308)
NUMBERS = st.one_of(st.floats(allow_nan=False), st.sampled_from(EDGES),
                    st.integers(-2 ** 53, 2 ** 53))


def bits(row):
    return [struct.pack("<d", float(x)) for x in row]


class TestTable:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(NUMBERS, min_size=1, max_size=6), max_size=8),
           st.sampled_from([None, ("k", "f")]))
    def test_round_trip_bit_exact(self, rows, header):
        # rows of differing widths, as in the params layout
        widths = [len(r) for r in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            files.write_table(path, rows, header=header)
            back = files.read_table(path, lambda i: widths[i], rows=len(rows),
                                    header=header)
        assert [bits(r) for r in back] == [bits(r) for r in rows]


def test_output_directory_made_by_the_first_write(tmp_path):
    # output_paths only names and checks the outputs; the directory appears
    # when a file is written into it
    out = tmp_path / "a" / "b"
    (path,) = files.output_paths(out, ["x.json"], force=False)
    assert path == out / "x.json" and not (tmp_path / "a").exists()
    files.write_json(path, {"x": 1})
    assert files.read_json(path) == {"x": 1}
