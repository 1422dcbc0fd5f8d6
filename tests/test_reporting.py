import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgplab.reporting import format_float, write_csv


def per_cell(header, columns):
    """Oracle: one ``format_float`` call per cell."""
    lines = [",".join(header)]
    lines += [",".join(format_float(c[i]) for c in columns) for i in range(len(columns[0]))]
    return "\n".join(lines) + "\n"


class TestWriteCsv:
    def test_matches_per_cell_formatting(self, tmp_path, rng):
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300,
                            -1e300, 3.0, -17.0, 2.0**53, 0.1, 1.0 / 3.0])
        columns = [
            special,
            special[::-1].copy(),
            np.arange(special.size),  # integer column
            rng.standard_normal(special.size) * 10.0 ** rng.integers(-300, 300, special.size),
        ]
        header = ["a", "b", "n", "x"]
        path = tmp_path / "cells.csv"
        write_csv(str(path), header, columns)
        assert path.read_bytes() == per_cell(header, columns).encode()

    def test_spans_several_blocks(self, tmp_path, rng):
        columns = [np.linspace(0.0, 1.0, 10_001), rng.standard_normal(10_001)]
        path = tmp_path / "long.csv"
        write_csv(str(path), ["tau", "y"], columns)
        assert path.read_bytes() == per_cell(["tau", "y"], columns).encode()

    def test_zero_rows_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(str(path), ["tau", "y"], [np.array([]), np.array([])])
        assert path.read_bytes() == b"tau,y\n"

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="column lengths differ"):
            write_csv(str(tmp_path / "bad.csv"), ["a", "b"], [np.zeros(3), np.zeros(4)])


def written(path, header, columns):
    write_csv(str(path), header, columns)
    return path.read_bytes()


def below(x):
    return math.nextafter(x, 0.0)


#: a cell of any float64: the float strategy (finite, subnormal, +-0.0, inf,
#: nan) or a raw 64-bit pattern (every nan payload and exponent)
CELLS = st.one_of(
    st.floats(),
    st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, dtype=np.uint64).view(np.float64))),
)


class TestKernelIsExact:
    @settings(max_examples=60, deadline=None)
    @given(table=st.integers(1, 5).flatmap(
        lambda width: st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=40)
    ))
    def test_any_float64_cells_match_per_cell_formatting(self, tmp_path_factory, table):
        if not table:
            return
        columns = [np.array(c) for c in zip(*table)]
        header = [f"c{j}" for j in range(len(columns))]
        path = tmp_path_factory.mktemp("prop") / "cells.csv"
        assert written(path, header, columns) == per_cell(header, columns).encode()

    # an exact halfway case has 18 significant digits, the last a 5; ties
    # round to the even 17th digit
    TIES = [1234567890123456.75, 1234567890123456.25, 432691241202166.125,
            315566160553481.375, 37283452635693.1875]
    # the double nearest 10**-14 lies below it, but rounds to 17 digits as 1e-14
    CARRIES = [1e-14, 1e98]
    EDGES = [
        (1e-4, "0.0001"), (below(1e-4), "9.9999999999999991e-05"),
        (1e16, "10000000000000000"), (below(1e16), "9999999999999998"),
        (1e17, "1e+17"), (below(1e17), "99999999999999984"),
        (1e-14, "1e-14"), (1e98, "1e+98"),
        (1e-100, "1e-100"), (-2.5e300, "-2.5000000000000001e+300"), (6.02214076e123, "6.0221407600000004e+123"),
        (1234567890123456.75, "1234567890123456.8"), (1234567890123456.25, "1234567890123456.2"),
        (432691241202166.125, "432691241202166.12"), (37283452635693.1875, "37283452635693.188"),
        (-0.0, "-0"), (0.0, "0"), (5e-324, "4.9406564584124654e-324"),
        (np.nan, "nan"), (-np.inf, "-inf"), (1.7976931348623157e308, "1.7976931348623157e+308"),
        (0.1, "0.10000000000000001"), (-123.0, "-123"), (2.0**53 + 2, "9007199254740994"),
    ]

    def test_edge_table(self, tmp_path):
        for x in self.TIES:
            digits = Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        for x in self.CARRIES:
            assert Decimal(x) < Decimal(10) ** round(math.log10(x))
        cells = np.array([x for x, _ in self.EDGES])
        expected = [text for _, text in self.EDGES]
        assert [format_float(x) for x in cells] == expected
        assert written(tmp_path / "edges.csv", ["x"], [cells]) == ("x\n" + "\n".join(expected) + "\n").encode()

    def test_powers_of_ten_and_two_and_their_neighbours(self, tmp_path):
        powers = [10.0**k for k in range(-323, 309)] + [2.0**k for k in range(-1074, 1024)]
        cells = np.array(powers + [below(x) for x in powers] + [math.nextafter(x, math.inf) for x in powers])
        cells = np.concatenate([cells, -cells])
        columns = [cells[0::2], cells[1::2]]
        assert written(tmp_path / "powers.csv", ["a", "b"], columns) == per_cell(["a", "b"], columns).encode()


class TestShapes:
    def test_non_contiguous_and_integer_columns(self, tmp_path, rng):
        table = rng.standard_normal((300, 4)) * 10.0 ** rng.integers(-8, 8, (300, 4))
        columns = [table[:, 1], table[::-1, 3], np.arange(-150, 150), np.arange(900)[::3] * 7]
        header = ["a", "b", "n", "m"]
        assert written(tmp_path / "strided.csv", header, columns) == per_cell(header, columns).encode()

    def test_single_column(self, tmp_path, rng):
        column = [rng.standard_normal(20_000)]
        assert written(tmp_path / "one.csv", ["y"], column) == per_cell(["y"], column).encode()

    def test_single_row(self, tmp_path):
        columns = [np.array([x]) for x in (-1.5, 2e-7, np.inf, 3.0)]
        header = ["a", "b", "c", "d"]
        assert written(tmp_path / "row.csv", header, columns) == b"a,b,c,d\n-1.5,1.9999999999999999e-07,inf,3\n"

    def test_zero_rows_of_one_column(self, tmp_path):
        assert written(tmp_path / "none.csv", ["tau"], [np.array([])]) == b"tau\n"
