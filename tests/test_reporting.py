import numpy as np
import pytest

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
