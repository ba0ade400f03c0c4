"""Every figure of the reproduction against ``benchmarks/REPRODUCTION.json``.

Each case regenerates one entry of :data:`reproduction.FIGURES`, compares its
rows field by field, exactly, to the committed table, and runs the entry's
shape checks.  A row that moves fails here and names the figure, the row and
the field.  Run ``python -m pytest benchmarks/test_reproduction.py -q``.

A change that means to move rows regenerates the table by running this file
as a script (``PYTHONPATH=src python benchmarks/test_reproduction.py``): it
rewrites ``REPRODUCTION.json``, prints every figure, and the move shows up as
a diff of that file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from reproduction import FIGURES, differences, dump, print_figure

TABLE = Path(__file__).parent / "REPRODUCTION.json"


def test_committed_table_holds_every_figure():
    assert list(json.loads(TABLE.read_text())) == list(FIGURES)


@pytest.mark.parametrize("name", FIGURES)
def test_figure_reproduces_the_committed_rows(name):
    figure = FIGURES[name]
    committed = json.loads(TABLE.read_text()).get(name, [])
    rows = figure.rows()
    assert differences({name: committed}, {name: rows}) == []
    figure.check(rows)


if __name__ == "__main__":
    table = {}
    for name, figure in FIGURES.items():
        table[name] = figure.rows()
        print_figure(name, table[name])
    TABLE.write_text(dump(table))
    print(f"wrote {TABLE}", file=sys.stderr)
