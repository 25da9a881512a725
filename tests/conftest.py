from __future__ import annotations

import time
from typing import NamedTuple

import pytest

from posetrep.core import ConditionSet, DimVector, make_poset
from posetrep.derive import Table, derive_conditions, generate_table, verify_tables

FIVE_TABLES = ((1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (4, 2, 1))


@pytest.fixture(scope="session")
def verify_report():
    """One run of verify_tables() over the bundled corpus, shared by the
    tests that inspect it: (report, seconds it took)."""
    start = time.monotonic()
    report = verify_tables()
    return report, time.monotonic() - start


class GeneratedTable(NamedTuple):
    table: Table
    raw: dict[DimVector, ConditionSet]  # derive_conditions per row, in row order
    seconds: float  # what generate_table took


@pytest.fixture(scope="session")
def five_tables() -> dict[tuple[int, ...], GeneratedTable]:
    """generate_table() of each of FIVE_TABLES and the raw derived condition
    set of each of its rows, built once and shared by the tests that read
    them."""
    out = {}
    for branches in FIVE_TABLES:
        p = make_poset(branches)
        start = time.monotonic()
        table = generate_table(p)
        seconds = time.monotonic() - start
        raw = {r.dim: derive_conditions(p, r.dim)[0] for r in table.rows}
        out[branches] = GeneratedTable(table, raw, seconds)
    return out
