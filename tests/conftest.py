from pathlib import Path

import pytest

from eisenring import (
    INFINITY,
    CarrierKind,
    FiniteSemiring,
    builtin_semiring,
    enumerate_semirings,
    from_table,
    n3_saturating_table,
)

TABLES_DIR = Path(__file__).resolve().parent.parent / "tables"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def single_cell_mutations(fs):
    """Every table that differs from fs in exactly one cell of its add or
    mul table: ``(which, i, j, v, mutated)`` with cell (i, j) of the
    ``which`` table set to v."""
    n = fs.order
    for which in ("add", "mul"):
        source = fs.add_table if which == "add" else fs.mul_table
        for i in range(n):
            for j in range(n):
                for v in range(n):
                    if v == source[i][j]:
                        continue
                    table = [list(row) for row in source]
                    table[i][j] = v
                    table = tuple(tuple(row) for row in table)
                    yield which, i, j, v, FiniteSemiring(
                        n,
                        fs.element_names,
                        table if which == "add" else fs.add_table,
                        fs.mul_table if which == "add" else table,
                    )


def table_fact_inputs():
    """The 44 enumerated tables of order 2..4 and every single-cell
    mutation of those of order <= 3."""
    for order in (2, 3, 4):
        for fs in enumerate_semirings(order):
            yield fs
            if order < 4:
                yield from (m for *_, m in single_cell_mutations(fs))


def sample_values(S, bound):
    """Raw values of S with magnitude <= bound, and inf on tropical-min;
    every element of a finite carrier."""
    if S.kind is CarrierKind.FINITE:
        return list(range(S.table.order))
    vals = list(range(bound + 1))
    if S.kind is CarrierKind.TROPICAL_MIN:
        vals.append(INFINITY)
    return vals


@pytest.fixture(scope="session")
def nat():
    return builtin_semiring("nat")


@pytest.fixture(scope="session")
def boolean():
    return builtin_semiring("bool")


@pytest.fixture(scope="session")
def tropical():
    return builtin_semiring("tropical-min")


@pytest.fixture(scope="session")
def gcdnat():
    return builtin_semiring("gcd-nat")


@pytest.fixture(scope="session")
def n3():
    return from_table(n3_saturating_table(), name="n3")


@pytest.fixture(scope="session")
def nilpotent3():
    """An order-3 semiring with a zero divisor (some nonzero a has a*a = 0),
    pulled deterministically from the enumeration stream."""
    for fs in enumerate_semirings(3):
        S = from_table(fs)
        if not S.flags.is_entire:
            return S
    raise RuntimeError("no non-entire order-3 semiring found")


@pytest.fixture(scope="session")
def tables_dir():
    return TABLES_DIR
