from pathlib import Path

import pytest

from eisenring import (
    INFINITY,
    CarrierKind,
    builtin_semiring,
    enumerate_semirings,
    from_table,
    n3_saturating_table,
)

TABLES_DIR = Path(__file__).resolve().parent.parent / "tables"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


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
