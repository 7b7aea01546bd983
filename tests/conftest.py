import pytest

from binact import (
    builtin_group,
    from_ordinary,
    make_ordinary_action,
    validate_action,
)
from binact import orbits


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Every test starts with no action records, so no verdict, and no
    last model, is carried from one test into another, for example past a
    monkeypatched is_distributive or continuity scan."""
    orbits._record.cache_clear()


@pytest.fixture(scope="session")
def z2():
    return builtin_group("z2")


@pytest.fixture(scope="session")
def z3():
    return builtin_group("z3")


@pytest.fixture(scope="session")
def k4():
    return builtin_group("k4")


@pytest.fixture(scope="session")
def s3():
    return builtin_group("s3")


@pytest.fixture(scope="session")
def groups_le6():
    """One group per isomorphism class of order at most 6."""
    return [builtin_group(n) for n in ("z1", "z2", "z3", "z4", "k4", "z5", "z6", "s3")]


@pytest.fixture(scope="session")
def groups_le8(groups_le6):
    """Extends the order-6 catalog with one group per class of order 7 and 8."""
    extra = ["z7", "z8", "z4xz2", "z2xz2xz2", "d4", "q8"]
    return groups_le6 + [builtin_group(n) for n in extra]


@pytest.fixture(scope="session")
def xor_action(z2):
    """The swap action of Z2 on two points, embedded as a binary action."""
    return from_ordinary(make_ordinary_action(z2, ((0, 1), (1, 0))))


@pytest.fixture(scope="session")
def mixed_action(z2):
    # rows (identity, swap) under the nonidentity element: a valid binary
    # action that is not distributive and whose orbits nest properly
    return validate_action(z2, (((0, 1), (0, 1)), ((0, 1), (1, 0))))
