"""Binary operations on a finite carrier and their star-composition monoid.

A binary operation f maps pairs (x, x') to f(x, x'); table[t] is the row
map f_t = f(t, -). Star composition (f * phi)(x, x') = f(x, phi(x, x'))
composes row maps pointwise, so f is invertible exactly when every row
map is a bijection, and the invertible operations form a group of order
(n!)^n on a carrier of size n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import CapExceeded, CarrierMismatch, MalformedTable, NotInvertible

DEFAULT_INVERTIBLE_CAP = 4


# --- small permutation helpers (rows of invertible operations) ---------------

def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))

def compose_perm(p, q) -> tuple[int, ...]:
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(q)))

def invert_perm(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)

def is_perm(seq) -> bool:
    return sorted(seq) == list(range(len(seq)))


@dataclass(frozen=True)
class BinaryOp:
    """A map X x X -> X stored as rows indexed by the first argument."""

    size: int
    table: tuple[tuple[int, ...], ...]

    def __call__(self, t: int, x: int) -> int:
        return self.table[t][x]

    def row(self, t: int) -> tuple[int, ...]:
        return self.table[t]


def make_binary_op(table) -> BinaryOp:
    try:
        rows = tuple(tuple(int(v) for v in row) for row in table)
    except TypeError as exc:
        raise MalformedTable(f"operation table is not a table of integers: {exc}") from None
    n = len(rows)
    if n == 0:
        raise MalformedTable("operation table must be non-empty")
    for t, row in enumerate(rows):
        if len(row) != n:
            raise MalformedTable(f"row {t} has length {len(row)}, expected {n}")
        for x, v in enumerate(row):
            if not 0 <= v < n:
                raise MalformedTable(f"entry table[{t}][{x}] = {v} out of range 0..{n - 1}")
    return BinaryOp(size=n, table=rows)


def identity_op(size: int) -> BinaryOp:
    """The star identity e(x, x') = x'."""
    if size < 1:
        raise MalformedTable("carrier size must be >= 1")
    row = tuple(range(size))
    return BinaryOp(size=size, table=tuple(row for _ in range(size)))


def star(f: BinaryOp, phi: BinaryOp) -> BinaryOp:
    """(f * phi)(x, x') = f(x, phi(x, x'))."""
    if f.size != phi.size:
        raise CarrierMismatch(f.size, phi.size)
    table = tuple(
        tuple(f.table[x][v] for v in phi.table[x])
        for x in range(f.size)
    )
    return BinaryOp(size=f.size, table=table)


def is_invertible(f: BinaryOp) -> bool:
    return all(is_perm(row) for row in f.table)


def try_invert(f: BinaryOp) -> BinaryOp:
    """Two-sided star-inverse of f, or NotInvertible naming the smallest bad row.

    f is invertible iff every row map f_t is a bijection; the inverse simply
    inverts each row in place.
    """
    for t, row in enumerate(f.table):
        if not is_perm(row):
            raise NotInvertible(t)
    return BinaryOp(size=f.size, table=tuple(invert_perm(row) for row in f.table))


def invertible_group(size: int, cap: int = DEFAULT_INVERTIBLE_CAP) -> tuple[BinaryOp, ...]:
    """All invertible operations on the carrier, in lexicographic table order.

    There are (size!)^size of them, hence the cap.
    """
    invertible_group_order(size, cap)  # refuses bad sizes before building anything
    perms = sorted(itertools.permutations(range(size)))
    return tuple(
        BinaryOp(size=size, table=rows)
        for rows in itertools.product(perms, repeat=size)
    )


def invertible_group_order(size: int, cap: int = DEFAULT_INVERTIBLE_CAP) -> int:
    """(size!)^size, the order of invertible_group(size, cap), under the
    same size checks but without building a single operation."""
    if size < 1:
        raise MalformedTable("carrier size must be >= 1")
    if size > cap:
        raise CapExceeded(size, cap)
    return math.factorial(size) ** size


# --- serialization -----------------------------------------------------------

def op_to_json(f: BinaryOp) -> dict:
    return {"size": f.size, "table": [list(row) for row in f.table]}


def op_from_json(data: dict) -> BinaryOp:
    if not isinstance(data, dict) or "table" not in data:
        raise MalformedTable("operation record must be an object with a 'table' field")
    f = make_binary_op(data["table"])
    if "size" in data and int(data["size"]) != f.size:
        raise MalformedTable(f"declared size {data['size']} does not match table size {f.size}")
    return f
