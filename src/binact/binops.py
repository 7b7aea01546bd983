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
import operator
from collections.abc import Mapping
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


def _int_table(table, error, depth: int, lead: int | None = None, name: str = "table"):
    """A depth-2 or depth-3 table of integers as nested tuples, and its m.

    The first axis has length lead, or is square when lead is None; every
    other axis has length m; every entry lies in 0..m-1. Otherwise error,
    the caller's exception class, names the first offending index and value.
    """
    try:
        if depth == 2:
            out = tuple([tuple(map(operator.index, row)) for row in table])
        else:
            out = tuple([tuple([tuple(map(operator.index, row)) for row in sl]) for sl in table])
    except TypeError:
        _ints(table, error, name, depth)
        raise error(f"{name} is not a table of integers") from None
    n = len(out)
    if lead is not None and n != lead:
        raise error(f"{name} has length {n}, expected {lead}")
    if not n or not out[0]:
        raise error(f"{name} must be non-empty")
    m = n if lead is None else len(out[0])
    if depth == 2:
        rows = out
    else:
        for g, sl in enumerate(out):
            if len(sl) != m:
                raise error(f"{name}[{g}] has length {len(sl)}, expected {m}")
        rows = [row for sl in out for row in sl]
    if set(map(len, rows)) != {m} or min(map(min, rows)) < 0 or max(map(max, rows)) >= m:
        for k, row in enumerate(rows):
            at = f"{name}[{k}]" if depth == 2 else "%s[%d][%d]" % (name, *divmod(k, m))
            if len(row) != m:
                raise error(f"{at} has length {len(row)}, expected {m}")
            for x, v in enumerate(row):
                if not 0 <= v < m:
                    raise error(f"entry {at}[{x}] = {v} out of range 0..{m - 1}")
    return out, m


def _int(value, error, at: str) -> int:
    """A number read from outside as an int; strings and floats are refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{at} = {value!r} is not an integer") from None


def _size(value, at: str) -> int:
    """A size read from outside like _int, and at least 1, or MalformedTable."""
    value = _int(value, MalformedTable, at)
    if value < 1:
        raise MalformedTable(f"{at} must be >= 1")
    return value


def _list(values, error, at: str) -> list:
    """A list read from outside; a string, bytes, a mapping or a value that
    is not iterable is refused rather than split into its characters or
    keys."""
    if not isinstance(values, (str, bytes, Mapping)):
        try:
            return list(values)
        except TypeError:
            pass
    raise error(f"{at} = {values!r} is not a list")


def _ints(values, error, at: str, depth: int = 1) -> tuple:
    """A list (depth 1) or a table (depth 2 or 3) of integers read from
    outside as nested tuples of ints, refused like _int."""
    if depth == 1 and isinstance(values, (list, tuple)):
        try:
            return tuple(map(operator.index, values))
        except TypeError:
            pass  # the loop below names the first entry that is not an integer
    items = _list(values, error, at)
    if depth == 1:
        return tuple([_int(v, error, f"{at}[{i}]") for i, v in enumerate(items)])
    return tuple([_ints(v, error, f"{at}[{i}]", depth - 1) for i, v in enumerate(items)])


def _int_map(f, n: int, m: int, error) -> tuple[int, ...]:
    """A map from n points to m points, read like _ints and checked for
    its length and range."""
    mapping = _ints(f, error, "map")
    if len(mapping) != n:
        raise error(f"map has length {len(mapping)}, expected {n}")
    if any(not 0 <= v < m for v in mapping):
        raise error("map has an out-of-range value")
    return mapping


def make_binary_op(table) -> BinaryOp:
    rows, n = _int_table(table, MalformedTable, 2)
    return BinaryOp(size=n, table=rows)


def identity_op(size: int) -> BinaryOp:
    """The star identity e(x, x') = x'."""
    size = _size(size, "carrier size")
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
    size = _size(size, "carrier size")
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
    if "size" in data and _int(data["size"], MalformedTable, "size") != f.size:
        raise MalformedTable(f"declared size {data['size']} does not match table size {f.size}")
    return f
