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


def _composition_failure(cayley, rows):
    """The first (g, h, x) in lexicographic order with
    rows[g h][x] != rows[g][rows[h][x]], or None: the left-action law of
    the rows under the product cayley[g][h]. A group's associativity is it
    for the left regular action (rows = cayley), a binary action's axiom
    (1) is it on pairs of points. The rows are tuples of one length m with
    values in 0..m-1; for m = 1 every value is 0 and the law holds.
    getters[h](row) is row o rows[h], built at its final length, so it
    reuses the tuple free list instead of parking grown tuples there."""
    if len(rows[0]) == 1:  # itemgetter of one index returns an int, not a tuple
        return None
    getters = [operator.itemgetter(*row) for row in rows]
    for g, row_g in enumerate(rows):
        cg = cayley[g]
        for h, get in enumerate(getters):
            want = rows[cg[h]]
            got = get(row_g)
            if got != want:
                return g, h, next(x for x, (u, v) in enumerate(zip(want, got)) if u != v)
    return None


# how a value class's __init__ stores its fields: the attributes stay in the
# instance's inline values, where __dict__.update would give every instance
# a dict of its own (248 bytes in place of 104 for three fields, Python 3.11)
_set = object.__setattr__


class _Value:
    """Base of binact's immutable value classes, written out rather than
    made frozen dataclasses, whose methods are generated and exec()ed at
    every import. A subclass names its fields in _fields, in constructor
    order, and a field's default is a class attribute, as a dataclass's
    is. The records binact builds and returns take their fields through
    __init__ here; the classes callers build, some thousands per sweep,
    write their own, which keeps their signatures and skips the generic
    argument handling. Both store each field with _set. Equality (same
    class, equal fields), the hash and the repr Name(field=value, ...) go
    by the fields, and no attribute can be set or deleted. pickle, copy
    and cached_property write to __dict__ directly, so they keep working;
    __slots__ would break them."""

    def __init__(self, *args, **kwargs):
        """The fields by position or by name; one given neither way takes
        its default. Any other call raises TypeError."""
        cls = self.__class__
        values = dict(zip(cls._fields, args))
        if len(args) > len(cls._fields) or values.keys() & kwargs or kwargs.keys() - cls._fields:
            raise TypeError(f"{cls.__qualname__}() takes each of {', '.join(cls._fields)} "
                            "at most once, by position or by name")
        values.update(kwargs)
        for name in cls._fields:
            value = values.get(name, getattr(cls, name, _set))  # _set: no default
            if value is _set:
                raise TypeError(f"{cls.__qualname__}() missing field {name!r}")
            _set(self, name, value)

    def __init_subclass__(cls):
        cls._key = operator.attrgetter(*cls._fields)  # the tuple of the fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class BinaryOp(_Value):
    """A map X x X -> X stored as rows indexed by the first argument."""

    _fields = ("size", "table")

    def __init__(self, size: int, table: tuple[tuple[int, ...], ...]):
        _set(self, "size", size)
        _set(self, "table", table)

    def __call__(self, t: int, x: int) -> int:
        return self.table[t][x]

    def row(self, t: int) -> tuple[int, ...]:
        return self.table[t]


def _int_table(table, error, depth: int, lead: int | None = None, name: str = "table"):
    """A depth-2 or depth-3 table of integers as nested tuples, and its m.

    The entries are read by _ints, so a row given as a string or a mapping
    is refused. The first axis has length lead, or is square when lead is
    None; every other axis has length m; every entry lies in 0..m-1.
    Otherwise error, the caller's exception class, names the first
    offending index and value. The range check is its own, not _ints'
    bounded one: its message names the entry's position, entry
    table[i][j] = v out of range 0..m-1.
    """
    out = _ints(table, error, name, depth)
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


def _int(value, error, at: str, below: int | None = None) -> int:
    """A number read from outside as an int; strings, floats and bools are
    refused. Given below, the int must also lie in 0..below-1, as an index
    does."""
    try:
        if type(value) is bool:
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise error(f"{at} = {value!r} is not an integer") from None
    if below is not None and not 0 <= value < below:
        raise error(f"{at} {value} out of range 0..{below - 1}")
    return value


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


def _ints(values, error, at: str, depth: int = 1, below: int | None = None,
          kind: str = "point") -> tuple:
    """A list (depth 1) or a table (depth 2 or 3) of integers read from
    outside as nested tuples of ints, refused like _int. Given below, a
    list's entries, once all are read, must lie in 0..below-1; the first
    that does not is named as a kind."""
    if depth > 1:
        return tuple([_ints(v, error, f"{at}[{i}]", depth - 1)
                      for i, v in enumerate(_list(values, error, at))])
    out = None
    if isinstance(values, (list, tuple)) and bool not in map(type, values):
        try:  # operator.index would read a bool as 0 or 1
            out = tuple(map(operator.index, values))
        except TypeError:
            pass  # the loop below names the first entry that is not an integer
    if out is None:
        out = tuple([_int(v, error, f"{at}[{i}]") for i, v in enumerate(_list(values, error, at))])
    if below is not None:
        for v in out:
            if not 0 <= v < below:
                raise error(f"{kind} {v} out of range 0..{below - 1}")
    return out


def _int_map(f, n: int, m: int, error) -> tuple[int, ...]:
    """A map from n points to m points, read like _ints and checked for
    its length and range. Its range error is not _ints' bounded one: the
    message "map has an out-of-range value" is part of the interface."""
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
    size = _invertible_size(size, cap)
    perms = sorted(itertools.permutations(range(size)))
    return tuple(
        BinaryOp(size=size, table=rows)
        for rows in itertools.product(perms, repeat=size)
    )


def _invertible_size(size, cap) -> int:
    """The size read like _size, or CapExceeded past the cap read like _int."""
    size = _size(size, "carrier size")
    cap = _int(cap, MalformedTable, "cap")
    if size > cap:
        raise CapExceeded(size, cap)
    return size


def invertible_group_order(size: int, cap: int = DEFAULT_INVERTIBLE_CAP) -> int:
    """(size!)^size, the order of invertible_group(size, cap), under the
    same size checks but without building a single operation."""
    size = _invertible_size(size, cap)
    return math.factorial(size) ** size


def invertible_group_digits(size: int, cap: int = DEFAULT_INVERTIBLE_CAP) -> int:
    """The number of decimal digits of invertible_group_order(size, cap),
    under the same checks, read off v = size log10(size!) without taking
    the power. v is within a few units in its last place, far below
    1e-14 v; only when it lies that close to an integer k is the power
    taken, to compare it with 10^k exactly."""
    size = _invertible_size(size, cap)
    f = math.factorial(size)
    v = size * math.log10(f)
    k = round(v)
    if abs(v - k) > 1e-14 * v + 1e-9:
        return math.floor(v) + 1
    return k + (f ** size >= 10 ** k)


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
