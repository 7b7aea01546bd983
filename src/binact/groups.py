"""Finite groups as validated Cayley tables with 0-based element indices.

All algebra works on dense indices 0..order-1; human-facing element names
only ride along in the optional ``labels`` field.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import time
from typing import Iterable, Sequence

from .binops import _Value, _set, _composition_failure, _int, _int_table, _ints, _list, _size
from .errors import (
    CapExceeded,
    MalformedTable,
    NoIdentity,
    NoInverse,
    NotASubgroup,
    NotAssociative,
    _BudgetStop,
)


class FiniteGroup(_Value):
    """Group given by its Cayley table; construct through make_group.

    Element arithmetic is index arithmetic: mul(a, b) = cayley[a][b].
    Instances are immutable, hashable, and safe to share.
    """

    _fields = ("order", "cayley", "identity", "inverse", "name", "labels")
    name = "G"
    labels = None

    def __init__(self, order: int, cayley: tuple[tuple[int, ...], ...], identity: int,
                 inverse: tuple[int, ...], name: str = name,
                 labels: tuple[str, ...] | None = labels):
        _set(self, "order", order)
        _set(self, "cayley", cayley)
        _set(self, "identity", identity)
        _set(self, "inverse", inverse)
        _set(self, "name", name)
        _set(self, "labels", labels)

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels is not None else str(a)

    def __repr__(self) -> str:  # tables get long, keep reprs short
        return f"FiniteGroup({self.name!r}, order={self.order})"


def make_group(cayley, name: str = "G", labels: Sequence[str] | None = None) -> FiniteGroup:
    """Validate a Cayley table and return the group it defines.

    Checks run in a fixed order: table shape, two-sided identity,
    associativity (first violating triple reported), two-sided inverses
    (the first element without one reported).

    The identity is the first row equal to 0..n-1, kept only if its column
    is 0..n-1 too. A left identity e equals any two-sided identity f, as
    e = e f = f; so when the first left identity is not two-sided, there
    is no two-sided identity at all.

    The inverse of a is the b with a b = e, found in row a. Once the table
    is associative, such a b is two-sided: x -> a x is onto, as
    a (b y) = y, hence one to one on the finite carrier, and
    a (b a) = (a b) a = a e gives b a = e. So an a whose row lacks e has
    no inverse, and one whose row holds e holds it once.
    """
    table, n = _int_table(cayley, MalformedTable, 2, name="cayley")

    ident = tuple(range(n))
    identity = table.index(ident) if ident in table else None
    if identity is None or tuple([row[identity] for row in table]) != ident:
        raise NoIdentity()

    triple = _composition_failure(table, table)
    if triple is not None:
        raise NotAssociative(*triple)

    inverse = []
    for a, row in enumerate(table):
        if identity not in row:
            raise NoInverse(a)
        inverse.append(row.index(identity))

    if labels is not None:
        labels = tuple(str(s) for s in _list(labels, MalformedTable, "labels"))
        if len(labels) != n:
            raise MalformedTable(f"got {len(labels)} labels for {n} elements")

    return FiniteGroup(
        order=n,
        cayley=table,
        identity=identity,
        inverse=tuple(inverse),
        name=name,
        labels=labels,
    )


def element_order(g: FiniteGroup, a: int) -> int:
    a = _int(a, MalformedTable, "element", g.order)
    n = 1
    x = a
    while x != g.identity:
        x = g.mul(x, a)
        n += 1
    return n


def is_abelian(g: FiniteGroup) -> bool:
    return all(
        g.cayley[a][b] == g.cayley[b][a]
        for a in g.elements()
        for b in range(a)
    )


def subgroup_closure(g: FiniteGroup, generators: Iterable[int]) -> frozenset[int]:
    """Smallest subgroup containing the generators: the identity grown by
    right multiplication by them. In a finite group the powers of a reach
    its inverse, so no inverses are taken."""
    gens = _ints(generators, MalformedTable, "generators", below=g.order, kind="generator")
    members = {g.identity}
    queue = [g.identity]
    for x in queue:
        for a in gens:
            y = g.cayley[x][a]
            if y not in members:
                members.add(y)
                queue.append(y)
    return frozenset(members)


@functools.lru_cache(maxsize=16)
def greedy_generators(g: FiniteGroup) -> tuple[int, ...]:
    """Generating set built greedily: repeatedly adjoin the smallest element
    not yet generated. Small in practice, deterministic always; kept for
    the last few groups, because every distributivity scan reads it."""
    gens: list[int] = []
    closed = subgroup_closure(g, gens)
    while len(closed) < g.order:
        gens.append(min(x for x in g.elements() if x not in closed))
        closed = subgroup_closure(g, gens)
    return tuple(gens)


def restrict(g: FiniteGroup, members: Iterable[int], name: str | None = None):
    """Re-index a subgroup densely as 0..|H|-1.

    Returns (subgroup, embedding) where embedding[i] is the index in g of
    the subgroup element i. Raises NotASubgroup when members is not closed.
    """
    mem = sorted(set(_ints(members, MalformedTable, "members", below=g.order, kind="member")))
    memset = set(mem)
    if not mem or subgroup_closure(g, mem) != memset:
        raise NotASubgroup(mem)
    index_of = {a: i for i, a in enumerate(mem)}
    cayley = tuple(tuple(index_of[g.cayley[a][b]] for b in mem) for a in mem)
    labels = tuple(g.label(a) for a in mem) if g.labels is not None else None
    sub = make_group(cayley, name=name or f"{g.name}-sub{len(mem)}", labels=labels)
    return sub, tuple(mem)


def all_subgroups(g: FiniteGroup, deadline: float = math.inf) -> list[frozenset[int]]:
    """Every subgroup of g as an element set, sorted by (size, members).

    Each subgroup found keeps one generating tuple and is grown by one
    element a per left coset a H outside it: for h in H, the closure of
    H and a equals the closure of H and a h. Given a finite deadline,
    every 1024th closure reads the clock and raises _BudgetStop once it
    has passed; the default reads no clock."""
    seen = {frozenset({g.identity})}
    frontier = [((), frozenset({g.identity}))]
    closures = 0
    while frontier:
        gens, base = frontier.pop()
        covered = set(base)
        for a in g.elements():
            if a in covered:
                continue
            covered.update(g.cayley[a][h] for h in base)
            grown = subgroup_closure(g, (*gens, a))
            closures += 1
            if closures % 1024 == 0 and deadline < math.inf and time.monotonic() > deadline:
                raise _BudgetStop()
            if grown not in seen:
                seen.add(grown)
                frontier.append(((*gens, a), grown))
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


# --- catalog -----------------------------------------------------------------

# Largest group order builtin_group builds: make_group's associativity check
# is cubic in the order: 0.05 s at 128 and 0.4 s at 256 (2 cores, Python 3.11).
CATALOG_ORDER_CAP = 128


def _check_catalog_order(order: int) -> None:
    if order > CATALOG_ORDER_CAP:
        raise CapExceeded(order, CATALOG_ORDER_CAP, "catalog group order")


def cyclic(n: int) -> FiniteGroup:
    n = _size(n, "cyclic group order")
    cayley = [[(a + b) % n for b in range(n)] for a in range(n)]
    return make_group(cayley, name=f"Z{n}", labels=[str(a) for a in range(n)])


def _cycle_label(p: tuple[int, ...]) -> str:
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        parts.append("(" + "".join(str(i + 1) for i in cyc) + ")")
    return "".join(parts) if parts else "e"


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n points; elements are the n! permutations in lex order."""
    n = _int(n, MalformedTable, "symmetric group n")
    if not 1 <= n <= 4:
        raise MalformedTable("symmetric(n) supported for 1 <= n <= 4")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # product p*q applies q first: (p*q)(i) = p(q(i))
    cayley = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    return make_group(cayley, name=f"S{n}", labels=[_cycle_label(p) for p in perms])


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of a regular n-gon, order 2n; x -> sx + k mod n with s = +-1."""
    n = _size(n, "dihedral group n")

    def mul(e1, e2):
        j1, k1 = divmod(e1, n)
        j2, k2 = divmod(e2, n)
        s1 = -1 if j1 else 1
        return (j1 ^ j2) * n + (s1 * k2 + k1) % n

    cayley = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    labels = [f"r{k}" for k in range(n)] + [f"sr{k}" for k in range(n)]
    return make_group(cayley, name=f"D{n}", labels=labels)


def quaternion_group() -> FiniteGroup:
    """The quaternion group of order 8: +-1, +-i, +-j, +-k."""

    def mul(e1, e2):
        # 2a + s is (-1)^s times unit a of (1, i, j, k); units multiply as
        # a ^ b, negated when a == b != 0 and for ji, kj and ik
        a, s1 = divmod(e1, 2)
        b, s2 = divmod(e2, 2)
        return (a ^ b) * 2 + (s1 ^ s2 ^ (a == b != 0 or (a, b) in ((2, 1), (3, 2), (1, 3))))

    cayley = [[mul(a, b) for b in range(8)] for a in range(8)]
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return make_group(cayley, name="Q8", labels=labels)


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Componentwise product; pair (a, b) is encoded as a * g2.order + b."""
    n2 = g2.order
    order = g1.order * n2

    def mul(e1, e2):
        a1, b1 = divmod(e1, n2)
        a2, b2 = divmod(e2, n2)
        return g1.mul(a1, a2) * n2 + g2.mul(b1, b2)

    cayley = [[mul(a, b) for b in range(order)] for a in range(order)]
    labels = [
        f"({g1.label(a)},{g2.label(b)})"
        for a in range(g1.order)
        for b in range(n2)
    ]
    return make_group(cayley, name=name or f"{g1.name}x{g2.name}", labels=labels)


def klein_four() -> FiniteGroup:
    return direct_product(cyclic(2), cyclic(2), name="K4")


def builtin_group(name: str) -> FiniteGroup:
    """Resolve a catalog name such as z6, s3, k4, d4, q8, or a product z4xz2.

    Raises CapExceeded before building any table whose group order would
    pass CATALOG_ORDER_CAP; a product is refused as soon as the factors
    built so far pass it.
    """
    if not isinstance(name, str):
        raise MalformedTable(f"group name {name!r} is not a string")
    key = name.strip().lower()
    parts = key.split("x")
    if len(parts) > 1:
        groups = []
        for part in parts:
            groups.append(builtin_group(part))
            _check_catalog_order(math.prod(g.order for g in groups))
        out = groups[0]
        for g in groups[1:]:
            out = direct_product(out, g)
        return out
    if key == "k4":
        return klein_four()
    if key == "q8":
        return quaternion_group()
    m = re.fullmatch(r"([zsd])0*(\d+)", key)
    if not m:
        raise MalformedTable(f"unknown group name {name!r}")
    kind, digits = m.groups()
    try:
        n = int(digits)
    except ValueError:  # past the int-to-str digit limit, so past every cap
        if kind == "s":
            raise MalformedTable("symmetric(n) supported for 1 <= n <= 4") from None
        raise CapExceeded(f"of {len(digits)}+ digits", CATALOG_ORDER_CAP,
                          "catalog group order") from None
    if kind == "s":
        return symmetric(n)
    _check_catalog_order(n if kind == "z" else 2 * n)
    return cyclic(n) if kind == "z" else dihedral(n)


# --- serialization -----------------------------------------------------------

def group_to_json(g: FiniteGroup) -> dict:
    out = {"name": g.name, "cayley": [list(row) for row in g.cayley]}
    if g.labels is not None:
        out["labels"] = list(g.labels)
    return out


def group_from_json(data: dict) -> FiniteGroup:
    if not isinstance(data, dict) or "cayley" not in data:
        raise MalformedTable("group record must be an object with a 'cayley' field")
    return make_group(
        data["cayley"],
        name=str(data.get("name", "G")),
        labels=data.get("labels"),
    )
