"""Finite groups as validated Cayley tables with 0-based element indices.

All algebra works on dense indices 0..order-1; human-facing element names
only ride along in the optional ``labels`` field.
"""

from __future__ import annotations

import itertools
import math
import re
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .binops import _int, _int_table, _ints, _list, _size
from .errors import (
    CapExceeded,
    MalformedTable,
    NoIdentity,
    NoInverse,
    NotASubgroup,
    NotAssociative,
    _BudgetStop,
)


@dataclass(frozen=True)
class FiniteGroup:
    """Group given by its Cayley table; construct through make_group.

    Element arithmetic is index arithmetic: mul(a, b) = cayley[a][b].
    Instances are immutable, hashable, and safe to share.
    """

    order: int
    cayley: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    name: str = "G"
    labels: tuple[str, ...] | None = None

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
    associativity (first violating triple reported), two-sided inverses.
    """
    table, n = _int_table(cayley, MalformedTable, 2, name="cayley")

    identity = None
    for e in range(n):
        if all(table[e][a] == a and table[a][e] == a for a in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity()

    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            row_a = table[a]
            for c in range(n):
                if table[ab][c] != row_a[table[b][c]]:
                    raise NotAssociative(a, b, c)

    inverse = []
    for a in range(n):
        found = None
        for b in range(n):
            if table[a][b] == identity and table[b][a] == identity:
                found = b
                break
        if found is None:
            raise NoInverse(a)
        inverse.append(found)

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
    a = _int(a, MalformedTable, "element")
    if not 0 <= a < g.order:
        raise MalformedTable(f"element {a} out of range 0..{g.order - 1}")
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
    gens = _ints(generators, MalformedTable, "generators")
    for a in gens:
        if not 0 <= a < g.order:
            raise MalformedTable(f"generator {a} out of range 0..{g.order - 1}")
    members = {g.identity}
    queue = [g.identity]
    for x in queue:
        for a in gens:
            y = g.cayley[x][a]
            if y not in members:
                members.add(y)
                queue.append(y)
    return frozenset(members)


def restrict(g: FiniteGroup, members: Iterable[int], name: str | None = None):
    """Re-index a subgroup densely as 0..|H|-1.

    Returns (subgroup, embedding) where embedding[i] is the index in g of
    the subgroup element i. Raises NotASubgroup when members is not closed.
    """
    mem = sorted(set(members))
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
# is cubic in the order, about 0.15 s at 128 and over a second at 256.
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
    # axis products for 1, i, j, k as (sign, axis)
    prod = {}
    for a in range(4):
        prod[(0, a)] = (1, a)
        prod[(a, 0)] = (1, a)
    for a in (1, 2, 3):
        prod[(a, a)] = (-1, 0)
    prod[(1, 2)] = (1, 3)
    prod[(2, 1)] = (-1, 3)
    prod[(2, 3)] = (1, 1)
    prod[(3, 2)] = (-1, 1)
    prod[(3, 1)] = (1, 2)
    prod[(1, 3)] = (-1, 2)

    def mul(e1, e2):
        a, s1 = divmod(e1, 2)
        b, s2 = divmod(e2, 2)
        sign, axis = prod[(a, b)]
        neg = (s1 + s2 + (1 if sign < 0 else 0)) % 2
        return axis * 2 + neg

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
    m = re.fullmatch(r"z(\d+)", key)
    if m:
        _check_catalog_order(int(m.group(1)))
        return cyclic(int(m.group(1)))
    m = re.fullmatch(r"s(\d+)", key)
    if m:
        return symmetric(int(m.group(1)))
    m = re.fullmatch(r"d(\d+)", key)
    if m:
        _check_catalog_order(2 * int(m.group(1)))
        return dihedral(int(m.group(1)))
    raise MalformedTable(f"unknown group name {name!r}")


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
