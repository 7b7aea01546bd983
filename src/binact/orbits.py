"""Orbits, bi-invariant sets, and orbit spaces of binary actions.

For subsets A, B and a set of group elements K,
    K(A, B) = { g(a, b) : g in K, a in A, b in B }.
A is bi-invariant when G(A, A) = A. The orbit of x is the smallest
bi-invariant set containing x; for distributive actions it equals
G({x}, {x}) and the orbits partition the carrier, which is what makes
the orbit space well defined. Non-distributive actions can have
properly nested orbits; see the witness miner in the search module.

Each image set of a subset A has one implementation, a lazily filled
table: UnionTable(values)[A] is the OR of values[x] over the points x of
A, which is the saturation G(A) with the orbits as values
(OrbitSpace.saturated) and the projection pi(A) with the classes
(OrbitSpace.projected), and SquareTable(image_table(a))[A] is G(A, A). An
entry is filled in on first use and is the only one stored, so a table
holds the sets asked of it, never all 2^m subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Sequence

from .actions import BinaryAction, is_biequivariant, is_distributive
from .binops import _int, _int_map, _ints, identity_perm
from .errors import (
    IllDefined,
    LawViolated,
    MalformedTable,
    NotBiequivariant,
    NotBijective,
    NotDistributive,
    PartitionViolation,
    ShapeMismatch,
)


def mask_of(points: Iterable[int], carrier_size: int) -> int:
    mask = 0
    for p in _ints(points, MalformedTable, "points"):
        if not 0 <= p < carrier_size:
            raise MalformedTable(f"point {p} out of range 0..{carrier_size - 1}")
        mask |= 1 << p
    return mask


def points_of(mask: int) -> list[int]:
    if mask < 0:
        raise MalformedTable(f"bitmask {mask} is negative")
    out = []
    while mask:
        low = mask & -mask  # the least point left
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def k_mask(a: BinaryAction, K: Iterable[int], A: Sequence[int], B: Sequence[int]) -> int:
    """K(A, B) = {g(x, y) : g in K, x in A, y in B} as a bitmask.

    Every image set is formed in this module, by this primitive or from
    image_table, its values on pairs of points: orbits G({x}, {x}), and
    through the tables below saturations K(A) = union over x in A of
    K({x}, {x}) and G(A, A). A and B are iterated once per element of K.
    """
    t = a.table
    mask = 0
    for g in K:
        tg = t[g]
        for x in A:
            row = tg[x]
            for y in B:
                mask |= 1 << row[y]
    return mask


def image_table(a: BinaryAction) -> list[list[int]]:
    """images[x][y] = G({x}, {y}) as a bitmask, from one pass over the
    table; G(A, B) is the OR of images[x][y] over x in A and y in B."""
    m = a.carrier_size
    images = [[0] * m for _ in range(m)]
    for tg in a.table:
        for ix, row in zip(images, tg):
            for y, v in enumerate(row):
                ix[y] |= 1 << v
    return images


def k_orbits(a: BinaryAction, K: Iterable[int]) -> tuple[int, ...]:
    """K({x}, {x}) for every point x as a bitmask; for the whole group and
    a distributive action, the orbits."""
    K = tuple(K)
    return tuple([k_mask(a, K, (x,), (x,)) for x in range(a.carrier_size)])


class UnionTable(dict):
    """table[A] = the OR of values[x] over the points x of the bitmask A.

    A missing entry is filled in on first use, without recursion: A's least
    points are dropped, ORing in their values, until the set left is stored
    (the empty set always is), and its entry is ORed in. Only A is stored,
    so the table holds the empty set and the sets asked of it.
    """

    __slots__ = ("values",)

    def __init__(self, values: Sequence[int]):
        super().__init__({0: 0})
        self.values = values

    def __missing__(self, mask: int) -> int:
        values = self.values
        out = 0
        rest = mask
        while rest not in self:
            low = rest & -rest
            out |= values[low.bit_length() - 1]
            rest ^= low
        out |= self[rest]
        self[mask] = out
        return out


class SquareTable(dict):
    """table[A] = G(A, A) for the bitmask A, read off image_table.

    With x the least point of A and R = A - {x}, the pairs of A are (x, x),
    (x, y) and (y, x) for y in R, and the pairs of R, so
    G(A, A) = images[x][x] | cross[x][R] | G(R, R), where cross[x] is the
    UnionTable of images[x][y] | images[y][x] over y. Entries are filled in
    as in UnionTable.
    """

    __slots__ = ("diagonal", "cross")

    def __init__(self, images: Sequence[Sequence[int]]):
        super().__init__({0: 0})
        self.diagonal = [ix[x] for x, ix in enumerate(images)]
        self.cross = [UnionTable([ix[y] | iy[x] for y, iy in enumerate(images)])
                      for x, ix in enumerate(images)]

    def __missing__(self, mask: int) -> int:
        diagonal, cross = self.diagonal, self.cross
        out = 0
        rest = mask
        while rest not in self:
            low = rest & -rest
            rest ^= low
            x = low.bit_length() - 1
            out |= diagonal[x] | cross[x][rest]
        out |= self[rest]
        self[mask] = out
        return out


def _in_range(values, n: int, at: str, kind: str) -> tuple[int, ...]:
    """Group elements or points read from outside, integers in 0..n-1, or ShapeMismatch."""
    out = _ints(values, ShapeMismatch, at)
    for v in out:
        if not 0 <= v < n:
            raise ShapeMismatch(f"{kind} {v} out of range 0..{n - 1}")
    return out


def k_set(a: BinaryAction, K: Iterable[int], A: Iterable[int], B: Iterable[int]) -> frozenset[int]:
    """K(A, B) = {g(x, y) : g in K, x in A, y in B}; empty inputs give empty output."""
    K = _in_range(K, a.group.order, "K", "group element")
    A = _in_range(A, a.carrier_size, "A", "point")
    B = _in_range(B, a.carrier_size, "B", "point")
    return frozenset(points_of(k_mask(a, K, A, B)))


def is_bi_invariant(a: BinaryAction, A: Iterable[int]) -> bool:
    s = frozenset(_in_range(A, a.carrier_size, "A", "point"))
    return k_set(a, a.group.elements(), s, s) == s


def bi_invariant_closure_trace(a: BinaryAction, x: int) -> list[frozenset[int]]:
    """Iterates S <- G(S, S) from {x} until stable; returns every stage.

    The iteration is monotone (axiom (2) keeps S inside G(S, S)) and
    stabilizes within |X| rounds, at the minimal bi-invariant superset.
    """
    x = _int(x, ShapeMismatch, "point")
    if not 0 <= x < a.carrier_size:
        raise ShapeMismatch(f"point {x} out of range 0..{a.carrier_size - 1}")
    return [frozenset(points_of(s)) for s in closure_masks(SquareTable(image_table(a)), 1 << x)]


def closure_masks(square: SquareTable, mask: int) -> list[int]:
    """The stages of S <- G(S, S) = square[S] from the bitmask S = mask until stable."""
    trace = [mask]
    while True:
        nxt = square[trace[-1]]
        if nxt == trace[-1]:
            return trace
        trace.append(nxt)


def minimal_bi_invariant(a: BinaryAction, x: int) -> frozenset[int]:
    """Smallest bi-invariant set containing x (defined for any action)."""
    return bi_invariant_closure_trace(a, x)[-1]


def _require_distributive(a: BinaryAction) -> None:
    witness = is_distributive(a)
    if witness is not True:
        raise NotDistributive(witness)


def orbit(a: BinaryAction, x: int) -> frozenset[int]:
    """The orbit G(x, x) of a distributive action."""
    _require_distributive(a)
    return k_set(a, a.group.elements(), (x,), (x,))


@dataclass(frozen=True)
class OrbitSpace:
    """The quotient of a distributive action: disjoint classes covering the
    carrier, ordered by smallest member, the projection map, and the orbit
    of each point as a bitmask. The saturation G(A) = saturated[A] and the
    projection pi(A) = projected[A] are UnionTables built on first use."""

    source: BinaryAction
    classes: tuple[tuple[int, ...], ...]
    projection: tuple[int, ...]
    orbit_masks: tuple[int, ...]

    def class_of(self, x: int) -> int:
        return self.projection[x]

    @cached_property
    def saturated(self) -> UnionTable:
        return UnionTable(self.orbit_masks)

    @cached_property
    def projected(self) -> UnionTable:
        return UnionTable([1 << c for c in self.projection])

    def project(self, mask: int) -> int:
        """The classes met by the bitmask, as a bitmask over class indices."""
        return self.projected[mask]


def orbit_space(a: BinaryAction) -> OrbitSpace:
    """Compute all orbits and verify they are pairwise disjoint or equal.

    A failed partition check raises PartitionViolation; for a distributive
    action that would mean an implementation bug, not bad input. The
    returned space is the proof that a is distributive: code holding it
    need not scan the law again.
    """
    _require_distributive(a)
    return _orbit_space(a)


def _orbit_space(a: BinaryAction) -> OrbitSpace:
    """orbit_space for an action already known to be distributive."""
    orbits = k_orbits(a, a.group.elements())
    for x in range(a.carrier_size):
        for y in range(x + 1, a.carrier_size):
            if orbits[x] & orbits[y] and orbits[x] != orbits[y]:
                raise PartitionViolation(x, y)
    # a point lies in its orbit, so an orbit first occurs at its least member
    index = {o: i for i, o in enumerate(dict.fromkeys(orbits))}
    return OrbitSpace(source=a, classes=tuple([tuple(points_of(o)) for o in index]),
                      projection=tuple([index[o] for o in orbits]), orbit_masks=orbits)


def delta(a: BinaryAction, g: int) -> tuple[int, ...]:
    """The diagonal map x -> g(x, x) of a distributive action.

    Verified to be a bijection whose inverse is the diagonal of g^-1;
    a failure raises NotBijective since it would contradict a theorem.
    """
    _require_distributive(a)
    g = _int(g, ShapeMismatch, "group element")
    if not 0 <= g < a.group.order:
        raise ShapeMismatch(f"group element {g} out of range 0..{a.group.order - 1}")
    return _diagonal(a, g)


def _diagonal(a: BinaryAction, g: int) -> tuple[int, ...]:
    """delta for an action already known to be distributive and an element
    known to be in range; the bijection is still verified: the diagonal of
    g^-1 must undo d at every point, which makes d one to one, hence a
    bijection of the finite carrier, with that diagonal as its inverse."""
    tg = a.table[g]
    tinv = a.table[a.group.inv(g)]
    d = tuple(tg[x][x] for x in range(a.carrier_size))
    for x, y in enumerate(d):
        if tinv[y][y] != x:
            raise NotBijective(g)
    return d


def induced_quotient_map(a: BinaryAction, b: BinaryAction, f) -> tuple[int, ...]:
    """The class map f*([x]) = [f(x)] induced by a biequivariant f.

    Well-definedness is re-verified member by member; a disagreement
    raises IllDefined, which for a biequivariant map between distributive
    actions would contradict a theorem.
    """
    return _induced_map(orbit_space(a), orbit_space(b), f)


def _induced_map(os_a: OrbitSpace, os_b: OrbitSpace, f) -> tuple[int, ...]:
    """induced_quotient_map given the verified orbit spaces of both
    actions; f is still checked for biequivariance."""
    a = os_a.source
    w = is_biequivariant(a, os_b.source, f)
    if w is not True:
        raise NotBiequivariant(w)
    mapping = _int_map(f, a.carrier_size, os_b.source.carrier_size, ShapeMismatch)
    out = []
    for members in os_a.classes:
        targets = [os_b.projection[mapping[x]] for x in members]
        for i in range(1, len(members)):
            if targets[i] != targets[0]:
                raise IllDefined(members[0], members[i])
        out.append(targets[0])
    return tuple(out)


@dataclass(frozen=True)
class CarrierMap:
    """A carrier map packaged with its source and target actions."""

    source: BinaryAction
    target: BinaryAction
    mapping: tuple[int, ...]


@dataclass(frozen=True)
class FunctorLawsReport:
    """What the functor-law check actually covered.

    identity_checks holds one entry per distinct action seen, as
    (action_index, class_count). composition_checks holds one entry per
    composable input pair, as (i, j) meaning maps[j] after maps[i].
    """

    identity_checks: tuple[tuple[int, int], ...]
    composition_checks: tuple[tuple[int, int], ...]


def functor_laws_check(maps: Sequence[CarrierMap]) -> FunctorLawsReport:
    """Verify that passing to orbit spaces is functorial on the given maps.

    Identity law: the identity carrier map induces the identity class map
    on every action appearing as a source or target. Composition law: for
    every composable pair, the induced map of the composite equals the
    composite of the induced maps. Violations raise LawViolated.

    Each distinct action's orbit space is built once, in order of first
    appearance, and each map's induced class map once, when first needed,
    so a bad input raises at the first use the checks above make of it.
    """
    spaces = dict.fromkeys(act for cm in maps for act in (cm.source, cm.target))

    identity_checks = []
    for idx, act in enumerate(spaces):
        space = spaces[act] = orbit_space(act)
        induced = _induced_map(space, space, identity_perm(act.carrier_size))
        if induced != identity_perm(len(space.classes)):
            raise LawViolated(
                f"identity map on action {idx} does not induce the identity class map")
        identity_checks.append((idx, len(space.classes)))

    @cache
    def star(i: int) -> tuple[int, ...]:
        cm = maps[i]
        return _induced_map(spaces[cm.source], spaces[cm.target], cm.mapping)

    composition_checks = []
    for i, first in enumerate(maps):
        fstar = star(i)
        for j, second in enumerate(maps):
            if second.source != first.target:
                continue
            gstar = star(j)
            composite = tuple(second.mapping[v] for v in first.mapping)
            comp_star = _induced_map(spaces[first.source], spaces[second.target], composite)
            if comp_star != tuple(gstar[v] for v in fstar):
                raise LawViolated(
                    f"composition law fails for maps ({i}, {j})")
            composition_checks.append((i, j))

    return FunctorLawsReport(
        identity_checks=tuple(identity_checks),
        composition_checks=tuple(composition_checks),
    )


def orbit_report_json(space: OrbitSpace) -> dict:
    return {
        "classes": [list(c) for c in space.classes],
        "projection": list(space.projection),
        "distributive": True,
    }
