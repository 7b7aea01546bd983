"""Orbits, bi-invariant sets, and orbit spaces of binary actions.

For subsets A, B and a set of group elements K,
    K(A, B) = { g(a, b) : g in K, a in A, b in B }.
A is bi-invariant when G(A, A) = A. The orbit of x is the smallest
bi-invariant set containing x; for distributive actions it equals
G({x}, {x}) and the orbits partition the carrier, which is what makes
the orbit space well defined. Non-distributive actions can have
properly nested orbits; see the witness miner in the search module.

Every image set is formed from one primitive, image_table(a, K), whose
entry images[x][y] is K({x}, {y}): k_set ORs its entries over A x B, and
its diagonal holds the sets K({x}, {x}), for the whole group the orbits.
Each image set of a subset A has one implementation, a lazily filled
table: UnionTable(values)[A] is the OR of values[x] over the points x of
A, which is the saturation G(A) with the orbits as values
(OrbitSpace.saturated) and the projection pi(A) with the classes
(OrbitSpace.projected), and SquareTable(image_table(a))[A] is G(A, A),
built once per action by its record, _record(a).square. An entry is
filled in on first use and is the only one stored, so a table holds the
sets asked of it, never all 2^m subsets.
"""

from __future__ import annotations

from functools import cache, cached_property, lru_cache
from typing import Iterable, Sequence

from .actions import BinaryAction, is_biequivariant, is_distributive
from .binops import _Value, _set, _int, _int_map, _ints, _list, identity_perm
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


def _coerce_mask(item, carrier_size: int) -> int:
    """An open read from outside: a bitmask, or a list of points. The int
    branch keeps its own range test, inline, because it is hot: one more
    call per open measurably slows a topology sweep. A bool is not an int
    here, and the list branch refuses it."""
    if type(item) is int:
        if not 0 <= item < (1 << carrier_size):
            raise MalformedTable(f"bitmask {item} out of range for carrier {carrier_size}")
        return item
    mask = 0
    for p in _ints(item, MalformedTable, "points", below=carrier_size):
        mask |= 1 << p
    return mask


def _mask(mask, carrier_size: int) -> int:
    """A bitmask read from outside: an int in 0..2^carrier_size - 1, or MalformedTable."""
    return _coerce_mask(_int(mask, MalformedTable, "bitmask"), carrier_size)


def points_of(mask: int) -> list[int]:
    if mask < 0:
        raise MalformedTable(f"bitmask {mask} is negative")
    out = []
    while mask:
        low = mask & -mask  # the least point left
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def image_table(a: BinaryAction, K: Iterable[int] | None = None) -> list[list[int]]:
    """images[x][y] = K({x}, {y}) as a bitmask, K the whole group by
    default, from one pass over the slices of K; K(A, B) is the OR of
    images[x][y] over x in A and y in B, and the diagonal holds the sets
    K({x}, {x})."""
    m = a.carrier_size
    images = [[0] * m for _ in range(m)]
    for tg in a.table if K is None else [a.table[g] for g in K]:
        for ix, row in zip(images, tg):
            for y, v in enumerate(row):
                ix[y] |= 1 << v
    return images


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


def k_set(a: BinaryAction, K: Iterable[int], A: Iterable[int], B: Iterable[int]) -> frozenset[int]:
    """K(A, B) = {g(x, y) : g in K, x in A, y in B}; empty inputs give empty output."""
    K = _ints(K, ShapeMismatch, "K", below=a.group.order, kind="group element")
    A = _ints(A, ShapeMismatch, "A", below=a.carrier_size)
    B = _ints(B, ShapeMismatch, "B", below=a.carrier_size)
    images = image_table(a, K)
    mask = 0
    for x in A:
        ix = images[x]
        for y in B:
            mask |= ix[y]
    return frozenset(points_of(mask))


def is_bi_invariant(a: BinaryAction, A: Iterable[int]) -> bool:
    """G(A, A) = A, read off the square table of a's record."""
    mask = 0
    for p in _ints(A, ShapeMismatch, "A", below=a.carrier_size):
        mask |= 1 << p
    return _record(a).square[mask] == mask


def bi_invariant_closure_trace(a: BinaryAction, x: int) -> list[frozenset[int]]:
    """Iterates S <- G(S, S) from {x} until stable; returns every stage.

    The iteration is monotone (axiom (2) keeps S inside G(S, S)) and
    stabilizes within |X| rounds, at the minimal bi-invariant superset.
    G(S, S) is read off the square table of a's record.
    """
    x = _int(x, ShapeMismatch, "point", a.carrier_size)
    return [frozenset(points_of(s)) for s in closure_masks(_record(a).square, 1 << x)]


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


def _require_distributive(a: BinaryAction) -> _ActionRecord:
    """a's record, or NotDistributive with the first witness."""
    record = _record(a)
    if record.distributive is not True:
        raise NotDistributive(record.distributive)
    return record


def orbit(a: BinaryAction, x: int) -> frozenset[int]:
    """The orbit G(x, x) of a distributive action: its record's diagonal at x."""
    record = _require_distributive(a)
    (x,) = _ints((x,), ShapeMismatch, "A", below=a.carrier_size)
    return frozenset(points_of(record.square.diagonal[x]))


class OrbitSpace(_Value):
    """The quotient of a distributive action: disjoint classes covering the
    carrier, ordered by smallest member, the projection map, and the orbit
    of each point as a bitmask. The saturation G(A) = saturated[A] and the
    projection pi(A) = projected[A] are UnionTables built on first use."""

    _fields = ("source", "classes", "projection", "orbit_masks")

    def class_of(self, x: int) -> int:
        return self.projection[_int(x, ShapeMismatch, "point", len(self.projection))]

    @cached_property
    def saturated(self) -> UnionTable:
        return UnionTable(self.orbit_masks)

    @cached_property
    def projected(self) -> UnionTable:
        return UnionTable([1 << c for c in self.projection])

    def project(self, mask: int) -> int:
        """The classes met by the bitmask, as a bitmask over class indices."""
        return self.projected[_mask(mask, len(self.projection))]


def orbit_space(a: BinaryAction) -> OrbitSpace:
    """Compute all orbits and verify they are pairwise disjoint or equal.

    A failed partition check raises PartitionViolation; for a distributive
    action that would mean an implementation bug, not bad input. The
    returned space is the proof that a is distributive: code holding it
    need not scan the law again. It is the one a's record carries.
    """
    return _record(a).orbits


def delta(a: BinaryAction, g: int) -> tuple[int, ...]:
    """The diagonal map x -> g(x, x) of a distributive action.

    Verified to be a bijection whose inverse is the diagonal of g^-1;
    a failure raises NotBijective since it would contradict a theorem.
    """
    _require_distributive(a)
    return _diagonal(a, _int(g, ShapeMismatch, "group element", a.group.order))


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
    os_a, os_b = orbit_space(a), orbit_space(b)
    w = is_biequivariant(a, b, f)
    if w is not True:
        raise NotBiequivariant(w)
    mapping = _int_map(f, a.carrier_size, b.carrier_size, ShapeMismatch)
    out = []
    for members in os_a.classes:
        targets = [os_b.projection[mapping[x]] for x in members]
        for i in range(1, len(members)):
            if targets[i] != targets[0]:
                raise IllDefined(members[0], members[i])
        out.append(targets[0])
    return tuple(out)


class CarrierMap(_Value):
    """A carrier map packaged with its source and target actions."""

    _fields = ("source", "target", "mapping")

    def __init__(self, source: BinaryAction, target: BinaryAction, mapping: tuple[int, ...]):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "mapping", mapping)


class FunctorLawsReport(_Value):
    """What the functor-law check actually covered.

    identity_checks holds one entry per distinct action seen, as
    (action_index, class_count). composition_checks holds one entry per
    composable input pair, as (i, j) meaning maps[j] after maps[i].
    """

    _fields = ("identity_checks", "composition_checks")


def functor_laws_check(maps: Sequence[CarrierMap]) -> FunctorLawsReport:
    """Verify that passing to orbit spaces is functorial on the given maps.

    Identity law: the identity carrier map induces the identity class map
    on every action appearing as a source or target. Composition law: for
    every composable pair, the induced map of the composite equals the
    composite of the induced maps. Violations raise LawViolated.

    The distinct actions are checked in order of first appearance, and
    each map's induced class map is built once, when first needed, so a
    bad input raises at the first use the checks above make of it.
    """
    maps = _list(maps, ShapeMismatch, "maps")
    acts = dict.fromkeys(act for cm in maps for act in (cm.source, cm.target))

    identity_checks = []
    for idx, act in enumerate(acts):
        k = len(orbit_space(act).classes)
        if induced_quotient_map(act, act, identity_perm(act.carrier_size)) != identity_perm(k):
            raise LawViolated(
                f"identity map on action {idx} does not induce the identity class map")
        identity_checks.append((idx, k))

    @cache
    def star(i: int) -> tuple[int, ...]:
        cm = maps[i]
        return induced_quotient_map(cm.source, cm.target, cm.mapping)

    composition_checks = []
    for i, first in enumerate(maps):
        fstar = star(i)
        for j, second in enumerate(maps):
            if second.source != first.target:
                continue
            gstar = star(j)
            composite = tuple(second.mapping[v] for v in first.mapping)
            comp_star = induced_quotient_map(first.source, second.target, composite)
            if comp_star != tuple(gstar[v] for v in fstar):
                raise LawViolated(
                    f"composition law fails for maps ({i}, {j})")
            composition_checks.append((i, j))

    return FunctorLawsReport(
        identity_checks=tuple(identity_checks),
        composition_checks=tuple(composition_checks),
    )


def _packed_pairs(maps: set[tuple[int, ...]], m: int) -> tuple[UnionTable, ...]:
    """pairs[w][U] = OR of 1 << (f(w) m + f(u)) over the points u of the
    bitmask U and the maps f of 0..m-1 into itself: bit y m + v says that
    some map sends w to y and some u in U to v. Each pairs[w] is a
    UnionTable over u."""
    pairs = []
    for w in range(m):
        row = [0] * m
        for f in maps:
            base = f[w] * m
            for u in range(m):
                row[u] |= 1 << (base + f[u])
        pairs.append(UnionTable(row))
    return tuple(pairs)


class _ActionRecord:
    """What one action determines: G(A, A) = square[A] and, each built on
    first use, the distributivity verdict (True or the first witness), the
    pair images of its one-argument maps (pairs), the orbit space (orbits),
    the pair images of its distinct verified diagonals (diagonal_pairs),
    and the table part of the default model id. pairs and diagonal_pairs
    are packed alike (_packed_pairs), so topology.is_continuous and the
    battery's diagonal check read them with one lookup per point. orbits
    and diagonal_pairs raise NotDistributive unless the action is
    distributive, so the partition check is never run on an action that
    may fail it. The last model met, which only binact.topology sets
    (topology._model), is a topology object, its continuity verdict (True
    or the first failing open) and its quotient once built, else None."""

    def __init__(self, action: BinaryAction):
        self.action = action
        self.square = SquareTable(image_table(action))
        self.topology = self.continuous = self.quotient = None

    @cached_property
    def distributive(self):
        return is_distributive(self.action)

    @cached_property
    def table_id(self) -> str:
        a = self.action
        cells = (str(v) for tg in a.table for row in tg for v in row)
        return f"group={a.group.name};carrier={a.carrier_size};table={','.join(cells)}"

    @cached_property
    def pairs(self) -> tuple[UnionTable, ...]:
        """The packed pair images (_packed_pairs) of the table's distinct
        one-argument maps: the rows x' -> g(x, x') and the columns
        x -> g(x, x') of every slice g, the identity's too
        (topology.is_continuous says why they change nothing). Each pairs[w]
        is filled in for the sets U = N(w) - {w} the topologies met so far
        asked for. Derived from the table alone, never a verdict about a
        topology."""
        maps = set()
        for tg in self.action.table:
            maps.update(tg)
            maps.update(zip(*tg))
        return _packed_pairs(maps, self.action.carrier_size)

    @cached_property
    def orbits(self) -> OrbitSpace:
        a = self.action
        _require_distributive(a)
        orbits = tuple(self.square.diagonal)
        for x in range(a.carrier_size):
            for y in range(x + 1, a.carrier_size):
                if orbits[x] & orbits[y] and orbits[x] != orbits[y]:
                    raise PartitionViolation(x, y)
        # a point lies in its orbit, so an orbit first occurs at its least member
        index = {o: i for i, o in enumerate(dict.fromkeys(orbits))}
        return OrbitSpace(source=a, classes=tuple([tuple(points_of(o)) for o in index]),
                          projection=tuple([index[o] for o in orbits]), orbit_masks=orbits)

    @cached_property
    def diagonal_pairs(self) -> tuple[UnionTable, ...]:
        """The packed pair images (_packed_pairs) of the distinct diagonals
        x -> g(x, x), each verified a bijection by _diagonal."""
        a = self.action
        _require_distributive(a)
        return _packed_pairs({_diagonal(a, g) for g in a.group.elements()}, a.carrier_size)


# _record(action): the records of the 16 actions met last; battery-sized runs
# meet one action for many topologies in a row, and each table in a record is
# filled in only for the sets asked of it
_record = lru_cache(maxsize=16)(_ActionRecord)


def orbit_report_json(space: OrbitSpace) -> dict:
    return {
        "classes": [list(c) for c in space.classes],
        "projection": list(space.projection),
        "distributive": True,
    }
