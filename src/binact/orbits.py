"""Orbits, bi-invariant sets, and orbit spaces of binary actions.

For subsets A, B and a set of group elements K,
    K(A, B) = { g(a, b) : g in K, a in A, b in B }.
A is bi-invariant when G(A, A) = A. The orbit of x is the smallest
bi-invariant set containing x; for distributive actions it equals
G({x}, {x}) and the orbits partition the carrier, which is what makes
the orbit space well defined. Non-distributive actions can have
properly nested orbits; see the witness miner in the search module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .actions import BinaryAction, is_biequivariant, is_distributive
from .binops import _int_map, _ints, identity_perm
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
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def k_mask(a: BinaryAction, K: Iterable[int], A: Sequence[int], B: Sequence[int]) -> int:
    """K(A, B) = {g(x, y) : g in K, x in A, y in B} as a bitmask.

    Every image set here is one: orbits G({x}, {x}), saturations
    K(A) = union over x in A of K({x}, {x}), and G(A, A). A and B are
    iterated once per element of K.
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


def k_set(a: BinaryAction, K: Iterable[int], A: Iterable[int], B: Iterable[int]) -> frozenset[int]:
    """K(A, B) = {g(x, y) : g in K, x in A, y in B}; empty inputs give empty output."""
    return frozenset(points_of(k_mask(a, K, tuple(A), tuple(B))))


def is_bi_invariant(a: BinaryAction, A: Iterable[int]) -> bool:
    s = frozenset(A)
    return k_set(a, a.group.elements(), s, s) == s


def bi_invariant_closure_trace(a: BinaryAction, x: int) -> list[frozenset[int]]:
    """Iterates S <- G(S, S) from {x} until stable; returns every stage.

    The iteration is monotone (axiom (2) keeps S inside G(S, S)) and
    stabilizes within |X| rounds, at the minimal bi-invariant superset.
    """
    if not 0 <= x < a.carrier_size:
        raise ShapeMismatch(f"point {x} out of range 0..{a.carrier_size - 1}")
    everyone = a.group.elements()
    trace = [frozenset({x})]
    while True:
        cur = trace[-1]
        nxt = k_set(a, everyone, cur, cur)
        if nxt == cur:
            return trace
        trace.append(nxt)


def minimal_bi_invariant(a: BinaryAction, x: int) -> frozenset[int]:
    """Smallest bi-invariant set containing x (defined for any action)."""
    return bi_invariant_closure_trace(a, x)[-1]


def orbit(a: BinaryAction, x: int) -> frozenset[int]:
    """The orbit G(x, x) of a distributive action."""
    witness = is_distributive(a)
    if witness is not True:
        raise NotDistributive(witness)
    if not 0 <= x < a.carrier_size:
        raise ShapeMismatch(f"point {x} out of range 0..{a.carrier_size - 1}")
    return k_set(a, a.group.elements(), (x,), (x,))


@dataclass(frozen=True)
class OrbitSpace:
    """The quotient of a distributive action: disjoint classes covering the
    carrier, ordered by smallest member, plus the projection map."""

    source: BinaryAction
    classes: tuple[tuple[int, ...], ...]
    projection: tuple[int, ...]

    def class_of(self, x: int) -> int:
        return self.projection[x]


def orbit_space(a: BinaryAction) -> OrbitSpace:
    """Compute all orbits and verify they are pairwise disjoint or equal.

    A failed partition check raises PartitionViolation; for a distributive
    action that would mean an implementation bug, not bad input. The
    returned space is the proof that a is distributive: code holding it
    need not scan the law again.
    """
    witness = is_distributive(a)
    if witness is not True:
        raise NotDistributive(witness)
    return _orbit_space(a)


def _orbit_space(a: BinaryAction) -> OrbitSpace:
    """orbit_space for an action already known to be distributive."""
    everyone = a.group.elements()
    orbits = [k_mask(a, everyone, (x,), (x,)) for x in range(a.carrier_size)]
    for x in range(a.carrier_size):
        for y in range(x + 1, a.carrier_size):
            inter = orbits[x] & orbits[y]
            if inter and orbits[x] != orbits[y]:
                raise PartitionViolation(x, y)

    classes: list[tuple[int, ...]] = []
    projection = [-1] * a.carrier_size
    for x in range(a.carrier_size):
        if projection[x] >= 0:
            continue
        members = tuple(points_of(orbits[x]))
        idx = len(classes)
        classes.append(members)
        for y in members:
            projection[y] = idx
    return OrbitSpace(source=a, classes=tuple(classes), projection=tuple(projection))


def delta(a: BinaryAction, g: int) -> tuple[int, ...]:
    """The diagonal map x -> g(x, x) of a distributive action.

    Verified to be a bijection whose inverse is the diagonal of g^-1;
    a failure raises NotBijective since it would contradict a theorem.
    """
    witness = is_distributive(a)
    if witness is not True:
        raise NotDistributive(witness)
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
    os_a = orbit_space(a)
    os_b = orbit_space(b)
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
    """
    actions: list[BinaryAction] = []
    for cm in maps:
        for act in (cm.source, cm.target):
            if act not in actions:
                actions.append(act)

    identity_checks = []
    for idx, act in enumerate(actions):
        ident = identity_perm(act.carrier_size)
        induced = induced_quotient_map(act, act, ident)
        space = orbit_space(act)
        if induced != identity_perm(len(space.classes)):
            raise LawViolated(
                f"identity map on action {idx} does not induce the identity class map")
        identity_checks.append((idx, len(space.classes)))

    composition_checks = []
    for i, first in enumerate(maps):
        fstar = induced_quotient_map(first.source, first.target, first.mapping)
        for j, second in enumerate(maps):
            if second.source != first.target:
                continue
            gstar = induced_quotient_map(second.source, second.target, second.mapping)
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


def orbit_report_json(space: OrbitSpace) -> dict:
    return {
        "classes": [list(c) for c in space.classes],
        "projection": list(space.projection),
        "distributive": True,
    }
