"""Binary actions of a finite group on a finite carrier.

A binary action stores table[g][x][x'] = g(x, x') and satisfies
    (1)  (gh)(x, x') = g(x, h(x, x'))
    (2)  e(x, x') = x'
so each slice g |-> table[g] is an invertible binary operation and the
whole action is a star-monoid morphism into those operations. An ordinary
action embeds as g(x, x') = g.x', and every slice row g |-> table[g][t]
is an ordinary action in its own right (the action induced at t).
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .binops import (BinaryOp, _Value, _composition_failure, _int, _int_map, _int_table, _ints,
                     _set, _size, identity_op, star)
from .errors import (
    AxiomOneViolated,
    AxiomTwoViolated,
    InternalInconsistency,
    MalformedTable,
    NotBiequivariant,
    ShapeMismatch,
)
from .groups import (
    FiniteGroup,
    builtin_group,
    greedy_generators,
    group_from_json,
    group_to_json,
    restrict,
)


class BinaryAction(_Value):
    """A binary action: its table satisfies axioms (1) and (2).

    validate_action checks them on any table. The enumerator in
    binact.search builds actions directly, from row homomorphisms proven by
    checking each coset action G/H they are assembled from once; those
    axioms hold row by row, so no other check is needed.
    from_ordinary, trivial_action and binact.search.relabel_action build
    them directly too, from actions whose axioms carry over.

    group_embedding is set when the acting group was re-indexed from a
    subgroup of some larger group (see conjugation_coset_action): entry i
    is the parent-group index of acting element i.

    The hash is that of the four fields, computed on first use and then
    carried on the instance, because the record caches of binact.orbits and
    binact.topology look actions up by it and hashing the table costs more
    than the lookup. It stays out of the pickled state and so out of
    copies: a str hash differs between processes.
    """

    _fields = ("group", "carrier_size", "table", "group_embedding")
    group_embedding = None

    def __init__(self, group: FiniteGroup, carrier_size: int,
                 table: tuple[tuple[tuple[int, ...], ...], ...],
                 group_embedding: tuple[int, ...] | None = group_embedding):
        _set(self, "group", group)
        _set(self, "carrier_size", carrier_size)
        _set(self, "table", table)
        _set(self, "group_embedding", group_embedding)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.group, self.carrier_size, self.table, self.group_embedding))

    def __getstate__(self) -> dict:
        return {"group": self.group, "carrier_size": self.carrier_size, "table": self.table,
                "group_embedding": self.group_embedding}

    def __call__(self, g: int, x: int, xp: int) -> int:
        return self.table[g][x][xp]

    def slice_op(self, g: int) -> BinaryOp:
        return BinaryOp(size=self.carrier_size, table=self.table[g])

    def __repr__(self) -> str:
        return f"BinaryAction({self.group.name}, carrier={self.carrier_size})"


class OrdinaryAction(_Value):
    """A left action table[g][x] = g.x.

    make_ordinary_action checks any table. binact.search.all_ordinary_actions
    builds these directly, from row homomorphisms assembled from coset
    actions G/H that each passed make_ordinary_action once (the proof is
    at search.permutation_homomorphisms).
    """

    _fields = ("group", "carrier_size", "table")

    def __init__(self, group: FiniteGroup, carrier_size: int, table: tuple[tuple[int, ...], ...]):
        _set(self, "group", group)
        _set(self, "carrier_size", carrier_size)
        _set(self, "table", table)

    def __call__(self, g: int, x: int) -> int:
        return self.table[g][x]


def validate_action(group: FiniteGroup, table, group_embedding=None) -> BinaryAction:
    """Check axioms (2) then (1) and return the action.

    A binary action is an ordinary action of G on pairs of points fixing
    first coordinates, g.(x, x') = (x, g(x, x')); numbered p = x m + x',
    pairs[g][p] = x m + g(x, x'). Axiom (2) says e fixes every pair and
    axiom (1) is the law (g h).p = g.(h.p) that binops._composition_failure
    scans. The first violating tuple in lexicographic order is reported:
    AxiomTwoViolated(x, x') or AxiomOneViolated(g, h, x, x').

    A group_embedding is read first: one distinct index >= 0 per group
    element, or ShapeMismatch names the first entry that is not one.
    """
    if group_embedding is not None:
        group_embedding = _ints(group_embedding, ShapeMismatch, "group_embedding")
        if len(group_embedding) != group.order:
            raise ShapeMismatch(
                f"group_embedding has length {len(group_embedding)}, expected {group.order}")
        for i, v in enumerate(group_embedding):
            if v < 0 or v in group_embedding[:i]:
                raise ShapeMismatch(
                    f"group_embedding[{i}] = {v} is {'negative' if v < 0 else 'a repeat'}")
    cube, m = _int_table(table, ShapeMismatch, 3, lead=group.order)
    pairs = tuple([tuple([x * m + v for x, row in enumerate(sl) for v in row]) for sl in cube])
    for p, q in enumerate(pairs[group.identity]):
        if q != p:
            raise AxiomTwoViolated(*divmod(p, m))
    witness = _composition_failure(group.cayley, pairs)
    if witness is not None:
        g, h, p = witness
        raise AxiomOneViolated(g, h, *divmod(p, m))
    return BinaryAction(group=group, carrier_size=m, table=cube,
                        group_embedding=group_embedding)


def is_distributive(a: BinaryAction):
    """True, or the first tuple (g, h, x, x', x'') violating
    g(h(x, x'), h(x, x'')) = h(x, g(x', x'')).

    With c = h(x, -), the law at (h, x, x') for every g and x'' says that
    the row homomorphism at h(x, x') is c rho c^-1 for the row rho at x'
    (see binact.search). Written with c, the law at (g, h, x) reads
    g(c(x'), c(x'')) = c(g(x', x'')) for all x', x'': c is an endomorphism
    of the operation g(-, -), and the law depends on g and c only.

    The scan takes g and h from the greedy generators S alone, in order,
    and still returns the first witness of a scan over all of G x G:
    - The least element of G outside a proper subgroup K is a greedy
      generator. Let s be the first generator outside K; the ones before
      it lie in K, so every element outside K lies outside the subgroup
      they generate, whose least outside element is s by the greedy
      choice. So s is at most the least element outside K, and s is one.
    - The g for which every row c is an endomorphism of g(-, -) form a
      subgroup. By axiom (1), (g g')(c(x'), c(x'')) =
      g(c(x'), g'(c(x'), c(x''))) = g(c(x'), c(g'(x', x''))) =
      c(g(x', g'(x', x''))) = c((g g')(x', x'')), so they are closed under
      products, and in a finite group that makes a subgroup. The g of the
      first witness is the least g outside it, a generator.
    - For that g, the h whose rows are all endomorphisms of g(-, -) form a
      subgroup too: endomorphisms compose, and (h h')(x, -) =
      h(x, -) o h'(x, -) by axiom (1). The h of the first witness is the
      least h outside it, a generator.
    The pairs of S before that (g, h) pass, and within it x, x' and x''
    run in order, so the scan meets the same witness; with none, every g
    and h pass. So at most |S|^2 m rows are scanned, not (|G| - 1)^2 m.

    Per g the scan keeps the rows c that already passed, starting with
    the identity, for which both sides are g(x', x''), and skips a
    (g, h, x) whose row is among them. A skipped triple would pass, and a
    row that fails ends the scan the first time it is met, so the first
    witness is unchanged. Compare the result with ``is True``; a witness
    tuple is truthy.
    """
    t = a.table
    m = a.carrier_size
    ident = t[a.group.identity][0]  # e(0, -), the identity by axiom (2)
    gens = greedy_generators(a.group)
    for g in gens:
        tg = t[g]
        passed = {ident}
        for h in gens:
            for x, c in enumerate(t[h]):
                if c in passed:
                    continue
                for xp in range(m):
                    lhs_row = tg[c[xp]]
                    gxp = tg[xp]
                    for xpp in range(m):
                        if lhs_row[c[xpp]] != c[gxp[xpp]]:
                            return (g, h, x, xp, xpp)
                passed.add(c)
    return True


def make_ordinary_action(group: FiniteGroup, table) -> OrdinaryAction:
    """Validate a left-action table: e.x = x and (gh).x = g.(h.x)."""
    rows, m = _int_table(table, ShapeMismatch, 2, lead=group.order)
    for x in range(m):
        if rows[group.identity][x] != x:
            raise MalformedTable(f"not a left action: e.{x} != {x}")
    witness = _composition_failure(group.cayley, rows)
    if witness is not None:
        raise MalformedTable(
            "not a left action: (g h).x != g.(h.x) at (g, h, x) = (%d, %d, %d)" % witness)
    return OrdinaryAction(group=group, carrier_size=m, table=rows)


def induced_action(a: BinaryAction, t: int) -> OrdinaryAction:
    """The ordinary action at carrier point t: g.x = g(t, x)."""
    t = _int(t, ShapeMismatch, "point", a.carrier_size)
    table = tuple(a.table[g][t] for g in a.group.elements())
    try:
        return make_ordinary_action(a.group, table)
    except MalformedTable as exc:  # impossible for a validated action
        raise InternalInconsistency(f"induced action at t={t} invalid: {exc}") from exc


def morphism_to_monoid(a: BinaryAction) -> tuple[BinaryOp, ...]:
    """The slice map g -> alpha_g as a tuple of invertible operations.

    Re-verifies the morphism law star(alpha_g, alpha_h) = alpha_{gh} and
    alpha_e = identity; failure would contradict validation.
    """
    ops = tuple(a.slice_op(g) for g in a.group.elements())
    if ops[a.group.identity] != identity_op(a.carrier_size):
        raise InternalInconsistency("identity slice is not the star identity")
    for g in a.group.elements():
        for h in a.group.elements():
            if star(ops[g], ops[h]) != ops[a.group.cayley[g][h]]:
                raise InternalInconsistency(
                    f"slice map is not a morphism at (g, h) = ({g}, {h})")
    return ops


def from_ordinary(o: OrdinaryAction) -> BinaryAction:
    """Embed an ordinary action as the binary action g(x, x') = g.x', with
    no validation: axioms (2) and (1) read e.x' = x' and (gh).x' = g.(h.x')."""
    m = o.carrier_size
    return BinaryAction(group=o.group, carrier_size=m,
                        table=tuple((row,) * m for row in o.table))


def trivial_action(group: FiniteGroup, carrier_size: int) -> BinaryAction:
    """Embedding of the do-nothing ordinary action: g(x, x') = x'."""
    m = _size(carrier_size, "carrier size")
    return BinaryAction(group=group, carrier_size=m,
                        table=((tuple(range(m)),) * m,) * group.order)


def conjugation_coset_action(g: FiniteGroup, subgroup_members) -> BinaryAction:
    """The action h(x, y) = x h x^-1 y of a subgroup H on the carrier G.

    H is re-indexed densely; the embedding back into g is recorded on the
    returned action. The result is always distributive and its orbits are
    the left cosets xH (checked by callers and by the test suite). The
    distributivity scan is the one the action's record in binact.orbits
    carries, so a later orbit_space does not scan the law again.
    """
    from .orbits import _record  # binact.orbits imports this module
    members = sorted(set(_ints(subgroup_members, MalformedTable, "subgroup members",
                               below=g.order, kind="member")))
    sub, embedding = restrict(g, members, name=f"{g.name}-conj{len(members)}")
    table = tuple(
        tuple(
            tuple(g.mul(g.mul(g.mul(x, h), g.inv(x)), y) for y in g.elements())
            for x in g.elements()
        )
        for h in embedding
    )
    action = validate_action(sub, table, group_embedding=embedding)
    witness = _record(action).distributive
    if witness is not True:
        raise InternalInconsistency(
            f"conjugation-coset action unexpectedly not distributive at {witness}")
    return action


def is_biequivariant(a: BinaryAction, b: BinaryAction, f):
    """True, or the first (g, x, x') with f(g(x, x')) != g(f(x), f(x')).

    a and b must share the same acting group. Compare with ``is True``.
    """
    if a.group.cayley != b.group.cayley or a.group.identity != b.group.identity:
        raise ShapeMismatch("actions are over different groups")
    mapping = _int_map(f, a.carrier_size, b.carrier_size, ShapeMismatch)
    for g in a.group.elements():
        ta = a.table[g]
        tb = b.table[g]
        for x in range(a.carrier_size):
            fx_row = tb[mapping[x]]
            for xp in range(a.carrier_size):
                if mapping[ta[x][xp]] != fx_row[mapping[xp]]:
                    return (g, x, xp)
    return True


def all_biequivariant_maps(a: BinaryAction, b: BinaryAction) -> list[tuple[int, ...]]:
    """Every biequivariant carrier map a -> b, in lexicographic order."""
    out = []
    for f in itertools.product(range(b.carrier_size), repeat=a.carrier_size):
        if is_biequivariant(a, b, f) is True:
            out.append(f)
    return out


def is_equivariant(o1: OrdinaryAction, o2: OrdinaryAction, f):
    """True, or the first (g, x) with f(g.x) != g.f(x), for ordinary actions."""
    if o1.group.cayley != o2.group.cayley:
        raise ShapeMismatch("actions are over different groups")
    mapping = _int_map(f, o1.carrier_size, o2.carrier_size, ShapeMismatch)
    for g in o1.group.elements():
        for x in range(o1.carrier_size):
            if mapping[o1.table[g][x]] != o2.table[g][mapping[x]]:
                return (g, x)
    return True


def biequivariance_implies_equivariance_check(a: BinaryAction, b: BinaryAction, f) -> bool:
    """Verify that a biequivariant f is equivariant between every pair of
    induced ordinary actions (at t and at f(t)). Always true; a failure
    raises InternalInconsistency because it would contradict a theorem.
    """
    witness = is_biequivariant(a, b, f)
    if witness is not True:
        raise NotBiequivariant(witness)
    mapping = _int_map(f, a.carrier_size, b.carrier_size, ShapeMismatch)
    for t in range(a.carrier_size):
        o1 = induced_action(a, t)
        o2 = induced_action(b, mapping[t])
        w = is_equivariant(o1, o2, mapping)
        if w is not True:
            raise InternalInconsistency(
                f"biequivariant map not equivariant at t={t}, witness (g, x) = {w}")
    return True


# --- serialization -----------------------------------------------------------

def _table_json(a: BinaryAction) -> list:
    """a's g-major table as nested JSON lists."""
    return [[list(row) for row in sl] for sl in a.table]


def action_to_json(a: BinaryAction) -> dict:
    out = {
        "group": group_to_json(a.group),
        "carrier": a.carrier_size,
        "table": _table_json(a),
    }
    if a.group_embedding is not None:
        out["group_embedding"] = list(a.group_embedding)
    return out


def action_from_json(data: dict, group_resolver=None) -> BinaryAction:
    """Rebuild and re-validate an action record.

    The group field may be an inline group record or a name; names are
    resolved through group_resolver (defaults to the built-in catalog).
    """
    def build(group, table):
        return validate_action(group, table, group_embedding=data.get("group_embedding"))

    return _record_from_json(data, group_resolver, build)


def ordinary_to_json(o: OrdinaryAction) -> dict:
    return {
        "group": group_to_json(o.group),
        "carrier": o.carrier_size,
        "table": [list(row) for row in o.table],
    }


def ordinary_from_json(data: dict, group_resolver=None) -> OrdinaryAction:
    """Rebuild and re-validate an ordinary action record, read like
    action_from_json."""
    return _record_from_json(data, group_resolver, make_ordinary_action)


def _record_from_json(data, group_resolver, build):
    """Check the record's shape, resolve its group, build(group, table) and
    check the declared carrier against the result."""
    if not isinstance(data, dict) or "table" not in data or "group" not in data:
        raise ShapeMismatch("action record must be an object with 'group' and 'table'")
    raw_group = data["group"]
    if isinstance(raw_group, str):
        group = (group_resolver or builtin_group)(raw_group)
    else:
        group = group_from_json(raw_group)
    out = build(group, data["table"])
    if "carrier" in data and _int(data["carrier"], ShapeMismatch, "carrier") != out.carrier_size:
        raise ShapeMismatch(
            f"declared carrier {data['carrier']} does not match table carrier {out.carrier_size}")
    return out
