"""Exhaustive enumeration of binary actions, canonical forms, and witness mining.

The search backtracks over whole rows rather than single cells. Because
star composition works row by row, fixing a carrier point t and letting g
vary gives an ordinary permutation action of G (a homomorphism G -> S_X),
and a binary action is exactly one such row homomorphism per carrier
point. The search therefore precomputes every homomorphism G -> S_X, then
assigns one homomorphism per row, pruning on the distributivity law over
the rows assigned so far when asked to.

The law g(h(x, x'), h(x, x'')) = h(x, g(x', x'')) is a statement about row
homomorphisms. Write rho_y for the row at y, rho_y(g) = g(y, -), and
c = h(x, -), a permutation of the carrier. As functions of x'', the two
sides are rho_c(x')(g) c and c rho_x'(g); c is invertible, so they agree
for every x'' exactly when rho_c(x')(g) = c rho_x'(g) c^-1, and for every g
exactly when rho_c(x') = c rho_x' c^-1 as homomorphisms. So one
comparison of homomorphism indices, through the conjugation table of c,
settles the instance (h, x, x') for every g at once. For h = e, c is the
identity and the instance always holds, so only h != e is checked.

Row t, assigned at depth t, adds the instances that name t as x, x' or
h(x, x') and whose three rows are assigned; the parent node passed every
instance over earlier rows. Those with x = t (and x' <= t) or with x < t
and x' = t are checked directly. The rest have x, x' < t and h(x, x') = t.
By axioms (1) and (2), h^-1(x, -) = c^-1, so the instance (h^-1, x, t)
reads rho_x' = c^-1 rho_t c, the same equation; it has x < t and x' = t.

So such an instance forces the row at t: it can only be c rho_x' c^-1,
index conj[chosen[x']] in the conjugation table of c. Every other
candidate fails the check on (h^-1, x, t), so every leaf of the search
that tries all homomorphisms at t holds the forced index there. When one
instance with x, x' < t lands on t, the search tries that index alone,
still through the full check; only when none does are all homomorphisms
tried. No leaf is lost, leaves come in the same order, and every node
visited is checked as before; the node budget counts fewer nodes (k4 on
4 points: 83980 -> 9316).

A homomorphism G -> S_m is a labelled G-set, a disjoint union of coset
spaces G/H with x (yH) = (xy)H, and is generated as one: the least point
not yet placed takes a subgroup H and its other cosets take an injective
choice of points not yet placed. The stabiliser of that point and the map
yH -> y . point recover both choices from the homomorphism, so each comes
out once, and the terms are those of Dey's formula for |Hom(G, S_m)|. The
list is then sorted on the images of a greedily chosen generating set,
which fix the homomorphism.

Each found action is kept as a tuple of indices into that homomorphism
list. Relabelling the carrier by sigma sends the homomorphism rho at row t
to sigma rho sigma^-1 at row sigma(t), so one table of conjugate indices,
built once per run, turns every relabelling of an action into m index
lookups; a conjugate of a homomorphism is a homomorphism, so no relabelled
table is rebuilt or re-validated. The canonical form of an action is its
lexicographically least relabelled table, found by comparing relabellings
through the permutation ranks of their g-major tables. The number of
relabellings that reach the least table is the order of the action's
automorphism group, so an exhaustive run must satisfy the orbit-stabilizer
count: the actions found number the sum of m!/|Aut(a)| over the classes.
The least relabelling is searched once per class, on the first of its
actions in table order, in one pass over that action's m! relabelled
index tuples: their set is the class and marks the rest of it, the least
of the set by rank key is the canonical form, and the number of tuples
equal to it is |Aut|, so the size of the set times |Aut| must be m!.

Validity is carried, not re-derived. Axioms (1) and (2) hold row by row:
(gh)(t, -) = g(t, -) h(t, -) and e(t, -) = id say exactly that the row at
t is a homomorphism G -> S_m. Each homomorphism in the list is checked
once, when the relabelling tables are built, and every table assembled
from the list is then a binary action without passing through
validate_action. The check (_homomorphism_check, where the proof is)
compares rho[x s] with rho[x] o rho[s] for every x and each greedy
generator s, and the identity row: |G| |S| row compositions that prove
what make_ordinary_action's |G|^2 m cell comparisons do.
all_ordinary_actions runs the same check once per homomorphism.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass

from .actions import BinaryAction, OrdinaryAction, is_distributive, validate_action
from .binops import _int, _ints, _size, invert_perm
from .errors import BudgetExceeded, InternalInconsistency, MalformedTable, _BudgetStop
from .groups import FiniteGroup, all_subgroups, subgroup_closure
from .orbits import SquareTable, closure_masks, image_table, points_of


def greedy_generators(g: FiniteGroup) -> tuple[int, ...]:
    """Generating set built greedily: repeatedly adjoin the smallest element
    not yet generated. Small in practice, deterministic always."""
    gens: list[int] = []
    closed = subgroup_closure(g, gens)
    while len(closed) < g.order:
        gens.append(min(x for x in g.elements() if x not in closed))
        closed = subgroup_closure(g, gens)
    return tuple(gens)


def _homomorphism_check(g: FiniteGroup, m: int):
    """A check that rho is a homomorphism G -> S_m, for the lists that
    permutation_homomorphisms builds. The returned function raises
    InternalInconsistency unless len(rho) == |G|, rho[e] is the identity
    row and rho[x s] == rho[x] o rho[s] (rho[s] applied first) for every x
    in G and every greedy generator s; a malformed row never leaks an
    IndexError or TypeError.

    That proves it. The x = e instances read rho[s] = rho[e] o rho[s], so
    every entry v of rho[s] has rho[e][v] == v: it lies in 0..m-1 (a
    negative v reads v + m, a larger one raises IndexError). The x = s^-1
    instances give rho[s] the length of rho[e], m, so every row rho[x s]
    has length m; and its entries are entries of rho[x], so by induction
    on the length of a word for x s every row maps 0..m-1 into itself. In
    a finite group the inverse of a generator is one of its powers, so the
    generators generate G as a monoid, and induction on the length of a
    word for h gives rho(x h) = rho(x) rho(h) for all x and h. Then
    rho(g) rho(g^-1) = rho(e) = id = rho(g^-1) rho(g), so every row is a
    bijection: rho is what make_ordinary_action accepts. Per homomorphism
    that is |G| |S| row compositions, each an itemgetter over a whole row,
    in place of its |G|^2 m cell comparisons. Entries compare with ==, so
    unlike make_ordinary_action, which reads outside tables, this does not
    refuse a float equal to an int outside the generator rows.
    """
    identity_row = tuple(range(m))
    # per generator s, the getter that lists rho[x s] in x order; |G| >= 2
    # when there is a generator, so it returns a tuple
    right = [(s, operator.itemgetter(*[g.mul(x, s) for x in g.elements()]))
             for s in greedy_generators(g)]

    def check(rho) -> None:
        try:
            ok = len(rho) == g.order and rho[g.identity] == identity_row
            for s, times_s in right:
                if not ok:
                    break
                row = rho[s]
                images = map(operator.itemgetter(*row), rho)
                if len(row) == 1:  # a one-index itemgetter returns the entry itself
                    images = zip(images)
                ok = tuple(images) == times_s(rho)
        except (IndexError, TypeError):
            ok = False
        if not ok:
            raise InternalInconsistency(f"row {rho} is not a homomorphism G -> S_{m}")

    return check


def permutation_homomorphisms(g: FiniteGroup, degree: int, deadline: float = math.inf,
                              ) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All homomorphisms G -> S_degree, each as a tuple of permutations
    indexed by group element, lexicographic in the tuple of images of the
    greedy generators.

    Each one is built as a labelled G-set. The least point p not yet placed
    gets a subgroup H of index k at most the number of points left, the
    other k - 1 left cosets of H go injectively to other points left, and
    x (yH) = (xy)H fills those k points of every row; the points still left
    recurse. Each homomorphism rho is built exactly once: its H is the
    stabiliser of p, and its placement is yH -> rho(y)(p), a bijection of
    the cosets onto the orbit of p. A homomorphism is fixed by its images
    of the greedy generators, so sorting on them gives distinct keys.
    Given a finite deadline, the clock is read every 1024 subgroup
    closures (in all_subgroups) and every 1024 placements, and _BudgetStop
    is raised once it has passed; the default reads no clock.
    """
    degree = _size(degree, "degree")
    # per subgroup H of index at most degree, coset_actions[x][c] is the
    # coset x C of the c-th left coset C of H, and H itself is coset 0
    coset_actions = []
    for h in all_subgroups(g, deadline=deadline):
        if len(h) * degree < g.order:
            continue
        coset_of = [-1] * g.order
        reps = []
        for y in (g.identity, *g.elements()):
            if coset_of[y] < 0:
                for z in h:
                    coset_of[g.mul(y, z)] = len(reps)
                reps.append(y)
        coset_actions.append([[coset_of[g.mul(x, y)] for y in reps] for x in g.elements()])
    rows = [[0] * degree for _ in g.elements()]
    out = []
    placed = 0

    def place(free):
        nonlocal placed
        placed += 1
        if placed % 1024 == 0 and deadline < math.inf and time.monotonic() > deadline:
            raise _BudgetStop()
        if not free:
            out.append(tuple(map(tuple, rows)))
            return
        for action in coset_actions:
            k = len(action[0])
            if k > len(free):
                continue
            for rest in itertools.permutations(free[1:], k - 1):
                points = (free[0], *rest)
                for row, images in zip(rows, action):
                    for c, d in enumerate(images):
                        row[points[c]] = points[d]
                place([q for q in free[1:] if q not in rest])

    place(list(range(degree)))
    gens = greedy_generators(g)
    out.sort(key=lambda rho: [rho[s] for s in gens])
    return tuple(out)


@dataclass(frozen=True)
class EnumerationTask:
    """What to enumerate and under which budgets."""

    group: FiniteGroup
    carrier_size: int
    require_distributive: bool = False
    dedupe: bool = False
    node_budget: int = 2_000_000
    time_budget_s: float = 120.0

    def __post_init__(self):
        object.__setattr__(self, "carrier_size", _size(self.carrier_size, "carrier size"))
        budget = _int(self.node_budget, MalformedTable, "node budget")
        object.__setattr__(self, "node_budget", budget)
        if not isinstance(self.time_budget_s, (int, float)):
            raise MalformedTable(f"time budget = {self.time_budget_s!r} is not a number")
        if self.node_budget < 1 or not self.time_budget_s > 0:
            raise MalformedTable("budgets must be positive")


@dataclass(frozen=True)
class IntersectingOrbitsWitness:
    """Two points whose minimal bi-invariant sets intersect without coinciding."""

    action: BinaryAction
    x: int
    xp: int
    set_x: frozenset[int]
    set_xp: frozenset[int]

    def to_json(self) -> dict:
        return {
            "kind": "intersecting_orbits",
            "action_table": [[list(r) for r in sl] for sl in self.action.table],
            "x": self.x,
            "x_prime": self.xp,
            "minimal_set_x": sorted(self.set_x),
            "minimal_set_x_prime": sorted(self.set_xp),
        }


@dataclass(frozen=True)
class UnionWitness:
    """Two bi-invariant sets whose union is not bi-invariant."""

    action: BinaryAction
    set_a: frozenset[int]
    set_b: frozenset[int]
    union_image: frozenset[int]

    def to_json(self) -> dict:
        return {
            "kind": "non_bi_invariant_union",
            "action_table": [[list(r) for r in sl] for sl in self.action.table],
            "set_a": sorted(self.set_a),
            "set_b": sorted(self.set_b),
            "union_image": sorted(self.union_image),
        }


@dataclass(frozen=True)
class WitnessReport:
    intersecting_orbits: IntersectingOrbitsWitness | None
    non_bi_invariant_union: UnionWitness | None
    actions_scanned: int

    def to_json(self) -> dict:
        return {
            "intersecting_orbits": (
                None if self.intersecting_orbits is None
                else self.intersecting_orbits.to_json()),
            "non_bi_invariant_union": (
                None if self.non_bi_invariant_union is None
                else self.non_bi_invariant_union.to_json()),
            "actions_scanned": self.actions_scanned,
        }


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of one enumeration run.

    actions holds every emitted action in lexicographic table order (the
    canonical representatives instead when dedupe was on). Each one is
    assembled from row homomorphisms that were checked once per run, which
    makes it a binary action; none is re-validated. raw_count counts
    emissions before dedupe; canonical_count counts biequimorphism classes
    among them, each represented by its lexicographically least table and
    found on homomorphism indices without rebuilding relabelled tables;
    distributive_count counts distributive emissions, from one scan per
    class. An exhaustive result has passed the orbit-stabilizer check:
    raw_count is the sum of m!/|Aut(a)| over the classes. Each class met
    has m!/|Aut(a)| relabellings, exhaustive or not. After a budget stop,
    the one BudgetExceeded carries a result with exhaustive false that
    holds the actions assembled before the deadline, and its message says
    how many the search found; the count over all classes is skipped,
    because such a part need not be closed under relabelling.
    """

    task: EnumerationTask
    actions: tuple[BinaryAction, ...]
    raw_count: int
    canonical_count: int
    distributive_count: int
    exhaustive: bool


def relabel_action(a: BinaryAction, sigma) -> BinaryAction:
    """The action carried across the carrier bijection sigma, which makes
    sigma a biequimorphism from a to the result."""
    sg = _ints(sigma, MalformedTable, "sigma")
    m = a.carrier_size
    if sorted(sg) != list(range(m)):
        raise MalformedTable("sigma is not a carrier bijection")
    out = [[[0] * m for _ in range(m)] for _ in a.group.elements()]
    for g in a.group.elements():
        sl = a.table[g]
        for x in range(m):
            for xp in range(m):
                out[g][sg[x]][sg[xp]] = sg[sl[x][xp]]
    table = tuple(tuple(tuple(row) for row in sl) for sl in out)
    return validate_action(a.group, table)


def _conjugate(sigma, inv, rho) -> tuple[tuple[int, ...], ...]:
    """sigma rho sigma^-1, elementwise over the homomorphism rho."""
    return tuple(tuple(sigma[p[x]] for x in inv) for p in rho)


def _perm_rank(p) -> int:
    """Rank of the permutation p among all permutations of its points in
    lexicographic order, by its Lehmer code: entry i counts the later
    entries smaller than p[i], and weighs (n - 1 - i)!."""
    n = len(p)
    rank = 0
    for i, v in enumerate(p):
        rank = rank * (n - i) + sum(1 for w in p[i + 1:] if w < v)
    return rank


class _Relabelling:
    """The carrier relabellings acting on actions held as index tuples.

    homs is a list of row homomorphisms G -> S_m closed under conjugation;
    an action is a tuple whose entry t indexes the homomorphism at carrier
    point t. For each relabelling sigma the conjugation table gives the
    index of sigma rho sigma^-1 for every rho, and the rank columns give,
    per non-identity group element g, the rank of rho(g) among all
    permutations of the carrier. The identity slice is the same in every
    table, so the ranks over the other slices, read g-major, order index
    tuples exactly as their tables are ordered. A move keeps only the
    conjugation table of sigma and sigma^-1; classify() relabels an index
    tuple by every move in one pass and calls key() only on the distinct
    results. key() is injective on index tuples, since a homomorphism is
    fixed by its images of g != e and a permutation by its rank, so the
    moves reaching the least key number |Aut|. Every homomorphism is
    checked once first, on the greedy generators by _homomorphism_check,
    which proves it a homomorphism G -> S_m; that is what lets action()
    skip validation. Only with a finite deadline, checking the
    homomorphisms reads the clock every 1024 of them and building the m!
    tables once per relabelling, raising _BudgetStop once it has passed.
    """

    def __init__(self, group: FiniteGroup, homs, m: int, deadline: float = math.inf):
        self.group = group
        self.homs = homs
        self.nonidentity = [g for g in group.elements() if g != group.identity]
        check = _homomorphism_check(group, m)
        ranks = []
        for i, rho in enumerate(homs):
            if i % 1024 == 1023 and deadline < math.inf and time.monotonic() > deadline:
                raise _BudgetStop()
            check(rho)
            ranks.append([_perm_rank(rho[g]) for g in self.nonidentity])
        self.index = {rho: i for i, rho in enumerate(homs)}
        self.columns = list(zip(*ranks))
        self.moves = []
        for sigma in itertools.permutations(range(m)):
            if deadline < math.inf and time.monotonic() > deadline:
                raise _BudgetStop()
            inv = invert_perm(sigma)
            conj = []
            for rho in homs:
                c = self.index.get(_conjugate(sigma, inv, rho))
                if c is None:
                    raise InternalInconsistency(
                        f"homomorphism list not closed under conjugation by {sigma}")
                conj.append(c)
            self.moves.append((conj, inv))

    def law_rows(self):
        """For each homomorphism rho, the pair (rho(h), conjugation table
        of rho(h)) for every non-identity h: the row h(x, -) at a point x
        holding rho, and the index map rho' -> rho(h) rho' rho(h)^-1."""
        return [[(rho[h], self.moves[col[i]][0]) for h, col in zip(self.nonidentity, self.columns)]
                for i, rho in enumerate(self.homs)]

    def key(self, leaf) -> tuple[int, ...]:
        """Sort key of the action's table."""
        return tuple([col[i] for col in self.columns for i in leaf])

    def classify(self, leaf):
        """One pass over the m! relabellings of leaf: the key and index tuple
        of the least one, the number of relabellings reaching it, which is
        |Aut| of the action, and the set of all of them, its class."""
        images = [tuple([conj[leaf[t]] for t in inv]) for conj, inv in self.moves]
        orbit = set(images)
        canon = min(orbit, key=self.key)
        return self.key(canon), canon, images.count(canon), orbit

    def table(self, leaf) -> tuple:
        """The g-major table: slice g holds rho(g) of the row at each point."""
        return tuple(zip(*[self.homs[i] for i in leaf]))

    def action(self, leaf) -> BinaryAction:
        """The action with row homs[leaf[t]] at each point t; a binary action
        because every row is a homomorphism, checked in __init__."""
        return BinaryAction(group=self.group, carrier_size=len(leaf), table=self.table(leaf))


def canonicalize(a: BinaryAction) -> BinaryAction:
    """Lexicographically least relabelling of a; constant on biequimorphism
    classes and idempotent.

    Runs the enumerator's index-based search over the conjugates of a's
    own row homomorphisms, each checked once as a homomorphism; the result
    is built from them without re-validation.
    """
    m = a.carrier_size
    rows = [tuple(sl[t] for sl in a.table) for t in range(m)]
    orbit = set()
    for sigma in itertools.permutations(range(m)):
        inv = invert_perm(sigma)
        orbit.update(_conjugate(sigma, inv, rho) for rho in rows)
    rel = _Relabelling(a.group, sorted(orbit), m)
    _, leaf, _, _ = rel.classify(tuple(rel.index[rho] for rho in rows))
    return rel.action(leaf)


def enumerate_actions(task: EnumerationTask) -> EnumerationResult:
    """Enumerate every binary action of the task's group on its carrier.

    Emitted actions are sorted by table. Each is a binary action because
    each of its rows is one of the row homomorphisms, checked once per run
    when the relabelling tables are built. The first action of each
    class is scanned for distributivity, which settles its class; under
    require_distributive a non-distributive one raises, and a row the law
    forces is the only candidate tried at its depth. The time budget
    counts from before the row homomorphisms are generated and bounds
    their generation (not the subgroup lattice it starts from), the
    relabelling tables, the search and the assembly of its result.
    Every budget check raises _BudgetStop, caught here alone: the leaves
    found so far (none if it came before the search) are assembled under
    the deadline, and one BudgetExceeded carries them. Its message names
    the budget that stopped the search, and the time budget if the
    deadline then cut the assembly, with the actions found and assembled;
    it names only the time budget when the search had finished.
    """
    g = task.group
    m = task.carrier_size
    deadline = time.monotonic() + task.time_budget_s
    time_reason = f"time budget {task.time_budget_s}s reached"
    nodes = 0
    leaves: list[tuple[int, ...]] = []
    chosen_idx = [0] * m
    rel = reason = None

    def distributivity_ok(t: int) -> bool:
        # the law instances (h, x, x') that row t adds, h != e, each one
        # comparison: row h(x, x') is row x' conjugated by c = h(x, -)
        depth = t + 1
        it = chosen_idx[t]
        for c, conj in law_rows[it]:  # x = t, x' <= t
            for xp in range(depth):
                y = c[xp]
                if y < depth and chosen_idx[y] != conj[chosen_idx[xp]]:
                    return False
        for x in range(t):  # x < t, x' = t
            for c, conj in law_rows[chosen_idx[x]]:
                y = c[t]
                if y < depth and chosen_idx[y] != conj[it]:
                    return False
        return True

    def forced_row(t: int):
        # the index the law dictates at row t through some instance
        # (h, x, x') with x, x' < t and h(x, x') = t, or None if none does
        for x in range(t):
            for c, conj in law_rows[chosen_idx[x]]:
                xp = c.index(t)
                if xp < t:
                    return conj[chosen_idx[xp]]
        return None

    def fill(t: int):
        nonlocal nodes
        if t == m:
            leaves.append(tuple(chosen_idx))
            return
        forced = forced_row(t) if task.require_distributive else None
        for i in range(len(rowhoms)) if forced is None else (forced,):
            nodes += 1
            if nodes > task.node_budget:
                raise _BudgetStop(f"node budget {task.node_budget} reached")
            if nodes % 1024 == 0 and time.monotonic() > deadline:
                raise _BudgetStop()
            chosen_idx[t] = i
            if task.require_distributive and not distributivity_ok(t):
                continue
            fill(t + 1)

    try:
        rowhoms = permutation_homomorphisms(g, m, deadline=deadline)
        rel = _Relabelling(g, rowhoms, m, deadline)
        law_rows = rel.law_rows() if task.require_distributive else None
        fill(0)
    except _BudgetStop as stop:
        reason = str(stop) or time_reason
    result = _assemble(task, rel, leaves, search_complete=reason is None, deadline=deadline)
    if result.exhaustive:
        return result
    if reason is not None:  # None: the search finished, the deadline cut its assembly
        if result.raw_count < len(leaves) and reason != time_reason:
            reason += f"; {time_reason}"
        reason += f" ({len(leaves)} actions found, {result.raw_count} assembled)"
    raise BudgetExceeded(reason or time_reason, partial=result)


def _assemble(task, rel: _Relabelling | None, leaves, search_complete: bool,
              deadline: float) -> EnumerationResult:
    """Build, check and canonicalize the found actions in table order.

    Tables are built from the row homomorphisms _Relabelling checked, not
    re-validated. The first action of a class in table order is scanned
    for distributivity and canonicalized, and its relabellings mark the
    rest of the class, which must number m!/|Aut|, with that verdict. A
    relabelling is a biequimorphism and keeps distributivity, so the
    verdict holds for the whole class; and the first non-distributive
    action in table order is the first of its class, so under the filter
    the scan raises on the action, and with the witness, that scanning
    every action would. The clock is read before the sort and then before
    every further action (never without leaves, and rel is then unused);
    past the deadline, the actions assembled so far make the result. It
    is exhaustive when the search was complete and every action was
    assembled, and must then pass the orbit-stabilizer count. Under dedupe
    the other actions of a class are only counted: a BinaryAction is built
    for the first action of each class and for each representative.
    """
    m = task.carrier_size
    actions = []
    raw = 0
    distributive = 0
    classes: dict[tuple, tuple] = {}  # canonical key -> (index tuple, |Aut|)
    met: dict[tuple, bool] = {}  # relabellings of each class found so far -> distributive
    # the first clock read comes before the sort, in place of the first leaf's
    ordered = sorted(leaves, key=rel.key) if leaves and time.monotonic() <= deadline else ()
    for i, leaf in enumerate(ordered):
        if i and time.monotonic() > deadline:
            break
        a = None
        verdict = met.get(leaf)
        if verdict is None:
            a = rel.action(leaf)
            w = is_distributive(a)
            if w is not True and task.require_distributive:
                raise InternalInconsistency(
                    f"search emitted a non-distributive action under the filter, witness {w}")
            key, canon, aut, orbit = rel.classify(leaf)
            if len(orbit) * aut != math.factorial(m):
                raise InternalInconsistency(
                    f"class of {canon}: {len(orbit)} relabellings times {aut} "
                    f"automorphisms is not {m}!")
            classes[key] = (canon, aut)
            verdict = w is True
            met.update(dict.fromkeys(orbit, verdict))
        distributive += verdict
        raw += 1
        if not task.dedupe:
            actions.append(a or rel.action(leaf))
    exhaustive = search_complete and raw == len(leaves)
    if exhaustive:
        orbit_total = sum(math.factorial(m) // aut for _, aut in classes.values())
        if orbit_total != raw:
            raise InternalInconsistency(
                f"orbit-stabilizer count {orbit_total} over {len(classes)} classes "
                f"differs from the {raw} actions found")
    if task.dedupe:
        out = tuple(rel.action(classes[k][0]) for k in sorted(classes))
    else:
        out = tuple(actions)
    return EnumerationResult(
        task=task,
        actions=out,
        raw_count=raw,
        canonical_count=len(classes),
        distributive_count=distributive,
        exhaustive=exhaustive,
    )


def all_ordinary_actions(g: FiniteGroup, carrier_size: int):
    """Every ordinary action of g on the carrier, via row homomorphisms.

    Each homomorphism passes _homomorphism_check once, which proves it an
    ordinary action, and its immutable table is shared, not copied.
    """
    m = _int(carrier_size, MalformedTable, "carrier size")
    check = _homomorphism_check(g, m)
    out = []
    for rho in permutation_homomorphisms(g, m):
        check(rho)
        out.append(OrdinaryAction(group=g, carrier_size=m, table=rho))
    return tuple(out)


def mine_counterexamples(result: EnumerationResult) -> WitnessReport:
    """Scan enumerated actions for the two classical failures of naive orbit
    intuition: minimal bi-invariant sets that intersect without being equal,
    and bi-invariant sets with a non-bi-invariant union.

    Actions are scanned in their deterministic result order and pairs in
    lexicographic order, so the reported witnesses are the smallest ones.
    Fields are None when the scale admits no witness.
    """
    intersecting = None
    union = None

    def points(mask: int) -> frozenset[int]:
        return frozenset(points_of(mask))

    for a in result.actions:
        m = a.carrier_size
        square = SquareTable(image_table(a))
        if intersecting is None:
            sets = [closure_masks(square, 1 << x)[-1] for x in range(m)]
            for x in range(m):
                for xp in range(x + 1, m):
                    if sets[x] & sets[xp] and sets[x] != sets[xp]:
                        intersecting = IntersectingOrbitsWitness(
                            action=a, x=x, xp=xp, set_x=points(sets[x]), set_xp=points(sets[xp]))
                        break
                if intersecting:
                    break
        if union is None:
            invariant = [s for s in range(1 << m) if square[s] == s]
            for i, sa in enumerate(invariant):
                for sb in invariant[i + 1:]:
                    image = square[sa | sb]
                    if image != sa | sb:
                        union = UnionWitness(action=a, set_a=points(sa), set_b=points(sb),
                                             union_image=points(image))
                        break
                if union:
                    break
        if intersecting and union:
            break
    return WitnessReport(
        intersecting_orbits=intersecting,
        non_bi_invariant_union=union,
        actions_scanned=len(result.actions),
    )
