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
settles the instance (h, x, x') for every g at once. It depends on h only
through c, so the search keeps, per homomorphism at x, each distinct
non-identity image c once; an identity c, as for h = e, always passes.

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
4 points, searched in one block: 13364 -> 2093).

The instances with x = x' = t filter the rows at t before any other row
matters. If h(t, t) = t, then c = h(t, -) fixes t, and (h, t, t) reads
rho_t = c rho_t c^-1: rho_t(h) = c is central in rho_t(G), so rho_t is
trivial on [G_t, G], where G_t = {h : h(t, t) = t}. The search builds,
once per point t, the ascending list of indices i with conj[i] == i for
every h != e with rho_i(h)(t) = t, and tries only those when no row is
forced. A dropped index is one the check rejects at the same depth
through (h, t, t), so no leaf is lost and leaves come in the same order;
only fewer nodes are counted (s3 on 5 points, searched in one block:
4602 -> 882). The layered search below checks, forces and filters the
same way in each block k, on the rows' restrictions to a subgroup H_k in
place of G: the law for g, h in H_k is the law of the restricted
action, so a distributive action passes it, and c = rho(h), h in H_k,
is the same for every rho in a run, whose conjugates by c are a run. A
forced run outside the point's run of the block before leaves no
candidate.

A homomorphism G -> S_m is a labelled G-set, a disjoint union of coset
spaces G/H with x (yH) = (xy)H, and is generated as one: the least point
not yet placed takes a subgroup H and its other cosets take an injective
choice of points not yet placed. The stabiliser of that point and the map
yH -> y . point recover both choices from the homomorphism, so each comes
out once, and the terms are those of Dey's formula for |Hom(G, S_m)|. The
list is then sorted on the images of a greedily chosen generating set,
which fix the homomorphism. Its |Hom(G, S_m)| |G| rows take at most m!
values, so each row is interned as it is built, by one dict's setdefault
with the row as key and value: equal rows are one tuple, the first built,
shared by the action tables and law rows built on the list (z420 on 7
points: 5040 tuples in place of 2116800).

Each found action is kept as a tuple of indices into that homomorphism
list. Relabelling the carrier by sigma sends the homomorphism rho at row t
to sigma rho sigma^-1 at row sigma(t), so one table of conjugate indices,
built once per run, turns every relabelling of an action into m index
lookups; a conjugate of a homomorphism is a homomorphism, so no relabelled
table is rebuilt or re-validated. The canonical form of an action is its
lexicographically least relabelled table, which the search reaches as a
leaf; the number of relabellings that reach it is the order of the
action's automorphism group.

Table order is the order of generator blocks. Slice g of a table holds
rho_t(g) as its row t, so two slices compare as their rows' permutations
do, point by point. Two different tables differ in the homomorphism at
some point, and a homomorphism is fixed by its images of the greedy
generators; let gens[k] be the first generator whose images differ at
some point. Every element below gens[k] is in <gens[:k]> (the greedy
choice took the least element outside it), where both rows at every
point agree, a homomorphism being fixed on a subgroup by its images of
the subgroup's generators. So the first slice that differs lies at or
after gens[k]: it is that of gens[k], and in it the first point t where
rho_t(gens[k]) differs decides, by the permutation order of the two
images. Table order is thus the lexicographic order of the blocks
(rho_t(gens[0]) for t < m), (rho_t(gens[1]) for t < m), ..., which
canonicalize compares. The homomorphism list is sorted on the generator
images, so at each block and point the homomorphisms that share the
images chosen so far are a contiguous run, split by their next image
into runs in ascending order; _blocks splits the list so, one pass per
generator, and numbers each block's runs in that order. A full listing
without dedupe is walked in that order (_walk), over the blocks' lists
of the runs inside each run, with no class, key or sort: one product
over the points per block.

The search is orderly and layered, in the line of Read's orderly
generation ("Every one a winner", 1978) and McKay's isomorph-free
generation (1998). Block k gives each point t a run of depth k + 1,
the homomorphisms that share their images of gens[:k + 1], inside the
run the point got in block k - 1: the restriction of its row to H_k =
<gens[:k + 1]>. Blocks 0..k of an index tuple L are then the first
k + 1 blocks of its table, and block k compares as the run ids do,
runs inside one run being in the order of their gens[k] images. The
search fills block 0 at points 0..m-1, then block 1, and so on; after
the last block every point holds one homomorphism. Two facts make it
reach one leaf per class, the class's least table.

(a) The first k + 1 blocks of the least table of a class are the least
such blocks over the class: a relabelling with smaller blocks 0..k
would have a smaller table. (b) Past block k - 1, only the moves that
fix the earlier blocks can tie. Let blocks 0..k-1 of L be least over
its class, and A_{k-1} the relabellings sigma with sigma.L equal to L
on them (A_{-1} is all of S_m). Any other sigma gives sigma.L different,
so larger, blocks 0..k-1, and sigma.L > L whatever block k holds. So
blocks 0..k of L are least over the class exactly when block k is least
among its images under A_{k-1}.

Block k's prefix test rejects the prefix after point t when some sigma
in A_{k-1} with sigma({0..t}) = {0..t} maps block k at 0..t lower. The
entry of sigma.L at s is table_sigma[L[inv[s]]], inv = sigma^-1; for
s <= t it has inv[s] <= t, so it reads only the prefix, and sigma fixes
the run of depth k at s, so the entry is a run inside the same run as
L's own and the ids compare as the gens[k] images do. If the entries
are smaller, every completion is mapped below itself and is not least.
No prefix of the least blocks of a class is rejected, so they are
always reached; at t = m - 1 every sigma in A_{k-1} keeps 0..m-1, so a
block that passes is least among its A_{k-1} images, and by (b) blocks
0..k are least over the class, and met once. The moves that tie there
map blocks 0..k onto themselves: with the identity they are A_k, the
moves of block k + 1's test. Block 0 starts from all m! moves
(_prefix_moves lists, per point t, a block's moves that keep 0..t). The
forced rows and the stabiliser filter prune only branches without a
distributive leaf, and this test only branches without a least one, so
under require_distributive the two compose: every least distributive
leaf is reached.

A homomorphism is fixed by its images of the generators, so the leaf of
the last block is the least table of its class by (a): the
representative, settled there with no pass over its relabellings. A
tie there fixes the leaf's index tuple, so the action (one tuple is one
action): the ties plus the identity are |Aut|. The leaves come in table
order, the blocks in generator order, the points in order and each
point's runs ascending, so no key is compared and no class list sorted.
Summing m!/|Aut| over the classes gives the actions found; after a full
search that sum must be |Hom(G, S_m)|^m, every action being in one
class. Whether a class is distributive is settled on its leaf's index
tuple (_law_holds), with no action built: the last block's law rows hold
each distinct non-identity image c of G under each homomorphism, with
its conjugation table, and each instance (h, x, x') is the search's own
comparison leaf[c[x']] == table[leaf[x']]. A full search needs the
verdict for distributive_count, so the last block has law rows with or
without the filter. Under require_distributive the leaf passed every
instance on its way down, so a failure is a fault: only then is its
action built, and is_distributive names the witness in the error. A
cyclic group generated by its least non-identity element (z2, z3, z60)
has one block, whose runs are single homomorphisms. The trivial group
has no block: its one action is fixed by all m! relabellings, so it is
settled with |Aut| = m! and no move, and it is distributive, every row
being the identity.

The walk yields runs: in the last block point m - 1 varies fastest, so
the rows that share their indices at points 0..m-2 come together, with
the indices at m - 1 ascending. A run is that shared outer tuple and the
list of those last indices, which the walk already holds; no row tuple
is built. The runs go to enumerate_actions' one sink, emit: by default
it extends the result's rows, and enumerate --out writes each run's
lines as the walk yields it, so a full listing written to a file holds
no list of rows. Under dedupe each class is one such run as it settles,
its representative, and no class is kept; a count-only enumerate drops
it and walks nothing. A filtered listing is its classes' orbits,
expanded and sorted on the rows' run ids (_expand), one run per row.

The emitted actions stay index tuples through the search, the walk or
the expansion, and the EnumerationResult that holds them: enumerate_actions
builds no BinaryAction but the scanned one of a filtered leaf that fails
the law, which raises. The result builds one per emitted
tuple the first time its actions are read, and the CLI's enumerate --out
builds none: it joins each JSON line from per-element texts of the rows'
homomorphisms.

Validity is carried, not re-derived. Axioms (1) and (2) hold row by row:
(gh)(t, -) = g(t, -) h(t, -) and e(t, -) = id say exactly that the row at
t is a homomorphism G -> S_m. permutation_homomorphisms passes each coset
action G/H through make_ordinary_action once, as it builds it, and every
homomorphism it assembles from them is then one by construction (the
proof is in its docstring). So every table assembled from the list is a
binary action, and every entry of all_ordinary_actions an ordinary one,
with no homomorphism checked on its own and no table passing through
validate_action.
"""

from __future__ import annotations

import functools
import itertools
import math
import time

from .actions import (BinaryAction, OrdinaryAction, _table_json, is_distributive,
                      make_ordinary_action)
from .binops import _Value, _set, _int, _ints, _size, invert_perm
from .errors import BinactError, BudgetExceeded, InternalInconsistency, MalformedTable, _BudgetStop
from .groups import FiniteGroup, all_subgroups, greedy_generators, subgroup_closure
from .orbits import _record, closure_masks, points_of


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
    Equal rows are one tuple, the first built, so the list holds at most
    degree! permutations whatever |G| is, and every table built from it
    shares them. Given a finite deadline, the clock is read every 1024
    subgroup closures (in all_subgroups) and every 1024 placements, and
    _BudgetStop is raised once it has passed; the default reads no clock.

    Each coset action A of G on the k cosets of H passes
    make_ordinary_action once, as it is built, or InternalInconsistency is
    raised: |G|^2 k cell comparisons, no more than make_group's
    associativity scan of G. That proves every homomorphism in the list.
    At a leaf of the placement, the injective labellings p chosen on the
    way down have images that partition 0..degree-1, so every entry of
    every row was written; on the image of p, rho(x) = p A(x) p^-1 for a
    checked A. So each rho(x) is a permutation, rho(e) is the identity
    and rho(x y) = rho(x) rho(y) on every image: rho is a homomorphism
    G -> S_degree, and no homomorphism is checked on its own.
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
        try:
            coset_actions.append(make_ordinary_action(
                g, [[coset_of[g.mul(x, y)] for y in reps] for x in g.elements()]).table)
        except BinactError as exc:  # impossible for a subgroup H
            raise InternalInconsistency(f"coset action of {sorted(h)} invalid: {exc}") from exc
    rows = [[0] * degree for _ in g.elements()]
    out = []
    shared = {}  # each row -> the first equal row built
    placed = 0

    def place(free):
        nonlocal placed
        placed += 1
        if placed % 1024 == 0 and deadline < math.inf and time.monotonic() > deadline:
            raise _BudgetStop()
        if not free:
            built = list(map(tuple, rows))
            out.append(tuple(map(shared.setdefault, built, built)))
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


class EnumerationTask(_Value):
    """What to enumerate and under which budgets."""

    _fields = ("group", "carrier_size", "require_distributive", "dedupe", "node_budget",
               "time_budget_s")
    require_distributive = dedupe = False
    node_budget = 2_000_000
    time_budget_s = 120.0

    def __init__(self, group: FiniteGroup, carrier_size: int,
                 require_distributive: bool = require_distributive, dedupe: bool = dedupe,
                 node_budget: int = node_budget, time_budget_s: float = time_budget_s):
        carrier_size = _size(carrier_size, "carrier size")
        for name, value in (("require_distributive", require_distributive), ("dedupe", dedupe)):
            if type(value) is not bool:
                raise MalformedTable(f"{name} = {value!r} is not a bool")
        node_budget = _int(node_budget, MalformedTable, "node budget")
        if type(time_budget_s) is bool or not isinstance(time_budget_s, (int, float)):
            raise MalformedTable(f"time budget = {time_budget_s!r} is not a number")
        if node_budget < 1 or not time_budget_s > 0:
            raise MalformedTable("budgets must be positive")
        _set(self, "group", group)
        _set(self, "carrier_size", carrier_size)
        _set(self, "require_distributive", require_distributive)
        _set(self, "dedupe", dedupe)
        _set(self, "node_budget", node_budget)
        _set(self, "time_budget_s", time_budget_s)


class IntersectingOrbitsWitness(_Value):
    """Two points whose minimal bi-invariant sets intersect without coinciding."""

    _fields = ("action", "x", "xp", "set_x", "set_xp")

    def to_json(self) -> dict:
        return {
            "kind": "intersecting_orbits",
            "action_table": _table_json(self.action),
            "x": self.x,
            "x_prime": self.xp,
            "minimal_set_x": sorted(self.set_x),
            "minimal_set_x_prime": sorted(self.set_xp),
        }


class UnionWitness(_Value):
    """Two bi-invariant sets whose union is not bi-invariant."""

    _fields = ("action", "set_a", "set_b", "union_image")

    def to_json(self) -> dict:
        return {
            "kind": "non_bi_invariant_union",
            "action_table": _table_json(self.action),
            "set_a": sorted(self.set_a),
            "set_b": sorted(self.set_b),
            "union_image": sorted(self.union_image),
        }


class WitnessReport(_Value):
    _fields = ("intersecting_orbits", "non_bi_invariant_union", "actions_scanned")

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


class EnumerationResult(_Value):
    """Outcome of one enumeration run.

    raw_count counts emissions before dedupe; canonical_count counts
    biequimorphism classes among them, each represented by its
    lexicographically least table and found on homomorphism indices
    without rebuilding relabelled tables; distributive_count counts
    distributive emissions, from one law check per class on its
    representative's index tuple. raw_count is the sum
    of m!/|Aut(a)| over the classes, and distributive_count the same sum
    over the distributive ones. Each class whose orbit was expanded has
    passed the check that its m!/|Aut(a)| relabellings times |Aut(a)|
    make m!, and a finished full search the check that raw_count is
    |Hom(G, S_m)|^m. nodes counts the search nodes, the count the node
    budget bounds, and is not compared. After a budget stop, the one
    BudgetExceeded carries a result with exhaustive false whose counts are
    the tally of every class the search settled, and its message says how
    many actions that is.

    rows holds the emitted actions in lexicographic table order, each as
    its tuple of indices into homs, the row homomorphisms, each proven by
    permutation_homomorphisms' coset-action check: under dedupe the
    representatives, as the search settles them; a full listing as
    walked; a filtered one as the classes' orbits, expanded and sorted.
    It is empty when enumerate_actions was given a sink, which took them.
    After a stop it holds the rows emitted before it, a prefix of the
    finished run's rows and the lines enumerate --out leaves. actions
    builds them as BinaryActions the first time it is read, none
    re-validated, and keeps them; enumerate --out writes them without
    building any.
    """

    _fields = ("task", "raw_count", "canonical_count", "distributive_count", "exhaustive",
               "homs", "rows", "nodes")
    nodes = 0

    def _counts(self) -> tuple:
        return (self.task, self.raw_count, self.canonical_count, self.distributive_count,
                self.exhaustive, self.homs)

    def __eq__(self, other):  # nodes is not compared, and rows, a list, not hashed
        if other.__class__ is self.__class__:
            return self._counts() == other._counts() and self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._counts())

    @functools.cached_property
    def actions(self) -> tuple[BinaryAction, ...]:
        return tuple([_action(self.task.group, self.homs, row) for row in self.rows])


def relabel_action(a: BinaryAction, sigma) -> BinaryAction:
    """The action carried across the carrier bijection sigma, which makes
    sigma a biequimorphism from a to the result. Axioms (1) and (2) are
    carried across sigma with the table, so the result is built without
    validate_action; the acting group, and its group_embedding, are a's."""
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
    return BinaryAction(group=a.group, carrier_size=m, table=table,
                        group_embedding=a.group_embedding)


def _conjugate(sigma, inv, rho) -> tuple[tuple[int, ...], ...]:
    """sigma p sigma^-1 for each permutation p of rho, a homomorphism or
    its images of the greedy generators."""
    return tuple(tuple(sigma[p[x]] for x in inv) for p in rho)


def _moves(group: FiniteGroup, homs, m: int, deadline: float = math.inf) -> list:
    """The carrier relabellings sigma, the moves, in the lexicographic order
    of itertools.permutations (a move's place is its _rank), each as
    (table, inv): table[i] is the index of sigma homs[i] sigma^-1 and inv
    is sigma^-1. An action is the tuple of its rows' indices into homs, so
    a move relabels it in m lookups, and the m! tables serve a whole run.
    homs is the list permutation_homomorphisms built, each entry proven by
    its coset-action check, so none is checked here. Only with a finite
    deadline, the clock is read once per relabelling, raising _BudgetStop
    once it has passed.

    Only the m - 1 adjacent transpositions s_j, swapping j and j + 1, are
    conjugated rho by rho; each of these tables checks that every
    conjugate is in the list. index keys each homomorphism on its images
    of the greedy generators, so a table conjugates |S| permutations per
    homomorphism, not |G|. That finds the same index: every entry is a
    homomorphism, by the coset-action check, and so is its conjugate
    s_j rho s_j^-1, conjugation by s_j being an automorphism of S_m. A
    homomorphism is fixed by its images of a generating set, so an entry
    whose generator images are the conjugate's is the conjugate, and when
    no entry has them the conjugate is not in the list, which raises as a
    lookup of the whole tuple would. Every other sigma has some value j + 1
    before j. Swapping those two values gives q with sigma = s_j o q and
    q < sigma, and s_j <= sigma (the first place they differ holds a
    larger value in sigma), so both tables are built and
    sigma rho sigma^-1 = s_j (q rho q^-1) s_j^-1 gives
    table(sigma)[i] = table(s_j)[table(q)[i]]. A composition of total
    index maps is total, so closure under the transpositions, which
    generate S_m, gives closure under every conjugation.
    """
    gens = greedy_generators(group)
    images = [tuple([rho[s] for s in gens]) for rho in homs]  # the key of each homomorphism
    index = {key: i for i, key in enumerate(images)}
    moves = []
    swaps = {}  # j -> conjugation table of the transposition of j and j + 1
    # the trivial group has one homomorphism, which every relabelling
    # fixes: the identity move stands for all m! of them
    perms = itertools.permutations(range(m)) if gens else [tuple(range(m))]
    for sigma in perms:
        if deadline < math.inf and time.monotonic() > deadline:
            raise _BudgetStop()
        inv = invert_perm(sigma)
        j = next((j for j in range(m - 1) if inv[j + 1] < inv[j]), None)
        if j is None:  # the identity
            conj = list(range(len(homs)))
        else:
            r = len(moves) - math.factorial(m - 1 - inv[j + 1])  # the rank of q (_rank)
            if r == 0:  # sigma is the transposition of j and j + 1, an involution
                conj = [index.get(_conjugate(sigma, sigma, key)) for key in images]
                if None in conj:
                    raise InternalInconsistency(
                        f"homomorphism list not closed under conjugation by {sigma}")
                swaps[j] = conj
            else:
                conj = list(map(swaps[j].__getitem__, moves[r][0]))
        moves.append((conj, inv))
    return moves


def _rank(p) -> int:
    """The place of the permutation p of 0..m-1 in the lexicographic order
    of itertools.permutations(range(m)): its Lehmer code, whose digit i
    counts the later entries below entry i and weighs (m - 1 - i)!. For
    every group that has a block, the moves are all m! permutations in
    that order (_moves), so a rank is the place of that move.

    _moves reads q's rank off sigma's: sigma and q differ only at
    a = inv[j + 1] < b = inv[j], which hold j + 1 and j in sigma and the
    reverse in q; any other value is below j exactly when it is below
    j + 1, so only digit a changes, losing the j at b:
    rank(q) = rank(sigma) - (m - 1 - a)!.
    """
    r = 0
    for i, x in enumerate(p):
        r = r * (len(p) - i) + sum(y < x for y in p[i + 1:])
    return r


def _action(group: FiniteGroup, homs, leaf) -> BinaryAction:
    """The action with row homs[leaf[t]] at each point t, unvalidated: its
    g-major table has slice g hold rho(g) of the row at each point, and it
    is a binary action because every row is a homomorphism, proven by
    permutation_homomorphisms' coset-action check."""
    return BinaryAction(group=group, carrier_size=len(leaf),
                        table=tuple(zip(*[homs[i] for i in leaf])))


def canonicalize(a: BinaryAction) -> BinaryAction:
    """Lexicographically least relabelling of a; constant on biequimorphism
    classes and idempotent.

    A direct minimum over the m! carrier bijections sigma. Each is compared
    by the slices of its relabelled table at the greedy generators, whose
    blocks decide table order (module docstring); equal slices there mean
    equal tables, so a tie is the same table. The winner is built once by
    relabel_action, which keeps the acting group and its group_embedding:
    a carrier bijection leaves them alone.
    """
    slices = [a.table[s] for s in greedy_generators(a.group)]

    def relabelled(sigma):  # slice g of the relabelled table holds sigma g(inv x, inv x')
        inv = invert_perm(sigma)
        return [sigma[sl[x][xp]] for sl in slices for x in inv for xp in inv]

    return relabel_action(a, min(itertools.permutations(range(a.carrier_size)), key=relabelled))


def enumerate_actions(task: EnumerationTask, emit=None) -> EnumerationResult:
    """Enumerate every binary action of the task's group on its carrier.

    The layered search, one block per greedy generator, reaches one leaf
    per relabelling class, the class's least table, in table order, and
    settles the class there: the leaf is the representative, and the
    moves that tie with it at the last point of the last block, with the
    identity, are its automorphisms. Every law instance is checked on the
    representative's index tuple, which settles whether the class is
    distributive. Under require_distributive the search forces and
    filters rows by the law (module docstring), and a representative that
    fails raises, with the witness is_distributive finds on it. The counts
    are running sums over the classes as they settle, and a full search
    that finishes must have found |Hom(G, S_m)|^m actions.

    The listing goes to emit, the only way rows leave the run, called as
    emit(homs, runs) with the row homomorphisms and runs (outer, last)
    whose rows, index tuples into homs, are outer + (i,) for i in last,
    in table order: under dedupe once per class as it settles, with its
    representative, and no class is kept; without it once, after the
    search has finished, with the runs of _walk, which it consumes in
    order, or under the filter with _expand's one-row runs of the
    classes' orbits, the one case that keeps a class list. With no emit
    the rows are gathered into the result's rows; given one, as by
    enumerate --out, the result's rows stay empty.

    The time budget counts from before the row homomorphisms are
    generated and bounds their generation, the subgroup lattice it starts
    from (all_subgroups reads the deadline), the relabelling tables, the
    search, the walk and the expansion of classes. Every budget check
    raises _BudgetStop, caught here alone, which ends the run where it
    comes: one BudgetExceeded carries the tally of every class settled
    (none if the stop came before the search) and the rows emitted before
    the stop, a prefix of the finished listing. Its message is "<budget>
    reached (N actions found)", naming the budget that stopped the run.
    """
    rows = []
    if emit is None:
        def emit(homs, runs):
            for outer, last in runs:
                rows.extend([outer + (i,) for i in last])

    g = task.group
    m = task.carrier_size
    deadline = time.monotonic() + task.time_budget_s
    nodes = 0
    law = task.require_distributive
    settled = _Settled(m, [] if law and not task.dedupe else None)
    chosen_idx = [0] * m  # per point, its run id in the block being filled or the block before
    rowhoms = moves = reason = None

    def distributivity_ok(law_rows, t: int) -> bool:
        # the law instances that row t adds, one per distinct non-identity
        # c = h(x, -) and x', each one comparison: row c(x') is row x'
        # conjugated by c
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

    def forced_rows(block, t: int, parent: int):
        # the run the law dictates at row t through some instance
        # (h, x, x') with x, x' < t and h(x, x') = t, as the one candidate
        # left (none if it is not a run inside parent), or None if no
        # instance lands on t
        for x in range(t):
            for c, conj in block.law_rows[chosen_idx[x]]:
                xp = c.index(t)
                if xp < t:
                    i = conj[chosen_idx[xp]]
                    return (i,) if block.parent[i] == parent else ()
        return None

    def least_so_far(moves, t: int) -> bool:
        # no move that keeps 0..t as a set maps the prefix below itself
        prefix = chosen_idx[:t + 1]
        first = prefix[0]
        for conj, inv in moves:
            y = conj[chosen_idx[inv[0]]]
            if y < first or y == first and [conj[chosen_idx[s]] for s in inv] < prefix:
                return False
        return True

    def leaf_ties(moves):
        # least_so_far at t = m - 1, listing the ranks of the moves that
        # fix the block: None if one maps it below itself
        first = chosen_idx[0]
        ties = []
        for conj, inv, r in moves:
            y = conj[chosen_idx[inv[0]]]
            if y == first:
                image = [conj[chosen_idx[s]] for s in inv]
                if image < chosen_idx:
                    return None
                if image == chosen_idx:
                    ties.append(r)
            elif y < first:
                return None
        return ties

    def settle(aut: int):
        leaf = tuple(chosen_idx)
        lawful = not blocks or _law_holds(leaf, blocks[-1].law_rows)
        if not lawful and law:
            w = is_distributive(_action(g, rowhoms, leaf))
            raise InternalInconsistency(
                f"search emitted a non-distributive action under the filter, witness {w}")
        settled.add(leaf, aut, lawful)
        if task.dedupe:
            emit(rowhoms, ((leaf[:-1], leaf[-1:]),))

    def fill(k: int, t: int, moves):
        nonlocal nodes
        block = blocks[k]
        parent = chosen_idx[t]
        forced = forced_rows(block, t, parent) if law else None
        for i in block.candidates[t][parent] if forced is None else forced:
            if nodes == task.node_budget:
                raise _BudgetStop(f"node budget {task.node_budget} reached")
            nodes += 1
            if nodes % 1024 == 0 and time.monotonic() > deadline:
                raise _BudgetStop()
            chosen_idx[t] = i
            if law and not distributivity_ok(block.law_rows, t):
                continue
            if t < m - 1:
                if least_so_far(moves[t], t):
                    fill(k, t + 1, moves)
                continue
            ties = leaf_ties(moves[-1])
            if ties is None:
                continue
            if k == len(blocks) - 1:
                settle(len(ties) + 1)
            else:
                start(k + 1, ties)
        chosen_idx[t] = parent

    def start(k: int, ranks):
        # fill block k, its prefix test over the moves of these ranks
        table = blocks[k].table
        fill(k, 0, _prefix_moves([(table(r), moves[r][1], r) for r in ranks], m))

    try:
        rowhoms = permutation_homomorphisms(g, m, deadline=deadline)
        moves = _moves(g, rowhoms, m, deadline)
        blocks = _blocks(g, rowhoms, moves, m, law)
        if blocks:
            start(0, range(1, len(moves)))  # every move but the identity
        else:  # the trivial group: one action, which every relabelling fixes
            settle(math.factorial(m))
        if not law and settled.actions != len(rowhoms) ** m:
            raise InternalInconsistency(
                f"the classes hold {settled.actions} actions, not |Hom(G, S_{m})|^{m} = "
                f"{len(rowhoms) ** m}")
        if not task.dedupe:
            emit(rowhoms, _expand(blocks, moves, settled.classes, m, deadline) if law
                 else _walk(blocks, m, deadline))
    except _BudgetStop as stop:
        reason = str(stop) or f"time budget {task.time_budget_s}s reached"
    result = EnumerationResult(
        task=task, raw_count=settled.actions, canonical_count=settled.count,
        distributive_count=settled.distributive, exhaustive=reason is None,
        homs=rowhoms if moves else (), rows=rows, nodes=nodes)
    if reason is None:
        return result
    raise BudgetExceeded(f"{reason} ({settled.actions} actions found)", partial=result)


def _prefix_moves(moves, m: int):
    """Per point t, the moves (table, inv, r) that map 0..t onto itself,
    in the order given, for the prefix test of one block: (table,
    inv[:t + 1]) for t < m - 1, whose entries of the relabelled tuple,
    table[leaf[inv[s]]] for s <= t, read only the leaf's entries at 0..t,
    and the whole (table, inv, r) at t = m - 1, which every move keeps."""
    out = [[] for _ in range(m)]
    for table, inv, r in moves:
        top = -1
        for t in range(m - 1):
            top = max(top, inv[t])
            if top == t:
                out[t].append((table, inv[:t + 1]))
        out[-1].append((table, inv, r))
    return out


class _Block(_Value):
    """Block k of the layered search, over the runs of depth k + 1: the
    homomorphisms that share their images of gens[:k + 1], that is their
    restrictions to H_k = <gens[:k + 1]>. A run's id is its place among
    them, which orders them as their images of gens[k] within each run of
    depth k; in the last block a run is one homomorphism and its id its
    index.

    table(r) maps each id to the id of its conjugate by move r. parent[i]
    is the id of run i's run of depth k in the block before (0 in block
    0), and children[p] lists the runs inside run p, ascending.
    candidates[t][p] lists, in ascending order, those of them tried at
    point t. law_rows[i], under the filter and always in the last block,
    holds (c, table) for each distinct non-identity c = rho(h), h in H_k,
    in the order of the first h reaching it, rho being any homomorphism in
    run i; None otherwise.
    """

    _fields = ("table", "parent", "children", "candidates", "law_rows")


def _blocks(g: FiniteGroup, homs, moves, m: int, law: bool) -> list[_Block]:
    """The blocks of the layered search, one per greedy generator gens[k].
    homs is sorted on the images of gens, so a run of depth k + 1 is a
    stretch of homs that lie in one run of depth k and share their
    gens[k] image; a run starts where either changes. Under the filter a
    point's candidates are the runs that pass the instances (h, t, t) of
    H_k with h(t, t) = t; otherwise every run inside p. A law row's table
    is the move table of c, at c's rank, memoised for this call."""
    rank = functools.cache(_rank)
    gens = greedy_generators(g)
    identity = tuple(range(m))
    blocks = []
    runid = [0] * len(homs)  # per homomorphism, the id of its run in the block before
    for k, s in enumerate(gens):
        up, runid, starts, parent = runid, [], [], []
        for i, rho in enumerate(homs):
            if not i or up[i] != up[i - 1] or rho[s] != homs[i - 1][s]:
                starts.append(i)
                parent.append(up[i])
            runid.append(len(starts) - 1)
        children = [[] for _ in range(parent[-1] + 1)]
        for d, p in enumerate(parent):
            children[p].append(d)
        if k == len(gens) - 1:
            def table(r):
                return moves[r][0]
        else:
            table = functools.cache(
                lambda r, runid=runid, starts=starts: [runid[moves[r][0][i]] for i in starts])
        law_rows = None
        if law or k == len(gens) - 1:  # the last block's settle each leaf's verdict too
            members = sorted(subgroup_closure(g, gens[:k + 1]))
            law_rows = [[(c, table(rank(c))) for c in dict.fromkeys(homs[i][h] for h in members)
                         if c != identity] for i in starts]
        if law:
            candidates = [[[d for d in kids if all(conj[d] == d for c, conj in law_rows[d]
                                                   if c[t] == t)] for kids in children]
                          for t in range(m)]
        else:
            candidates = [children] * m
        blocks.append(_Block(table, parent, children, candidates, law_rows))
    return blocks


def _law_holds(leaf, law_rows) -> bool:
    """Whether every law instance (h, x, x') holds on the index tuple leaf,
    law_rows being the last block's: leaf[c[x']] == table[leaf[x']] for
    each entry (c, table) of law_rows[leaf[x]] (module docstring). An
    identity c passes every instance. The instances at x depend on x only
    through its index, so each distinct index is read once."""
    for i in set(leaf):
        for c, conj in law_rows[i]:
            if list(map(leaf.__getitem__, c)) != list(map(conj.__getitem__, leaf)):
                return False
    return True


def _walk(blocks: list[_Block], m: int, deadline: float):
    """Every index tuple of m points, in table order, with no key and no
    sort, as runs (outer, last): outer is the index tuple at points
    0..m-2, last the ascending list of indices at point m - 1, and the
    run's rows are outer + (i,) for each i in last. The proof is in the
    module docstring.

    Block k picks, at every point, a run inside the run the point holds
    from the block before (children), one product over the points, and
    each choice of the block is completed by the later blocks. Point
    m - 1 varies fastest in the last block, whose runs are single
    homomorphisms, so a choice there at points 0..m-2 is one run, with
    last the children list at point m - 1. The clock is read before the
    first row and then before the first run past each further 1024 rows,
    and _BudgetStop raised once the deadline has passed.
    """
    levels = [block.children for block in blocks] or [[[0]]]  # the trivial group: one homomorphism

    def block(k: int, state):
        kids = levels[k]
        if k == len(levels) - 1:
            outers = itertools.product(*map(kids.__getitem__, state[:-1]))
            return zip(outers, itertools.repeat(kids[state[-1]]))
        return itertools.chain.from_iterable(
            block(k + 1, c) for c in itertools.product(*map(kids.__getitem__, state)))

    walked = due = 0
    for run in block(0, (0,) * m):
        if walked >= due:
            if time.monotonic() > deadline:
                raise _BudgetStop()
            due = walked - walked % 1024 + 1024
        yield run
        walked += len(run[1])


class _Settled:
    """Running sums over classes (representative, |Aut|, distributive):
    actions of m!/|Aut| over all, distributive over the distributive ones,
    and count; classes, a list or None, keeps each (representative,
    |Aut|) in order, or none."""

    def __init__(self, m: int, classes=None):
        self.unit = math.factorial(m)
        self.actions = self.count = self.distributive = 0
        self.classes = classes

    def add(self, leaf, aut: int, lawful: bool) -> None:
        n = self.unit // aut
        self.actions += n
        self.count += 1
        self.distributive += n if lawful else 0
        if self.classes is not None:
            self.classes.append((leaf, aut))


def _table_key(blocks: list[_Block], m: int):
    """The sort key of index tuples of m points, an int per tuple, in
    table order. Table order is the lexicographic order of a tuple's run
    ids, block by block and point by point in each block (module
    docstring). The key reads them as digits in that order, block k's in
    base its number of runs, so keys compare as the id sequences do; the
    last block's ids are the tuple's indices, so no two tuples share a
    key. place[t][i] is the value of the digits that homs[i] puts at point
    t, and the key of a tuple the sum of its m lookups."""
    ids = range(len(blocks[-1].parent)) if blocks else [0]  # the last block's ids are indices
    place = [[0] * len(ids) for _ in range(m)]
    weight = 1
    for block in reversed(blocks):
        n = len(block.parent)
        for t in range(m):
            w = weight * n ** (m - 1 - t)
            place[t] = [v + w * d for v, d in zip(place[t], ids)]
        weight *= n ** m
        ids = [block.parent[d] for d in ids]
    return lambda row: sum(map(list.__getitem__, place, row))


def _expand(blocks: list[_Block], moves, classes: list, m: int, deadline: float):
    """The orbits of the classes as one-row runs (row[:-1], row[-1:]) in
    table order: each orbit recomputed from its representative under the
    moves in the order met, the clock read before each one, its size times
    |Aut| checked to be m!, and the rows sorted by _table_key. _BudgetStop
    is raised once the deadline has passed, before any run is returned."""
    rows = []
    unit = math.factorial(m)
    for canon, aut in classes:
        if time.monotonic() > deadline:
            raise _BudgetStop()
        orbit = {tuple([conj[canon[t]] for t in inv]) for conj, inv in moves}
        if len(orbit) * aut != unit:  # orbit-stabilizer
            raise InternalInconsistency(f"class of {canon}: {len(orbit)} relabellings "
                                        f"times {aut} automorphisms is not {m}!")
        rows += orbit
    rows.sort(key=_table_key(blocks, m))
    return ((row[:-1], row[-1:]) for row in rows)


def all_ordinary_actions(g: FiniteGroup, carrier_size: int):
    """Every ordinary action of g on the carrier, via row homomorphisms.

    Each homomorphism is an ordinary action by permutation_homomorphisms'
    coset-action check, so none is checked again, and its immutable table
    is shared, not copied.
    """
    m = _size(carrier_size, "carrier size")
    return tuple([OrdinaryAction(group=g, carrier_size=m, table=rho)
                  for rho in permutation_homomorphisms(g, m)])


def mine_counterexamples(result: EnumerationResult) -> WitnessReport:
    """Scan enumerated actions for the two classical failures of naive orbit
    intuition: minimal bi-invariant sets that intersect without being equal,
    and bi-invariant sets with a non-bi-invariant union.

    Actions are scanned in their deterministic result order and pairs in
    lexicographic order, so the reported witnesses are the smallest ones.
    Both properties are invariant under relabelling, and a deduplicated
    result lists each class's least table in table order, so the first
    representative with a property is the least action with it: mining
    the representatives gives the full listing's witnesses. Each action is
    built from its index tuple only when scanned. actions_scanned is the
    result's raw_count, the actions its rows stand for (len(rows) when
    they are not deduplicated). Fields are None when the scale admits no
    witness.
    """
    intersecting = None
    union = None
    m = result.task.carrier_size

    def points(mask: int) -> frozenset[int]:
        return frozenset(points_of(mask))

    for row in result.rows:
        a = _action(result.task.group, result.homs, row)
        square = _record(a).square
        if intersecting is None:
            sets = [closure_masks(square, 1 << x)[-1] for x in range(m)]
            intersecting = next((IntersectingOrbitsWitness(
                action=a, x=x, xp=xp, set_x=points(sets[x]), set_xp=points(sets[xp]))
                for x, xp in itertools.combinations(range(m), 2)
                if sets[x] & sets[xp] and sets[x] != sets[xp]), None)
        if union is None:
            invariant = [s for s in range(1 << m) if square[s] == s]
            union = next((UnionWitness(action=a, set_a=points(sa), set_b=points(sb),
                                       union_image=points(square[sa | sb]))
                          for sa, sb in itertools.combinations(invariant, 2)
                          if square[sa | sb] != sa | sb), None)
        if intersecting and union:
            break
    return WitnessReport(
        intersecting_orbits=intersecting,
        non_bi_invariant_union=union,
        actions_scanned=result.raw_count,
    )
