import dataclasses
import functools
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binact.actions
from binact import (
    EnumerationTask,
    action_to_json,
    builtin_group,
    canonicalize,
    conjugation_coset_action,
    enumerate_actions,
    greedy_generators,
    is_distributive,
    make_group,
    make_ordinary_action,
    mine_counterexamples,
    permutation_homomorphisms,
    search,
    subgroup_closure,
    validate_action,
)
from binact.errors import BudgetExceeded, InternalInconsistency, MalformedTable, ShapeMismatch
from binact.binops import invert_perm
from binact.search import all_ordinary_actions, relabel_action

from oracles import (
    oracle_canonical_form,
    oracle_canonical_representatives,
    oracle_burnside_counts,
    oracle_dey_count,
    oracle_distributivity_witness,
    oracle_hom_count,
    oracle_is_distributive,
    oracle_k_set,
    oracle_min_bi_invariant,
    oracle_permutation_homomorphisms,
    oracle_relabellings,
    oracle_stabiliser_commutator_witness,
    oracle_valid_action_tables,
)

# raw / canonical / distributive counts, frozen after cross-checking against
# the brute-force oracles below
EXPECTED_COUNTS = {
    ("z2", 2): (4, 3, 2),
    ("z2", 3): (64, 16, 11),
    ("z3", 2): (1, 1, 1),
    ("z3", 3): (27, 7, 3),
    ("k4", 2): (16, 10, 4),
    ("k4", 3): (1000, 190, 49),
    ("s3", 2): (4, 3, 2),
    ("s3", 3): (1000, 180, 11),
}


def test_greedy_generators(s3, z3):
    assert greedy_generators(s3) == (1, 2)
    assert subgroup_closure(s3, greedy_generators(s3)) == frozenset(range(6))
    assert greedy_generators(z3) == (1,)
    assert greedy_generators(builtin_group("z1")) == ()


def test_permutation_homomorphism_counts_match_oracle():
    for name in ("z2", "z3", "z4", "k4", "z6", "s3"):
        g = builtin_group(name)
        for degree in (1, 2, 3):
            homs = permutation_homomorphisms(g, degree)
            assert len(homs) == oracle_hom_count(g.cayley, g.identity, degree), (
                name, degree)


def test_permutation_homomorphism_counts_match_dey():
    """Counts past brute-force scale against Dey's formula."""
    expect = {("k4", 6): 1216, ("s3", 5): 146, ("d4", 5): 316, ("z2xz2xz2", 4): 232,
              ("z2xz2xz2", 5): 1016, ("s3", 6): 1036, ("q8", 5): 196, ("q8", 6): 1216,
              ("q8", 7): 5944, ("d4", 6): 2656, ("z2xz2xz2", 6): 12496}
    for (name, degree), count in expect.items():
        g = builtin_group(name)
        assert oracle_dey_count(g.cayley, g.identity, degree) == count, (name, degree)
        assert len(permutation_homomorphisms(g, degree)) == count, (name, degree)


def test_permutation_homomorphisms_match_oracle_order():
    assert permutation_homomorphisms(builtin_group("z1"), 3) == (((0, 1, 2),),)
    # highest degree per group: the oracle tries (degree!) ** k image tuples
    # for k greedy generators (q8 has 3, z2^5 has 5 and 374 subgroups)
    top = {"z1": 4, "z2": 4, "z3": 4, "k4": 4, "s3": 4, "d4": 4, "z2xz2xz2": 4,
           "q8": 3, "z4xz2": 4, "z2xz2xz2xz2xz2": 2}
    for name, highest in top.items():
        g = builtin_group(name)
        for degree in range(1, highest + 1):
            assert permutation_homomorphisms(g, degree) == oracle_permutation_homomorphisms(
                g.cayley, g.identity, degree), (name, degree)


def _relabelled_group(g, pi):
    """g with each element x renamed pi[x]."""
    cayley = [[0] * g.order for _ in g.elements()]
    for a in g.elements():
        for b in g.elements():
            cayley[pi[a]][pi[b]] = pi[g.mul(a, b)]
    return make_group(cayley)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_permutation_homomorphisms_relabel_property(data):
    """On relabelled groups, whose greedy generators and words differ from
    the catalog's, the output matches the oracle in order and every
    homomorphism is an ordinary action."""
    g = builtin_group(data.draw(st.sampled_from(["s3", "d4", "k4"])))
    others = [x for x in g.elements() if x != g.identity]
    pi = dict(zip(others, data.draw(st.permutations(others))))
    pi[g.identity] = g.identity
    h = _relabelled_group(g, pi)
    degree = data.draw(st.integers(1, 3 if len(greedy_generators(h)) == 3 else 4))
    homs = permutation_homomorphisms(h, degree)
    assert homs == oracle_permutation_homomorphisms(h.cayley, h.identity, degree)
    for rho in homs:
        make_ordinary_action(h, rho)


def test_enumeration_counts():
    for (name, m), (raw, canon, dist) in EXPECTED_COUNTS.items():
        g = builtin_group(name)
        result = enumerate_actions(EnumerationTask(group=g, carrier_size=m))
        assert result.raw_count == raw, (name, m)
        assert result.canonical_count == canon, (name, m)
        assert result.distributive_count == dist, (name, m)
        assert result.exhaustive
        assert len(result.actions) == raw
        tables = [a.table for a in result.actions]
        assert tables == sorted(tables), (name, m)


def test_raw_count_is_hom_count_to_the_carrier_power():
    """Each carrier point independently carries an ordinary action, so the
    raw total is |Hom(G, S_m)| ** m."""
    for name in ("z2", "z3", "k4", "s3"):
        g = builtin_group(name)
        for m in (1, 2, 3):
            result = enumerate_actions(EnumerationTask(group=g, carrier_size=m))
            homs = permutation_homomorphisms(g, m)
            assert result.raw_count == len(homs) ** m


def test_enumeration_matches_brute_force_z2_m2(z2):
    result = enumerate_actions(EnumerationTask(group=z2, carrier_size=2))
    expect = oracle_valid_action_tables(z2.cayley, z2.identity, 2)
    assert {a.table for a in result.actions} == expect
    dist = {a.table for a in result.actions if is_distributive(a) is True}
    assert dist == {t for t in expect if oracle_is_distributive(z2.cayley, t, 2)}


def test_enumeration_matches_brute_force_z3_m2(z3):
    result = enumerate_actions(EnumerationTask(group=z3, carrier_size=2))
    expect = oracle_valid_action_tables(z3.cayley, z3.identity, 2)
    assert {a.table for a in result.actions} == expect == {
        tuple(tuple((0, 1) for _ in range(2)) for _ in range(3))}


@functools.lru_cache(maxsize=None)
def _all_actions(name, m):
    return enumerate_actions(EnumerationTask(group=builtin_group(name), carrier_size=m)).actions


@functools.lru_cache(maxsize=None)
def _distributive_classes(name, m):
    return enumerate_actions(EnumerationTask(
        group=builtin_group(name), carrier_size=m, require_distributive=True, dedupe=True))


@functools.lru_cache(maxsize=None)
def _classes_in_search_order(name, m):
    """The relabelling classes of the group's binary actions on m points,
    each a frozenset of tables from the oracles, in the order of their
    least index tuples into the oracle's homomorphism list: the order in
    which the search meets them. An action is one homomorphism per point,
    and the product lists the index tuples in order, so each class is met
    first at its least one."""
    g = builtin_group(name)
    classes = []
    held = set()
    for rows in itertools.product(oracle_permutation_homomorphisms(g.cayley, g.identity, m),
                                  repeat=m):
        table = tuple(zip(*rows))
        if table not in held:
            classes.append(frozenset(oracle_relabellings(table, m)))
            held |= classes[-1]
    return classes


def _assert_whole_classes(result):
    """Every relabelling of every action in result is in it too, and its
    actions come in table order."""
    tables = [a.table for a in result.actions]
    held = set(tables)
    for table in tables:
        assert oracle_relabellings(table, result.task.carrier_size) <= held
    assert tables == sorted(held)


def test_require_distributive_matches_filter():
    """The pruned search keeps exactly the distributive actions of the
    unfiltered one, in the same order. Of these cases only z2 on 4 points
    needs the instances (h, t, x') with x' < t."""
    for name, m in [("z2", 3), ("s3", 3), ("z2", 4), ("z3", 3), ("k4", 3)]:
        g = builtin_group(name)
        filt = enumerate_actions(
            EnumerationTask(group=g, carrier_size=m, require_distributive=True))
        expect = [a.table for a in _all_actions(name, m)
                  if oracle_is_distributive(g.cayley, a.table, m)]
        assert [a.table for a in filt.actions] == expect, (name, m)
        assert filt.raw_count == filt.distributive_count == len(expect), (name, m)


@pytest.mark.parametrize("name, m, budget, raw, canonical", [
    ("k4", 4, 1_000, 499, 64),
    ("z3", 5, 150, 191, 8),
    ("s3", 4, 60, 47, 7),
])
def test_node_budget_partial_under_require_distributive(name, m, budget, raw, canonical):
    """A node passes the pruned check exactly when every law instance over
    its assigned rows holds and no relabelling keeping its rows' points
    maps them below themselves, a row the law forces is the only candidate
    tried, and otherwise only the rows that pass the instances (h, t, t),
    so the nodes counted before a budget stop, and the partial result, are
    those of that search (the counts were recorded with it; the full
    searches take 2093, 275 and 127 nodes). The partial holds whole
    classes, every action distributive by the oracle."""
    g = builtin_group(name)
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_actions(EnumerationTask(group=g, carrier_size=m, require_distributive=True,
                                          node_budget=budget))
    partial = exc.value.partial
    assert not partial.exhaustive
    assert (partial.raw_count, partial.canonical_count) == (raw, canonical)
    assert partial.distributive_count == raw == len(partial.actions)
    assert all(oracle_is_distributive(g.cayley, a.table, m) for a in partial.actions)
    _assert_whole_classes(partial)


@pytest.mark.parametrize("name, m, nodes", [
    ("k4", 4, 2093), ("z3", 5, 275), ("s3", 4, 127), ("s3", 5, 882), ("s3", 6, 18196)])
def test_distributive_node_counts_at_the_budget_edge(name, m, nodes):
    """The distributive searches take exactly these many nodes: a node
    budget of that many finishes them, one fewer stops them. s3 on 5
    points is the count the search module's docstring quotes."""
    task = EnumerationTask(group=builtin_group(name), carrier_size=m,
                           require_distributive=True, dedupe=True, node_budget=nodes)
    assert enumerate_actions(task).exhaustive
    with pytest.raises(BudgetExceeded, match=f"^enumeration budget exceeded: node budget "
                                             f"{nodes - 1} reached"):
        enumerate_actions(dataclasses.replace(task, node_budget=nodes - 1))


@pytest.mark.parametrize("name, m, raw, canonical", [
    ("k4", 5, 63634, 2182), ("z2", 6, 17572, 180), ("s3", 5, 962, 42)])
def test_forced_rows_finish_under_default_budgets(name, m, raw, canonical):
    """These sizes finish under the default node budget. Trying only the
    row the law forces takes the search of k4 on 5 points from 682864
    nodes to 61984 and of z2 on 6 from 33896 to 7271 (19.9M and 3.27M
    unforced when the search reached every action, not one per class)."""
    result = _distributive_classes(name, m)
    assert result.exhaustive
    assert (result.raw_count, result.canonical_count) == (raw, canonical)
    assert result.distributive_count == raw


def test_is_distributive_matches_witness_oracle():
    """Scanning g and h over the greedy generators alone, and skipping the
    rows h(x, -) that already passed for g, gives the verdict and the
    first witness of the scan over every tuple, on every action."""
    for name, m in [("z2", 3), ("z2", 4), ("s3", 3), ("z3", 3), ("k4", 3)]:
        cayley = builtin_group(name).cayley
        for a in _all_actions(name, m):
            assert is_distributive(a) == oracle_distributivity_witness(cayley, a.table, m)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_is_distributive_matches_witness_oracle_on_relabelled_groups(data):
    """On relabelled groups, whose greedy generators differ from the
    catalog's and whose identity may be any index, the verdict and the
    first witness still match the oracle's."""
    g = builtin_group(data.draw(st.sampled_from(["z4", "k4", "s3", "d4", "q8"])))
    h = _relabelled_group(g, data.draw(st.permutations(g.elements())))
    m = data.draw(st.integers(1, 3))
    homs = permutation_homomorphisms(h, m)
    rows = [data.draw(st.sampled_from(homs)) for _ in range(m)]
    a = validate_action(h, tuple(zip(*rows)))
    assert is_distributive(a) == oracle_distributivity_witness(h.cayley, a.table, m)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_canonicalize_idempotent_and_relabel_invariant(data):
    name, m = data.draw(st.sampled_from(
        [("z2", 2), ("z2", 3), ("z3", 3), ("k4", 3), ("s3", 3), ("z2", 4)]))
    a = data.draw(st.sampled_from(_all_actions(name, m)))
    sigma = data.draw(st.permutations(range(m)))
    c = canonicalize(a)
    assert c.table == oracle_canonical_form(a.table, m)
    assert canonicalize(c).table == c.table
    assert canonicalize(relabel_action(a, sigma)).table == c.table


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_canonicalize_matches_the_oracle_at_five_points(data):
    """canonicalize at m = 5, past the exhaustive lists above: on an action
    with one drawn row homomorphism per point it gives the oracle's least
    relabelled table, and the same table for a drawn relabelling."""
    g = builtin_group(data.draw(st.sampled_from(["z2", "s3", "k4"])))
    homs = permutation_homomorphisms(g, 5)
    a = validate_action(g, tuple(zip(*[data.draw(st.sampled_from(homs)) for _ in range(5)])))
    sigma = data.draw(st.permutations(range(5)))
    c = canonicalize(a)
    assert c.table == oracle_canonical_form(a.table, 5)
    assert canonicalize(relabel_action(a, sigma)).table == c.table


@pytest.mark.parametrize("name, m, distributive, classes", [
    ("s3", 3, False, 180), ("k4", 4, True, 164), ("z3", 5, True, 11), ("s3", 5, True, 42)])
def test_canonicalize_returns_the_enumerators_representatives(name, m, distributive, classes):
    """Every class representative the enumerator emits, fed in under a
    seeded random relabelling, comes back from canonicalize unchanged."""
    reps = enumerate_actions(EnumerationTask(group=builtin_group(name), carrier_size=m,
                                             require_distributive=distributive,
                                             dedupe=True)).actions
    assert len(reps) == classes
    rng = random.Random(m * 100 + classes)
    for a in reps:
        assert canonicalize(relabel_action(a, rng.sample(range(m), m))).table == a.table


def test_canonicalize_builds_no_relabelling_tables(monkeypatch):
    """canonicalize takes its minimum straight from the action's table: the
    enumerator's m!-sized relabelling tables are never built."""
    def refuse(*args, **kwargs):
        raise AssertionError("canonicalize built relabelling tables")

    actions = [*_all_actions("z2", 3)[::9], *_all_actions("s3", 3)[::97],
               *_distributive_classes("z3", 5).actions]
    monkeypatch.setattr(search, "_Relabelling", refuse)
    for a in actions:
        assert canonicalize(a).table == oracle_canonical_form(a.table, a.carrier_size)


def test_dedupe_matches_oracle_representatives():
    for name, m in (("z2", 3), ("z3", 3), ("s3", 3), ("k4", 3)):
        g = builtin_group(name)
        reps = enumerate_actions(EnumerationTask(group=g, carrier_size=m, dedupe=True))
        expect = oracle_canonical_representatives([a.table for a in _all_actions(name, m)], m)
        assert [a.table for a in reps.actions] == expect, (name, m)


def test_relabel_action_preserves_validity(s3):
    result = enumerate_actions(EnumerationTask(group=s3, carrier_size=2))
    for a in result.actions:
        b = relabel_action(a, (1, 0))
        validate_action(b.group, b.table)  # must not raise


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_relabelling_preserves_validity_and_distributivity(data):
    """Any choice of one row homomorphism per carrier point is a binary
    action; relabelling it by sigma gives a valid action, sigma^-1 brings
    it back, and the distributivity verdict is the same on both, which is
    what lets the enumerator scan one action per class."""
    name = data.draw(st.sampled_from(["z2", "z3", "s3"]))
    m = data.draw(st.integers(1, 4))
    g = builtin_group(name)
    homs = permutation_homomorphisms(g, m)
    rows = [data.draw(st.sampled_from(homs)) for _ in range(m)]
    a = validate_action(g, tuple(zip(*rows)))
    sigma = data.draw(st.permutations(range(m)))
    b = relabel_action(a, sigma)
    assert validate_action(g, b.table) == b
    assert relabel_action(b, invert_perm(sigma)) == a
    assert (is_distributive(a) is True) == (is_distributive(b) is True)


def _counting_is_distributive(monkeypatch):
    calls = []
    scan = search.is_distributive
    monkeypatch.setattr(search, "is_distributive", lambda a: calls.append(a) or scan(a))
    return calls


@pytest.mark.parametrize("name, m, classes", [("z2", 3, 16), ("z2", 4, 475)])
def test_distributivity_scanned_once_per_class(name, m, classes, monkeypatch):
    calls = _counting_is_distributive(monkeypatch)
    result = enumerate_actions(EnumerationTask(group=builtin_group(name), carrier_size=m))
    assert result.canonical_count == classes
    assert len(calls) == classes
    assert len({canonicalize(a).table for a in calls}) == classes


@pytest.mark.parametrize("name, m", [("z2", 4), ("z3", 3), ("s3", 3), ("k4", 3)])
def test_distributive_count_matches_oracle(name, m):
    g = builtin_group(name)
    result = enumerate_actions(EnumerationTask(group=g, carrier_size=m))
    assert result.distributive_count == sum(
        oracle_is_distributive(g.cayley, a.table, m) for a in result.actions)


# (raw, classes) of distributive actions of the abelianization
ABELIANIZATION_COUNTS = {("z2", 3): (11, 5), ("z2", 4): (74, 13),
                         ("k4", 3): (49, 19), ("k4", 4): (1072, 164),
                         ("k4", 5): (63634, 2182)}


@pytest.mark.parametrize("name, ab, m", [
    ("s3", "z2", 3), ("s3", "z2", 4), ("d4", "k4", 3), ("d4", "k4", 4),
    ("q8", "k4", 3), ("q8", "k4", 4), ("d4", "k4", 5), ("q8", "k4", 5)])
def test_distributive_actions_are_trivial_on_the_commutator_subgroup(name, ab, m):
    """At these sizes every row homomorphism of every distributive action is
    the identity on [G, G], and G has as many distributive actions and
    classes as its abelianization G^ab. The conjecture that this holds at
    every size is false (see the next test): s3 on 6 points has
    17692 / 181 against z2's 17572 / 180."""
    g = builtin_group(name)
    commutators = subgroup_closure(g, {
        g.mul(g.mul(g.inv(a), g.inv(b)), g.mul(a, b)) for a in g.elements() for b in g.elements()})
    assert len(commutators) == g.order // builtin_group(ab).order
    result = _distributive_classes(name, m)
    assert result.exhaustive
    identity = tuple(range(m))
    for a in result.actions:
        assert all(row == identity for c in commutators for row in a.table[c]), a.table
    assert (result.raw_count, result.canonical_count) == ABELIANIZATION_COUNTS[ab, m]


def test_commutator_conjecture_fails_on_the_conjugation_coset_action(s3):
    """h(x, y) = x h x^-1 y on the carrier s3 is distributive, yet its row
    at x is left multiplication by x h x^-1, which is the identity only at
    h = e: of the 3 x 6 rows at elements of [G, G] = a3, 12 move points."""
    a = conjugation_coset_action(s3, s3.elements())
    assert is_distributive(a) is True
    g = a.group
    commutators = subgroup_closure(g, {
        g.mul(g.mul(g.inv(x), g.inv(y)), g.mul(x, y)) for x in g.elements() for y in g.elements()})
    assert len(commutators) == 3
    identity = tuple(range(a.carrier_size))
    assert sum(row != identity for c in commutators for row in a.table[c]) == 12


def test_stabiliser_filter_finishes_s3_on_6_points_under_default_budgets(s3):
    """Trying only the rows that pass the instances (h, t, t) takes the
    search of s3 on 6 points to 18196 nodes, against 94636 with forced
    rows alone (978196 and 5004316 when the search reached every action,
    not one per class). It has one class more than z2, its
    abelianization, and that class is the conjugation coset action of s3
    on itself."""
    result = _distributive_classes("s3", 6)
    assert result.exhaustive
    assert (result.raw_count, result.canonical_count) == (17692, 181)
    assert result.distributive_count == 17692
    coset = canonicalize(conjugation_coset_action(s3, s3.elements())).table
    assert coset in [a.table for a in result.actions]


# every size at which the tier-1 tests enumerate distributive actions
DISTRIBUTIVE_SIZES = sorted(
    {(name, m) for name in ("z1", "z2", "z3", "z4", "k4", "z5", "z6", "s3") for m in (1, 2, 3)}
    | {(name, m) for name in ("z2", "z3", "s3") for m in (4, 5)}
    | {("d4", 3), ("d4", 4), ("d4", 5), ("q8", 3), ("q8", 4), ("q8", 5), ("k4", 4), ("k4", 5),
       ("z2", 6), ("s3", 6), ("z6", 3), ("z12", 4), ("z60", 5)})


@pytest.mark.parametrize("name, m", DISTRIBUTIVE_SIZES)
def test_distributive_rows_are_trivial_on_stabiliser_commutators(name, m):
    """The stabiliser filter's theorem, on every distributive class: the row
    at x is the identity on [G_x, G], G_x = {h : h(x, x) = x}. It is
    proven, so a witness is a bug."""
    g = builtin_group(name)
    result = _distributive_classes(name, m)
    assert result.exhaustive
    for a in result.actions:
        assert oracle_stabiliser_commutator_witness(g.cayley, g.identity, a.table, m) is True


# Racks and quandles of order m, up to isomorphism: OEIS A181771 and A181769
# (P. Vojtěchovský and S. Y. Yang, "Enumeration of racks and quandles up to
# isomorphism", Math. Comp. 88 (2019)). A distributive action of Z_n on m
# points is a rack whose left translations 1(x, -) have order dividing n,
# and relabelling the carrier is rack isomorphism; n = 6, 12, 60 is
# divisible by the order of every permutation of 3, 4, 5 points, so every
# rack counts. The quandles are the racks whose diagonals are the identity.
RACK_QUANDLE_COUNTS = {("z6", 3): (6, 3), ("z12", 4): (19, 7), ("z60", 5): (74, 22)}


@pytest.mark.parametrize("name, m", sorted(RACK_QUANDLE_COUNTS))
def test_distributive_cyclic_actions_count_racks_and_quandles(name, m):
    result = _distributive_classes(name, m)
    assert result.exhaustive
    quandles = sum(all(a.table[g][x][x] == x for g in a.group.elements() for x in range(m))
                   for a in result.actions)
    assert (result.canonical_count, quandles) == RACK_QUANDLE_COUNTS[name, m]


def test_filter_recheck_raises_with_the_scan_witness(z2, monkeypatch):
    """Under require_distributive, a class the scan calls non-distributive
    stops the run at its representative, its first action in table order,
    with the witness the scan gave."""
    filtered = enumerate_actions(
        EnumerationTask(group=z2, carrier_size=4, require_distributive=True))
    target = canonicalize(filtered.actions[-1]).table
    first = next(a for a in filtered.actions if canonicalize(a).table == target)
    calls = []
    scan = search.is_distributive

    def scan_with_fault(a):
        calls.append(a)
        return (1, 1, 0, 2, 3) if canonicalize(a).table == target else scan(a)

    monkeypatch.setattr(search, "is_distributive", scan_with_fault)
    with pytest.raises(InternalInconsistency, match=r"witness \(1, 1, 0, 2, 3\)$"):
        enumerate_actions(EnumerationTask(group=z2, carrier_size=4, require_distributive=True))
    assert calls[-1] == first
    assert len(calls) == filtered.canonical_count


def test_dedupe_keeps_one_per_class(z2):
    result = enumerate_actions(
        EnumerationTask(group=z2, carrier_size=2, dedupe=True))
    assert result.raw_count == 4
    assert result.canonical_count == 3
    assert len(result.actions) == 3
    assert len({canonicalize(a).table for a in result.actions}) == 3


def test_node_budget_exhaustion_carries_partial(s3):
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_actions(EnumerationTask(group=s3, carrier_size=3, node_budget=5))
    partial = exc.value.partial
    assert partial is not None
    assert not partial.exhaustive
    assert partial.raw_count < 1000


def test_time_budget_bounds_assembly(z2, monkeypatch):
    """The deadline is read once when the search starts, once per relabelling
    of the carrier (six on 3 points) and once before each class is
    expanded; z2 on 3 points makes too few search nodes for the search
    itself to read it. The 11th class read 17 > 16, so the partial holds
    the first 10 classes the search met, 40 actions, 10 of them
    distributive (by the oracles)."""
    ticks = itertools.count()
    monkeypatch.setattr(search.time, "monotonic", lambda: next(ticks))
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_actions(EnumerationTask(group=z2, carrier_size=3, time_budget_s=16))
    assert next(ticks) == 18  # building the partial result read no clock
    assert str(exc.value) == "enumeration budget exceeded: time budget 16s reached"
    partial = exc.value.partial
    assert not partial.exhaustive
    assert (partial.raw_count, partial.canonical_count, partial.distributive_count) == (40, 10, 10)
    expect = sorted(t for c in _classes_in_search_order("z2", 3)[:10] for t in c)
    assert [a.table for a in partial.actions] == expect
    assert partial.distributive_count == sum(
        oracle_is_distributive(z2.cayley, t, 3) for t in expect)
    _assert_whole_classes(partial)


def test_node_budget_stop_assembles_under_the_deadline(z2, monkeypatch):
    """After a node-budget stop the partial result is assembled under the
    run's deadline: the clock is read once when the run starts, six times
    for the relabellings and once before each class is expanded, so of
    the 14 classes (56 actions) settled by 40 nodes, the first 4 (13
    actions) make the partial after 12 reads. The message names the node
    budget, which stopped the search, and the time budget, which cut the
    assembly, with both counts."""
    with pytest.raises(BudgetExceeded, match="node budget 40 reached") as stop:
        enumerate_actions(EnumerationTask(group=z2, carrier_size=3, node_budget=40))
    assert str(stop.value).endswith("node budget 40 reached (56 actions found, 56 assembled)")
    full = stop.value.partial
    assert (full.raw_count, full.canonical_count) == (56, 14)
    classes = _classes_in_search_order("z2", 3)
    assert [a.table for a in full.actions] == sorted(t for c in classes[:14] for t in c)
    ticks = itertools.count()
    monkeypatch.setattr(search.time, "monotonic", lambda: next(ticks))
    with pytest.raises(BudgetExceeded, match="time budget 10s reached") as exc:
        enumerate_actions(EnumerationTask(group=z2, carrier_size=3, node_budget=40,
                                          time_budget_s=10))
    assert next(ticks) == 12
    assert str(exc.value) == ("enumeration budget exceeded: node budget 40 reached; "
                              "time budget 10s reached (56 actions found, 13 assembled)")
    partial = exc.value.partial
    assert not partial.exhaustive
    assert (partial.raw_count, partial.canonical_count, partial.distributive_count) == (13, 4, 7)
    assert [a.table for a in partial.actions] == sorted(t for c in classes[:4] for t in c)
    _assert_whole_classes(partial)


def test_time_budget_stop_in_the_search_reports_actions_found(z2, monkeypatch):
    """The full search of z2 on 4 points takes 1430 nodes, so it reads the
    clock once, at node 1024, when it has settled 383 classes of
    8116 actions (the first ones by the oracles). The clock is read at
    the start and for the 24 relabellings before that, so a 24.5 s budget
    stops the search there; the assembly's first read is past the deadline
    too, and expands none of them. A node budget of 1023 stops the search
    at the same node, and its partial holds those classes."""
    ticks = itertools.count()
    monkeypatch.setattr(search.time, "monotonic", lambda: next(ticks))
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_actions(EnumerationTask(group=z2, carrier_size=4, time_budget_s=24.5))
    assert next(ticks) == 27
    assert str(exc.value) == ("enumeration budget exceeded: time budget 24.5s reached "
                              "(8116 actions found, 0 assembled)")
    partial = exc.value.partial
    assert not partial.exhaustive
    assert (partial.raw_count, partial.canonical_count, partial.actions) == (0, 0, ())
    monkeypatch.undo()
    with pytest.raises(BudgetExceeded) as stop:
        enumerate_actions(EnumerationTask(group=z2, carrier_size=4, node_budget=1023))
    found = stop.value.partial
    assert (found.raw_count, found.canonical_count) == (8116, 383)
    assert [a.table for a in found.actions] == sorted(
        t for c in _classes_in_search_order("z2", 4)[:383] for t in c)


def test_canonicalize_reads_no_clock(monkeypatch):
    """canonicalize has no deadline, so its minimum over the m!
    relabellings must not read the clock once per relabelling."""
    actions = _all_actions("z2", 3)[::7]

    def refuse():
        raise AssertionError("clock read without a deadline")

    monkeypatch.setattr(search.time, "monotonic", refuse)
    assert [canonicalize(a).table for a in actions] == [
        oracle_canonical_form(a.table, 3) for a in actions]


def test_time_budget_covers_relabelling_tables(z2, monkeypatch):
    """The deadline is read before each of the m! relabelling tables is
    built; a stop there raises an empty, non-exhaustive partial."""
    ticks = itertools.count()
    monkeypatch.setattr(search.time, "monotonic", lambda: next(ticks))
    with pytest.raises(BudgetExceeded, match="time budget 2s reached") as exc:
        enumerate_actions(EnumerationTask(group=z2, carrier_size=3, time_budget_s=2))
    assert next(ticks) == 4  # the third relabelling read 3 > 2 and stopped the run
    partial = exc.value.partial
    assert not partial.exhaustive
    assert partial.actions == ()
    assert (partial.raw_count, partial.canonical_count, partial.distributive_count) == (0, 0, 0)


def test_time_budget_bounds_relabelling_memory():
    """The m! relabellings are generated one at a time under the deadline,
    and the ranks are kept in a dict keyed on the permutations
    the homomorphisms use, not on all of them: the trivial group on 8
    points stops within a 0.01 s budget with an empty partial, where
    building all 8! permutations and their rank dict first peaked at
    about 7 MB traced."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_actions(EnumerationTask(
                group=builtin_group("z1"), carrier_size=8, time_budget_s=0.01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    partial = exc.value.partial
    assert not partial.exhaustive
    assert partial.actions == ()
    assert (partial.raw_count, partial.canonical_count, partial.distributive_count) == (0, 0, 0)
    assert peak < 1_000_000


@pytest.mark.parametrize("name, m", [("s3", 4), ("z2", 5), ("z3", 5), ("k4", 4), ("q8", 5)])
def test_composed_conjugation_tables_match_direct_ones(name, m):
    """The tables built from the adjacent transpositions are those of
    conjugating every homomorphism by every relabelling, in the order of
    itertools.permutations; rank holds each permutation's position in that
    order, and places the positions of rho(g) over the key's prefix, read
    g-major as digits in base m!."""
    g = builtin_group(name)
    homs = permutation_homomorphisms(g, m)
    rel = search._Relabelling(g, homs, m)
    perms = list(itertools.permutations(range(m)))
    direct = []
    for sigma in perms:
        inv = invert_perm(sigma)
        direct.append(([homs.index(search._conjugate(sigma, inv, rho)) for rho in homs], inv))
    assert rel.moves == direct
    position = {p: r for r, p in enumerate(perms)}
    assert rel.rank == {p: position[p] for rho in homs for p in rho}
    gens = greedy_generators(g)
    prefix = [x for x in g.elements() if x != g.identity and x <= max(gens)]
    base = math.factorial(m)
    assert len(rel.places) == m
    for t, place in enumerate(rel.places):
        assert place == [sum(position[rho[x]] * base ** ((len(prefix) - p) * m - 1 - t)
                             for p, x in enumerate(prefix)) for rho in homs]


# (group, relabelling of its elements or None, carrier size, prefix length):
# the rotations x -> x + k move the identity off index 0 and give the
# greedy generators, and so the key's prefix, other sizes than the catalog's
KEY_CASES = [
    ("z1", None, 3, 0), ("z2", None, 3, 1), ("z3", None, 3, 1), ("z4", None, 3, 1),
    ("k4", None, 3, 2), ("z6", None, 3, 1), ("s3", None, 3, 2), ("z8", None, 3, 1),
    ("z4xz2", None, 3, 2), ("z2xz2xz2", None, 2, 4), ("d4", None, 3, 4), ("q8", None, 3, 4),
    ("s3", 1, 3, 2), ("s3", 3, 3, 3), ("d4", 6, 3, 3), ("q8", 3, 3, 2), ("q8", 4, 3, 3),
]


@pytest.mark.parametrize("name, k, m, length", KEY_CASES)
def test_key_orders_index_tuples_as_their_tables(name, k, m, length):
    """Sorting every index tuple by the int key gives the order of their
    g-major tables, and no two tuples share a key, whatever the prefix of
    slices the key ranks: empty for z1, one to four elements otherwise."""
    g = builtin_group(name)
    if k is not None:
        g = _relabelled_group(g, [(x + k) % g.order for x in g.elements()])
        assert g.identity == k
    gens = greedy_generators(g)
    assert len([x for x in g.elements() if x != g.identity and x <= max(gens, default=-1)]) == length
    homs = permutation_homomorphisms(g, m)
    rel = search._Relabelling(g, homs, m)
    leaves = list(itertools.product(range(len(homs)), repeat=m))
    tables = {leaf: search._action(g, homs, leaf).table for leaf in leaves}
    assert sorted(leaves, key=rel.key) == sorted(leaves, key=tables.__getitem__)
    assert len({rel.key(leaf) for leaf in leaves}) == len(leaves)


@pytest.mark.parametrize("name, m, total", [("z60", 5, 351), ("k4", 4, 99), ("s3", 4, 129)])
def test_law_rows_keep_each_distinct_nonidentity_image_once(name, m, total):
    """Per homomorphism rho, law_rows holds each permutation rho(h) other
    than the identity once, in the order of the first h reaching it, with
    its conjugation table, the move at its place in the lexicographic
    order (one entry per non-identity h would make 7080, 156 and 170)."""
    g = builtin_group(name)
    homs = permutation_homomorphisms(g, m)
    rel = search._Relabelling(g, homs, m)
    rows = rel.law_rows()
    perms = list(itertools.permutations(range(m)))
    for rho, row in zip(homs, rows):
        images = [c for c, _ in row]
        assert images == sorted(set(rho) - {perms[0]}, key=rho.index)
        assert all(conj == rel.moves[perms.index(c)][0] for c, conj in row)
    assert sum(map(len, rows)) == total


def test_dedupe_builds_first_of_class_and_representatives_only(z2, monkeypatch):
    """z2 on 4 points: 10000 actions in 475 classes. Under dedupe the run
    builds one BinaryAction for the first action of each class, and the
    first read of result.actions one for each representative; a second
    read builds none. The counts and representatives are unchanged."""
    calls = []
    action = search._action
    monkeypatch.setattr(search, "_action",
                        lambda group, homs, leaf: calls.append(leaf) or action(group, homs, leaf))
    result = enumerate_actions(EnumerationTask(group=z2, carrier_size=4, dedupe=True))
    assert (result.raw_count, result.canonical_count, result.distributive_count) == (10000, 475, 74)
    assert len(calls) == 475
    actions = result.actions
    assert len(calls) == 2 * 475
    assert result.actions is actions
    assert len(calls) == 2 * 475
    assert [a.table for a in actions] == [canonicalize(a).table for a in actions]


@pytest.mark.parametrize("name, m, budget, classes", [("k4", 3, 200, 93),
                                                       ("s3", 3, 200, 91)])
def test_dedupe_partial_holds_representatives_in_table_order(name, m, budget, classes,
                                                             monkeypatch):
    """A budget-stopped partial under dedupe lists its representatives in
    table order, not in the order their classes were met, which is the
    order of their least index tuples; each class is scanned once, at its
    representative, so the scans give the order met. On these partials the
    orders differ. The partial without dedupe holds exactly those classes,
    whole."""
    task = EnumerationTask(group=builtin_group(name), carrier_size=m, node_budget=budget)
    with pytest.raises(BudgetExceeded, match=f"node budget {budget} reached") as raw:
        enumerate_actions(task)
    _assert_whole_classes(raw.value.partial)
    calls = _counting_is_distributive(monkeypatch)
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_actions(dataclasses.replace(task, dedupe=True))
    met = [a.table for a in calls]
    assert len(met) == classes and met != sorted(met)
    assert met == [min(c) for c in _classes_in_search_order(name, m)[:classes]]
    assert [a.table for a in exc.value.partial.actions] == sorted(met)
    assert sorted(met) == oracle_canonical_representatives(
        [a.table for a in raw.value.partial.actions], m)


def test_time_budget_covers_hom_generation(z2, monkeypatch):
    """The clock starts before the row homomorphisms are generated, so
    generation that outlasts the budget stops the run."""
    clock = [0.0]
    monkeypatch.setattr(search.time, "monotonic", lambda: clock[0])
    generate = search.permutation_homomorphisms

    def slow_generation(g, m, deadline):
        clock[0] += 100.0
        return generate(g, m, deadline=deadline)

    monkeypatch.setattr(search, "permutation_homomorphisms", slow_generation)
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_actions(EnumerationTask(group=z2, carrier_size=3, time_budget_s=10))
    partial = exc.value.partial
    assert not partial.exhaustive
    assert partial.raw_count == 0


def test_hom_generation_stops_at_a_passed_deadline(z2, monkeypatch):
    """The generator reads the clock every 1024 placements, so a passed
    deadline stops it before it returns; without one it reads no clock.
    z2 on 8 points takes 1716 placements for its 764 homomorphisms."""
    with pytest.raises(search._BudgetStop):
        permutation_homomorphisms(z2, 8, deadline=-math.inf)

    def refuse():
        raise AssertionError("clock read without a deadline")

    monkeypatch.setattr(search.time, "monotonic", refuse)
    assert len(permutation_homomorphisms(z2, 8)) == 764


def test_enumeration_stops_inside_hom_generation(z2, monkeypatch):
    """A deadline that passes while the homomorphisms are generated stops
    the generator before it returns, and the run with an empty partial."""
    clock = [0.0]
    generate = search.permutation_homomorphisms
    returned = []

    def tick():
        clock[0] += 1.0
        return clock[0]

    def generation(g, m, deadline):
        homs = generate(g, m, deadline=deadline)
        returned.append(len(homs))
        return homs

    monkeypatch.setattr(search.time, "monotonic", tick)
    monkeypatch.setattr(search, "permutation_homomorphisms", generation)
    with pytest.raises(BudgetExceeded, match="time budget") as exc:
        enumerate_actions(EnumerationTask(group=z2, carrier_size=8, time_budget_s=0.5))
    partial = exc.value.partial
    assert not partial.exhaustive
    assert partial.raw_count == 0 and partial.actions == ()
    assert returned == []


def test_relabelling_checks_stop_at_a_passed_deadline(z2, monkeypatch):
    """Checking the homomorphisms reads the clock every 1024 of them, so a
    passed deadline stops it before the rest of z2's 2620 on 9 points."""
    homs = permutation_homomorphisms(z2, 9)
    checked = []
    factory = search._homomorphism_check

    def counting_check(g, m):
        check = factory(g, m)
        return lambda rho: checked.append(rho) or check(rho)

    monkeypatch.setattr(search, "_homomorphism_check", counting_check)
    with pytest.raises(search._BudgetStop):
        search._Relabelling(z2, homs, 9, deadline=-math.inf)
    assert len(checked) == 1023


def test_unclosed_hom_list_raises(z2, monkeypatch):
    homs = permutation_homomorphisms(z2, 3)
    monkeypatch.setattr(search, "permutation_homomorphisms",
                        lambda g, m, deadline: homs[:-1])
    with pytest.raises(InternalInconsistency, match="not closed under conjugation"):
        enumerate_actions(EnumerationTask(group=z2, carrier_size=3))


def test_a_class_met_twice_raises(z2, monkeypatch):
    """Without the prefix test every index tuple reaches a leaf, so the
    second member of a class met is refused: z2 on 3 points has the rows
    0 (the identity), 1, 2 and 3 (the transpositions fixing 0, 2 and 1),
    and its leaves (0, 0, 1) and (0, 0, 3) swap into each other with the
    points 0 and 1, so the fourth leaf settles the class of the second."""
    monkeypatch.setattr(search._Relabelling, "prefix_moves",
                        lambda self: [[] for _ in self.places])
    with pytest.raises(InternalInconsistency, match=r"^class of \(.*\) met twice$"):
        enumerate_actions(EnumerationTask(group=z2, carrier_size=3))


@pytest.mark.parametrize("name, m, dedupe", [
    *[(name, m, False) for name in ("z1", "z2", "z3", "k4", "s3") for m in (1, 2, 3)],
    ("z2", 4, False), ("z3", 4, False), ("s3", 4, True)])
def test_full_counts_match_burnside(name, m, dedupe):
    """raw_count is |Hom(G, S_m)| ** m and canonical_count the number of
    orbits of the relabellings, by Burnside's lemma over cycle types (in
    tests/oracles.py), at every size whose full enumeration tier-1 runs;
    s3 on 4 points has 55981 classes among 1336336 actions."""
    g = builtin_group(name)
    result = enumerate_actions(EnumerationTask(group=g, carrier_size=m, dedupe=dedupe))
    assert result.exhaustive
    assert (result.raw_count, result.canonical_count) == oracle_burnside_counts(
        g.cayley, g.identity, m)


@pytest.mark.parametrize("name, m, raw, classes", [
    ("z2", 6, 192699928576, 267954164),
    ("s3", 5, 66338290976, 552932618),
    ("k4", 5, 289254654976, 2411636032)])
def test_burnside_counts_past_any_listing(name, m, raw, classes):
    """The Burnside oracle's counts at sizes no enumeration in tier-1 can
    list, pinned; raw is also the m-th power of Dey's homomorphism count,
    which the oracle computes another way (by listing G -> S_m)."""
    g = builtin_group(name)
    assert oracle_burnside_counts(g.cayley, g.identity, m) == (raw, classes)
    assert oracle_dey_count(g.cayley, g.identity, m) ** m == raw


@pytest.mark.parametrize("name, m", [("z2", 3), ("z2", 4), ("z3", 3), ("s3", 3), ("k4", 3)])
def test_emitted_actions_pass_validate_action(name, m):
    """The enumerator builds its actions from row homomorphisms checked once
    per run, not through validate_action; every one it emits, raw or
    deduplicated, filtered or not, is a binary action all the same."""
    g = builtin_group(name)
    for dedupe, dist in itertools.product((False, True), repeat=2):
        result = enumerate_actions(EnumerationTask(
            group=g, carrier_size=m, dedupe=dedupe, require_distributive=dist))
        assert result.actions, (dedupe, dist)
        for a in result.actions:
            assert validate_action(g, a.table) == a, (dedupe, dist)


def test_relabelling_rejects_a_corrupted_row_homomorphism(z2):
    homs = list(permutation_homomorphisms(z2, 3))
    homs[-1] = ((0, 1, 2), (1, 2, 0))  # a 3-cycle squares to itself^-1, not e
    with pytest.raises(InternalInconsistency, match="not a homomorphism"):
        search._Relabelling(z2, homs, 3)


def test_least_runs_once_per_class_without_validate_action(z2, monkeypatch):
    calls = []
    classify = search._Relabelling.classify
    monkeypatch.setattr(search._Relabelling, "classify",
                        lambda self, leaf: calls.append(leaf) or classify(self, leaf))

    def refuse(*args, **kwargs):
        raise AssertionError("validate_action called during enumeration")

    # search no longer imports validate_action, so refusing it where it is
    # defined covers every path
    monkeypatch.setattr(binact.actions, "validate_action", refuse)
    result = enumerate_actions(EnumerationTask(group=z2, carrier_size=3))
    assert (result.raw_count, result.canonical_count) == (64, 16)
    assert len(calls) == len(set(calls)) == 16


def test_per_class_orbit_stabilizer_check(z2, monkeypatch):
    """An orbit that loses one relabelling no longer has m!/|Aut| members."""
    classify = search._Relabelling.classify

    def lose_one(self, leaf):
        key, canon, aut, orbit = classify(self, leaf)
        return key, canon, aut, set(sorted(orbit)[1:])

    monkeypatch.setattr(search._Relabelling, "classify", lose_one)
    with pytest.raises(InternalInconsistency, match="relabellings times"):
        enumerate_actions(EnumerationTask(group=z2, carrier_size=3))


def test_task_validation(z2):
    with pytest.raises(MalformedTable):
        EnumerationTask(group=z2, carrier_size=0)
    with pytest.raises(MalformedTable):
        EnumerationTask(group=z2, carrier_size=2, node_budget=0)
    with pytest.raises(MalformedTable):
        EnumerationTask(group=z2, carrier_size=2, time_budget_s=0.0)
    with pytest.raises(MalformedTable):
        EnumerationTask(group=z2, carrier_size=2, time_budget_s=math.nan)
    EnumerationTask(group=z2, carrier_size=2, time_budget_s=math.inf)


@pytest.mark.parametrize("field", ["require_distributive", "dedupe"])
@pytest.mark.parametrize("value", ["no", 0.5, 1, None])
def test_task_refuses_a_non_bool_flag(z2, field, value):
    """A non-bool flag is refused: "no" would silently switch it on."""
    with pytest.raises(MalformedTable, match=field):
        EnumerationTask(group=z2, carrier_size=2, **{field: value})


def test_witness_mining_z2_m2(z2):
    report = mine_counterexamples(enumerate_actions(EnumerationTask(group=z2, carrier_size=2)))
    w = report.intersecting_orbits
    assert w.action.table == (((0, 1), (0, 1)), ((0, 1), (1, 0)))
    assert (w.x, w.xp) == (0, 1)
    assert w.set_x == frozenset({0})
    assert w.set_xp == frozenset({0, 1})
    assert report.non_bi_invariant_union is None
    assert report.actions_scanned == 4


def test_witness_mining_z2_m3(z2):
    report = mine_counterexamples(
        enumerate_actions(EnumerationTask(group=z2, carrier_size=3)))
    w = report.intersecting_orbits
    assert w.action.table[1] == ((0, 1, 2), (0, 1, 2), (0, 2, 1))
    assert (w.x, w.xp) == (1, 2)
    u = report.non_bi_invariant_union
    assert u.action.table[1] == ((0, 1, 2), (0, 1, 2), (1, 0, 2))
    assert u.set_a == frozenset({0})
    assert u.set_b == frozenset({2})
    assert u.union_image == frozenset({0, 1, 2})
    assert report.to_json()["actions_scanned"] == 64


def _brute_force_witnesses(actions):
    """mine_counterexamples by brute force on oracle_k_set: minimal
    bi-invariant sets by repeated expansion, bi-invariant sets by testing
    every subset, each kind's first witness in action order, then in
    lexicographic order of points or of subset bitmasks."""
    intersecting = union = None
    for a in actions:
        m, G, table = a.carrier_size, a.group.elements(), a.table
        sets = [oracle_min_bi_invariant(a.group.cayley, table, m, x) for x in range(m)]
        if intersecting is None:
            intersecting = next((search.IntersectingOrbitsWitness(a, x, xp, sets[x], sets[xp])
                                 for x, xp in itertools.combinations(range(m), 2)
                                 if sets[x] & sets[xp] and sets[x] != sets[xp]), None)
        subsets = [frozenset(p for p in range(m) if s >> p & 1) for s in range(1 << m)]
        invariant = [s for s in subsets if oracle_k_set(table, G, s, s) == s]
        if union is None:
            union = next((search.UnionWitness(a, sa, sb, oracle_k_set(table, G, sa | sb, sa | sb))
                          for sa, sb in itertools.combinations(invariant, 2)
                          if oracle_k_set(table, G, sa | sb, sa | sb) != sa | sb), None)
    return search.WitnessReport(intersecting_orbits=intersecting, non_bi_invariant_union=union,
                                actions_scanned=len(actions))


@pytest.mark.parametrize("name", ["z2", "s3"])
def test_mined_witnesses_match_a_brute_force_miner(name):
    """On every action of z2 and of s3 on 3 points, alone and as the whole
    enumeration, the miner's witnesses are the brute-force miner's."""
    result = enumerate_actions(EnumerationTask(group=builtin_group(name), carrier_size=3))
    assert mine_counterexamples(result) == _brute_force_witnesses(result.actions)
    for a, row in zip(result.actions, result.rows):
        alone = dataclasses.replace(result, rows=[row])
        assert mine_counterexamples(alone) == _brute_force_witnesses((a,))


@pytest.mark.parametrize("name, m, built, scanned", [("s3", 3, 6, 1000), ("z2", 4, 3, 10000)])
def test_witness_mining_builds_only_the_actions_it_scans(monkeypatch, name, m, built, scanned):
    """The miner builds each action from its index tuple when it reaches
    it, and stops at the last witness: of the 1000 actions of s3 on 3
    points it builds 6, of the 10000 of z2 on 4 points 3."""
    result = enumerate_actions(EnumerationTask(group=builtin_group(name), carrier_size=m))
    rows = []
    action = search._action
    monkeypatch.setattr(search, "_action", lambda *args: rows.append(args[2]) or action(*args))
    report = mine_counterexamples(result)
    assert rows == result.rows[:built]
    assert report.actions_scanned == scanned


def test_relabelling_keeps_the_group_embedding(s3):
    """A carrier bijection leaves the acting group alone, so relabel_action
    and canonicalize carry its group_embedding over."""
    a = conjugation_coset_action(s3, [0, 1])
    assert a.group_embedding is not None
    assert relabel_action(a, range(a.carrier_size)) == a
    b = relabel_action(a, [*range(1, a.carrier_size), 0])
    assert b.group_embedding == a.group_embedding
    c = canonicalize(b)
    assert c.group_embedding == a.group_embedding
    assert action_to_json(c)["group_embedding"] == list(a.group_embedding)


def test_all_ordinary_actions_count(s3):
    assert len(list(all_ordinary_actions(s3, 3))) == 10


@pytest.mark.parametrize("m", [0, -1])
def test_all_ordinary_actions_blames_the_carrier_size(s3, m):
    with pytest.raises(MalformedTable) as exc:
        all_ordinary_actions(s3, m)
    assert str(exc.value) == "carrier size must be >= 1"


def test_permutation_homomorphisms_rejects_bad_degree(s3):
    with pytest.raises(MalformedTable):
        permutation_homomorphisms(s3, 0)


@pytest.mark.parametrize("m", [2.0, "2"])
@pytest.mark.parametrize("entry", [
    permutation_homomorphisms,
    all_ordinary_actions,
    lambda g, m: enumerate_actions(EnumerationTask(group=g, carrier_size=m)),
], ids=["permutation_homomorphisms", "all_ordinary_actions", "enumerate_actions"])
def test_degree_and_carrier_size_refuse_floats_and_digit_strings(z2, entry, m):
    with pytest.raises(MalformedTable, match="is not an integer"):
        entry(z2, m)


@pytest.mark.parametrize("name, m", [("k4", 6), ("s3", 5), ("d4", 5), ("z2xz2xz2", 4)])
def test_all_ordinary_actions_match_make_ordinary_action(name, m):
    g = builtin_group(name)
    assert all_ordinary_actions(g, m) == tuple(
        make_ordinary_action(g, rho) for rho in permutation_homomorphisms(g, m))


def _accepts(check, rho) -> bool:
    try:
        check(rho)
    except InternalInconsistency:
        return False
    return True


def _make_ordinary_accepts(g, rho) -> bool:
    try:
        make_ordinary_action(g, rho)
    except (MalformedTable, ShapeMismatch):
        return False
    return True


@functools.cache
def _homs(name, m):
    return permutation_homomorphisms(builtin_group(name), m)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_homomorphism_check_accepts_what_make_ordinary_action_accepts(data):
    """On random tuples of permutations, and on homomorphisms with one
    entry changed (to a value in -1..m, so negative and out-of-range ones
    too, or to itself), the check on the greedy generators accepts exactly
    the inputs that make_ordinary_action's full check accepts."""
    name = data.draw(st.sampled_from(["z2", "z3", "k4", "s3"]))
    m = data.draw(st.integers(1, 4))
    g = builtin_group(name)
    if data.draw(st.booleans()):
        rho = tuple(tuple(data.draw(st.permutations(range(m)))) for _ in g.elements())
    else:
        rows = [list(row) for row in data.draw(st.sampled_from(_homs(name, m)))]
        rows[data.draw(st.sampled_from(g.elements()))][data.draw(
            st.integers(0, m - 1))] = data.draw(st.integers(-1, m))
        rho = tuple(map(tuple, rows))
    check = search._homomorphism_check(g, m)
    assert _accepts(check, rho) == _make_ordinary_accepts(g, rho)


def _corrupted(rho, g, m, case):
    """rho with one fault: a changed row of the first greedy generator or of
    a group element that is no generator, a short or long rho, a short or
    long row, a negative or out-of-range entry, or a row that is no
    permutation."""
    rows = list(rho)
    s = greedy_generators(g)[0]
    y = max(set(g.elements()) - set(greedy_generators(g)) - {g.identity})
    if case == "generator row":
        rows[s] = rows[s][1:] + rows[s][:1]
    elif case == "non-generator row":
        rows[y] = rows[y][1:] + rows[y][:1]
    elif case == "short rho":
        rows.pop()
    elif case == "long rho":
        rows.append(rows[0])
    elif case == "short row":
        rows[y] = rows[y][:-1]
    elif case == "long row":
        rows[s] = rows[s] + (0,)
    elif case == "negative entry":
        rows[y] = (-1, *rows[y][1:])
    elif case == "out-of-range entry":
        rows[s] = (*rows[s][:-1], m)
    elif case == "not a permutation":
        rows[y] = (0,) * m
    return tuple(rows)


CORRUPTIONS = ["generator row", "non-generator row", "short rho", "long rho", "short row",
               "long row", "negative entry", "out-of-range entry", "not a permutation"]


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_relabelling_rejects_each_malformed_row(s3, case):
    homs = permutation_homomorphisms(s3, 3)
    bad = _corrupted(homs[-1], s3, 3, case)
    assert not _make_ordinary_accepts(s3, bad)
    with pytest.raises(InternalInconsistency, match="not a homomorphism G -> S_3"):
        search._Relabelling(s3, [*homs[:-1], bad], 3)


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_all_ordinary_actions_rejects_each_malformed_row(s3, case, monkeypatch):
    homs = permutation_homomorphisms(s3, 3)
    bad = _corrupted(homs[-1], s3, 3, case)
    monkeypatch.setattr(search, "permutation_homomorphisms", lambda g, m: [*homs[:-1], bad])
    with pytest.raises(InternalInconsistency, match="not a homomorphism G -> S_3"):
        all_ordinary_actions(s3, 3)


def test_homomorphism_check_on_the_trivial_group_and_one_point(z2):
    z1 = builtin_group("z1")
    assert all_ordinary_actions(z1, 3) == (make_ordinary_action(z1, ((0, 1, 2),)),)
    assert all_ordinary_actions(z1, 1) == (make_ordinary_action(z1, ((0,),)),)
    assert all_ordinary_actions(z2, 1) == (make_ordinary_action(z2, ((0,), (0,))),)
    assert all_ordinary_actions(builtin_group("s3"), 1) == (
        make_ordinary_action(builtin_group("s3"), ((0,),) * 6),)
    on_z1 = search._homomorphism_check(z1, 3)
    assert _accepts(on_z1, ((0, 1, 2),))
    for bad in [((1, 0, 2),), ((0, 1),), ((0, 1, 2), (0, 1, 2)), ()]:
        assert not _accepts(on_z1, bad), bad
    on_one_point = search._homomorphism_check(z2, 1)
    assert _accepts(on_one_point, ((0,), (0,)))
    for bad in [((0,), (1,)), ((0,), (-1,)), ((0,), (0, 0)), ((0,), ()), ((0,), 0), ((1,), (0,))]:
        assert not _accepts(on_one_point, bad), bad
