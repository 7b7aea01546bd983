import functools
import itertools
import math
import pathlib
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binact.actions
from binact import (
    EnumerationResult,
    EnumerationTask,
    action_to_json,
    builtin_group,
    canonicalize,
    conjugation_coset_action,
    enumerate_actions,
    greedy_generators,
    is_biequivariant,
    is_distributive,
    make_group,
    make_ordinary_action,
    mine_counterexamples,
    permutation_homomorphisms,
    search,
    subgroup_closure,
    validate_action,
)
from binact.errors import BudgetExceeded, InternalInconsistency, MalformedTable
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


@pytest.mark.parametrize("name, degree", [
    ("z2", 4), ("s3", 5), ("k4", 6), ("d4", 5), ("q8", 5), ("z60", 5)])
def test_homomorphisms_share_their_rows(name, degree):
    """Equal permutations in the homomorphism list are one object, and the
    ordinary actions built on the list reuse those objects."""
    g = builtin_group(name)
    homs = permutation_homomorphisms(g, degree)
    distinct = len({p for rho in homs for p in rho})
    assert len({id(p) for rho in homs for p in rho}) == distinct, (name, degree)
    tables = [a.table for a in all_ordinary_actions(g, degree)]
    assert tables == list(homs), (name, degree)
    assert len({id(p) for table in tables for p in table}) == distinct, (name, degree)


def test_enumerated_actions_share_the_homomorphism_rows():
    """The slices of a deduplicated run's actions hold the run's own
    permutation objects, one per distinct row."""
    result = enumerate_actions(EnumerationTask(
        group=builtin_group("q8"), carrier_size=5, require_distributive=True, dedupe=True))
    shared = {id(p) for rho in result.homs for p in rho}
    assert len(shared) == len({p for rho in result.homs for p in rho})
    assert {id(p) for a in result.actions for sl in a.table for p in sl} <= shared


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
    least index tuples into the oracle's homomorphism list: for a cyclic
    group, searched in one block, the order in which the search meets
    them. An action is one homomorphism per point, and the product lists
    the index tuples in order, so each class is met first at its least
    one."""
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


def test_require_distributive_matches_filter():
    """The pruned search keeps exactly the distributive actions of the
    unfiltered one, in the same order. Of these cases only z2 on 4 points
    needs the instances (h, t, x') with x' < t."""
    for name, m in [("z2", 3), ("s3", 3), ("z2", 4), ("z3", 3), ("k4", 3), ("q8", 3), ("d4", 3)]:
        g = builtin_group(name)
        filt = enumerate_actions(
            EnumerationTask(group=g, carrier_size=m, require_distributive=True))
        expect = [a.table for a in _all_actions(name, m)
                  if oracle_is_distributive(g.cayley, a.table, m)]
        assert [a.table for a in filt.actions] == expect, (name, m)
        assert filt.raw_count == filt.distributive_count == len(expect), (name, m)


@pytest.mark.parametrize("name, m, budget, raw, canonical", [
    ("k4", 4, 1_000, 874, 127),
    ("z3", 5, 150, 191, 8),
    ("s3", 4, 60, 31, 5),
])
def test_node_budget_partial_under_require_distributive(name, m, budget, raw, canonical):
    """A node passes the pruned check exactly when every law instance over
    its assigned rows holds and no relabelling keeping its rows' points
    maps them below themselves, a row the law forces is the only candidate
    tried, and otherwise only the rows that pass the instances (h, t, t),
    so the nodes counted before a budget stop, and the partial result, are
    those of that search (the counts were recorded with it; the full
    searches take 1178, 275 and 179 nodes). The partial counts every class
    settled, all distributive, and says it took the budget's nodes; it
    lists no row, the filtered listing being expanded only after the
    search. The same stop under dedupe lists the classes' representatives,
    each distributive by the oracle."""
    g = builtin_group(name)
    task = EnumerationTask(group=g, carrier_size=m, require_distributive=True,
                           node_budget=budget)
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_actions(task)
    partial = exc.value.partial
    assert not partial.exhaustive
    assert (partial.raw_count, partial.canonical_count, partial.nodes) == (raw, canonical, budget)
    assert partial.distributive_count == raw
    assert partial.rows == []
    with pytest.raises(BudgetExceeded) as deduped:
        enumerate_actions(EnumerationTask(group=g, carrier_size=m, require_distributive=True,
                                          dedupe=True, node_budget=budget))
    reps = deduped.value.partial
    assert (reps.raw_count, reps.canonical_count, len(reps.rows)) == (raw, canonical, canonical)
    assert all(oracle_is_distributive(g.cayley, a.table, m) for a in reps.actions)


@pytest.mark.parametrize("name, m, nodes", [
    ("k4", 4, 1178), ("z3", 5, 275), ("s3", 4, 179), ("s3", 5, 1092), ("s3", 6, 8748)])
def test_distributive_node_counts_at_the_budget_edge(name, m, nodes):
    """The distributive searches take exactly these many nodes, which the
    result reports: a node budget of that many finishes them, one fewer
    stops them, and the partial reports the nodes it took. z3 on 5 points
    has one block; the others have two, one per greedy generator."""
    task = EnumerationTask(group=builtin_group(name), carrier_size=m,
                           require_distributive=True, dedupe=True, node_budget=nodes)
    result = enumerate_actions(task)
    assert result.exhaustive and result.nodes == nodes
    with pytest.raises(BudgetExceeded, match=f"^enumeration budget exceeded: node budget "
                                             f"{nodes - 1} reached") as exc:
        enumerate_actions(EnumerationTask(group=task.group, carrier_size=m,
                                          require_distributive=True, dedupe=True,
                                          node_budget=nodes - 1))
    assert exc.value.partial.nodes == nodes - 1


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


@pytest.mark.parametrize("name, m", [
    ("k4", 5), ("z2", 6), ("s3", 5), ("d4", 5), ("q8", 5), ("s3", 6)])
def test_readme_search_table_matches_the_search(name, m):
    """The README's search table quotes, for the distributive run with
    dedupe under the default budgets, the actions, the classes and, first
    in its nodes column, the search nodes; each row read here is the
    run's."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    rows = [match for line in readme.read_text().splitlines()
            if (match := re.match(rf"\| {name}, {m} \| (\d+) / (\d+)\b[^|]*\| (\d+)\b", line))]
    assert len(rows) == 1
    raw, canonical, nodes = map(int, rows[0].groups())
    result = _distributive_classes(name, m)
    assert result.exhaustive
    assert (result.raw_count, result.canonical_count, result.nodes) == (raw, canonical, nodes)


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
    """On an action with one drawn row homomorphism per point, canonicalize
    gives the oracle's least relabelled table, also for groups with
    non-generators between their greedy generators (d4, q8, z2xz2xz2) and
    for rotated groups of KEY_CASES; the key compares only generator
    slices."""
    name, k, m = data.draw(st.sampled_from(
        [("z2", None, 2), ("z2", None, 3), ("z3", None, 3), ("k4", None, 3), ("s3", None, 3),
         ("z2", None, 4), ("d4", None, 3), ("q8", None, 3), ("z2xz2xz2", None, 2),
         ("d4", 6, 3), ("q8", 4, 3)]))
    g = _rotated_group(name, k)
    homs = permutation_homomorphisms(g, m)
    a = validate_action(g, tuple(zip(*[data.draw(st.sampled_from(homs)) for _ in range(m)])))
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
    monkeypatch.setattr(search, "_moves", refuse)
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


def _counting_law_checks(monkeypatch):
    """The index tuples whose law the run settles, in the order settled."""
    calls = []
    holds = search._law_holds
    monkeypatch.setattr(search, "_law_holds",
                        lambda leaf, law_rows: calls.append(leaf) or holds(leaf, law_rows))
    return calls


def _refuse_is_distributive(monkeypatch):
    def refuse(a):
        raise AssertionError("is_distributive called during enumeration")

    monkeypatch.setattr(search, "is_distributive", refuse)


@pytest.mark.parametrize("name, m, classes", [("z2", 3, 16), ("z2", 4, 475)])
def test_distributivity_scanned_once_per_class(name, m, classes, monkeypatch):
    """The law is checked once per class, on its representative's index
    tuple, and is_distributive scans none of them."""
    calls = _counting_law_checks(monkeypatch)
    _refuse_is_distributive(monkeypatch)
    g = builtin_group(name)
    result = enumerate_actions(EnumerationTask(group=g, carrier_size=m))
    assert result.canonical_count == classes
    assert len(calls) == classes
    assert len({canonicalize(search._action(g, result.homs, leaf)).table
                for leaf in calls}) == classes


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


@pytest.mark.parametrize("name, m, dist", [
    *[(name, 3, False) for name in ("s3", "k4", "d4", "q8")], ("z2", 4, False), ("z3", 4, False),
    ("k4", 4, True), ("z3", 5, True), ("z60", 5, True)])
def test_index_space_law_verdict_matches_the_scans(name, m, dist, monkeypatch):
    """The verdict settle takes on each class, every law instance checked
    on the representative's index tuple through the last block's law rows,
    is is_distributive's and the brute-force oracle's (every g, h, x, x',
    x'') on every class representative: of the full runs with dedupe,
    which meet both verdicts, and of the filtered ones, which must meet
    only True."""
    verdicts = []
    holds = search._law_holds

    def spy(leaf, law_rows):
        verdicts.append((leaf, holds(leaf, law_rows)))
        return verdicts[-1][1]

    monkeypatch.setattr(search, "_law_holds", spy)
    g = builtin_group(name)
    result = enumerate_actions(EnumerationTask(group=g, carrier_size=m, dedupe=True,
                                               require_distributive=dist))
    assert result.exhaustive
    assert [leaf for leaf, _ in verdicts] == result.rows
    for leaf, verdict in verdicts:
        a = search._action(g, result.homs, leaf)
        assert verdict == (is_distributive(a) is True), leaf
        assert verdict == oracle_is_distributive(g.cayley, a.table, m), leaf
    assert {verdict for _, verdict in verdicts} == ({True} if dist else {True, False})


def test_filter_recheck_raises_with_the_scan_witness(z2, monkeypatch):
    """Under require_distributive, a class whose law check fails stops the
    run at its representative, its first action in table order, which
    is_distributive then scans, alone, for the witness in the message."""
    filtered = enumerate_actions(
        EnumerationTask(group=z2, carrier_size=4, require_distributive=True))
    target = canonicalize(filtered.actions[-1]).table
    first = next(a for a in filtered.actions if canonicalize(a).table == target)
    checked, scanned = [], []
    holds = search._law_holds

    def holds_with_fault(leaf, law_rows):
        checked.append(leaf)
        return search._action(z2, filtered.homs, leaf).table != target and holds(leaf, law_rows)

    monkeypatch.setattr(search, "_law_holds", holds_with_fault)
    monkeypatch.setattr(search, "is_distributive", lambda a: scanned.append(a) or (1, 1, 0, 2, 3))
    with pytest.raises(InternalInconsistency, match=r"witness \(1, 1, 0, 2, 3\)$"):
        enumerate_actions(EnumerationTask(group=z2, carrier_size=4, require_distributive=True))
    assert scanned == [first]
    assert len(checked) == filtered.canonical_count


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


def test_a_deadline_that_cuts_the_walk_keeps_the_rows_walked(z2, monkeypatch):
    """The full listing without dedupe is walked, and the walk reads the
    deadline before its first row and before the first run past each
    further 1024 rows. z2 on 4 points reads the clock once when the run
    starts, once per relabelling (24), once in the search (at node 1024)
    and ten times in the walk of its 10000 rows, in runs of ten: a 35 s
    budget lets the walk finish, a 34.5 s one cuts it before its last 780
    rows. The cut ends the run with no further clock read: the partial
    holds the 9220 rows walked, the first rows of the finished listing,
    and the tally of every class the finished search settled."""
    ticks = itertools.count()
    monkeypatch.setattr(search.time, "monotonic", lambda: next(ticks))
    result = enumerate_actions(EnumerationTask(group=z2, carrier_size=4, time_budget_s=35))
    assert next(ticks) == 36
    assert result.exhaustive and len(result.rows) == result.raw_count == 10000
    ticks = itertools.count()
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_actions(EnumerationTask(group=z2, carrier_size=4, time_budget_s=34.5))
    assert next(ticks) == 36  # the cut walk's read was the last
    assert str(exc.value) == ("enumeration budget exceeded: time budget 34.5s reached "
                              "(10000 actions found)")
    partial = exc.value.partial
    assert not partial.exhaustive
    assert (partial.raw_count, partial.canonical_count, partial.distributive_count) == (
        10000, 475, 74)
    assert partial.rows == result.rows[:9220]


def test_a_stop_ends_the_run(monkeypatch):
    """A budget stop ends the run where it comes: no clock is read after
    it, no orbit is expanded and nothing is walked. With every clock read
    advancing one second, z2 on 3 points reads the clock once when the run
    starts and once per relabelling (6), and its searches take fewer than
    1024 nodes, so a node budget of half the nodes stops each of the four
    modes after those 7 reads, and a 10 s budget is never reached. A
    deadline reads the clock no further than the read past it, in the
    search of z2 on 4 points and of k4 on 4 points under the filter, in
    the walk of z2 on 4 points, and in the expansion of k4 on 4 points
    under the filter (its 26 reads before the expansion, then one per
    class). _expand runs for none of these runs but the last."""
    expanded = []
    expand = search._expand
    monkeypatch.setattr(search, "_expand",
                        lambda *args: expanded.append(args[3]) or expand(*args))
    z2 = builtin_group("z2")
    tasks = [EnumerationTask(group=z2, carrier_size=3, require_distributive=dist,
                             dedupe=dedupe, time_budget_s=10)
             for dist, dedupe in itertools.product((False, True), repeat=2)]
    budgets = [enumerate_actions(task).nodes // 2 for task in tasks]
    assert expanded == [3]  # the finished filtered listing's
    expanded.clear()
    for task, budget in zip(tasks, budgets):
        ticks = itertools.count()
        monkeypatch.setattr(search.time, "monotonic", lambda: next(ticks))
        with pytest.raises(BudgetExceeded, match=rf"node budget {budget} reached \(\d+ actions "
                                                 rf"found\)$") as exc:
            enumerate_actions(EnumerationTask(
                group=z2, carrier_size=3, require_distributive=task.require_distributive,
                dedupe=task.dedupe, node_budget=budget, time_budget_s=10))
        assert next(ticks) == 7
        assert exc.value.partial.rows == [] or task.dedupe
    k4 = builtin_group("k4")
    for group, dist, budget in [(z2, False, 24.5), (k4, True, 24.5), (z2, False, 34.5),
                                (k4, True, 100.5)]:
        reads = []

        def clock():
            assert not reads or reads[-1] <= budget, "clock read after the deadline passed"
            reads.append(len(reads))
            return reads[-1]

        monkeypatch.setattr(search.time, "monotonic", clock)
        with pytest.raises(BudgetExceeded, match=f"time budget {budget}s reached"):
            enumerate_actions(EnumerationTask(group=group, carrier_size=4,
                                              require_distributive=dist, time_budget_s=budget))
        assert reads[-1] == math.ceil(budget)
    assert expanded == [4]  # the run cut in its expansion


def test_only_a_filtered_listing_keeps_a_class_list(monkeypatch):
    """The classes are kept in a list only where a filtered listing
    without dedupe expands them, in enumerate_actions and with --out: a
    full listing is walked, and a count or a deduplicated listing needs
    no class. So enumerate_actions builds its one _Settled with
    classes=None but for the filtered listing."""
    made = []
    init = search._Settled.__init__

    def spy(self, m, classes=None):
        made.append(classes is not None)
        init(self, m, classes)

    monkeypatch.setattr(search._Settled, "__init__", spy)
    k4 = builtin_group("k4")
    for dist, dedupe in itertools.product((False, True), repeat=2):
        made.clear()
        enumerate_actions(EnumerationTask(group=k4, carrier_size=3,
                                          require_distributive=dist, dedupe=dedupe))
        assert made == [dist and not dedupe], (dist, dedupe)


def test_time_budget_stop_in_the_search_reports_actions_found(z2, monkeypatch):
    """The full search of z2 on 4 points takes 1430 nodes, so it reads the
    clock once, at node 1024, when it has settled 383 classes of
    8116 actions (the first ones by the oracles). The clock is read at
    the start and for the 24 relabellings before that, so a 24.5 s budget
    stops the search there, and a node budget of 1023 at the same node:
    both partials count those classes and list no row, the walk coming
    after the search. Under dedupe the same stop lists the classes'
    representatives."""
    ticks = itertools.count()
    monkeypatch.setattr(search.time, "monotonic", lambda: next(ticks))
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_actions(EnumerationTask(group=z2, carrier_size=4, time_budget_s=24.5))
    assert next(ticks) == 26
    assert str(exc.value) == ("enumeration budget exceeded: time budget 24.5s reached "
                              "(8116 actions found)")
    monkeypatch.undo()
    with pytest.raises(BudgetExceeded) as stop:
        enumerate_actions(EnumerationTask(group=z2, carrier_size=4, node_budget=1023))
    assert str(stop.value) == ("enumeration budget exceeded: node budget 1023 reached "
                               "(8116 actions found)")
    for partial in (exc.value.partial, stop.value.partial):
        assert not partial.exhaustive
        assert (partial.raw_count, partial.canonical_count, partial.rows) == (8116, 383, [])
    with pytest.raises(BudgetExceeded) as deduped:
        enumerate_actions(EnumerationTask(group=z2, carrier_size=4, node_budget=1023,
                                          dedupe=True))
    classes = _classes_in_search_order("z2", 4)[:383]
    reps = deduped.value.partial.actions
    assert len(reps) == 383 and all(a.table in c for a, c in zip(reps, classes))
    assert sum(map(len, classes)) == 8116


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


def test_time_budget_bounds_relabelling_memory(monkeypatch):
    """The m! relabellings are generated one at a time under the deadline.
    z2 on 8 points reads the clock at the start, once while generating its
    764 homomorphisms and then once per relabelling table, so a 12 s
    budget on a clock that ticks once per read stops it before its
    twelfth table, with an empty partial, well under 1 MB traced: the 8!
    tables would take about 250 MB. (The trivial group on 8 points, which
    this once ran, builds no relabelling table now: see
    test_the_trivial_group_builds_no_relabelling.)"""
    ticks = itertools.count()
    monkeypatch.setattr(search.time, "monotonic", lambda: next(ticks))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_actions(EnumerationTask(
                group=builtin_group("z2"), carrier_size=8, time_budget_s=12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert next(ticks) == 14
    partial = exc.value.partial
    assert not partial.exhaustive
    assert partial.actions == ()
    assert (partial.raw_count, partial.canonical_count, partial.distributive_count) == (0, 0, 0)
    assert peak < 1_000_000


@pytest.mark.parametrize("name, m", [("s3", 4), ("z2", 5), ("z3", 5), ("k4", 4), ("q8", 5),
                                     ("z60", 5)])
def test_composed_conjugation_tables_match_direct_ones(name, m):
    """The tables built from the adjacent transpositions are those of
    conjugating every homomorphism by every relabelling, in the order of
    itertools.permutations."""
    g = builtin_group(name)
    homs = permutation_homomorphisms(g, m)
    moves, rank = search._moves(g, homs, m)
    perms = list(itertools.permutations(range(m)))
    direct = []
    for sigma in perms:
        inv = invert_perm(sigma)
        direct.append(([homs.index(search._conjugate(sigma, inv, rho)) for rho in homs], inv))
    assert moves == direct


def test_moves_are_s_m_in_itertools_order_with_their_ranks():
    """The moves of a group with a block are the m! permutations of S_m,
    each once, in the order of itertools.permutations(range(m)), the
    identity first, and rank maps each permutation to its place there,
    m = 1..7; the trivial group gets the identity move alone."""
    for name, m in [("z2", m) for m in range(1, 8)] + [("z1", 4)]:
        g = builtin_group(name)
        homs = permutation_homomorphisms(g, m)
        moves, rank = search._moves(g, homs, m)
        perms = list(itertools.permutations(range(m))) if name != "z1" else [tuple(range(m))]
        assert [invert_perm(inv) for _, inv in moves] == perms, (name, m)
        assert moves[0] == (list(range(len(homs))), tuple(range(m)))
        assert rank == {p: r for r, p in enumerate(perms)}, (name, m)


@pytest.mark.parametrize("name, m", [("z60", 5), ("q8", 4), ("s3", 4)])
def test_transposition_tables_conjugate_generator_images_only(name, m, monkeypatch):
    """The m - 1 transposition tables look each conjugate up by its images
    of the greedy generators: _conjugate gets |S| permutations per
    homomorphism (1 for z60, 2 for s3, 3 for q8), not |G|, once per
    homomorphism and transposition."""
    g = builtin_group(name)
    homs = permutation_homomorphisms(g, m)
    seen = []
    conjugate = search._conjugate
    monkeypatch.setattr(search, "_conjugate",
                        lambda sigma, inv, rho: seen.append(len(rho)) or conjugate(sigma, inv, rho))
    search._moves(g, homs, m)
    assert seen == [len(greedy_generators(g))] * ((m - 1) * len(homs))


def _rotated_group(name, k):
    """The catalog group, its elements renamed x -> x + k unless k is None."""
    g = builtin_group(name)
    if k is None:
        return g
    g = _relabelled_group(g, [(x + k) % g.order for x in g.elements()])
    assert g.identity == k
    return g


# (group, relabelling of its elements or None, carrier size, number of
# greedy generators): the rotations x -> x + k move the identity off index
# 0 and give the greedy generators other sizes than the catalog's, and
# non-generators between them (d4, q8, z2xz2xz2)
KEY_CASES = [
    ("z1", None, 3, 0), ("z2", None, 3, 1), ("z3", None, 3, 1), ("z4", None, 3, 1),
    ("k4", None, 3, 2), ("z6", None, 3, 1), ("s3", None, 3, 2), ("z8", None, 3, 1),
    ("z4xz2", None, 3, 2), ("z2xz2xz2", None, 2, 3), ("d4", None, 3, 2), ("q8", None, 3, 3),
    ("s3", 1, 3, 2), ("s3", 3, 3, 2), ("d4", 6, 3, 3), ("q8", 3, 3, 2), ("q8", 4, 3, 2),
]


@pytest.mark.parametrize("name, k, m, length", KEY_CASES)
def test_key_orders_index_tuples_as_their_tables(name, k, m, length):
    """Sorting every index tuple by the int key the expansion sorts on,
    read off the blocks' run ids, gives the order of their g-major tables
    as the oracle builds them, and no two tuples share a key, whatever the
    number of blocks: none for z1, one to three otherwise."""
    g = _rotated_group(name, k)
    assert len(greedy_generators(g)) == length
    homs = permutation_homomorphisms(g, m)
    moves, rank = search._moves(g, homs, m)
    blocks = search._blocks(g, homs, moves, rank, m, False)
    key = search._table_key(blocks, m)
    oracle = oracle_permutation_homomorphisms(g.cayley, g.identity, m)
    assert homs == oracle
    leaves = list(itertools.product(range(len(homs)), repeat=m))
    tables = {leaf: tuple(zip(*[oracle[i] for i in leaf])) for leaf in leaves}
    assert sorted(leaves, key=key) == sorted(leaves, key=tables.__getitem__)
    assert len({key(leaf) for leaf in leaves}) == len(leaves)


@pytest.mark.parametrize("name, m, total", [("z60", 5, 351), ("k4", 4, 99), ("s3", 4, 129)])
def test_law_rows_keep_each_distinct_nonidentity_image_once(name, m, total):
    """Per homomorphism rho, the last block's law_rows hold each
    permutation rho(h) other than the identity once, in the order of the first h reaching it, with
    its conjugation table, the move at its place in the lexicographic
    order (one entry per non-identity h would make 7080, 156 and 170)."""
    g = builtin_group(name)
    homs = permutation_homomorphisms(g, m)
    moves, rank = search._moves(g, homs, m)
    rows = search._blocks(g, homs, moves, rank, m, True)[-1].law_rows
    perms = list(itertools.permutations(range(m)))
    for rho, row in zip(homs, rows):
        images = [c for c, _ in row]
        assert images == sorted(set(rho) - {perms[0]}, key=rho.index)
        assert all(conj == moves[perms.index(c)][0] for c, conj in row)
    assert sum(map(len, rows)) == total


def test_dedupe_builds_representatives_only(z2, monkeypatch):
    """z2 on 4 points: 10000 actions in 475 classes. Under dedupe the run
    builds no BinaryAction, each class's law being settled on its index
    tuple, and the first read of result.actions builds one for each
    representative; a second read builds none. The counts and
    representatives are unchanged."""
    calls = []
    action = search._action
    monkeypatch.setattr(search, "_action",
                        lambda group, homs, leaf: calls.append(leaf) or action(group, homs, leaf))
    result = enumerate_actions(EnumerationTask(group=z2, carrier_size=4, dedupe=True))
    assert (result.raw_count, result.canonical_count, result.distributive_count) == (10000, 475, 74)
    assert calls == []
    actions = result.actions
    assert len(calls) == 475
    assert result.actions is actions
    assert len(calls) == 475
    assert [a.table for a in actions] == [canonicalize(a).table for a in actions]


@pytest.mark.parametrize("name, m, budget, classes", [("k4", 3, 200, 91),
                                                       ("s3", 3, 200, 102)])
def test_dedupe_partial_holds_representatives_in_table_order(name, m, budget, classes,
                                                             monkeypatch):
    """The layered search meets the classes in table order: it fills the
    blocks in generator order, the points in order and each point's runs
    ascending, and its leaf is the least table. Each class's law is
    checked once, at its representative, so the checks give the order
    met, and a budget-stopped partial under dedupe lists the first classes
    of the full listing, as met, with no sort, each the least table of its
    class by the oracle. The partial without dedupe counts the same
    classes and lists no row, the walk coming after the search."""
    task = EnumerationTask(group=builtin_group(name), carrier_size=m, node_budget=budget)
    with pytest.raises(BudgetExceeded, match=f"node budget {budget} reached") as raw:
        enumerate_actions(task)
    assert raw.value.partial.rows == []
    calls = _counting_law_checks(monkeypatch)
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_actions(EnumerationTask(group=task.group, carrier_size=m, dedupe=True,
                                          node_budget=budget))
    homs = exc.value.partial.homs
    met = [search._action(task.group, homs, leaf).table for leaf in calls]
    assert len(met) == classes and met == sorted(met)
    assert [a.table for a in exc.value.partial.actions] == met
    full = enumerate_actions(EnumerationTask(group=task.group, carrier_size=m, dedupe=True,
                                             node_budget=10**6))
    assert met == [a.table for a in full.actions[:classes]]
    assert met == [oracle_canonical_form(table, m) for table in met]
    counts = [(r.raw_count, r.canonical_count, r.distributive_count)
              for r in (raw.value.partial, exc.value.partial)]
    assert counts[0] == counts[1]


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


def test_unclosed_hom_list_raises(z2, monkeypatch):
    homs = permutation_homomorphisms(z2, 3)
    monkeypatch.setattr(search, "permutation_homomorphisms",
                        lambda g, m, deadline: homs[:-1])
    with pytest.raises(InternalInconsistency, match="not closed under conjugation"):
        enumerate_actions(EnumerationTask(group=z2, carrier_size=3))


@pytest.mark.parametrize("name, bad", [
    ("z3", {0, 1}), ("z3", {1, 2}), ("s3", {0, 1, 2}), ("s3", {3, 4})])
def test_a_bad_coset_action_raises(name, bad, monkeypatch):
    """Each coset action passes make_ordinary_action as it is built, so a
    set that is not a subgroup (not closed, or without the identity) in
    the subgroup list raises before any homomorphism is listed, in every
    entry point that builds the list."""
    g = builtin_group(name)
    subgroups = search.all_subgroups(g)
    monkeypatch.setattr(search, "all_subgroups",
                        lambda g, deadline=math.inf: [*subgroups, frozenset(bad)])
    message = re.escape(f"coset action of {sorted(bad)} invalid")
    with pytest.raises(InternalInconsistency, match=message):
        permutation_homomorphisms(g, 3)
    with pytest.raises(InternalInconsistency, match="coset action"):
        all_ordinary_actions(g, 3)
    with pytest.raises(InternalInconsistency, match="coset action"):
        enumerate_actions(EnumerationTask(group=g, carrier_size=3))


def test_a_class_met_twice_raises(monkeypatch):
    """With the prefix test emptied (no move in any block), a distributive
    run with dedupe has no runtime check that fails: no sum is checked,
    and every class is distributive. The oracles catch it: k4 on 3 points
    then settles every distributive index tuple as its own class, so
    classes come back, leaves that are not the least table are taken as
    representatives, and no tie is counted."""
    task = EnumerationTask(group=builtin_group("k4"), carrier_size=3,
                           require_distributive=True, dedupe=True)
    _check_settled_classes(task, monkeypatch)
    monkeypatch.setattr(search, "_prefix_moves", lambda moves, m: [[] for _ in range(m)])
    with pytest.raises(AssertionError, match="met twice") as exc:
        _check_settled_classes(task, monkeypatch)
    assert "not canonical" in str(exc.value) and "automorphisms" in str(exc.value)


def test_a_search_without_the_prefix_test_trips_the_sum_check(z2, monkeypatch):
    """Without the prefix test every index tuple reaches a leaf. For z2 each
    leaf is taken as its own representative, with no ties, so no key comes
    back, but the 64 leaves of 3 points claim 64 * 3! actions, not
    |Hom(G, S_3)|^3 = 64."""
    monkeypatch.setattr(search, "_prefix_moves", lambda moves, m: [[] for _ in range(m)])
    with pytest.raises(InternalInconsistency, match=r"hold 384 actions, not .* = 64$"):
        enumerate_actions(EnumerationTask(group=z2, carrier_size=3))


@pytest.mark.parametrize("name, m", [("z2", 3), ("z2", 4), ("k4", 3)])
def test_an_aut_miscount_trips_the_sum_check(name, m, monkeypatch):
    """Each move listed twice at the last point of a block counts every tie
    twice, so every class with a non-trivial automorphism gets a wrong
    |Aut| (in k4's two blocks, the first block's doubled ties double the
    second block's moves again). The leaves reached are the same, and no
    orbit is built, with dedupe or without, so only the sum of m!/|Aut|
    over the classes shows it."""
    prefix_moves = search._prefix_moves
    monkeypatch.setattr(search, "_prefix_moves",
                        lambda moves, m: [*prefix_moves(moves, m)[:-1],
                                          prefix_moves(moves, m)[-1] * 2])
    for dedupe in (False, True):
        with pytest.raises(InternalInconsistency, match=r"^the classes hold \d+ actions, not"):
            enumerate_actions(EnumerationTask(group=builtin_group(name), carrier_size=m,
                                              dedupe=dedupe))


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


def test_least_runs_once_per_class_without_validate_action(s3, monkeypatch):
    """Each class is settled once, at its least table, the leaf of the
    last block: s3 on 3 points checks the law of 180 distinct
    representatives, one per class, and no action passes through
    validate_action or is_distributive."""
    calls = _counting_law_checks(monkeypatch)
    _refuse_is_distributive(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("validate_action called during enumeration")

    # search no longer imports validate_action, so refusing it where it is
    # defined covers every path
    monkeypatch.setattr(binact.actions, "validate_action", refuse)
    result = enumerate_actions(EnumerationTask(group=s3, carrier_size=3))
    assert (result.raw_count, result.canonical_count) == (1000, 180)
    tables = [search._action(s3, result.homs, leaf).table for leaf in calls]
    assert len(set(tables)) == 180 and tables == sorted(tables)
    assert tables == [canonicalize(search._action(s3, result.homs, leaf)).table
                      for leaf in calls]


def test_per_class_orbit_stabilizer_check(s3, monkeypatch):
    """An orbit that loses relabellings no longer has m!/|Aut| members
    where an orbit is built from a representative, in a filtered listing
    without dedupe. Dropping one move loses no row of a distributive
    class, each h(x, -) being an automorphism, so _expand is handed the
    identity move alone: each orbit has one member, and the first class
    with |Aut| below m! raises."""
    expand = search._expand
    monkeypatch.setattr(search, "_expand",
                        lambda blocks, moves, *args: expand(blocks, moves[:1], *args))
    with pytest.raises(InternalInconsistency, match="relabellings times"):
        enumerate_actions(EnumerationTask(group=s3, carrier_size=3, require_distributive=True))


def _settled_classes(task, monkeypatch):
    """The run's row homomorphisms and the classes its search settled, as
    counted by _Settled.add: (representative, |Aut|, distributive), in
    the order met, on dedupe, walked and expanded runs alike."""
    seen = []
    add = search._Settled.add

    def spy(self, *settled):
        seen.append(settled)
        return add(self, *settled)

    monkeypatch.setattr(search._Settled, "add", spy)
    result = enumerate_actions(task)
    monkeypatch.setattr(search._Settled, "add", add)
    assert result.exhaustive
    return result.homs, seen


def _check_settled_classes(task, monkeypatch):
    """The classes a run settled, against oracles that share nothing with
    the search: every representative is the least table of its class
    (canonicalize, a direct minimum over the m! bijections), no two are
    in one class, and each |Aut|, the ties at the leaf plus one, is the number of
    bijections f with is_biequivariant(a, a, f). Raises AssertionError
    naming every fault."""
    homs, classes = _settled_classes(task, monkeypatch)
    g, m = task.group, task.carrier_size
    faults = []
    seen = set()
    for leaf, aut, _ in classes:
        a = search._action(g, homs, leaf)
        least = canonicalize(a).table
        if least in seen:
            faults.append(f"class of {leaf} met twice")
        seen.add(least)
        if least != a.table:
            faults.append(f"representative {leaf} not canonical")
        biequivariant = sum(is_biequivariant(a, a, f) is True
                            for f in itertools.permutations(range(m)))
        if aut != biequivariant:
            faults.append(f"{leaf}: {aut} automorphisms, {biequivariant} biequivariant bijections")
    assert not faults, "; ".join(faults)
    return classes


# every full size and the distributive sizes at which tier-1 enumerates the
# groups with two or more greedy generators (z4xz2 on 3 points has more
# homomorphisms to S_3 than k4), and the one-block cases the leaf of item 2
# was checked on
SETTLED_CASES = [
    *[(name, 3, False) for name in ("z2", "z3", "k4", "s3", "d4", "q8", "z4xz2")],
    ("z2", 4, False), ("z3", 4, False),
    *[(name, 4, True) for name in ("z2", "z3", "k4", "s3", "d4", "q8", "z4xz2")],
    ("z3", 5, True), ("s3", 5, True), ("z60", 5, True),
]


@pytest.mark.parametrize("name, m, dist", [
    ("z2", 3, False), ("z2", 4, False), ("z3", 3, False), ("z3", 4, False),
    ("z3", 5, True), ("z60", 5, True),
    *[case for case in SETTLED_CASES if case[0] not in ("z2", "z3", "z60")]])
def test_leaf_is_the_canonical_form(name, m, dist, monkeypatch):
    """For every group the leaf of the last block is its class's least
    table, settled with no pass over the class: each representative is
    canonicalize's, each class is met once, and the classes come in table
    order; the counts are the oracles'."""
    task = EnumerationTask(group=builtin_group(name), carrier_size=m, require_distributive=dist)
    classes = _check_settled_classes(task, monkeypatch)
    homs = permutation_homomorphisms(task.group, m)
    tables = [search._action(task.group, homs, leaf).table for leaf, _, _ in classes]
    assert tables == sorted(tables)


@pytest.mark.parametrize("name, m, dist", [
    ("k4", 3, False), ("s3", 3, False), ("k4", 4, True), ("s3", 4, True),
    *[case for case in SETTLED_CASES if case not in (
        ("k4", 3, False), ("s3", 3, False), ("k4", 4, True), ("s3", 4, True))]])
def test_leaf_ties_give_aut_for_every_group(name, m, dist, monkeypatch):
    """The moves that tie at the last point of the last block, plus the
    identity, are the automorphisms: ties + 1 is the number of bijective
    biequivariant self-maps on every class. Over a full run the classes'
    m!/|Aut| then sum to |Hom(G, S_m)|^m, which the run checks itself."""
    task = EnumerationTask(group=builtin_group(name), carrier_size=m, require_distributive=dist)
    classes = _check_settled_classes(task, monkeypatch)
    result = enumerate_actions(task)
    assert result.raw_count == sum(math.factorial(m) // aut for _, aut, _ in classes)
    if not dist:
        assert (result.raw_count, result.canonical_count) == oracle_burnside_counts(
            task.group.cayley, task.group.identity, m)


def test_the_trivial_group_builds_no_relabelling(monkeypatch):
    """The trivial group has no greedy generator: its search has no block,
    and its one class, the one action, is settled with |Aut| = m!. Its
    relabelling tables hold the identity move alone, so z1 on 9 points
    enumerates, with dedupe or without, filtered or not, in well under a
    megabyte traced (all 9! moves took 116 MB RSS)."""
    z1 = builtin_group("z1")
    tracemalloc.start()
    try:
        for dedupe, dist in itertools.product((False, True), repeat=2):
            result = enumerate_actions(EnumerationTask(
                group=z1, carrier_size=9, dedupe=dedupe, require_distributive=dist))
            assert result.exhaustive and result.nodes == 0
            assert (result.raw_count, result.canonical_count, result.distributive_count) == (
                1, 1, 1)
            assert result.rows == [(0,) * 9]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("name, m", [
    *[(name, m) for name in ("z1", "z2", "z3", "k4", "s3") for m in (1, 2, 3)],
    ("z2", 4), ("z3", 4), ("q8", 3), ("d4", 3)])
def test_the_walk_lists_every_table_in_order(name, m):
    """The full listing without dedupe is walked over the generator blocks,
    with no key and no sort, and lists the oracle's tables in sorted order
    at every full size tier-1 runs, and for q8 (three greedy generators)
    and d4 (two) on 3 points."""
    g = builtin_group(name)
    result = enumerate_actions(EnumerationTask(group=g, carrier_size=m))
    homs = oracle_permutation_homomorphisms(g.cayley, g.identity, m)
    want = sorted(tuple(zip(*rows)) for rows in itertools.product(homs, repeat=m))
    assert [a.table for a in result.actions] == want
    assert result.exhaustive and result.raw_count == len(want)


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
    """On every action of z2 and of s3 on 3 points, alone (a result of one
    action, so its raw count is 1) and as the whole enumeration, the
    miner's witnesses are the brute-force miner's."""
    result = enumerate_actions(EnumerationTask(group=builtin_group(name), carrier_size=3))
    assert mine_counterexamples(result) == _brute_force_witnesses(result.actions)
    for a, row in zip(result.actions, result.rows):
        alone = EnumerationResult(result.task, 1, result.canonical_count,
                                  result.distributive_count, result.exhaustive, result.homs,
                                  [row], result.nodes)
        assert mine_counterexamples(alone) == _brute_force_witnesses((a,))


@pytest.mark.parametrize("name, m", [("s3", 3), ("z2", 4), ("k4", 3), ("z3", 4)])
def test_witnesses_from_representatives_match_the_full_scan(name, m):
    """Both witness properties are invariant under relabelling, and the
    representatives are each class's least table, in table order, so
    mining them gives the full listing's report: the same witnesses, and
    actions_scanned the raw count."""
    task = EnumerationTask(group=builtin_group(name), carrier_size=m)
    full = mine_counterexamples(enumerate_actions(task))
    reps = enumerate_actions(EnumerationTask(group=task.group, carrier_size=m, dedupe=True))
    assert mine_counterexamples(reps) == full
    assert full.actions_scanned == reps.raw_count


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


def test_ordinary_actions_of_the_trivial_group_and_on_one_point(z2):
    """Where the coset-action check meets only trivial coset actions: the
    trivial group, and any group on one point."""
    z1 = builtin_group("z1")
    assert all_ordinary_actions(z1, 3) == (make_ordinary_action(z1, ((0, 1, 2),)),)
    assert all_ordinary_actions(z1, 1) == (make_ordinary_action(z1, ((0,),)),)
    assert all_ordinary_actions(z2, 1) == (make_ordinary_action(z2, ((0,), (0,))),)
    assert all_ordinary_actions(builtin_group("s3"), 1) == (
        make_ordinary_action(builtin_group("s3"), ((0,),) * 6),)
