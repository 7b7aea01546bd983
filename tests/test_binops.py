import functools
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binact import (
    EnumerationTask,
    bi_invariant_closure_trace,
    builtin_group,
    check_ka_closed,
    conjugation_coset_action,
    delta,
    discrete_topology,
    element_order,
    enumerate_actions,
    identity_op,
    induced_action,
    invertible_group,
    is_bi_invariant,
    is_invertible,
    k_set,
    make_binary_op,
    make_group,
    make_ordinary_action,
    make_space,
    op_from_json,
    op_to_json,
    orbit_space,
    restrict,
    star,
    subgroup_closure,
    try_invert,
    validate_action,
    validate_topology,
)
from binact.errors import (
    AxiomOneViolated,
    AxiomTwoViolated,
    CapExceeded,
    CarrierMismatch,
    MalformedTable,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotInvertible,
    ShapeMismatch,
)
from binact.search import all_ordinary_actions

from oracles import (
    oracle_action_axiom_witness,
    oracle_associativity_witness,
    oracle_identity,
    oracle_inverses,
    oracle_left_action_witness,
)


def all_ops(n):
    for flat in product(range(n), repeat=n * n):
        yield make_binary_op(tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))


def test_identity_op_is_two_sided_identity_size2():
    e = identity_op(2)
    for f in all_ops(2):
        assert star(e, f) == f
        assert star(f, e) == f


def test_star_associative_exhaustive_size2():
    ops = list(all_ops(2))
    for f in ops:
        for g in ops:
            fg = star(f, g)
            for h in ops:
                assert star(fg, h) == star(f, star(g, h))


def test_xor_is_self_inverse():
    xor = make_binary_op(((1, 0), (1, 0)))
    assert star(xor, xor) == identity_op(2)
    inv = try_invert(xor)
    assert inv == xor


def test_projection_not_invertible():
    proj = make_binary_op(((0, 0), (1, 1)))  # f(x, x') = x
    assert star(proj, proj) == proj
    assert not is_invertible(proj)
    with pytest.raises(NotInvertible) as exc:
        try_invert(proj)
    assert exc.value.row == 0


def test_try_invert_output_is_two_sided():
    f = make_binary_op(((1, 0, 2), (2, 0, 1), (0, 1, 2)))
    inv = try_invert(f)
    assert star(f, inv) == identity_op(3)
    assert star(inv, f) == identity_op(3)


def test_invertible_group_sizes():
    # (n!)^n invertible operations on n points
    assert len(invertible_group(1)) == 1
    assert len(invertible_group(2)) == 4
    assert len(invertible_group(3)) == 216
    with pytest.raises(CapExceeded):
        invertible_group(5)
    assert len(invertible_group(2, cap=2)) == 4


def test_invertible_group_members_are_exactly_all_rows_bijective():
    listed = set(invertible_group(2))
    for f in all_ops(2):
        assert (f in listed) == all(sorted(f.row(t)) == [0, 1] for t in range(2))


def test_star_requires_matching_carriers():
    with pytest.raises(CarrierMismatch):
        star(identity_op(2), identity_op(3))


def test_make_binary_op_rejects_ragged_or_out_of_range():
    with pytest.raises(MalformedTable):
        make_binary_op(((0, 1), (0,)))
    with pytest.raises(MalformedTable):
        make_binary_op(((0, 2), (0, 1)))


# bad rows for a group or operation, a Z2 ordinary action, or (as both
# slices) a Z2 binary action, and the part of the message that names the
# offending index and value, where there is one
BAD_TABLES = {
    "ragged row": ([[0, 1], [0]], "[1] has length 1, expected 2"),
    "out-of-range entry": ([[0, 1], [1, 2]], "[1][1] = 2 out of range 0..1"),
    "empty table": ([], None),
    "wrong leading length": ([[0, 1], [1, 0], [0, 1]], None),
    "string entry": ([[0, 1], [1, "x"]], "[1][1] = 'x' is not an integer"),
    "float entry": ([[0, 1], [1, 1.9]], "[1][1] = 1.9 is not an integer"),
    "mapping row": ([{0: 1, 1: 0}, [1, 0]], "[0] = {0: 1, 1: 0} is not a list"),
}


@pytest.mark.parametrize("case", list(BAD_TABLES))
@pytest.mark.parametrize("caller, error", [
    (make_group, MalformedTable),
    (make_binary_op, MalformedTable),
    (lambda rows: validate_action(builtin_group("z2"), [rows, rows]), ShapeMismatch),
    (lambda rows: make_ordinary_action(builtin_group("z2"), rows), ShapeMismatch),
], ids=["make_group", "make_binary_op", "validate_action", "make_ordinary_action"])
def test_one_table_validator_for_every_caller(case, caller, error):
    rows, named = BAD_TABLES[case]
    with pytest.raises(error) as exc:
        caller(rows)
    assert type(exc.value) is error
    if named is not None:
        assert named in str(exc.value)


@functools.lru_cache(maxsize=None)
def _law_tables(kind, name, m):
    """Valid tables to corrupt: binary actions of the group on m points,
    its ordinary actions on m points, or its Cayley table."""
    g = builtin_group(name)
    if kind == "binary":
        return g, [a.table for a in enumerate_actions(
            EnumerationTask(group=g, carrier_size=m)).actions]
    if kind == "ordinary":
        return g, [o.table for o in all_ordinary_actions(g, m)]
    return g, [g.cayley]


def _corrupt(data, table, m, kind):
    """table as lists, with 0 to 3 of its cells set to values drawn in 0..m-1."""
    cells = [[list(row) for row in sl] for sl in (table if kind == "binary" else [table])]
    for _ in range(data.draw(st.integers(0, 3))):
        rows = data.draw(st.sampled_from(cells))
        row = data.draw(st.sampled_from(rows))
        row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.integers(0, m - 1))
    return cells if kind == "binary" else cells[0]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_law_checks_report_the_first_witness(data):
    """validate_action, make_ordinary_action and make_group share one scan
    of the left-action law; on tables with up to 3 corrupted cells each
    reports exactly the first failure the plain-loop oracles find, with
    its error type and message, and accepts the table when they find none."""
    kind, name, m = data.draw(st.sampled_from([
        ("binary", "z2", 3), ("binary", "z3", 2), ("binary", "s3", 2), ("binary", "k4", 2),
        ("ordinary", "z3", 3), ("ordinary", "s3", 3), ("ordinary", "k4", 3),
        ("ordinary", "z2", 4), ("group", "z3", 3), ("group", "s3", 6), ("group", "k4", 4),
        ("group", "z4", 4), ("group", "q8", 8),
        ("binary", "s3", 1), ("ordinary", "z3", 1), ("group", "z1", 1)]))
    g, tables = _law_tables(kind, name, m)
    table = _corrupt(data, data.draw(st.sampled_from(tables)), m, kind)
    if kind == "binary":
        witness = oracle_action_axiom_witness(g.cayley, g.identity, table, m)
        if witness is None:
            assert validate_action(g, table).table == tuple(tuple(map(tuple, sl)) for sl in table)
            return
        error = AxiomTwoViolated if len(witness) == 2 else AxiomOneViolated
        with pytest.raises(error) as exc:
            validate_action(g, table)
        assert exc.value.witness == witness
    elif kind == "ordinary":
        witness = oracle_left_action_witness(g.cayley, g.identity, table, m)
        if witness is None:
            assert make_ordinary_action(g, table).table == tuple(map(tuple, table))
            return
        with pytest.raises(MalformedTable) as exc:
            make_ordinary_action(g, table)
        assert str(exc.value) == (
            "not a left action: e.%d != %d" % (witness * 2) if len(witness) == 1 else
            "not a left action: (g h).x != g.(h.x) at (g, h, x) = (%d, %d, %d)" % witness)
    else:
        if oracle_identity(table) is None:
            with pytest.raises(NoIdentity):
                make_group(table)
            return
        witness = oracle_associativity_witness(table)
        if witness is None:
            inverses = oracle_inverses(table, oracle_identity(table))
            if isinstance(inverses, int):
                with pytest.raises(NoInverse) as exc:
                    make_group(table)
                assert exc.value.element == inverses
                return
            assert make_group(table).cayley == tuple(map(tuple, table))
            return
        with pytest.raises(NotAssociative) as exc:
            make_group(table)
        assert exc.value.triple == witness
        assert str(exc.value) == "(a*b)*c != a*(b*c) at (a, b, c) = (%d, %d, %d)" % witness


def test_make_group_matches_the_oracles_on_every_small_table():
    """On all 19700 tables of order 1 to 3, make_group finds the identity
    and inverses by row lookup, and raises the first error the plain-loop
    oracles find: no identity, then the first non-associative triple, then
    the first element without a two-sided inverse."""
    outcomes = set()
    for n in (1, 2, 3):
        for flat in product(range(n), repeat=n * n):
            table = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
            identity = oracle_identity(table)
            triple = oracle_associativity_witness(table) if identity is not None else None
            inverses = oracle_inverses(table, identity) if identity is not None else None
            try:
                g = make_group(table)
            except NoIdentity:
                assert identity is None
                outcomes.add("no identity")
            except NotAssociative as exc:
                assert identity is not None and exc.triple == triple
                outcomes.add("not associative")
            except NoInverse as exc:
                assert triple is None and exc.element == inverses
                outcomes.add("no inverse")
            else:
                assert triple is None and (g.identity, g.inverse) == (identity, inverses)
                outcomes.add("group")
    assert outcomes == {"no identity", "not associative", "no inverse", "group"}


# every integer read with a bound, as (call on s3 and its distributive
# action on the cosets of a subgroup of order 3, error, full message)
BOUNDED_READS = {
    "element_order-big": (lambda g, a: element_order(g, 6),
                          MalformedTable, "element 6 out of range 0..5"),
    "element_order-float": (lambda g, a: element_order(g, 1.0),
                            MalformedTable, "element = 1.0 is not an integer"),
    "induced_action-big": (lambda g, a: induced_action(a, 6),
                           ShapeMismatch, "point 6 out of range 0..5"),
    "induced_action-float": (lambda g, a: induced_action(a, 1.5),
                             ShapeMismatch, "point = 1.5 is not an integer"),
    "class_of-big": (lambda g, a: orbit_space(a).class_of(6),
                     ShapeMismatch, "point 6 out of range 0..5"),
    "class_of-negative": (lambda g, a: orbit_space(a).class_of(-1),
                          ShapeMismatch, "point -1 out of range 0..5"),
    "class_of-float": (lambda g, a: orbit_space(a).class_of(0.0),
                       ShapeMismatch, "point = 0.0 is not an integer"),
    "delta-big": (lambda g, a: delta(a, 6),
                  ShapeMismatch, "group element 6 out of range 0..2"),
    "delta-float": (lambda g, a: delta(a, 2.0),
                    ShapeMismatch, "group element = 2.0 is not an integer"),
    "closure_trace-big": (lambda g, a: bi_invariant_closure_trace(a, 7),
                          ShapeMismatch, "point 7 out of range 0..5"),
    "closure_trace-string": (lambda g, a: bi_invariant_closure_trace(a, "1"),
                             ShapeMismatch, "point = '1' is not an integer"),
    "k_set-K": (lambda g, a: k_set(a, [0, 6], [0], [0]),
                ShapeMismatch, "group element 6 out of range 0..2"),
    "k_set-A": (lambda g, a: k_set(a, [0], [0, 6], [0]),
                ShapeMismatch, "point 6 out of range 0..5"),
    "k_set-B": (lambda g, a: k_set(a, [0], [0], [-1]),
                ShapeMismatch, "point -1 out of range 0..5"),
    "k_set-K-float": (lambda g, a: k_set(a, [0, 1.0], [0], [0]),
                      ShapeMismatch, "K[1] = 1.0 is not an integer"),
    "is_bi_invariant": (lambda g, a: is_bi_invariant(a, [9]),
                        ShapeMismatch, "point 9 out of range 0..5"),
    "is_bi_invariant-string": (lambda g, a: is_bi_invariant(a, [0, "x"]),
                               ShapeMismatch, "A[1] = 'x' is not an integer"),
    "check_ka_closed-K": (lambda g, a: check_ka_closed(make_space(a, discrete_topology(6)), [0, 6], 0),
                          ShapeMismatch, "group element 6 out of range 0..2"),
    "check_ka_closed-K-float": (
        lambda g, a: check_ka_closed(make_space(a, discrete_topology(6)), [0.5], 0),
        ShapeMismatch, "K[0] = 0.5 is not an integer"),
    "subgroup_closure": (lambda g, a: subgroup_closure(g, [1, 9]),
                         MalformedTable, "generator 9 out of range 0..5"),
    "subgroup_closure-float": (lambda g, a: subgroup_closure(g, [1, 2.0]),
                               MalformedTable, "generators[1] = 2.0 is not an integer"),
    "restrict-member": (lambda g, a: restrict(g, [0, 9]),
                        MalformedTable, "member 9 out of range 0..5"),
    "conjugation-member": (lambda g, a: conjugation_coset_action(g, [0, 9]),
                           MalformedTable, "member 9 out of range 0..5"),
    "open-point": (lambda g, a: validate_topology(3, [[], [0, 3], [0, 1, 2]]),
                   MalformedTable, "point 3 out of range 0..2"),
    "open-float": (lambda g, a: validate_topology(3, [[], [0, 1.0], [0, 1, 2]]),
                   MalformedTable, "points[1] = 1.0 is not an integer"),
    "element_order-bool": (lambda g, a: element_order(g, True),
                           MalformedTable, "element = True is not an integer"),
    "k_set-K-bool": (lambda g, a: k_set(a, [0, True], [0], [0]),
                     ShapeMismatch, "K[1] = True is not an integer"),
    "subgroup_closure-bool": (lambda g, a: subgroup_closure(g, (False,)),
                              MalformedTable, "generators[0] = False is not an integer"),
    "binary_op-bool": (lambda g, a: make_binary_op([[0, 1], [1, True]]),
                       MalformedTable, "table[1][1] = True is not an integer"),
    "action-bool": (lambda g, a: validate_action(a.group, [[[0]], [[False]], [[0]]]),
                    ShapeMismatch, "table[1][0][0] = False is not an integer"),
    # a row given as a one-shot iterator is read once and still named
    "binary_op-bool-in-iterator": (
        lambda g, a: make_binary_op([[0, 1], (x for x in [True, 0])]),
        MalformedTable, "table[1][0] = True is not an integer"),
    "action-bool-in-iterator": (
        lambda g, a: validate_action(a.group, [[[0]], [(x for x in [False])], [[0]]]),
        ShapeMismatch, "table[1][0][0] = False is not an integer"),
    "open-mask-bool": (lambda g, a: validate_topology(2, [0, True, 3]),
                       MalformedTable, "points = True is not a list"),
    "open-point-bool": (lambda g, a: validate_topology(2, [[], [True], [0, 1]]),
                        MalformedTable, "points[0] = True is not an integer"),
}


@pytest.mark.parametrize("case", list(BOUNDED_READS))
def test_every_bounded_read_keeps_its_message(s3, case):
    """Group elements, points and generators read from outside raise the
    caller's error with the whole message pinned, for a value out of range
    and for one that is not an integer, a bool included."""
    call, error, message = BOUNDED_READS[case]
    with pytest.raises(error) as exc:
        call(s3, conjugation_coset_action(s3, [0, 3, 4]))
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_op_json_round_trip():
    f = make_binary_op(((2, 0, 1), (1, 1, 1), (0, 1, 2)))
    assert op_from_json(op_to_json(f)) == f
    with pytest.raises(MalformedTable):
        op_from_json({"size": 2, "table": [[0, 1, 2], [0, 1, 2], [0, 1, 2]]})


op3 = st.tuples(*[st.tuples(*[st.integers(0, 2)] * 3)] * 3)


@settings(max_examples=60, deadline=None)
@given(op3, op3, op3)
def test_star_associative_sampled_size3(t1, t2, t3):
    f, g, h = make_binary_op(t1), make_binary_op(t2), make_binary_op(t3)
    assert star(star(f, g), h) == star(f, star(g, h))
    assert star(identity_op(3), f) == f
    assert star(f, identity_op(3)) == f
