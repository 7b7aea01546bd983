import copy
import os
import pickle
import subprocess
import sys
from itertools import product

import pytest

from binact import (
    BinaryAction,
    EnumerationTask,
    action_from_json,
    action_to_json,
    all_biequivariant_maps,
    biequivariance_implies_equivariance_check,
    builtin_group,
    conjugation_coset_action,
    all_topologies,
    cyclic,
    dihedral,
    discrete_topology,
    element_order,
    enumerate_actions,
    from_ordinary,
    induced_action,
    is_biequivariant,
    is_distributive,
    is_equivariant,
    identity_op,
    indiscrete_topology,
    induced_quotient_map,
    invertible_group,
    is_continuous_map,
    k_set,
    make_binary_op,
    make_ordinary_action,
    morphism_to_monoid,
    ordinary_from_json,
    ordinary_to_json,
    restrict,
    star,
    subgroup_closure,
    symmetric,
    trivial_action,
    validate_action,
    validate_topology,
)
from binact.errors import (
    AxiomOneViolated,
    AxiomTwoViolated,
    MalformedTable,
    NotASubgroup,
    NotBiequivariant,
    ShapeMismatch,
)
from binact.binops import invertible_group_order
from binact.search import all_ordinary_actions, relabel_action


def test_validate_reports_axiom_two_first(z2):
    bad_identity = (((0, 0), (0, 1)), ((0, 1), (0, 1)))
    with pytest.raises(AxiomTwoViolated) as exc:
        validate_action(z2, bad_identity)
    assert exc.value.witness == (0, 1)  # e(0,0)=0 happens to be right


def test_validate_axiom_one_witness_is_lex_first(z2):
    # identity slice fine, a-slice is first projection f(x, x') = x
    table = (((0, 1), (0, 1)), ((0, 0), (1, 1)))
    with pytest.raises(AxiomOneViolated) as exc:
        validate_action(z2, table)
    assert exc.value.witness == (1, 1, 0, 1)


def test_validate_rejects_bad_shape(z2):
    with pytest.raises(ShapeMismatch):
        validate_action(z2, (((0, 1), (0, 1)),))
    with pytest.raises(ShapeMismatch):
        validate_action(z2, (((0, 1), (0, 1)), ((0, 2), (0, 1))))


def test_xor_embed_is_distributive(xor_action):
    assert is_distributive(xor_action) is True


def test_mixed_action_distributivity_witness(mixed_action):
    w = is_distributive(mixed_action)
    assert w == (1, 1, 1, 0, 0)
    g, h, x, xp, xpp = w
    a = mixed_action
    left = a(g, a(h, x, xp), a(h, x, xpp))
    right = a(h, x, a(g, xp, xpp))
    assert left != right


def test_trivial_action_distributive(s3):
    a = trivial_action(s3, 3)
    assert is_distributive(a) is True
    assert all(a(g, x, xp) == xp for g in s3.elements()
               for x in range(3) for xp in range(3))


def test_induced_action_freezes_first_argument(xor_action):
    for t in range(2):
        o = induced_action(xor_action, t)
        assert o.table == ((0, 1), (1, 0))


def test_from_ordinary_ignores_first_argument(z3):
    a = from_ordinary(make_ordinary_action(z3, ((0, 1, 2), (1, 2, 0), (2, 0, 1))))
    assert all(a(g, x, xp) == a(g, 0, xp)
               for g in range(3) for x in range(3) for xp in range(3))
    assert is_distributive(a) is True


def test_actions_valid_by_construction_are_built_without_validation(z2, s3):
    """from_ordinary, trivial_action and relabel_action build their actions
    without validate_action or make_ordinary_action, and each equals what
    validate_action returns on the table built cell by cell. Only a
    relabelled action has a group embedding, its source's: the last source
    has one."""
    ordinary = [o for g in (z2, s3) for o in all_ordinary_actions(g, 3)]
    sources = [*enumerate_actions(EnumerationTask(group=z2, carrier_size=3)).actions[::5],
               conjugation_coset_action(s3, [0, 1])]
    calls = []

    def counting(fn):
        return lambda *args, **kw: calls.append(fn) or fn(*args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        # every binding of the two checks in every binact module
        for fn in (validate_action, make_ordinary_action):
            for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "binact"]:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        mp.setattr(module, attr, counting(fn))
        embedded = [from_ordinary(o) for o in ordinary]
        trivial = [trivial_action(g, m) for g in (z2, s3) for m in (1, 2, 4)]
        relabelled = [(src, sigma, relabel_action(src, sigma)) for src in sources
                      for sigma in [head + tuple(range(3, src.carrier_size))
                                    for head in ((1, 2, 0), (2, 1, 0))]]
    assert calls == []
    for o, a in zip(ordinary, embedded):
        m = o.carrier_size
        cells = [[[o.table[g][xp] for xp in range(m)] for _ in range(m)] for g in o.group.elements()]
        assert a == validate_action(o.group, cells)
    for a in trivial:
        m = a.carrier_size
        assert a == validate_action(a.group, [[list(range(m))] * m] * a.group.order)
    for src, sigma, a in relabelled:
        m = src.carrier_size
        cells = [[[0] * m for _ in range(m)] for _ in src.group.elements()]
        for g, x, xp in product(src.group.elements(), range(m), range(m)):
            cells[g][sigma[x]][sigma[xp]] = sigma[src(g, x, xp)]
        assert a == validate_action(src.group, cells, group_embedding=src.group_embedding)
    assert all(a.group_embedding is None for a in embedded + trivial)
    assert sources[-1].group_embedding is not None


def test_morphism_to_monoid_satisfies_star_law(s3):
    a = conjugation_coset_action(s3, [0, 3, 4])
    ops = morphism_to_monoid(a)
    h = a.group
    assert ops[h.identity] == identity_op(a.carrier_size)
    for g1 in h.elements():
        for g2 in h.elements():
            assert star(ops[g1], ops[g2]) == ops[h.mul(g1, g2)]


def test_conjugation_coset_action_s3_a3(s3):
    a = conjugation_coset_action(s3, [0, 3, 4])
    assert a.carrier_size == 6
    assert a.group.order == 3
    assert a.group_embedding == (0, 3, 4)
    assert is_distributive(a) is True
    # at x = identity the action is left translation by the subgroup element
    for i, g in enumerate(a.group_embedding):
        for y in range(6):
            assert a(i, 0, y) == s3.mul(g, y)


@pytest.mark.parametrize("embedding, message", [
    ("xy", "group_embedding = 'xy' is not a list"),
    ([0, 1.0], "group_embedding[1] = 1.0 is not an integer"),
    ([5, 7, 9], "group_embedding has length 3, expected 2"),
    ([-1], "group_embedding has length 1, expected 2"),
    ([-1, 0], "group_embedding[0] = -1 is negative"),
    ([3, 3], "group_embedding[1] = 3 is a repeat"),
])
def test_validate_action_checks_the_group_embedding(z2, embedding, message):
    """A group_embedding names one distinct index >= 0 per group element;
    it is read before the table, which here is bad too, and a good one is
    kept as a tuple."""
    table = [[[0, 1], [0, 1]], [[1, 0], [1, 0]]]
    with pytest.raises(ShapeMismatch) as exc:
        validate_action(z2, [table[0], "x"], group_embedding=embedding)
    assert str(exc.value) == message
    assert validate_action(z2, table, group_embedding=[4, 2]).group_embedding == (4, 2)


def test_conjugation_coset_action_scans_the_law_once(s3, monkeypatch):
    """The verdict conjugation_coset_action checks is the one the action's
    record carries, so orbit_space after it scans the law no second time."""
    import binact.actions
    import binact.orbits

    calls = []
    scan = binact.actions.is_distributive
    counted = lambda a: calls.append(a) or scan(a)  # noqa: E731
    monkeypatch.setattr(binact.actions, "is_distributive", counted)
    monkeypatch.setattr(binact.orbits, "is_distributive", counted)
    binact.orbits._record.cache_clear()
    a = conjugation_coset_action(s3, [0, 3, 4])
    assert binact.orbits.orbit_space(a).classes == ((0, 3, 4), (1, 2, 5))
    assert calls == [a]


def test_conjugation_requires_subgroup(s3):
    """The members must form a subgroup; the empty set does not, and a
    repeated member is read once, so the message names the set."""
    with pytest.raises(NotASubgroup):
        conjugation_coset_action(s3, [0, 1, 3])
    with pytest.raises(NotASubgroup) as exc:
        conjugation_coset_action(s3, [])
    assert str(exc.value) == "element set [] is not a subgroup"
    with pytest.raises(NotASubgroup) as exc:
        conjugation_coset_action(s3, [0, 0, 3])
    assert str(exc.value) == "element set [0, 3] is not a subgroup"


def test_biequivariant_maps_xor_to_xor(xor_action):
    maps = all_biequivariant_maps(xor_action, xor_action)
    assert maps == [(0, 1), (1, 0)]
    for f in maps:
        assert is_biequivariant(xor_action, xor_action, f) is True


def test_biequivariant_witness(z2, xor_action):
    tr = trivial_action(z2, 2)
    w = is_biequivariant(xor_action, tr, (0, 1))
    assert w is not True
    g, x, xp = w
    f = (0, 1)
    assert f[xor_action(g, x, xp)] != tr(g, f[x], f[xp])


def test_constant_maps_into_trivial_are_biequivariant(z2, xor_action):
    tr = trivial_action(z2, 2)
    assert all_biequivariant_maps(xor_action, tr) == [(0, 0), (1, 1)]


def test_biequivariance_implies_equivariance(xor_action):
    assert biequivariance_implies_equivariance_check(
        xor_action, xor_action, (1, 0)) is True
    tr = trivial_action(xor_action.group, 2)
    with pytest.raises(NotBiequivariant):
        biequivariance_implies_equivariance_check(xor_action, tr, (0, 1))


def test_equivariant_maps_between_ordinary_actions(z2):
    swap = make_ordinary_action(z2, ((0, 1), (1, 0)))
    ident = make_ordinary_action(z2, ((0, 1), (0, 1)))
    assert is_equivariant(swap, swap, (1, 0)) is True
    w = is_equivariant(swap, ident, (0, 1))
    assert w == (1, 0)


def test_maps_between_actions_of_different_groups_are_refused(xor_action):
    other = trivial_action(builtin_group("z3"), 2)
    with pytest.raises(ShapeMismatch, match="^actions are over different groups$"):
        is_biequivariant(xor_action, other, (0, 1))
    with pytest.raises(ShapeMismatch, match="^actions are over different groups$"):
        is_equivariant(induced_action(xor_action, 0), induced_action(other, 0), (0, 1))


def test_is_equivariant_refuses_maps_off_the_target(z2):
    """A value outside the target carrier is refused, not read through
    Python's negative indexing or left to raise IndexError."""
    ident = induced_action(trivial_action(z2, 2), 0)
    for f in ((5, 0), (-1, 0), (0,), (0, 0, 0)):
        with pytest.raises(ShapeMismatch):
            is_equivariant(ident, ident, f)


def test_action_json_round_trip(s3):
    a = conjugation_coset_action(s3, [0, 2])
    data = action_to_json(a)
    b = action_from_json(data)
    assert b.table == a.table
    assert b.group_embedding == a.group_embedding
    assert b.group.cayley == a.group.cayley


def test_action_json_group_by_name(z2):
    data = {"group": "z2", "carrier": 2,
            "table": [[[0, 1], [0, 1]], [[1, 0], [1, 0]]]}
    a = action_from_json(data)
    assert a.group.cayley == z2.cayley
    assert is_distributive(a) is True


def test_action_json_carrier_mismatch():
    data = {"group": "z2", "carrier": 3,
            "table": [[[0, 1], [0, 1]], [[1, 0], [1, 0]]]}
    with pytest.raises(ShapeMismatch):
        action_from_json(data)


def test_ordinary_json_round_trip(s3):
    o = make_ordinary_action(s3, tuple(
        tuple(s3.mul(g, x) for x in range(6)) for g in s3.elements()))
    assert ordinary_from_json(ordinary_to_json(o)).table == o.table


@pytest.mark.parametrize("load, table", [
    (action_from_json, [[[0, 1], [0, 1]], [[1, 0], [1, 0]]]),
    (ordinary_from_json, [[0, 1], [1, 0]]),
], ids=["action", "ordinary"])
def test_json_loaders_share_group_and_carrier_handling(z2, load, table):
    """Both loaders resolve a group name through the resolver and refuse a
    declared carrier that differs from the table's or is not an integer."""
    asked = []

    def resolver(name):
        asked.append(name)
        return z2

    record = {"group": "local-z2", "carrier": 2, "table": table}
    assert load(record, group_resolver=resolver).group is z2
    assert asked == ["local-z2"]
    with pytest.raises(ShapeMismatch, match="^action record must be an object"):
        load([table], group_resolver=resolver)
    for carrier in (3, "2", 2.0):
        with pytest.raises(ShapeMismatch):
            load(dict(record, carrier=carrier), group_resolver=resolver)


def test_every_slice_pair_satisfies_axiom_one(k4):
    """Spot check the axiom directly on a handwritten k4 action: the two
    generators act by swap, so their product falls back to the identity."""
    full = (
        tuple((0, 1) for _ in range(2)),
        tuple((1, 0) for _ in range(2)),
        tuple((1, 0) for _ in range(2)),
        tuple((0, 1) for _ in range(2)),
    )
    a = validate_action(k4, full)
    for g, h in product(k4.elements(), repeat=2):
        gh = k4.mul(g, h)
        for x, xp in product(range(2), repeat=2):
            assert a(gh, x, xp) == a(g, x, a(h, x, xp))


@pytest.mark.parametrize("f", [(1.9, 0.2), (1.0, 0), ("1", "0"), "10"],
                         ids=["float", "integral-float", "digit-strings", "string"])
def test_integer_maps_refuse_floats_and_digit_strings(xor_action, f):
    """Every function that takes a carrier map reads it with one reader:
    each of these is the swap (1, 0), biequivariant on the swap action,
    once truncated or parsed, and each is refused instead."""
    o = induced_action(xor_action, 0)
    t = discrete_topology(2)
    calls = [
        lambda: is_biequivariant(xor_action, xor_action, f),
        lambda: is_equivariant(o, o, f),
        lambda: biequivariance_implies_equivariance_check(xor_action, xor_action, f),
        lambda: induced_quotient_map(xor_action, xor_action, f),
        lambda: is_continuous_map(t, t, f),
    ]
    for call in calls:
        with pytest.raises(ShapeMismatch, match="not an integer|not a list"):
            call()
    with pytest.raises(MalformedTable, match="not an integer|not a list"):
        relabel_action(xor_action, f)
    assert relabel_action(xor_action, (1, 0)).table == xor_action.table


@pytest.mark.parametrize("call, error", [
    (lambda a: cyclic(2.0), MalformedTable),
    (lambda a: symmetric(5), MalformedTable),
    (lambda a: relabel_action(a, (0, 0)), MalformedTable),
    (lambda a: cyclic("2"), MalformedTable),
    (lambda a: dihedral(2.5), MalformedTable),
    (lambda a: element_order(a.group, 5), MalformedTable),
    (lambda a: subgroup_closure(a.group, ["1"]), MalformedTable),
    (lambda a: restrict(builtin_group("s3"), [0, "a"]), MalformedTable),
    (lambda a: restrict(builtin_group("s3"), 5), MalformedTable),
    (lambda a: restrict(builtin_group("s3"), {0: 1}), MalformedTable),
    (lambda a: builtin_group(5), MalformedTable),
    (lambda a: validate_topology(2.0, [[], [0, 1]]), MalformedTable),
    (lambda a: all_topologies(2.0), MalformedTable),
    (lambda a: discrete_topology(2.0), MalformedTable),
    (lambda a: discrete_topology(-1), MalformedTable),
    (lambda a: discrete_topology(0), MalformedTable),
    (lambda a: indiscrete_topology(-1), MalformedTable),
    (lambda a: indiscrete_topology(0), MalformedTable),
    (lambda a: trivial_action(a.group, 2.0), MalformedTable),
    (lambda a: induced_action(a, 1.0), ShapeMismatch),
    (lambda a: induced_action(a, "1"), ShapeMismatch),
    (lambda a: conjugation_coset_action(a.group, [0, 1.0]), MalformedTable),
    (lambda a: identity_op(2.0), MalformedTable),
    (lambda a: invertible_group(2.0), MalformedTable),
    (lambda a: invertible_group_order(2.0), MalformedTable),
    (lambda a: all_topologies(3, cap="5"), MalformedTable),
    (lambda a: invertible_group(2, cap="4"), MalformedTable),
    (lambda a: invertible_group_order(2, cap=4.0), MalformedTable),
    (lambda a: enumerate_actions(EnumerationTask(group=a.group, carrier_size=2,
                                                 node_budget="10")), MalformedTable),
    (lambda a: enumerate_actions(EnumerationTask(group=a.group, carrier_size=2,
                                                 time_budget_s="1")), MalformedTable),
    (lambda a: make_binary_op([[False, True], [True, False]]), MalformedTable),
    (lambda a: validate_action(a.group, [[[0, 1], [0, 1]], [[1, 0], [True, 0]]]), ShapeMismatch),
    (lambda a: element_order(builtin_group("s3"), True), MalformedTable),
    (lambda a: subgroup_closure(a.group, [True]), MalformedTable),
    (lambda a: k_set(a, [True], [0], [0]), ShapeMismatch),
    (lambda a: trivial_action(a.group, True), MalformedTable),
    (lambda a: EnumerationTask(group=a.group, carrier_size=2, node_budget=True), MalformedTable),
    (lambda a: EnumerationTask(group=a.group, carrier_size=2, time_budget_s=True),
     MalformedTable),
    (lambda a: validate_topology(2, [0, True, 3]), MalformedTable),
    (lambda a: validate_topology(2, [[], [True], [0, 1]]), MalformedTable),
], ids=["cyclic-float", "symmetric-range", "relabel-not-bijection", "cyclic-string",
        "dihedral-float", "element_order-range",
        "subgroup_closure-string", "restrict-string", "restrict-int", "restrict-dict",
        "builtin_group-int", "validate_topology-float",
        "all_topologies-float", "discrete-float", "discrete-negative", "discrete-zero",
        "indiscrete-negative", "indiscrete-zero", "trivial_action-float", "induced-float",
        "induced-string", "conjugation-float", "identity_op-float", "invertible_group-float",
        "invertible_group_order-float", "all_topologies-cap-string",
        "invertible_group-cap-string", "invertible_group_order-cap-float",
        "node_budget-string", "time_budget-string", "binary_op-bool", "action-bool",
        "element_order-bool", "subgroup_closure-bool", "k_set-bool", "trivial_action-bool",
        "node_budget-bool", "time_budget-bool", "open-mask-bool", "open-point-bool"])
def test_sizes_elements_and_budgets_are_read_as_integers(xor_action, call, error):
    """Sizes, group elements and budgets are read like the degree: a float,
    a string, a bool or an out-of-range value raises MalformedTable
    (ShapeMismatch for a carrier point), never a TypeError, IndexError or
    AttributeError, and a topology needs at least one point."""
    with pytest.raises(error):
        call(xor_action)


def test_cached_hash_stays_out_of_pickles_and_copies(s3):
    """An action carries its hash once computed, but its pickled state holds
    its four fields alone: an unpickled action, one pickled in a process
    with another string-hash seed included, and a shallow or deep copy each
    equal a fresh equal action, hash like it and find its dict entry.
    An action rebuilt from its fields computes its own hash."""
    a = conjugation_coset_action(s3, [0, 3, 4])
    assert a.group_embedding is not None
    hash(a)
    assert "_hash" in vars(a)
    assert set(a.__getstate__()) == {"group", "carrier_size", "table", "group_embedding"}
    fresh = validate_action(a.group, a.table, a.group_embedding)
    entries = {fresh: "found"}
    code = ("import pickle, sys; from binact import builtin_group, conjugation_coset_action; "
            "a = conjugation_coset_action(builtin_group('s3'), [0, 3, 4]); hash(a); "
            "sys.stdout.buffer.write(pickle.dumps(a))")
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": os.pathsep.join(sys.path)}
    elsewhere = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               check=True).stdout
    for other in (pickle.loads(pickle.dumps(a)), pickle.loads(elsewhere), copy.copy(a),
                  copy.deepcopy(a)):
        assert other is not a and "_hash" not in vars(other)
        assert other == fresh and hash(other) == hash(fresh) and entries[other] == "found"
    replaced = BinaryAction(a.group, a.carrier_size, a.table)
    assert "_hash" not in vars(replaced)
    assert hash(replaced) == hash(validate_action(a.group, a.table)) != hash(a)
