import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binact import (
    all_subgroups,
    builtin_group,
    cyclic,
    dihedral,
    direct_product,
    element_order,
    group_from_json,
    group_to_json,
    is_abelian,
    klein_four,
    make_group,
    quaternion_group,
    restrict,
    subgroup_closure,
    symmetric,
)
from binact import errors, groups, search
from binact.errors import (
    CapExceeded,
    MalformedTable,
    NoIdentity,
    NoInverse,
    NotASubgroup,
    NotAssociative,
)

from oracles import oracle_subgroups


def test_cyclic_basics():
    z4 = cyclic(4)
    assert z4.order == 4
    assert z4.mul(3, 2) == 1
    assert z4.inv(3) == 1
    assert element_order(z4, 2) == 2
    assert is_abelian(z4)


def test_symmetric_three():
    s3 = symmetric(3)
    assert s3.order == 6
    assert not is_abelian(s3)
    # lex order of permutation tuples puts the 3-cycles at indices 3 and 4
    assert element_order(s3, 3) == 3
    assert sorted(a for a in s3.elements() if element_order(s3, a) == 2) == [1, 2, 5]


def test_symmetric_product_convention():
    """Products compose right-to-left: (p*q)(i) = p(q(i))."""
    s3 = symmetric(3)
    # index 1 = (23), index 2 = (12): (23)(12) = (132), (12)(23) = (123)
    assert s3.mul(1, 2) == 4
    assert s3.mul(2, 1) == 3


def test_dihedral_and_quaternion():
    d4 = dihedral(4)
    assert d4.order == 8 and not is_abelian(d4)
    q8 = quaternion_group()
    assert q8.order == 8 and not is_abelian(q8)
    # every subgroup of Q8 contains -1, so there is exactly one element of order 2
    assert sum(1 for a in q8.elements() if element_order(q8, a) == 2) == 1


def test_klein_four_exponent_two():
    k4 = klein_four()
    assert k4.order == 4
    assert all(k4.mul(a, a) == k4.identity for a in k4.elements())


def test_direct_product():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order == 6
    assert is_abelian(g)
    assert max(element_order(g, a) for a in g.elements()) == 6  # Z2 x Z3 = Z6


def test_make_group_rejects_bad_tables():
    with pytest.raises(MalformedTable):
        make_group([[0, 1], [1]])
    with pytest.raises(NoIdentity):
        make_group([[0, 0], [0, 0]])
    # every element is a left identity, none is a right identity
    with pytest.raises(NoIdentity):
        make_group([[0, 1, 2], [0, 1, 2], [0, 1, 2]])
    with pytest.raises(NotAssociative) as exc:
        make_group([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    a, b, c = exc.value.triple
    assert (a, b, c) == min((exc.value.triple,))  # witness is a concrete triple
    with pytest.raises(NoInverse):
        # monoid, not group: 2 is absorbing under max
        make_group([[max(i, j) % 3 for j in range(3)] for i in range(3)])


def test_subgroup_closure_s3():
    s3 = symmetric(3)
    assert subgroup_closure(s3, [3]) == frozenset({0, 3, 4})
    assert subgroup_closure(s3, [1, 2]) == frozenset(range(6))
    assert subgroup_closure(s3, []) == frozenset({0})
    with pytest.raises(MalformedTable):
        subgroup_closure(s3, [6])


def test_restrict_gives_dense_subgroup_with_embedding():
    s3 = symmetric(3)
    a3, emb = restrict(s3, [0, 3, 4])
    assert a3.order == 3
    assert emb == (0, 3, 4)
    assert a3.mul(1, 1) == 2  # (123)(123) = (132)
    with pytest.raises(NotASubgroup):
        restrict(s3, [0, 1, 3])


def test_all_subgroups_stop_at_a_passed_deadline(monkeypatch):
    """all_subgroups reads the clock every 1024 closures, so a passed
    deadline stops it after 1024 of the 2077 closures that find the 374
    subgroups of z2^5, directly and inside permutation_homomorphisms,
    which passes its deadline in; without one it reads no clock."""
    g = builtin_group("z2xz2xz2xz2xz2")
    closures = []
    closure = groups.subgroup_closure
    monkeypatch.setattr(groups, "subgroup_closure",
                        lambda g, gens: closures.append(gens) or closure(g, gens))
    assert search._BudgetStop is errors._BudgetStop
    with pytest.raises(errors._BudgetStop):
        all_subgroups(g, deadline=-math.inf)
    assert len(closures) == 1024
    closures.clear()
    with pytest.raises(errors._BudgetStop):
        search.permutation_homomorphisms(g, 2, deadline=-math.inf)
    assert len(closures) == 1024

    def refuse():
        raise AssertionError("clock read without a deadline")

    monkeypatch.setattr(groups.time, "monotonic", refuse)
    closures.clear()
    assert (len(all_subgroups(g)), len(closures)) == (374, 2077)


def test_all_subgroups_counts():
    expect = {"z8": 4, "s3": 6, "k4": 5, "z6": 4, "q8": 6, "d4": 10,
              "z4xz2": 8, "z2xz2xz2": 16, "s4": 30, "z2xs4": 98, "z2xz2xz2xz2xz2": 374}
    for name, n in expect.items():
        g = builtin_group(name)
        subs = all_subgroups(g)
        assert len(subs) == n, name
        # Lagrange: every subgroup order divides the group order
        assert all(g.order % len(s) == 0 for s in subs)
        assert subs == sorted(set(subs), key=lambda s: (len(s), sorted(s)))
        if g.order <= 8:
            assert set(subs) == oracle_subgroups(g.cayley, g.identity), name


def test_builtin_group_names():
    assert builtin_group("z1").order == 1
    assert builtin_group("Z6").order == 6
    assert builtin_group("z2xz3").order == 6
    with pytest.raises(Exception):
        builtin_group("nonsense")


def test_catalog_order_cap_refuses_before_building(monkeypatch):
    cap = groups.CATALOG_ORDER_CAP
    assert builtin_group(f"z{cap}").order == cap
    with pytest.raises(CapExceeded) as exc:
        builtin_group("z16xz16")
    assert (exc.value.requested, exc.value.cap) == (256, cap)
    with pytest.raises(CapExceeded) as exc:
        builtin_group("x".join(["z16"] * 1000))
    assert exc.value.requested == 256

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    for constructor in ("cyclic", "dihedral", "direct_product", "make_group"):
        monkeypatch.setattr(groups, constructor, no_table)
    for name, order in ((f"z{cap + 1}", cap + 1), ("z10000000000", 10**10),
                        ("d1000000", 2 * 10**6)):
        with pytest.raises(CapExceeded, match="catalog group order") as exc:
            builtin_group(name)
        assert exc.value.requested == order


def test_group_json_round_trip():
    for name in ("z4", "s3", "q8"):
        g = builtin_group(name)
        h = group_from_json(group_to_json(g))
        assert h.cayley == g.cayley
        assert h.identity == g.identity
        assert h.labels == g.labels


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(4))))
def test_relabelled_cayley_table_still_validates(sigma):
    """Conjugating a Cayley table by any bijection yields a valid group."""
    g = cyclic(4)
    inv_sigma = [0] * 4
    for i, s in enumerate(sigma):
        inv_sigma[s] = i
    relabelled = [[sigma[g.mul(inv_sigma[a], inv_sigma[b])] for b in range(4)]
                  for a in range(4)]
    h = make_group(relabelled)
    assert h.order == 4
    assert h.identity == sigma[g.identity]
