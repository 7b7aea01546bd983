import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binact import (
    CarrierMap,
    EnumerationTask,
    all_biequivariant_maps,
    bi_invariant_closure_trace,
    builtin_group,
    conjugation_coset_action,
    delta,
    enumerate_actions,
    functor_laws_check,
    induced_quotient_map,
    is_bi_invariant,
    k_set,
    minimal_bi_invariant,
    orbit,
    orbit_report_json,
    orbit_space,
    points_of,
    trivial_action,
    validate_action,
)
from binact.errors import NotBiequivariant, NotDistributive
from binact import orbits
from binact.orbits import k_mask

from oracles import oracle_k_set, oracle_left_cosets, oracle_min_bi_invariant


def test_k_set_on_mixed_action(mixed_action):
    g = mixed_action.group
    assert k_set(mixed_action, g.elements(), {0}, {0}) == {0}
    assert k_set(mixed_action, g.elements(), {1}, {1}) == {0, 1}
    assert k_set(mixed_action, [1], {0}, {1}) == {1}


def test_bi_invariance_on_mixed_action(mixed_action):
    assert is_bi_invariant(mixed_action, {0})
    assert not is_bi_invariant(mixed_action, {1})
    assert is_bi_invariant(mixed_action, {0, 1})


def test_minimal_bi_invariant_nesting(mixed_action):
    a = minimal_bi_invariant(mixed_action, 0)
    b = minimal_bi_invariant(mixed_action, 1)
    assert a == frozenset({0})
    assert b == frozenset({0, 1})
    assert a < b  # proper containment: these two overlap without coinciding


def test_closure_trace_is_monotone(mixed_action):
    trace = bi_invariant_closure_trace(mixed_action, 1)
    assert trace[0] == frozenset({1})
    for earlier, later in zip(trace, trace[1:]):
        assert earlier < later
    assert trace[-1] == frozenset({0, 1})


def test_orbit_requires_distributive(mixed_action):
    with pytest.raises(NotDistributive) as exc:
        orbit(mixed_action, 0)
    assert exc.value.witness == (1, 1, 1, 0, 0)
    with pytest.raises(NotDistributive):
        orbit_space(mixed_action)
    with pytest.raises(NotDistributive):
        delta(mixed_action, 1)


def test_orbit_matches_independent_expansion():
    for gname, m in [("z2", 2), ("z2", 3), ("z3", 3)]:
        g = builtin_group(gname)
        result = enumerate_actions(
            EnumerationTask(group=g, carrier_size=m, require_distributive=True))
        for a in result.actions:
            for x in range(m):
                expect = oracle_min_bi_invariant(g.cayley, a.table, m, x)
                assert orbit(a, x) == expect
                assert minimal_bi_invariant(a, x) == expect


def test_orbit_space_of_conjugation_s3_a3(s3):
    a = conjugation_coset_action(s3, [0, 3, 4])
    space = orbit_space(a)
    assert space.classes == ((0, 3, 4), (1, 2, 5))
    assert space.projection == (0, 1, 1, 0, 0, 1)
    assert space.class_of(5) == 1
    cosets = oracle_left_cosets(s3.cayley, [0, 3, 4])
    assert {frozenset(c) for c in space.classes} == cosets


def test_orbit_space_of_conjugation_s3_order2(s3):
    a = conjugation_coset_action(s3, [0, 2])
    space = orbit_space(a)
    assert space.classes == ((0, 2), (1, 4), (3, 5))
    assert {frozenset(c) for c in space.classes} == oracle_left_cosets(s3.cayley, [0, 2])


def test_trivial_action_orbits_are_singletons(s3):
    space = orbit_space(trivial_action(s3, 4))
    assert space.classes == ((0,), (1,), (2,), (3,))
    assert space.projection == (0, 1, 2, 3)


def test_delta_of_three_cycle_is_right_translation(s3):
    a = conjugation_coset_action(s3, [0, 3, 4])
    # subgroup index 1 embeds as (123); x -> x(123) on the ambient labels
    assert delta(a, 1) == (3, 5, 1, 4, 0, 2)
    assert delta(a, 0) == (0, 1, 2, 3, 4, 5)


def test_delta_inverse_law(s3, xor_action):
    for a in (conjugation_coset_action(s3, [0, 3, 4]), xor_action):
        h = a.group
        for g in h.elements():
            d = delta(a, g)
            dinv = delta(a, h.inv(g))
            assert tuple(dinv[d[x]] for x in range(a.carrier_size)) == tuple(
                range(a.carrier_size))


def test_induced_quotient_map_swap_on_xor(xor_action):
    q = induced_quotient_map(xor_action, xor_action, (1, 0))
    assert q == (0,)  # one class maps to one class


def test_induced_quotient_map_rejects_non_biequivariant(z2, xor_action):
    with pytest.raises(NotBiequivariant):
        induced_quotient_map(xor_action, trivial_action(z2, 2), (0, 1))


def test_functor_laws_on_z2_family(z2, xor_action):
    tr2 = trivial_action(z2, 2)
    maps = [
        CarrierMap(source=xor_action, target=xor_action, mapping=(0, 1)),
        CarrierMap(source=xor_action, target=xor_action, mapping=(1, 0)),
        CarrierMap(source=xor_action, target=tr2, mapping=(0, 0)),
        CarrierMap(source=tr2, target=tr2, mapping=(0, 1)),
    ]
    report = functor_laws_check(maps)
    assert len(report.identity_checks) == 2  # two distinct actions appear
    assert len(report.composition_checks) >= 4


def test_orbit_report_json(s3):
    a = conjugation_coset_action(s3, [0, 3, 4])
    data = orbit_report_json(orbit_space(a))
    assert data == {
        "classes": [[0, 3, 4], [1, 2, 5]],
        "projection": [0, 1, 1, 0, 0, 1],
        "distributive": True,
    }


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2))
def test_closure_trace_last_stage_is_bi_invariant(x, seed):
    """The trace endpoint is a fixed point regardless of start point."""
    z3 = builtin_group("z3")
    a = validate_action(z3, tuple(
        tuple(tuple((xp + g * (seed + 1)) % 3 for xp in range(3)) for _ in range(3))
        for g in range(3)))
    trace = bi_invariant_closure_trace(a, x)
    assert is_bi_invariant(a, trace[-1])


@functools.lru_cache(maxsize=None)
def _actions(name, m):
    return enumerate_actions(EnumerationTask(group=builtin_group(name), carrier_size=m)).actions


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_k_mask_matches_oracle_and_is_monotone(data):
    """K(A, B) as a mask equals the set comprehension, k_set is that set,
    and enlarging K, A or B never shrinks the image."""
    name, m = data.draw(st.sampled_from([("z2", 3), ("z3", 3), ("s3", 3), ("k4", 2)]))
    a = data.draw(st.sampled_from(_actions(name, m)))
    elements = st.sets(st.integers(0, a.group.order - 1))
    points = st.sets(st.integers(0, m - 1))
    K, A, B = data.draw(elements), data.draw(points), data.draw(points)
    expected = oracle_k_set(a.table, K, A, B)
    mask = k_mask(a, K, tuple(A), tuple(B))
    assert frozenset(points_of(mask)) == expected
    assert k_set(a, K, A, B) == expected
    bigger = (K | data.draw(elements), A | data.draw(points), B | data.draw(points))
    grown = k_mask(a, bigger[0], tuple(bigger[1]), tuple(bigger[2]))
    assert mask & ~grown == 0


def test_functor_laws_scan_each_action_once(z2, monkeypatch):
    """The 13 biequivariant maps between the distributive z2 actions on 1
    and 2 points meet 3 actions; each is scanned for distributivity once,
    in order of first appearance, not once per induced map."""
    acts = [a for m in (1, 2) for a in enumerate_actions(EnumerationTask(
        group=z2, carrier_size=m, require_distributive=True)).actions]
    maps = [CarrierMap(source=a, target=b, mapping=f)
            for a in acts for b in acts for f in all_biequivariant_maps(a, b)]
    assert (len(acts), len(maps)) == (3, 13)
    expected = functor_laws_check(maps)
    calls = []
    scan = orbits.is_distributive
    monkeypatch.setattr(orbits, "is_distributive", lambda a: calls.append(a) or scan(a))
    assert functor_laws_check(maps) == expected
    assert calls == acts


def test_functor_laws_raise_at_the_first_map_used(z2, xor_action):
    """Induced maps are built when first needed: map 2 is met while map 0
    is composed, so its NotBiequivariant is raised, not the ShapeMismatch
    of map 1, which is listed earlier but used later."""
    tr2 = trivial_action(z2, 2)
    maps = [
        CarrierMap(source=xor_action, target=xor_action, mapping=(0, 1)),
        CarrierMap(source=tr2, target=xor_action, mapping=(0, 1, 0)),
        CarrierMap(source=xor_action, target=tr2, mapping=(0, 1)),
    ]
    with pytest.raises(NotBiequivariant):
        functor_laws_check(maps)
