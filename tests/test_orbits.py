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
    check_ka_closed,
    conjugation_coset_action,
    delta,
    discrete_topology,
    enumerate_actions,
    functor_laws_check,
    induced_quotient_map,
    is_bi_invariant,
    k_set,
    make_space,
    minimal_bi_invariant,
    orbit,
    orbit_report_json,
    orbit_space,
    points_of,
    trivial_action,
    validate_action,
)
from binact.errors import NotBiequivariant, NotDistributive, ShapeMismatch
from binact import orbits
from binact.orbits import SquareTable, image_table

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


def test_closures_read_one_square_table_per_action(s3, monkeypatch):
    """minimal_bi_invariant at every point, the closure trace and
    is_bi_invariant read G(A, A) off the action's record: on a cleared
    record cache they build one SquareTable between them, and give what
    the oracle gives."""
    built = []
    square = orbits.SquareTable
    monkeypatch.setattr(orbits, "SquareTable", lambda images: built.append(1) or square(images))
    orbits._record.cache_clear()
    a = enumerate_actions(EnumerationTask(group=s3, carrier_size=3)).actions[-1]
    closures = [minimal_bi_invariant(a, x) for x in range(3)]
    assert closures == [frozenset(oracle_min_bi_invariant(s3.cayley, a.table, 3, x))
                        for x in range(3)]
    assert bi_invariant_closure_trace(a, 0)[-1] == closures[0]
    assert all(is_bi_invariant(a, c) for c in closures)
    assert len(built) == 1


@pytest.mark.parametrize("bad", [-1, 3, 0.5, "1"],
                         ids=["negative", "too-large", "float", "digit-string"])
@pytest.mark.parametrize("call", ["k_set-K", "k_set-A", "k_set-B", "is_bi_invariant",
                                  "check_ka_closed", "class_of"])
def test_image_inputs_are_checked_elements_and_points(call, bad, z3):
    """K is read as group elements and A, B and the point of class_of as
    points, each an integer in range: a negative value raises ShapeMismatch
    instead of wrapping round to the last element or point, and a value too
    large, a float or a digit string raises it instead of IndexError or
    TypeError."""
    a = trivial_action(z3, 3)
    s = make_space(a, discrete_topology(3))
    run = {
        "k_set-K": lambda: k_set(a, [bad], [0], [0]),
        "k_set-A": lambda: k_set(a, [0], [bad], [0]),
        "k_set-B": lambda: k_set(a, [0], [0], [bad]),
        "is_bi_invariant": lambda: is_bi_invariant(a, [bad]),
        "check_ka_closed": lambda: check_ka_closed(s, [bad], 1),
        "class_of": lambda: orbit_space(a).class_of(bad),
    }[call]
    with pytest.raises(ShapeMismatch):
        run()


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
    # maps is read once, so any iterable gives the list's report, the
    # composition law included; a string or a mapping is refused
    for same in (tuple(maps), iter(maps), (cm for cm in maps)):
        assert functor_laws_check(same) == report
    for bad in ("maps", {0: maps[0]}):
        with pytest.raises(ShapeMismatch, match="is not a list"):
            functor_laws_check(bad)


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
def test_k_set_and_image_table_match_oracle_and_are_monotone(data):
    """K(A, B) as k_set gives it equals the set comprehension, each entry
    images[x][y] of image_table(a, K) is K({x}, {y}), the whole group
    being the default K, and enlarging K, A or B never shrinks the image."""
    name, m = data.draw(st.sampled_from([("z2", 3), ("z3", 3), ("s3", 3), ("k4", 2)]))
    a = data.draw(st.sampled_from(_actions(name, m)))
    elements = st.sets(st.integers(0, a.group.order - 1))
    points = st.sets(st.integers(0, m - 1))
    K, A, B = data.draw(elements), data.draw(points), data.draw(points)
    expected = k_set(a, K, A, B)
    assert expected == oracle_k_set(a.table, K, A, B)
    images = image_table(a, K)
    for x in range(m):
        for y in range(m):
            assert frozenset(points_of(images[x][y])) == oracle_k_set(a.table, K, [x], [y])
    assert image_table(a) == image_table(a, a.group.elements())
    bigger = (K | data.draw(elements), A | data.draw(points), B | data.draw(points))
    assert expected <= k_set(a, *bigger)


@functools.lru_cache(maxsize=None)
def _distributive_actions(name, m):
    return enumerate_actions(EnumerationTask(group=builtin_group(name), carrier_size=m,
                                             require_distributive=True, dedupe=True)).actions


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lazy_tables_match_the_images_they_replace(data):
    """OrbitSpace.saturated is the saturation G(A), the union of the sets
    G({x}, {x}) over x in A, OrbitSpace.project sends A to the classes it
    meets, and SquareTable is G(A, A), each as k_set, the diagonal of
    image_table and oracle_k_set give it, whichever masks are asked first
    and however often."""
    name = data.draw(st.sampled_from(["z2", "z3", "s3"]))
    m = data.draw(st.integers(1, 5))
    a = data.draw(st.sampled_from(_distributive_actions(name, m)))
    G = a.group.elements()
    space = orbit_space(a)
    images = image_table(a)
    square = SquareTable(images)
    assert space.orbit_masks == tuple([images[x][x] for x in range(m)])
    masks = data.draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=12))

    def mask(points):
        return sum(1 << p for p in points)

    # cold in the drawn order, then warm in reverse
    for a_mask in masks + masks[::-1]:
        pts = points_of(a_mask)
        orbits_of_pts = [oracle_k_set(a.table, G, [x], [x]) for x in pts]
        saturation = mask(set().union(*orbits_of_pts))
        assert space.saturated[a_mask] == saturation
        assert saturation == functools.reduce(int.__or__, [images[x][x] for x in pts], 0)
        met = [i for i, members in enumerate(space.classes) if set(members) & set(pts)]
        assert space.project(a_mask) == space.projected[a_mask] == mask(met)
        expected = mask(oracle_k_set(a.table, G, pts, pts))
        assert square[a_mask] == mask(k_set(a, G, pts, pts)) == expected


def test_functor_laws_scan_each_action_once(z2, monkeypatch):
    """The 13 biequivariant maps between the distributive z2 actions on 1
    and 2 points meet 3 actions; on cleared action records each is scanned
    for distributivity once, in order of first appearance, not once per
    induced map, and a repeat scans none."""
    acts = [a for m in (1, 2) for a in enumerate_actions(EnumerationTask(
        group=z2, carrier_size=m, require_distributive=True)).actions]
    maps = [CarrierMap(source=a, target=b, mapping=f)
            for a in acts for b in acts for f in all_biequivariant_maps(a, b)]
    assert (len(acts), len(maps)) == (3, 13)
    expected = functor_laws_check(maps)
    calls = []
    scan = orbits.is_distributive
    monkeypatch.setattr(orbits, "is_distributive", lambda a: calls.append(a) or scan(a))
    orbits._record.cache_clear()
    assert functor_laws_check(maps) == expected
    assert calls == acts
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


@pytest.mark.parametrize("value", [1.5, "1", 0.0])
@pytest.mark.parametrize("fn", [delta, bi_invariant_closure_trace, minimal_bi_invariant])
def test_element_and_point_refuse_floats_and_strings(z2, fn, value):
    with pytest.raises(ShapeMismatch, match="is not an integer"):
        fn(trivial_action(z2, 2), value)
