import functools
import hashlib
import json
import signal
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from binact import (
    EnumerationTask,
    action_to_json,
    all_subgroups,
    all_topologies,
    builtin_group,
    check_gaa_closed,
    check_guu_open,
    check_ka_closed,
    closure,
    conjugation_coset_action,
    delta,
    check_projection_closed_proper,
    check_quotient_hausdorff_compact,
    discrete_topology,
    enumerate_actions,
    indiscrete_topology,
    interior,
    is_compact,
    is_continuous,
    is_continuous_map,
    is_discrete,
    is_distributive,
    is_hausdorff,
    is_locally_compact,
    make_group,
    make_space,
    minimal_neighborhoods,
    orbit_space,
    permutation_homomorphisms,
    points_of,
    ProbeRecord,
    quotient_topology,
    run_topology_battery,
    topology_from_json,
    topology_to_json,
    trivial_action,
    validate_action,
    validate_topology,
)
from binact.cli import main
from binact.search import relabel_action
from binact import orbits, topology
from binact.topology import (FiniteTopology, ProjectionChecks, QuotientChecks,
                             TopologicalBinaryGSpace, closed_sets, is_closed, is_open)
from binact.errors import (
    CapExceeded,
    InternalInconsistency,
    MalformedTable,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotContinuous,
    NotDistributive,
    ShapeMismatch,
)

from oracles import (
    oracle_battery,
    oracle_distributivity_witness,
    oracle_is_continuous,
    oracle_k_set,
    oracle_is_continuous_map,
    oracle_is_hausdorff,
    oracle_quotient_opens,
    oracle_topology_count,
)

SIERPINSKI = [[], [0], [0, 1]]


def _verdict(v):
    """A continuity verdict as a pair that tells True from the open {0}:
    True == 1 in Python."""
    return v is True, v


def test_validate_topology_normalizes_and_checks():
    t = validate_topology(2, [[0, 1], [0], []])
    assert t.opens == (0, 1, 3)
    with pytest.raises(MissingEmptyOrFull):
        validate_topology(2, [[0], [0, 1]])
    with pytest.raises(NotClosedUnderUnion) as exc:
        validate_topology(3, [[], [0], [1], [0, 1, 2]])
    assert exc.value.pair == (1, 2)
    with pytest.raises(NotClosedUnderIntersection):
        validate_topology(3, [[], [0, 1], [1, 2], [0, 1, 2]])


def test_large_carrier_membership_is_per_open():
    # Membership is looked up among the opens, never in a 2^carrier_size table.
    full = (1 << 64) - 1
    for t in (indiscrete_topology(64),
              validate_topology(64, [[], [0], list(range(64))])):
        assert is_open(t, 0) and is_open(t, full)
        assert not is_open(t, 2) and not is_open(t, -1)
        assert is_closed(t, 0) and is_closed(t, full)
        assert not is_closed(t, 1)
    assert is_closed(t, full & ~1) and is_open(t, 1)


def _recording(table_class):
    """table_class that also keeps every instance built, with the masks
    asked of it from outside its own fill-in."""

    class Recording(table_class):
        __slots__ = ("asked", "filling")
        built = []

        def __init__(self, *args):
            super().__init__(*args)
            self.asked, self.filling = set(), False
            Recording.built.append(self)

        def __getitem__(self, mask):
            if not self.filling:
                self.asked.add(mask)
            return super().__getitem__(mask)

        def __missing__(self, mask):
            self.filling = True
            try:
                return super().__missing__(mask)
            finally:
                self.filling = False

    return Recording


def test_large_carrier_battery_tables_follow_the_masks_asked(z2, monkeypatch):
    """The battery and the quotient on 64 points give the records and
    quotient they gave before the image tables were lazy, and every table
    built holds at most 64 entries per mask asked of it, never one per
    subset of the carrier."""
    union, square = _recording(orbits.UnionTable), _recording(orbits.SquareTable)
    monkeypatch.setattr(orbits, "UnionTable", union)
    monkeypatch.setattr(topology, "UnionTable", union)
    monkeypatch.setattr(orbits, "SquareTable", square)
    orbits._record.cache_clear()
    a = trivial_action(z2, 64)
    t = validate_topology(64, [[], [0], range(64)])
    full = (1 << 64) - 1
    try:
        records = run_topology_battery(a, t, model_id="trivial z2/64")
        qt = quotient_topology(make_space(a, t))
    finally:
        orbits._record.cache_clear()
    assert [(r.check, r.outcome, r.hypotheses_met) for r in records] == [
        ("guu_open", True, False), ("gaa_closed", True, False),
        ("delta_homeomorphism", True, True), ("ka_closed", True, True),
        ("projection_closed", True, True), ("projection_proper", True, True),
        ("quotient_hausdorff", False, False), ("quotient_compact", True, True),
        ("quotient_locally_compact", True, True)]
    assert (qt.carrier_size, qt.opens) == (64, (0, 1, full))
    # 64 pair-image rows, the saturation and projection tables, the
    # square table with its 64 cross tables, and the 64 diagonal pair-image
    # rows the battery's diagonal check reads, one per point, as the
    # continuity scan reads the pair images (the action's one diagonal is
    # the identity)
    built = union.built + square.built
    assert len(square.built) == 1 and len(built) == 64 + 2 + 1 + 64 + 64
    for table in built:
        # a table starts with the empty set stored
        assert len(table) <= 64 * max(1, len(table.asked))


@pytest.mark.parametrize("call", [
    lambda s, t: points_of(-1),
    lambda s, t: check_ka_closed(s, [0], -2),
    lambda s, t: check_gaa_closed(s, 7),
    lambda s, t: check_gaa_closed(s, -2),
    lambda s, t: check_ka_closed(s, [0], 6),
    lambda s, t: closure(t, 6),
    lambda s, t: check_guu_open(s, 1.0),
    lambda s, t: interior(t, "1"),
    lambda s, t: closure(t, 1.5),
    lambda s, t: orbit_space(s.action).project(4),
    lambda s, t: orbit_space(s.action).project(-1),
    lambda s, t: orbit_space(s.action).project(1.5),
], ids=["points_of-negative", "ka_closed-negative", "gaa_closed-too-large",
        "gaa_closed-negative", "ka_closed-too-large", "closure-too-large", "guu_open-float",
        "interior-string", "closure-float", "project-too-large", "project-negative",
        "project-float"])
def test_masks_from_outside_are_read_as_bitmasks_of_the_carrier(z2, call):
    """A mask handed in from outside is an int in 0..2^m - 1: a negative
    mask, one past the carrier, a float or a string raises MalformedTable,
    never an IndexError or TypeError, and never loops (a negative mask has
    no last point; the alarm turns a hang into a failure)."""
    t = validate_topology(2, [[], [0], [0, 1]])
    s = make_space(trivial_action(z2, 2), t)

    def hang(signum, frame):
        raise TimeoutError("no return within 2 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(2)
    try:
        with pytest.raises(MalformedTable):
            call(s, t)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_masks_outside_the_carrier_are_neither_open_nor_closed():
    """is_closed tests full ^ mask, so a mask with a point past the carrier
    or a negative one is never closed, as it is never open."""
    t = validate_topology(2, [[], [0], [0, 1]])
    assert [is_closed(t, u) for u in range(4)] == [True, False, True, True]
    for mask in (4, 7, -1, -2):
        assert not is_open(t, mask) and not is_closed(t, mask)


def test_sierpinski_interior_closure():
    t = validate_topology(2, SIERPINSKI)
    assert points_of(closure(t, 1)) == [0, 1]   # {0} is dense
    assert points_of(closure(t, 2)) == [1]      # {1} is closed
    assert interior(t, 2) == 0                  # {1} has empty interior
    assert minimal_neighborhoods(t) == (1, 3)


def test_hausdorff_iff_discrete_small():
    """is_hausdorff agrees with the search for disjoint opens around every
    pair of points on every topology on 1-4 points, and those Hausdorff
    topologies are exactly the discrete ones."""
    verdicts = []
    for n in (1, 2, 3, 4):
        for t in all_topologies(n):
            assert is_hausdorff(t) == oracle_is_hausdorff(n, t.opens) == is_discrete(t)
            verdicts.append(is_hausdorff(t))
    assert verdicts.count(True) == 4 and len(verdicts) == 1 + 4 + 29 + 355


def test_degenerate_compactness():
    t = indiscrete_topology(3)
    assert is_compact(t) and is_locally_compact(t)
    assert is_compact(discrete_topology(4))


def test_topology_counts_match_preorder_oracle():
    counts = [len(all_topologies(n)) for n in (1, 2, 3, 4)]
    assert counts == [oracle_topology_count(n) for n in (1, 2, 3, 4)]
    assert counts == [1, 4, 29, 355]


def test_topology_count_five_points():
    assert len(all_topologies(5)) == 6942


@pytest.mark.parametrize("n, digest", [
    (4, "b5286129040e555d073e6f65684f32f3c944a1d38d677416c99eea96745daa36"),
    (5, "a68306e9eb587a53ed0d9103034a0bf34c6ed7d2e039c8cb4af7ed98055ffba2"),
])
def test_all_topologies_order_is_pinned(n, digest):
    """The topologies on 4 and 5 points come in the order, each with its
    opens in the order, they came in when the opens were read off a union
    table over all 2^n subsets: the sha256 of the repr of the list of opens
    tuples is the one taken then."""
    opens = [t.opens for t in all_topologies(n)]
    assert hashlib.sha256(repr(opens).encode()).hexdigest() == digest


def test_all_topologies_cap():
    with pytest.raises(CapExceeded):
        all_topologies(6)
    with pytest.raises(CapExceeded):
        all_topologies(4, cap=3)
    assert len(all_topologies(3, cap=3)) == 29  # cap is adjustable


def test_make_space_checks_carrier(z2, xor_action):
    with pytest.raises(ShapeMismatch):
        make_space(xor_action, discrete_topology(3))


def test_xor_with_sierpinski_is_not_continuous(xor_action):
    t = validate_topology(2, SIERPINSKI)
    w = is_continuous(make_space(xor_action, t))
    assert w == 1  # the open set {0} witnesses the failure
    with pytest.raises(NotContinuous):
        run_topology_battery(xor_action, t)


def test_trivial_action_continuous_under_any_topology(z2):
    a = trivial_action(z2, 2)
    for t in all_topologies(2):
        assert is_continuous(make_space(a, t)) is True


def test_is_continuous_map_basics():
    sierp = validate_topology(2, SIERPINSKI)
    disc = discrete_topology(2)
    assert is_continuous_map(disc, sierp, (0, 1))
    assert is_continuous_map(sierp, sierp, (0, 1))
    # swap pulls the open {0} back to the non-open {1}
    assert not is_continuous_map(sierp, sierp, (1, 0))


@pytest.mark.parametrize("f", [(5, 0), (-1, 0), (0, 2)])
def test_is_continuous_map_refuses_out_of_range_values(f):
    with pytest.raises(ShapeMismatch, match="out-of-range"):
        is_continuous_map(discrete_topology(2), indiscrete_topology(2), f)


def test_quotient_of_trivial_action_is_source_topology(z2):
    a = trivial_action(z2, 2)
    sierp = validate_topology(2, SIERPINSKI)
    q = quotient_topology(make_space(a, sierp))
    assert q.opens == sierp.opens


def test_quotient_of_xor_collapses_to_point(xor_action):
    q = quotient_topology(make_space(xor_action, discrete_topology(2)))
    assert q.carrier_size == 1
    assert q.opens == (0, 1)


@pytest.mark.parametrize("classes, projected, cause", [
    # 3 classes: the projections 1 and 2 are there, their union 3 is not
    (3, {0: 0, 1: 1, 2: 2, 3: 4, 7: 7}, NotClosedUnderUnion),
    # 2 classes: closed under union and intersection, but the last mask
    # 7 = full | 1 << 2 lies past the full class set 3
    (2, {0: 0, 1: 1, 2: 2, 3: 3, 7: 7}, MissingEmptyOrFull),
    # two saturated opens sent to one class set: the masks repeat
    (2, {0: 0, 1: 1, 2: 2, 3: 3, 7: 3}, MalformedTable),
])
def test_quotient_refuses_projected_masks_that_are_no_topology(z2, classes, projected, cause):
    """_quotient checks the class sets it builds with the core of
    validate_topology: a faked projection table whose images of the
    saturated opens miss a union, run past the full class set or repeat
    raises InternalInconsistency from the family check's own error."""
    t = validate_topology(3, [[], [0], [1], [0, 1], [0, 1, 2]])
    space = orbits.OrbitSpace(source=trivial_action(z2, 3),
                              classes=tuple((c,) for c in range(classes)),
                              projection=(0, 1, classes - 1), orbit_masks=(1, 2, 4))
    space.__dict__["projected"] = projected  # every open is saturated: orbits are points
    with pytest.raises(InternalInconsistency,
                       match="quotient opens do not form a topology") as exc:
        topology._quotient(t, space)
    assert type(exc.value.__cause__) is cause


def test_check_guu_open_requires_open_argument(xor_action):
    s = make_space(xor_action, discrete_topology(2))
    assert check_guu_open(s, 3)
    sierp_space = make_space(trivial_action(xor_action.group, 2),
                             validate_topology(2, SIERPINSKI))
    with pytest.raises(MalformedTable):
        check_guu_open(sierp_space, 2)  # {1} is not open there


@pytest.mark.parametrize("name", ["z2", "s3"])
def test_closed_set_checks_match_k_set_oracle_and_battery(name):
    """check_gaa_closed and check_ka_closed, over every z2 action and every
    distributive s3 action on 3 points, on every closed set of every
    topology on 3 points, against closedness of the oracle's G(A, A) and of
    K(A), the union of K({x}, {x}) over x in A, for K the whole group, each
    proper subgroup and subsets that are no subgroup (the empty set, one
    element, every other element); on continuous models, the conjunctions over the
    closed sets against the battery's gaa_closed and ka_closed records,
    which it reads off its pair table and orbit masks instead, and every
    record of the battery against the brute-force oracle_battery, with
    check_projection_closed_proper and check_quotient_hausdorff_compact
    agreeing with those records."""
    g = builtin_group(name)
    elements = tuple(g.elements())
    subsets = list(dict.fromkeys([elements, (), elements[1:2], elements[1::2]]
                                 + [tuple(sorted(h)) for h in all_subgroups(g)]))
    topologies = all_topologies(3)
    assert len(topologies) == 29
    models = enumerate_actions(EnumerationTask(
        group=g, carrier_size=3, require_distributive=name == "s3")).actions
    for a in models:
        distributive = is_distributive(a) is True
        for t in topologies:
            s = make_space(a, t)
            opens = set(t.opens)
            closed = [t.full_mask ^ u for u in t.opens]

            def oracle_closed(points):
                return t.full_mask ^ sum(1 << x for x in points) in opens

            gaa, ka = [], []
            for c in closed:
                pts = points_of(c)
                gaa.append(check_gaa_closed(s, c))
                assert gaa[-1] == oracle_closed(oracle_k_set(a.table, elements, pts, pts))
                if not distributive:
                    with pytest.raises(NotDistributive):
                        check_ka_closed(s, elements, c)
                    continue
                for K in subsets:
                    image = set().union(*(oracle_k_set(a.table, K, (x,), (x,)) for x in pts))
                    verdict = check_ka_closed(s, K, c)
                    assert verdict == oracle_closed(image)
                    if K == elements:
                        ka.append(verdict)
            if is_continuous(s) is True:
                by_check = {r.check: r.outcome for r in run_topology_battery(a, t)}
                assert by_check["gaa_closed"] == all(gaa)
                assert by_check == oracle_battery(g.cayley, a.table, 3, t.opens)
                if distributive:
                    assert by_check["ka_closed"] == all(ka)
                    projection = check_projection_closed_proper(s)
                    assert (projection.closed, projection.proper) == (
                        by_check["projection_closed"], by_check["projection_proper"])
                    quotient = check_quotient_hausdorff_compact(s)
                    assert (quotient.hausdorff, quotient.compact, quotient.locally_compact) == (
                        by_check["quotient_hausdorff"], by_check["quotient_compact"],
                        by_check["quotient_locally_compact"])


def test_closed_set_checks_refuse_bad_arguments(z2, xor_action, mixed_action):
    s = make_space(xor_action, validate_topology(2, SIERPINSKI))
    for check in (lambda m: check_gaa_closed(s, m),
                  lambda m: check_ka_closed(s, z2.elements(), m)):
        with pytest.raises(MalformedTable):
            check(1)  # {0} is open, not closed, in the Sierpinski space
    with pytest.raises(NotDistributive):
        check_ka_closed(make_space(mixed_action, discrete_topology(2)), z2.elements(), 1)


def test_battery_on_discrete_model_asserts_everything(xor_action):
    records = run_topology_battery(xor_action, discrete_topology(2))
    assert [r.check for r in records] == [
        "guu_open", "gaa_closed", "delta_homeomorphism", "ka_closed",
        "projection_closed", "projection_proper", "quotient_hausdorff",
        "quotient_compact", "quotient_locally_compact",
    ]
    assert all(r.outcome and r.hypotheses_met for r in records)


def test_battery_records_probes_on_non_hausdorff_model(z2):
    a = trivial_action(z2, 2)
    sierp = validate_topology(2, SIERPINSKI)
    records = run_topology_battery(a, sierp, model_id="m")
    by_check = {r.check: r for r in records}
    # the quotient of a non-Hausdorff model stays non-Hausdorff here, and the
    # battery records that outcome as a probe instead of failing
    assert by_check["quotient_hausdorff"].outcome is False
    assert by_check["quotient_hausdorff"].hypotheses_met is False
    assert by_check["delta_homeomorphism"].outcome is True
    assert by_check["delta_homeomorphism"].hypotheses_met is True
    filtered = run_topology_battery(a, sierp, include_probes=False)
    assert all(r.hypotheses_met for r in filtered)
    assert {r.check for r in filtered} == {
        "delta_homeomorphism", "ka_closed", "projection_closed",
        "projection_proper", "quotient_compact", "quotient_locally_compact",
    }


def test_battery_on_conjugation_action(s3):
    a = conjugation_coset_action(s3, [0, 3, 4])
    records = run_topology_battery(a, discrete_topology(6))
    assert all(r.outcome for r in records)


def test_probe_record_json(z2):
    a = trivial_action(z2, 2)
    rec = run_topology_battery(a, discrete_topology(2), model_id="demo")[0]
    assert rec.to_json() == {"model": "demo", "check": "guu_open",
                             "outcome": True, "hypotheses_met": True}


def test_probe_record_is_an_immutable_hashable_named_tuple(z2):
    """A battery record keeps its fields, JSON keys in order, and repr; no
    field can be set; it hashes, unpacks, and equals the plain tuple of its
    fields."""
    rec = run_topology_battery(trivial_action(z2, 2), indiscrete_topology(2), model_id="demo")[0]
    assert type(rec) is ProbeRecord
    assert list(rec.to_json()) == ["model", "check", "outcome", "hypotheses_met"]
    assert repr(rec) == ("ProbeRecord(model='demo', check='guu_open', outcome=True, "
                         "hypotheses_met=False)")
    for field in ("model", "check", "outcome", "hypotheses_met", "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    assert rec == ("demo", "guu_open", True, False) == tuple(rec.to_json().values())
    model, check, outcome, hypotheses_met = rec
    assert (model, check, outcome, hypotheses_met) == (rec.model, rec.check, rec.outcome,
                                                       rec.hypotheses_met)
    assert len({rec, ProbeRecord(*rec), ("demo", "guu_open", True, False)}) == 1


def test_topology_json_round_trip():
    t = validate_topology(3, [[], [0], [0, 1], [0, 1, 2]])
    assert topology_from_json(topology_to_json(t)) == t
    data = topology_to_json(t)
    assert data == {"size": 3, "opens": [[], [0], [0, 1], [0, 1, 2]]}


@functools.lru_cache(maxsize=None)
def _actions(name, m):
    return enumerate_actions(EnumerationTask(group=builtin_group(name), carrier_size=m)).actions


@pytest.mark.parametrize("name", ["z2", "s3", "z3", "k4"])
def test_is_continuous_matches_open_by_open_oracle(name):
    """Same verdict and, on failure, the same first failing open as the
    open-by-open scan, for every action on 3 points and every topology."""
    topologies = all_topologies(3)
    failures = 0
    for a in _actions(name, 3):
        for t in topologies:
            got = is_continuous(make_space(a, t))
            assert _verdict(got) == _verdict(oracle_is_continuous(a.table, 3, t.opens))
            failures += got is not True
    assert 0 < failures < len(_actions(name, 3)) * len(topologies)


@functools.lru_cache(maxsize=None)
def _row_homs(name, m):
    return permutation_homomorphisms(builtin_group(name), m)


@functools.lru_cache(maxsize=None)
def _topologies(m):
    return all_topologies(m)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_is_continuous_matches_oracle_on_4_points(data):
    """A drawn action on 4 points (a drawn row homomorphism at each point,
    which is always an action) on a drawn topology: the same verdict and
    first failing open as the open-by-open scan."""
    name = data.draw(st.sampled_from(["z2", "z3", "s3"]))
    homs = _row_homs(name, 4)
    rows = data.draw(st.lists(st.sampled_from(homs), min_size=4, max_size=4))
    g = builtin_group(name)
    a = validate_action(g, tuple(tuple(rho[h] for rho in rows) for h in g.elements()))
    t = data.draw(st.sampled_from(_topologies(4)))
    assert _verdict(is_continuous(make_space(a, t))) == _verdict(
        oracle_is_continuous(a.table, 4, t.opens))


def _bad_points(a, t):
    """The points y with some row x' -> g(x, x') or column x -> g(x, x') f
    of the table and points w, u with f(w) = y, u in N(w) and f(u) outside
    N(y), N read off the opens: the only points at which an open can fail
    continuity."""
    m = a.carrier_size
    nbhd = [functools.reduce(int.__and__, (u for u in t.opens if u >> x & 1)) for x in range(m)]
    maps = {f for sl in a.table for f in (*sl, *zip(*sl))}
    return {f[w] for f in maps for w in range(m) for u in points_of(nbhd[w])
            if not nbhd[f[w]] >> f[u] & 1}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_is_continuous_matches_oracle_with_several_bad_points(data):
    """A drawn action on 4 points on a drawn topology at which two or more
    points are bad: is_continuous tries only those points against each
    open, and its first failing open is still the open-by-open scan's."""
    name = data.draw(st.sampled_from(["z2", "z3", "s3"]))
    homs = _row_homs(name, 4)
    rows = data.draw(st.lists(st.sampled_from(homs), min_size=4, max_size=4))
    g = builtin_group(name)
    a = validate_action(g, tuple(tuple(rho[h] for rho in rows) for h in g.elements()))
    candidates = [t for t in _topologies(4) if len(_bad_points(a, t)) >= 2]
    assume(candidates)
    t = data.draw(st.sampled_from(candidates))
    got, want = is_continuous(make_space(a, t)), oracle_is_continuous(a.table, 4, t.opens)
    assert got is not True and want is not True and got == want


@functools.lru_cache(maxsize=None)
def _distributive_actions(name, m):
    return enumerate_actions(EnumerationTask(
        group=builtin_group(name), carrier_size=m, require_distributive=True)).actions


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quotient_topology_matches_class_set_oracle(data):
    """A drawn distributive action on 4 points, any labelling, on a drawn
    topology it is continuous for: the quotient opens are those of the scan
    of all 2^k class sets."""
    name = data.draw(st.sampled_from(["z2", "z3", "s3"]))
    a = data.draw(st.sampled_from(_distributive_actions(name, 4)))
    continuous = [t for t in _topologies(4) if is_continuous(make_space(a, t)) is True]
    t = data.draw(st.sampled_from(continuous))
    assert quotient_topology(make_space(a, t)).opens == oracle_quotient_opens(a.table, 4, t.opens)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_is_continuous_matches_oracle_past_the_pair_image_cache(data):
    """More distinct actions than the action-record cache, which carries the
    pair images, holds, interleaved over a few topologies and then met
    again in another order: the cache evicts and refills, and every verdict
    and first failing open is still the open-by-open scan's."""
    size = orbits._record.cache_info().maxsize
    name = data.draw(st.sampled_from(["z2", "z3", "s3"]))
    pool = _actions(name, 3)
    picks = data.draw(st.lists(st.sampled_from(range(len(pool))), min_size=size + 2,
                               max_size=size + 6, unique=True))
    tops = data.draw(st.lists(st.sampled_from(_topologies(3)), min_size=2, max_size=4))
    order = data.draw(st.permutations(picks))
    for i in [*picks, *order]:
        a = pool[i]
        for t in tops:
            assert _verdict(is_continuous(make_space(a, t))) == _verdict(
                oracle_is_continuous(a.table, 3, t.opens))
    assert orbits._record.cache_info().currsize <= size


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_carried_verdicts_match_oracles_past_the_action_record_cache(data):
    """More distinct actions than the action-record cache holds, distributive
    or not, each met twice in different orders through orbit_space,
    quotient_topology and run_topology_battery over a few topologies: the
    cache evicts and refills, and every verdict and witness is the full
    scan's, every refusal comes in the same order, and every quotient is
    the class-set scan's."""
    size = orbits._record.cache_info().maxsize
    name = data.draw(st.sampled_from(["z2", "z3", "s3"]))
    pool = _actions(name, 3)
    cayley = builtin_group(name).cayley
    witness = [oracle_distributivity_witness(cayley, a.table, 3) for a in pool]
    dist = [i for i, w in enumerate(witness) if w is True]
    rest = [i for i, w in enumerate(witness) if w is not True]
    picks = data.draw(st.lists(st.sampled_from(dist), min_size=1, max_size=3, unique=True))
    picks += data.draw(st.lists(st.sampled_from(rest), min_size=size + 2, max_size=size + 4,
                                unique=True))
    picks = data.draw(st.permutations(picks))
    tops = data.draw(st.lists(st.sampled_from(_topologies(3)), min_size=2, max_size=4))
    order = data.draw(st.permutations(picks))
    for i in [*picks, *order]:
        a, w = pool[i], witness[i]
        if w is True:
            orbit_sets = [sorted(oracle_k_set(a.table, range(len(cayley)), [x], [x]))
                          for x in range(3)]
            assert orbit_space(a).classes == tuple(dict.fromkeys(map(tuple, orbit_sets)))
        else:
            with pytest.raises(NotDistributive) as exc:
                orbit_space(a)
            assert exc.value.witness == w
        for t in tops:
            continuous = oracle_is_continuous(a.table, 3, t.opens) is True
            s = make_space(a, t)
            if w is not True:
                with pytest.raises(NotDistributive) as exc:
                    quotient_topology(s)
                assert exc.value.witness == w
            elif not continuous:
                with pytest.raises(NotContinuous):
                    quotient_topology(s)
            else:
                assert quotient_topology(s).opens == oracle_quotient_opens(a.table, 3, t.opens)
            if not continuous:
                with pytest.raises(NotContinuous):
                    run_topology_battery(a, t)
                continue
            checks = [r.check for r in run_topology_battery(a, t)]
            assert len(checks) == (9 if w is True else 2)
        assert orbits._record(a).distributive == w
    assert orbits._record.cache_info().currsize <= size


@functools.lru_cache(maxsize=None)
def _models_by_kind(name):
    """Every model (action index, topology index) of _actions(name, 3) and
    _topologies(3), keyed by (distributive, continuous) as the oracles say."""
    cayley = builtin_group(name).cayley
    kinds = {}
    for i, a in enumerate(_actions(name, 3)):
        distributive = oracle_distributivity_witness(cayley, a.table, 3) is True
        for j, t in enumerate(_topologies(3)):
            continuous = oracle_is_continuous(a.table, 3, t.opens) is True
            kinds.setdefault((distributive, continuous), []).append((i, j))
    return kinds


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_carried_model_verdicts_match_oracles_as_actions_interleave(data):
    """Models on 3 points, at least one of each kind (distributive or not,
    continuous or not), on more actions than the action-record cache holds
    whenever the draw allows, each met twice in different orders. A meeting
    is is_continuous, quotient_topology, check_projection_closed_proper,
    check_quotient_hausdorff_compact and run_topology_battery, in a row:
    every verdict, witness, quotient and record is the oracles', and every
    refusal is NotDistributive before NotContinuous. Each action's record
    keeps its last model, so a meeting scans continuity once, and builds
    the quotient once on a continuous distributive model, unless the
    action's last meeting was with the same topology object and its record
    has not been evicted since; then it scans and builds nothing."""
    orbits._record.cache_clear()
    size = orbits._record.cache_info().maxsize
    name = data.draw(st.sampled_from(["z2", "z3", "s3"]))
    pool, tops, kinds = _actions(name, 3), _topologies(3), _models_by_kind(name)
    cayley = builtin_group(name).cayley
    assert len(kinds) == 4
    models = [data.draw(st.sampled_from(kinds[kind])) for kind in sorted(kinds)]
    models += data.draw(st.lists(st.sampled_from([m for ms in kinds.values() for m in ms]),
                                 min_size=size + 2, max_size=size + 6, unique=True))
    models = list(dict.fromkeys(models))
    first = data.draw(st.permutations(models))
    again = data.draw(st.permutations(models))
    held = {}  # action index -> topology index of its last meeting, in LRU order
    with pytest.MonkeyPatch.context() as mp:
        scans = _count_calls(mp, topology._scan)
        quotients = _count_calls(mp, topology._quotient)
        for i, j in [*first, *again]:
            a, t = pool[i], tops[j]
            s = make_space(a, t)
            w = oracle_distributivity_witness(cayley, a.table, 3)
            v = oracle_is_continuous(a.table, 3, t.opens)
            want = oracle_battery(cayley, a.table, 3, t.opens) if v is True else None
            scans.clear()
            quotients.clear()
            assert _verdict(topology.is_continuous(s)) == _verdict(v)
            for check in (quotient_topology, check_projection_closed_proper,
                          check_quotient_hausdorff_compact):
                if w is not True:
                    with pytest.raises(NotDistributive) as exc:
                        check(s)
                    assert exc.value.witness == w
                elif v is not True:
                    with pytest.raises(NotContinuous) as exc:
                        check(s)
                    assert exc.value.witness_open == v
            if w is True and v is True:
                assert quotient_topology(s).opens == oracle_quotient_opens(a.table, 3, t.opens)
                assert check_projection_closed_proper(s) == ProjectionChecks(
                    want["projection_closed"], want["projection_proper"])
                assert check_quotient_hausdorff_compact(s) == QuotientChecks(
                    want["quotient_hausdorff"], want["quotient_compact"],
                    want["quotient_locally_compact"])
            if v is not True:
                with pytest.raises(NotContinuous) as exc:
                    run_topology_battery(a, t)
                assert exc.value.witness_open == v
            else:
                records = run_topology_battery(a, t)
                assert [(r.check, r.outcome) for r in records] == list(want.items())
            fresh = held.pop(i, None) != j
            held[i] = j
            if len(held) > size:
                del held[next(iter(held))]
            assert len(scans) == fresh
            assert len(quotients) == (fresh and w is True and v is True)
    assert orbits._record.cache_info().currsize <= size


def test_diagonal_image_tables_match_the_continuity_oracle():
    """Every distributive action of z2, z3 and s3 on 3 points under every
    topology on 3 points: the battery's packed check, one lookup per point
    in the diagonal pair images its action record carries, gives the
    verdict of testing each distinct diagonal alone with _sends_into, and
    that is the open-by-open preimage scan's verdict on every diagonal;
    both verdicts occur."""
    verdicts = set()
    for name in ("z2", "z3", "s3"):
        for a in _distributive_actions(name, 3):
            diagonal_pairs = orbits._record(a).diagonal_pairs
            ds = list(dict.fromkeys(delta(a, g) for g in a.group.elements()))
            for t in _topologies(3):
                punctured, allowed = t._continuity_masks
                packed = not topology._reach(diagonal_pairs, punctured) & ~allowed
                nbhd = t.minimal_neighborhoods
                each = [topology._sends_into(d, orbits.UnionTable([1 << y for y in d]), nbhd, nbhd)
                        for d in ds]
                assert each == [oracle_is_continuous_map(3, t.opens, t.opens, d) for d in ds]
                assert packed == all(each)
                verdicts.add(packed)
    assert verdicts == {True, False}


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_is_continuous_matches_oracle_with_carried_neighborhoods(data):
    """Hundreds of fresh 5-point topologies, each met twice in different
    orders: every verdict and first failing open is the open-by-open
    scan's, and each topology computes its minimal neighbourhoods once,
    on first use, and then carries them."""
    name = data.draw(st.sampled_from(["z2", "z3"]))
    homs = _row_homs(name, 5)
    rows = data.draw(st.lists(st.sampled_from(homs), min_size=5, max_size=5))
    g = builtin_group(name)
    a = validate_action(g, tuple(tuple(rho[h] for rho in rows) for h in g.elements()))
    tops = _topologies(5)
    picks = data.draw(st.lists(st.sampled_from(range(len(tops))), min_size=300,
                               max_size=340, unique=True))
    order = data.draw(st.permutations(picks))
    fresh = {i: FiniteTopology(5, tops[i].opens) for i in picks}
    computed = []
    prop = FiniteTopology.__dict__["minimal_neighborhoods"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prop, "func", lambda t, func=prop.func: computed.append(t) or func(t))
        for i in [*picks, *order]:
            t = fresh[i]
            assert _verdict(is_continuous(make_space(a, t))) == _verdict(
                oracle_is_continuous(a.table, 5, t.opens))
    assert sorted(map(id, computed)) == sorted(map(id, fresh.values()))


def test_pair_images_are_built_once_per_action_record(z2, monkeypatch):
    """Every topology on 3 points met twice, for each of two actions with
    one table, over z2 and over z2 with its elements swapped: each action's
    record builds its pair images once, and every verdict and first failing
    open is the open-by-open scan's."""
    z2_swapped = make_group([[1, 0], [0, 1]], name="z2'")
    a = validate_action(z2, (((0, 1, 2),) * 3, ((0, 2, 1), (0, 2, 1), (0, 2, 1))))
    b = validate_action(z2_swapped, a.table[::-1])
    prop = orbits._ActionRecord.__dict__["pairs"]
    built = []
    monkeypatch.setattr(prop, "func", lambda r, func=prop.func: built.append(r.action) or func(r))
    verdicts = set()
    for _ in range(2):
        for t in _topologies(3):
            for act in (a, b):
                got = is_continuous(make_space(act, t))
                assert _verdict(got) == _verdict(oracle_is_continuous(act.table, 3, t.opens))
                verdicts.add(got is True)
    assert built == [a, b] and verdicts == {True, False}


def test_is_continuous_map_matches_preimage_oracle():
    """Minimal neighbourhoods into minimal neighbourhoods agrees with the
    open-by-open preimage scan on every diagonal and row map of the z2, z3
    and s3 actions on 3 points, between any two topologies on 3 points."""
    maps = set()
    for name in ("z2", "z3", "s3"):
        for a in _actions(name, 3):
            for sl in a.table:
                maps.add(tuple(sl[x][x] for x in range(3)))
                maps.update(sl)
    topologies = all_topologies(3)
    verdicts = set()
    for src in topologies:
        for dst in topologies:
            for f in sorted(maps):
                got = is_continuous_map(src, dst, f)
                assert got == oracle_is_continuous_map(3, src.opens, dst.opens, f)
                verdicts.add(got)
    assert verdicts == {True, False}


def _relabel_mask(mask, sigma):
    return sum(1 << sigma[p] for p in points_of(mask))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_relabelling_keeps_continuity_distributivity_and_orbit_sizes(data):
    name, m = data.draw(st.sampled_from([("z2", 3), ("z3", 3), ("s3", 3), ("z2", 4)]))
    a = data.draw(st.sampled_from(_actions(name, m)))
    t = data.draw(st.sampled_from(all_topologies(m)))
    sigma = data.draw(st.permutations(range(m)))
    b = relabel_action(a, sigma)
    u = validate_topology(m, [_relabel_mask(v, sigma) for v in t.opens])
    assert (is_continuous(make_space(a, t)) is True) == (is_continuous(make_space(b, u)) is True)
    distributive = is_distributive(a) is True
    assert distributive == (is_distributive(b) is True)
    if distributive:
        sizes = sorted(len(c) for c in orbit_space(a).classes)
        assert sizes == sorted(len(c) for c in orbit_space(b).classes)


def _count_calls(monkeypatch, fn):
    """Replace fn in every binact module that holds it with a counting
    wrapper, so calls through any module's binding are seen."""
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname == "binact" or modname.startswith("binact."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("model", ["xor-discrete", "z2-on-4"])
def test_each_entry_point_scans_once(model, xor_action, z2, monkeypatch, tmp_path, capsys):
    """On a continuous distributive model every public entry point, and the
    `binact quotient` and `binact orbits` commands, scan distributivity
    once on cleared action records and never on a repeat; each call that
    needs continuity scans it once there, and builds the quotient once if
    it needs that, and neither on a repeat on the same objects, with
    unchanged results. So is_continuous, quotient_topology,
    run_topology_battery and is_continuous again on one model scan once
    and build one quotient. The `binact quotient` command reads its files
    again on a repeat: the action's record is found by equality, but the
    new topology object is scanned, and its quotient built, once more."""
    if model == "xor-discrete":
        a, t = xor_action, discrete_topology(2)
    else:
        a = validate_action(z2, (((0, 1, 2, 3),) * 4,
                                 ((0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 3, 2), (0, 1, 3, 2))))
        t = validate_topology(4, [[], [0], [1], [0, 1], [0, 2, 3], [0, 1, 2, 3]])
    s = make_space(a, t)
    action_file, topology_file = tmp_path / "a.json", tmp_path / "t.json"
    action_file.write_text(json.dumps(action_to_json(a)))
    topology_file.write_text(json.dumps(topology_to_json(t)))

    def command(*args):
        code = main([*args, "--action", str(action_file)])
        return code, capsys.readouterr().out

    closed = min(closed_sets(t))
    calls = {  # entry point: (call, (continuity scans, quotient builds) on cleared records,
               #               the same on a repeat)
        "orbit_space": (lambda: orbit_space(a), (0, 0), (0, 0)),
        "delta": (lambda: delta(a, 1), (0, 0), (0, 0)),
        "ka_closed": (lambda: check_ka_closed(s, [0, 1], closed), (0, 0), (0, 0)),
        "battery": (lambda: run_topology_battery(a, t, model_id="m"), (1, 1), (0, 0)),
        "quotient": (lambda: quotient_topology(s), (1, 1), (0, 0)),
        "projection": (lambda: check_projection_closed_proper(s), (1, 1), (0, 0)),
        "hausdorff": (lambda: check_quotient_hausdorff_compact(s), (1, 1), (0, 0)),
        "quotient command": (lambda: command("quotient", "--topology", str(topology_file)),
                             (1, 1), (1, 1)),
        "orbits command": (lambda: command("orbits"), (0, 0), (0, 0)),
        "continuity, then battery": (
            lambda: (topology.is_continuous(s), run_topology_battery(a, t, model_id="m")),
            (1, 1), (0, 0)),
        "continuity, then quotient": (
            lambda: (topology.is_continuous(s), quotient_topology(s)), (1, 1), (0, 0)),
        "continuity, quotient, battery, continuity": (
            lambda: (topology.is_continuous(s), quotient_topology(s),
                     run_topology_battery(a, t, model_id="m"), topology.is_continuous(s)),
            (1, 1), (0, 0)),
    }
    expected = {name: call() for name, (call, *_) in calls.items()}
    assert expected["quotient command"][0] == expected["orbits command"][0] == 0
    distributive = _count_calls(monkeypatch, is_distributive)
    continuous = _count_calls(monkeypatch, topology._scan)
    quotients = _count_calls(monkeypatch, topology._quotient)
    for name, (call, *counts) in calls.items():
        orbits._record.cache_clear()
        for scans, (continuity_scans, builds) in zip((1, 0), counts):
            distributive.clear()
            continuous.clear()
            quotients.clear()
            assert call() == expected[name]
            assert (len(distributive), len(continuous), len(quotients)) == (
                scans, continuity_scans, builds), name


def test_a_verdict_is_carried_for_the_same_topology_object_only(z2, xor_action, monkeypatch):
    """Each action's record keeps the verdict of its last model, True or
    the witness open, for that very topology object. is_continuous asked
    twice scans once; meeting another action in between, (A, T), (B, T),
    (A, T), scans nothing at the third meeting; an equal but distinct
    topology is scanned again and gets the same verdict and witness; an
    equal but distinct action finds the same record, since a verdict is
    its table's. A kept failing verdict refuses the quotient with its
    witness and no scan. A space whose carriers differ, either way round,
    is refused with ShapeMismatch, and a refused battery, like a scan that
    raises, leaves the record's last model as it was."""
    b = trivial_action(z2, 2)
    equal_action = validate_action(z2, xor_action.table)
    assert equal_action == xor_action and equal_action is not xor_action
    scans = _count_calls(monkeypatch, topology._scan)
    for u in (discrete_topology(2), validate_topology(2, SIERPINSKI)):
        orbits._record.cache_clear()
        equal = FiniteTopology(2, u.opens)
        assert equal == u and equal is not u
        s = make_space(xor_action, u)
        for space, n in ((s, 1), (s, 0), (make_space(b, u), 1), (s, 0),
                         (make_space(xor_action, equal), 1), (make_space(equal_action, equal), 0)):
            scans.clear()
            want = oracle_is_continuous(space.action.table, 2, space.topology.opens)
            assert _verdict(topology.is_continuous(space)) == _verdict(want)
            assert len(scans) == n
    # the record of xor_action now holds its failing verdict on `equal`
    witness = topology.is_continuous(make_space(xor_action, equal))
    assert witness is not True
    scans.clear()
    with pytest.raises(NotContinuous) as exc:
        quotient_topology(make_space(xor_action, equal))
    assert exc.value.witness_open == witness and not scans
    a3, t2 = trivial_action(z2, 3), discrete_topology(2)
    for call in (lambda: TopologicalBinaryGSpace(a3, t2),
                 lambda: TopologicalBinaryGSpace(trivial_action(z2, 2), discrete_topology(3)),
                 lambda: run_topology_battery(a3, t2),
                 lambda: run_topology_battery(xor_action, discrete_topology(3))):
        with pytest.raises(ShapeMismatch):
            call()
    assert orbits._record(xor_action).topology is equal and not scans

    def broken(pairs, punctured):
        raise RuntimeError("scan interrupted")

    monkeypatch.setattr(topology, "_reach", broken)
    with pytest.raises(RuntimeError):
        topology.is_continuous(make_space(xor_action, discrete_topology(2)))
    assert topology.is_continuous(make_space(xor_action, equal)) == witness
    assert orbits._record(xor_action).topology is equal and len(scans) == 1


def test_action_record_is_built_once_over_many_topologies(z2, monkeypatch):
    """The battery and the quotient on 20 topologies of one distributive
    action build one record: one distributivity scan, one orbit space, one
    diagonal per group element, and one record, which joins the table part
    of the default model id. The quotients are still the oracle's."""
    a = validate_action(z2, (((0, 1, 2, 3),) * 4,
                             ((0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 3, 2), (0, 1, 3, 2))))
    tops = [t for t in _topologies(4) if is_continuous(make_space(a, t)) is True][:20]
    assert len(tops) == 20
    orbits._record.cache_clear()
    distributive = _count_calls(monkeypatch, is_distributive)
    spaces = _count_calls(monkeypatch, orbits.OrbitSpace)
    diagonals = _count_calls(monkeypatch, orbits._diagonal)
    try:
        for t in tops:
            assert len(run_topology_battery(a, t)) == 9
            qt = quotient_topology(make_space(a, t))
            assert qt.opens == oracle_quotient_opens(a.table, 4, t.opens)
        records = orbits._record.cache_info().misses
    finally:
        orbits._record.cache_clear()
    assert (records, len(distributive), len(spaces), len(diagonals)) == (1, 1, 1, z2.order)


def test_battery_on_a_non_distributive_action_builds_no_orbit_part(mixed_action, monkeypatch):
    """On a continuous action that is not distributive the battery runs the
    two image checks only and never builds the record's orbit space or
    diagonals, whose checks are meant for distributive actions alone. The
    record carries the first witness as its verdict, from one scan."""
    orbits._record.cache_clear()
    distributive = _count_calls(monkeypatch, is_distributive)
    spaces = _count_calls(monkeypatch, orbits.OrbitSpace)
    try:
        for t in (discrete_topology(2), indiscrete_topology(2)):
            records = run_topology_battery(mixed_action, t)
            assert [r.check for r in records] == ["guu_open", "gaa_closed"]
        built = vars(orbits._record(mixed_action))
        assert "orbits" not in built and "diagonal_pairs" not in built
        assert built["distributive"] == (1, 1, 1, 0, 0)
    finally:
        orbits._record.cache_clear()
    assert (len(distributive), spaces) == (1, [])


def test_battery_default_model_id(z2):
    """Without a model_id every record names the group, the carrier, the
    flattened table and the topology's opens."""
    a = trivial_action(z2, 2)
    table = "group=Z2;carrier=2;table=0,1,0,1,0,1,0,1"
    for t, opens in ((discrete_topology(2), "[0, 1, 2, 3]"),
                     (validate_topology(2, SIERPINSKI), "[0, 1, 3]")):
        assert {r.model for r in run_topology_battery(a, t)} == {f"{table};opens={opens}"}


@pytest.mark.parametrize("topology_opens, out", [
    ((3, [[], [0, 1, 2]]), "ShapeMismatch: action carrier 2 != topology carrier 3\n"),
    ((2, SIERPINSKI), "not continuous: witness open {0}\n"),
    ((2, [[], [0], [1], [0, 1]]),
     "NotDistributive: action is not distributive; witness (g, h, x, x', x'') = (1, 1, 1, 0, 0)\n"),
])
def test_quotient_command_errors_in_order(topology_opens, out, mixed_action, tmp_path, capsys):
    """`binact quotient` on an action that is not distributive reports a
    carrier mismatch first, then discontinuity, then the distributivity
    witness, and prints nothing else."""
    action_file, topology_file = tmp_path / "a.json", tmp_path / "t.json"
    action_file.write_text(json.dumps(action_to_json(mixed_action)))
    topology_file.write_text(json.dumps(topology_to_json(validate_topology(*topology_opens))))
    assert main(["quotient", "--action", str(action_file), "--topology", str(topology_file)]) == 1
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("model, code, out", [
    ("xor", 0, "classes: 1\nclass 0 (size 2): 0 1\nprojection: 0 0\n"),
    ("mixed", 1, "action is not distributive; witness (g, h, x, x', x'') = (1, 1, 1, 0, 0)\n"
                 "orbit spaces are only defined for distributive actions; "
                 "use the witnesses subcommand to inspect nesting\n"),
])
def test_orbits_command_scans_once(model, code, out, xor_action, mixed_action, monkeypatch,
                                   tmp_path, capsys):
    """`binact orbits` scans distributivity once on a cleared action record
    and never on a repeat, on a distributive action and on one that is not;
    the witness it prints is the one orbit_space refuses the action with."""
    a = {"xor": xor_action, "mixed": mixed_action}[model]
    action_file = tmp_path / "a.json"
    action_file.write_text(json.dumps(action_to_json(a)))
    distributive = _count_calls(monkeypatch, is_distributive)
    orbits._record.cache_clear()
    for scans in (1, 0):
        distributive.clear()
        assert main(["orbits", "--action", str(action_file)]) == code
        assert capsys.readouterr().out == out
        assert len(distributive) == scans


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_relabelling_keeps_battery_records_and_quotient_size(data):
    """Relabelling the action and the topology by one sigma keeps every
    battery record's check, outcome and hypotheses_met, in order, and the
    number of quotient opens."""
    name, m = data.draw(st.sampled_from([("z2", 3), ("z3", 3), ("s3", 3), ("z2", 4)]))
    a = data.draw(st.sampled_from(_actions(name, m)))
    continuous = [t for t in _topologies(m) if is_continuous(make_space(a, t)) is True]
    t = data.draw(st.sampled_from(continuous))
    sigma = data.draw(st.permutations(range(m)))
    b = relabel_action(a, sigma)
    u = validate_topology(m, [_relabel_mask(v, sigma) for v in t.opens])

    def summary(act, top):
        return [(r.check, r.outcome, r.hypotheses_met) for r in run_topology_battery(act, top)]

    assert summary(a, t) == summary(b, u)
    if is_distributive(a) is True:
        opens = len(quotient_topology(make_space(a, t)).opens)
        assert opens == len(quotient_topology(make_space(b, u)).opens)
