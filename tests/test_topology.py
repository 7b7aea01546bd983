import functools
import json
import signal
import sys

import pytest
from hypothesis import given, settings
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
from binact.topology import is_closed, is_open
from binact.errors import (
    CapExceeded,
    MalformedTable,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotContinuous,
    NotDistributive,
    ShapeMismatch,
)

from oracles import (
    oracle_is_continuous,
    oracle_k_set,
    oracle_is_continuous_map,
    oracle_quotient_opens,
    oracle_topology_count,
)

SIERPINSKI = [[], [0], [0, 1]]


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
    monkeypatch.setattr(topology, "SquareTable", square)
    caches = (topology._pair_images, topology._record)
    for cache in caches:
        cache.cache_clear()
    a = trivial_action(z2, 64)
    t = validate_topology(64, [[], [0], range(64)])
    full = (1 << 64) - 1
    try:
        records = run_topology_battery(a, t, model_id="trivial z2/64")
        qt = quotient_topology(make_space(a, t))
    finally:
        for cache in caches:
            cache.cache_clear()
    assert [(r.check, r.outcome, r.hypotheses_met) for r in records] == [
        ("guu_open", True, False), ("gaa_closed", True, False),
        ("delta_homeomorphism", True, True), ("ka_closed", True, True),
        ("projection_closed", True, True), ("projection_proper", True, True),
        ("quotient_hausdorff", False, False), ("quotient_compact", True, True),
        ("quotient_locally_compact", True, True)]
    assert (qt.carrier_size, qt.opens) == (64, (0, 1, full))
    # 64 pair-image rows, the saturation and projection tables, and the
    # square table with its 64 cross tables
    built = union.built + square.built
    assert len(square.built) == 1 and len(built) == 64 + 2 + 1 + 64
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
], ids=["points_of-negative", "ka_closed-negative", "gaa_closed-too-large",
        "gaa_closed-negative", "ka_closed-too-large", "closure-too-large", "guu_open-float",
        "interior-string", "closure-float"])
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
    for n in (1, 2, 3):
        for t in all_topologies(n):
            assert is_hausdorff(t) == is_discrete(t)


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
    K(A), the union of K({x}, {x}) over x in A, for K the whole group and
    each proper subgroup; on continuous models, the conjunctions over the
    closed sets against the battery's gaa_closed and ka_closed records,
    which it reads off its pair table and orbit masks instead."""
    g = builtin_group(name)
    elements = tuple(g.elements())
    subgroups = [elements] + [tuple(h) for h in all_subgroups(g) if len(h) < g.order]
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
                for K in subgroups:
                    image = set().union(*(oracle_k_set(a.table, K, (x,), (x,)) for x in pts))
                    verdict = check_ka_closed(s, K, c)
                    assert verdict == oracle_closed(image)
                    if K == elements:
                        ka.append(verdict)
            if is_continuous(s) is True:
                by_check = {r.check: r.outcome for r in run_topology_battery(a, t)}
                assert by_check["gaa_closed"] == all(gaa)
                if distributive:
                    assert by_check["ka_closed"] == all(ka)


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
            assert got == oracle_is_continuous(a.table, 3, t.opens)
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
    assert is_continuous(make_space(a, t)) == oracle_is_continuous(a.table, 4, t.opens)


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
    """More distinct tables than the pair-image cache holds, interleaved
    over a few topologies and then met again in another order: the cache
    evicts and refills, and every verdict and first failing open is still
    the open-by-open scan's."""
    size = topology._pair_images.cache_info().maxsize
    name = data.draw(st.sampled_from(["z2", "z3", "s3"]))
    pool = _actions(name, 3)
    picks = data.draw(st.lists(st.sampled_from(range(len(pool))), min_size=size + 2,
                               max_size=size + 6, unique=True))
    tops = data.draw(st.lists(st.sampled_from(_topologies(3)), min_size=2, max_size=4))
    order = data.draw(st.permutations(picks))
    for i in [*picks, *order]:
        a = pool[i]
        for t in tops:
            assert is_continuous(make_space(a, t)) == oracle_is_continuous(a.table, 3, t.opens)
    assert topology._pair_images.cache_info().currsize <= size


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_is_continuous_matches_oracle_past_the_neighborhood_cache(data):
    """More distinct 5-point topologies than the minimal-neighbourhood
    cache holds, met twice in different orders: the cache evicts and
    refills, and every verdict and first failing open is still the
    open-by-open scan's."""
    size = topology.minimal_neighborhoods.cache_info().maxsize
    name = data.draw(st.sampled_from(["z2", "z3"]))
    homs = _row_homs(name, 5)
    rows = data.draw(st.lists(st.sampled_from(homs), min_size=5, max_size=5))
    g = builtin_group(name)
    a = validate_action(g, tuple(tuple(rho[h] for rho in rows) for h in g.elements()))
    tops = _topologies(5)
    picks = data.draw(st.lists(st.sampled_from(range(len(tops))), min_size=size + 2,
                               max_size=size + 40, unique=True))
    order = data.draw(st.permutations(picks))
    for i in [*picks, *order]:
        t = tops[i]
        assert is_continuous(make_space(a, t)) == oracle_is_continuous(a.table, 5, t.opens)
    assert topology.minimal_neighborhoods.cache_info().currsize <= size


def test_pair_images_are_keyed_on_the_identity(z2):
    """The trivial action has the same table over z2 whichever element is
    the identity; the two actions get separate cache entries."""
    z2_swapped = make_group([[1, 0], [0, 1]], name="z2'")
    assert z2_swapped.identity == 1
    a = trivial_action(z2, 2)
    b = validate_action(z2_swapped, a.table)
    assert a.table == b.table
    topology._pair_images.cache_clear()
    sierp = validate_topology(2, SIERPINSKI)
    for act in (a, b, a, b):
        assert is_continuous(make_space(act, sierp)) is True
    info = topology._pair_images.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)


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

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for modname, mod in list(sys.modules.items()):
        if modname == "binact" or modname.startswith("binact."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("model", ["xor-discrete", "z2-on-4"])
def test_each_entry_point_scans_once(model, xor_action, z2, monkeypatch, tmp_path, capsys):
    """One distributivity scan and one continuity scan per public call, and
    per `binact quotient` command, on a continuous distributive model, with
    unchanged results."""
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

    def quotient_command():
        code = main(["quotient", "--action", str(action_file), "--topology", str(topology_file)])
        return code, capsys.readouterr().out

    calls = {
        "battery": lambda: run_topology_battery(a, t, model_id="m"),
        "quotient": lambda: quotient_topology(s),
        "projection": lambda: check_projection_closed_proper(s),
        "hausdorff": lambda: check_quotient_hausdorff_compact(s),
        "quotient command": quotient_command,
    }
    expected = {name: call() for name, call in calls.items()}
    assert expected["quotient command"][0] == 0
    distributive = _count_calls(monkeypatch, is_distributive)
    continuous = _count_calls(monkeypatch, is_continuous)
    for name, call in calls.items():
        distributive.clear()
        continuous.clear()
        assert call() == expected[name]
        assert (len(distributive), len(continuous)) == (1, 1), name


def test_action_record_is_built_once_over_many_topologies(z2, monkeypatch):
    """The battery and the quotient on 20 topologies of one distributive
    action build one record: one orbit space, one diagonal per group
    element, and one record, whose constructor joins the table part of the
    default model id. The quotients are still the oracle's."""
    a = validate_action(z2, (((0, 1, 2, 3),) * 4,
                             ((0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 3, 2), (0, 1, 3, 2))))
    tops = [t for t in _topologies(4) if is_continuous(make_space(a, t)) is True][:20]
    assert len(tops) == 20
    topology._record.cache_clear()
    spaces = _count_calls(monkeypatch, orbits._orbit_space)
    diagonals = _count_calls(monkeypatch, orbits._diagonal)
    try:
        for t in tops:
            assert len(run_topology_battery(a, t)) == 9
            qt = quotient_topology(make_space(a, t))
            assert qt.opens == oracle_quotient_opens(a.table, 4, t.opens)
        records = topology._record.cache_info().misses
    finally:
        topology._record.cache_clear()
    assert (records, len(spaces), len(diagonals)) == (1, 1, z2.order)


def test_battery_on_a_non_distributive_action_builds_no_orbit_part(mixed_action, monkeypatch):
    """On a continuous action that is not distributive the battery runs the
    two image checks only and never builds the record's orbit space or
    diagonals, whose checks are meant for distributive actions alone."""
    topology._record.cache_clear()
    spaces = _count_calls(monkeypatch, orbits._orbit_space)
    try:
        for t in (discrete_topology(2), indiscrete_topology(2)):
            records = run_topology_battery(mixed_action, t)
            assert [r.check for r in records] == ["guu_open", "gaa_closed"]
        built = vars(topology._record(mixed_action))
        assert "orbits" not in built and "diagonals" not in built
    finally:
        topology._record.cache_clear()
    assert spaces == []


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
    """`binact orbits` scans distributivity once, on a distributive action
    and on one that is not; the witness it prints is the one orbit_space
    refuses the action with."""
    a = {"xor": xor_action, "mixed": mixed_action}[model]
    action_file = tmp_path / "a.json"
    action_file.write_text(json.dumps(action_to_json(a)))
    distributive = _count_calls(monkeypatch, is_distributive)
    assert main(["orbits", "--action", str(action_file)]) == code
    assert capsys.readouterr().out == out
    assert len(distributive) == 1


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
