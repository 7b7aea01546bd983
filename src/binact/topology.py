"""Finite topologies as bitmask open-set families, plus theorem checks.

Open sets are ints: bit x set means carrier point x is in the set. On a
finite carrier every point has a minimal open neighborhood (the
intersection of all opens containing it), which makes continuity checks
exact: a map out of a product with a discrete factor is continuous iff
it maps minimal neighborhoods into minimal neighborhoods. Each topology
carries its own, computed on first use.

Check discipline: a finite Hausdorff space is discrete, so statements
whose hypotheses include Hausdorff are only asserted on discrete models
and recorded as probes elsewhere. Two conclusions hold for every
continuous distributive model regardless of separation, because each
diagonal map is a homeomorphism and finite unions of closed sets are
closed: images G(A) of closed sets are closed, and the orbit projection
is a closed (hence, with finite fibers, proper) map. The battery asserts
those two unconditionally. Compactness statements are degenerately true
on finite carriers and carry a caveat flag.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import cached_property
from operator import lt
from typing import Iterable, NamedTuple

from .actions import BinaryAction
from .errors import (
    BinactError,
    CapExceeded,
    InternalInconsistency,
    MalformedTable,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotContinuous,
    ShapeMismatch,
)
from .binops import _Value, _set, _int, _int_map, _ints, _list, _size
from .orbits import (OrbitSpace, UnionTable, _coerce_mask, _mask, _record, _require_distributive,
                     image_table, points_of)

TOPOLOGY_ENUM_CAP = 5


class FiniteTopology(_Value):
    """A topology on points 0..carrier_size-1; construct via validate_topology.

    opens is ascending without repeats, as every constructor here builds
    it; is_open and is_closed look masks up in it by binary search.
    Four values are computed on first use and carried outside the
    fields, which alone decide equality, hashing and repr: the full
    carrier as a mask, the minimal neighbourhoods, the masks is_continuous
    and the battery's diagonal check read them through (_continuity_masks),
    and the opens part of the battery's default model id (_opens_id).
    """

    _fields = ("carrier_size", "opens")

    def __init__(self, carrier_size: int, opens: tuple[int, ...]):
        _set(self, "carrier_size", carrier_size)
        _set(self, "opens", opens)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.carrier_size) - 1

    @cached_property
    def minimal_neighborhoods(self) -> tuple[int, ...]:
        """nbhd[x] = intersection of all opens containing x (itself open)."""
        out = []
        for x in range(self.carrier_size):
            acc = self.full_mask
            for u in self.opens:
                if u >> x & 1:
                    acc &= u
            out.append(acc)
        return tuple(out)

    @cached_property
    def _continuity_masks(self) -> tuple[tuple[int, ...], int]:
        """(punctured, allowed): punctured[w] = N(w) - {w}, and allowed packs
        every N(y) at bits y m .. y m + m - 1, m the carrier size."""
        m = self.carrier_size
        nbhd = self.minimal_neighborhoods
        allowed = 0
        for y, ny in enumerate(nbhd):
            allowed |= ny << y * m
        return tuple([nw & ~(1 << w) for w, nw in enumerate(nbhd)]), allowed

    @cached_property
    def _opens_id(self) -> str:
        """The opens part of the battery's default model id."""
        return f";opens={list(self.opens)}"


def validate_topology(carrier_size: int, opens) -> FiniteTopology:
    """Normalize (sort, deduplicate) and check the open-set family.

    Each open is read through _coerce_mask, then checked by _family.
    """
    carrier_size = _size(carrier_size, "carrier size")
    masks = sorted({_coerce_mask(u, carrier_size) for u in _list(opens, MalformedTable, "opens")})
    return _family(carrier_size, masks)


def _family(carrier_size: int, masks: list[int]) -> FiniteTopology:
    """The topology with these opens, which must be strictly ascending,
    start with the empty set and end with the full carrier (so every mask
    lies in 0..2^carrier_size - 1), and be closed under pairwise union and
    intersection; the first failing pair is reported."""
    if not all(map(lt, masks, masks[1:])):
        raise MalformedTable("opens must be strictly ascending")
    if not masks or masks[0] != 0 or masks[-1] != (1 << carrier_size) - 1:
        raise MissingEmptyOrFull()
    family = set(masks)
    for u, v in itertools.combinations(masks, 2):
        if (u | v) not in family:
            raise NotClosedUnderUnion(u, v)
        if (u & v) not in family:
            raise NotClosedUnderIntersection(u, v)
    return FiniteTopology(carrier_size=carrier_size, opens=tuple(masks))


def discrete_topology(n: int) -> FiniteTopology:
    n = _size(n, "carrier size")
    return FiniteTopology(carrier_size=n, opens=tuple(range(1 << n)))


def indiscrete_topology(n: int) -> FiniteTopology:
    n = _size(n, "carrier size")
    return FiniteTopology(carrier_size=n, opens=(0, (1 << n) - 1))


def is_open(t: FiniteTopology, mask: int) -> bool:
    i = bisect_left(t.opens, mask)
    return i < len(t.opens) and t.opens[i] == mask


def is_closed(t: FiniteTopology, mask: int) -> bool:
    # a mask with points outside the carrier leaves full ^ mask with them, never open
    return is_open(t, t.full_mask ^ mask)


def closed_sets(t: FiniteTopology) -> frozenset[int]:
    """The closed sets of t, the complements of its opens."""
    full = t.full_mask
    return frozenset([full ^ u for u in t.opens])


def interior(t: FiniteTopology, mask: int) -> int:
    mask = _mask(mask, t.carrier_size)
    out = 0
    for u in t.opens:
        if u & ~mask == 0:
            out |= u
    return out


def closure(t: FiniteTopology, mask: int) -> int:
    """Smallest closed superset: complement of the interior of the complement."""
    return t.full_mask ^ interior(t, t.full_mask ^ _mask(mask, t.carrier_size))


def minimal_neighborhoods(t: FiniteTopology) -> tuple[int, ...]:
    """The minimal neighbourhoods t carries (FiniteTopology.minimal_neighborhoods)."""
    return t.minimal_neighborhoods


def is_discrete(t: FiniteTopology) -> bool:
    return len(t.opens) == 1 << t.carrier_size


def is_hausdorff(t: FiniteTopology) -> bool:
    """Points separated by disjoint opens. A finite Hausdorff space is T1,
    so every point, hence every finite union of points, is closed: the
    space is discrete, and a discrete space is Hausdorff."""
    return is_discrete(t)


def is_compact(t: FiniteTopology) -> bool:
    """Degenerate on finite carriers: any open cover is already finite, so
    the only content is that the family covers the space at all."""
    acc = 0
    for u in t.opens:
        acc |= u
    return acc == t.full_mask


def is_locally_compact(t: FiniteTopology) -> bool:
    """Degenerate on finite carriers: the whole space is a compact
    neighborhood of every point."""
    return is_compact(t)


def all_topologies(n: int, cap: int = TOPOLOGY_ENUM_CAP) -> list[FiniteTopology]:
    """Every topology on n labeled points, via minimal-neighborhood systems.

    A function N with x in N(x) and (y in N(x) implies N(y) <= N(x)) is
    exactly a system of minimal neighborhoods; the opens are the unions
    of N-values, the sets U equal to the union of N(x) over x in U.
    Counts grow fast (6942 already at n = 5), hence the cap.
    """
    n = _size(n, "carrier size")
    cap = _int(cap, MalformedTable, "cap")
    if n > cap:
        raise CapExceeded(n, cap)
    # candidate masks for N(x): all masks containing bit x, ascending
    candidates = [[mask for mask in range(1 << n) if mask >> x & 1] for x in range(n)]
    out: list[FiniteTopology] = []
    chosen = [0] * n

    def consistent(x: int) -> bool:
        nx = chosen[x]
        for y in range(x):
            ny = chosen[y]
            if nx >> y & 1 and ny & ~nx:
                return False
            if ny >> x & 1 and nx & ~ny:
                return False
        return True

    def fill(x: int):
        if x == n:
            opens = {0}  # the unions of the N-values, each added in turn
            for nx in chosen:
                opens.update([u | nx for u in opens])
            out.append(FiniteTopology(n, tuple(sorted(opens))))
            return
        for mask in candidates[x]:
            chosen[x] = mask
            if consistent(x):
                fill(x + 1)

    fill(0)
    return out


class TopologicalBinaryGSpace(_Value):
    """A binary action and a topology on one carrier (else ShapeMismatch).

    The acting group always carries the discrete topology. Continuity is
    not forced at construction so that is_continuous can report witnesses;
    the theorem checks below refuse non-continuous models instead.
    """

    _fields = ("action", "topology")

    def __init__(self, action: BinaryAction, topology: FiniteTopology):
        if action.carrier_size != topology.carrier_size:
            raise ShapeMismatch(
                f"action carrier {action.carrier_size} != topology carrier {topology.carrier_size}")
        _set(self, "action", action)
        _set(self, "topology", topology)


def make_space(action: BinaryAction, topology: FiniteTopology) -> TopologicalBinaryGSpace:
    return TopologicalBinaryGSpace(action, topology)


def _reach(pairs: tuple[UnionTable, ...], punctured: tuple[int, ...]) -> int:
    """The OR over the points w of pairs[w][punctured[w]]: with pairs packed
    as orbits._record(a).pairs is and punctured[w] = N(w) - {w}, reach[y]
    at bits y m .. y m + m - 1 for every point y (is_continuous)."""
    reach = 0
    for w, pw in enumerate(punctured):
        reach |= pairs[w][pw]
    return reach


def is_continuous(s: TopologicalBinaryGSpace):
    """True, or the first open V (ascending bitmask) whose preimage under
    the action is not open in discrete(G) x X x X.

    The minimal open neighbourhood of (g, x, x') in the product is
    {g} x N(x) x N(x'), so V fails exactly when some (g, x, x') lands in V
    while some g(u, w) with u in N(x), w in N(x') does not. That happens
    exactly when some one-argument map f, a row x' -> g(x, x') or a column
    x -> g(x, x'), has f(w) in V and f(u) outside V for some
    u in N(w): a failing row or column is a failing triple, and if
    g(x, x') is in V and g(u, w) is not, then either g(u, x') is outside
    V, and the column at x' fails at x, or it is in V, and the row at u
    fails at x'. (On a preorder, a map of two arguments is monotone exactly
    when it is monotone in each argument.) The identity's rows are the
    identity and its columns are constant, so they never fail, and they
    add to reach[y] below only points of N(y).

    So the scan (_scan) collects reach[y], the union of f(N(w) - {w}) over
    the distinct rows and columns f and the points w with f(w) = y; V fails
    iff some y in V has reach[y] outside V, the same opens as an
    open-by-open scan of the product. Every reach[y] is read at once from
    the pair images the action's record carries (orbits._record(a).pairs):
    reach, packed with reach[y] at bits y m .. y m + m - 1, is the OR over
    w of pairs[w][N(w) - {w}], one table entry per point. The topology
    carries both the sets N(w) - {w} and allowed, N packed the same way
    (FiniteTopology._continuity_masks).

    Every open containing y contains N(y). So a point y whose reach[y]
    lies inside N(y) fails no open, and only the bad points, those whose
    reach[y] leaves N(y), can. If there are none the action is continuous.
    Otherwise the opens are tried in ascending order, each against the
    bad points it contains, and the first failing one is returned: it is
    the open the open-by-open scan finds first. One is always found, since
    the open N(y) of a bad point y fails. Compare the result with
    ``is True``.

    The verdict, True or the witness open, is kept on the action's record
    as its last model (_scan), so asking again for this very topology
    object, or for the model's quotient or battery, scans nothing.
    """
    record, t = _record(s.action), s.topology
    return record.continuous if record.topology is t else _scan(record, t)


def _scan(record, t: FiniteTopology):
    """is_continuous's verdict for the model (record.action, t), kept as
    the record's last model with no quotient yet: the one function that
    scans. The record changes only once the verdict is found."""
    punctured, allowed = t._continuity_masks
    reach = _reach(record.pairs, punctured)
    verdict = True if reach & ~allowed == 0 else _first_failing_open(t, reach)
    record.topology, record.continuous, record.quotient = t, verdict, None
    return verdict


def _first_failing_open(t: FiniteTopology, reach: int) -> int:
    """The first open of t that fails at a bad point, one whose reach[y]
    leaves N(y) (is_continuous)."""
    m, full = t.carrier_size, t.full_mask
    bad = []  # (bit of y, reach[y]) for the bad points y
    for y, ny in enumerate(t.minimal_neighborhoods):
        reach_y = reach >> y * m & full
        if reach_y & ~ny:
            bad.append((1 << y, reach_y))
    for v in t.opens:
        for bit, reach_y in bad:
            if v & bit and reach_y & ~v:
                return v
    raise InternalInconsistency("no open fails at a point whose reach leaves its neighbourhood")


def _model(action: BinaryAction, topology: FiniteTopology):
    """action's record (orbits._record), holding the model (action,
    topology) as its last: unless topology is the very object it holds,
    the carriers are checked (make_space, ShapeMismatch) and the model
    scanned."""
    record = _record(action)
    if record.topology is not topology:
        make_space(action, topology)
        _scan(record, topology)
    return record


def _model_quotient(record) -> FiniteTopology:
    """The quotient of the record's last model, built and checked by
    _family on first read after NotDistributive, then NotContinuous."""
    if record.quotient is None:
        _require_distributive(record.action)
        if record.continuous is not True:
            raise NotContinuous(record.continuous)
        record.quotient = _quotient(record.topology, record.orbits)
    return record.quotient


def is_continuous_map(src: FiniteTopology, dst: FiniteTopology, f) -> bool:
    """Plain continuity of f: src -> dst (preimages of opens are open).

    f is continuous iff it sends every minimal neighbourhood N(x) into
    N(f(x)): the preimage of the open N(f(x)) contains x, so it contains
    N(x) when it is open; and then the preimage of any open V is the union
    of the N(x) with f(x) in V, since V contains N(f(x)).
    """
    mapping = _int_map(f, src.carrier_size, dst.carrier_size, ShapeMismatch)
    return _sends_into(mapping, UnionTable([1 << y for y in mapping]),
                       src.minimal_neighborhoods, dst.minimal_neighborhoods)


def _sends_into(f: tuple[int, ...], images: UnionTable, src_nbhd: tuple[int, ...],
                dst_nbhd: tuple[int, ...]) -> bool:
    """Whether f maps every source neighbourhood N(x) into the target
    neighbourhood N(f(x)), the continuity criterion of is_continuous_map,
    with images[A] = f(A): one table lookup per point."""
    return all(not images[nx] & ~dst_nbhd[y] for nx, y in zip(src_nbhd, f))


# --- checks ------------------------------------------------------------------
#
# Each public check verifies its own hypotheses, and none of check_guu_open,
# check_gaa_closed and check_ka_closed checks continuity: the first two check
# that their set is open or closed, check_ka_closed that its set is closed
# and the action distributive. quotient_topology,
# check_projection_closed_proper and check_quotient_hausdorff_compact check
# distributivity and then continuity. What the action determines is read
# from its record (orbits._record), and so is what its last model (_model)
# determines: the continuity verdict and the quotient, so a model met again
# before its action meets another topology, by the same check or by another,
# is neither scanned for continuity nor given a second quotient.
# run_topology_battery, behind `binact quotient` too, reads the record and
# runs every check on the model.


def check_guu_open(s: TopologicalBinaryGSpace, u_mask: int) -> bool:
    """Is G(U, U) open for the open set U?"""
    u_mask = _mask(u_mask, s.topology.carrier_size)
    if not is_open(s.topology, u_mask):
        raise MalformedTable(f"bitmask {u_mask} is not open in this topology")
    return is_open(s.topology, _record(s.action).square[u_mask])


def check_gaa_closed(s: TopologicalBinaryGSpace, a_mask: int) -> bool:
    """Is G(A, A) closed for the closed set A?"""
    a_mask = _mask(a_mask, s.topology.carrier_size)
    if not is_closed(s.topology, a_mask):
        raise MalformedTable(f"bitmask {a_mask} is not closed in this topology")
    return is_closed(s.topology, _record(s.action).square[a_mask])


def check_ka_closed(s: TopologicalBinaryGSpace, K: Iterable[int], a_mask: int) -> bool:
    """Is K(A) = {g(x, x) : g in K, x in A} closed for the closed set A?

    Requires a distributive action; with K the whole group this is the
    saturation of A; K(A) is read from the UnionTable of the K({x}, {x}),
    the diagonal of image_table(a, K).
    """
    _require_distributive(s.action)
    K = _ints(K, ShapeMismatch, "K", below=s.action.group.order, kind="group element")
    a_mask = _mask(a_mask, s.topology.carrier_size)
    if not is_closed(s.topology, a_mask):
        raise MalformedTable(f"bitmask {a_mask} is not closed in this topology")
    diagonal = [ix[x] for x, ix in enumerate(image_table(s.action, K))]
    return is_closed(s.topology, UnionTable(diagonal)[a_mask])


def quotient_topology(s: TopologicalBinaryGSpace) -> FiniteTopology:
    """Finest topology on the orbit classes making the projection continuous:
    a class set is open iff its preimage is open.

    Distributivity, then continuity, is checked and the quotient built once
    per model, kept on the action's record (_model); a repeat call, or the
    battery on the same model, reads them from there."""
    return _model_quotient(_model(s.action, s.topology))


def _quotient(t: FiniteTopology, space: OrbitSpace) -> FiniteTopology:
    """The quotient opens are the class sets pi(U) of the saturated opens U,
    those equal to the union of the classes they meet: a class set C is
    open iff its preimage, a saturated set, is open, and pi sends saturated
    sets one to one onto class sets. Saturations and projections are read
    from the orbit space's tables. The family is still checked, by the
    core of validate_topology."""
    saturated, projected = space.saturated, space.projected
    opens = sorted([projected[u] for u in t.opens if saturated[u] == u])
    try:
        return _family(len(space.classes), opens)
    except BinactError as exc:  # preimage commutes with union/intersection
        raise InternalInconsistency(f"quotient opens do not form a topology: {exc}") from exc


class ProjectionChecks(_Value):
    _fields = ("closed", "proper")


def check_projection_closed_proper(s: TopologicalBinaryGSpace) -> ProjectionChecks:
    """Does the orbit projection send closed sets to closed sets?

    Properness adds compact fibers, which is automatic here, so proper
    simply coincides with closed on finite carriers.
    """
    qt = quotient_topology(s)
    projected = _record(s.action).orbits.projected
    closed = closed_sets(qt).issuperset(map(projected.__getitem__, closed_sets(s.topology)))
    return ProjectionChecks(closed=closed, proper=closed)


class QuotientChecks(_Value):
    _fields = ("hausdorff", "compact", "locally_compact", "compactness_degenerate")
    compactness_degenerate = True


def check_quotient_hausdorff_compact(s: TopologicalBinaryGSpace) -> QuotientChecks:
    """Separation and compactness of the orbit space.

    compact and locally_compact are degenerately true for finite carriers;
    the flag says so explicitly so reports cannot oversell them.
    """
    qt = quotient_topology(s)
    return QuotientChecks(hausdorff=is_hausdorff(qt), compact=is_compact(qt),
                          locally_compact=is_locally_compact(qt))


class ProbeRecord(NamedTuple):
    """One battery record: the model, the check, its outcome, and whether
    the check's hypotheses are met (then the outcome is asserted).

    A named tuple, immutable and hashable: it unpacks into its four fields
    and compares equal to the plain 4-tuple of them. A sweep builds one per
    check and model, and a tuple is built in about half the time of a
    frozen dataclass and holds no instance dict."""

    model: str
    check: str
    outcome: bool
    hypotheses_met: bool

    def to_json(self) -> dict:
        return self._asdict()


def run_topology_battery(
    action: BinaryAction,
    topology: FiniteTopology,
    model_id: str | None = None,
    include_probes: bool = True,
) -> list[ProbeRecord]:
    """Run every applicable check on a continuous model and enforce the
    assertion discipline.

    Asserted on every model (distributive case): diagonal maps are
    homeomorphisms, saturations of closed sets are closed, the projection
    is closed and proper, and the degenerate compactness facts. Asserted
    only on Hausdorff (= discrete) models: G(U, U) open, G(A, A) closed,
    and Hausdorffness of the quotient; elsewhere those are recorded as
    probes (dropped entirely when include_probes is false). An asserted
    check that comes back false raises InternalInconsistency. On an action
    that is not distributive only G(U, U) and G(A, A) are checked, and
    quotient_topology on the model raises NotDistributive.

    Distributivity is scanned once per action, and continuity and the
    quotient topology once per model, all kept on the action's record
    (_model), so is_continuous, quotient_topology or a repeat call on the
    same action and topology object scans and builds nothing again. The
    checks read G(A, A), the saturations G(A) and the packed diagonal
    images from the action's record and its orbit space.
    """
    record = _model(action, topology)
    if record.continuous is not True:
        raise NotContinuous(record.continuous)
    haus = is_hausdorff(topology)
    if model_id is None:
        model_id = record.table_id + topology._opens_id
    records: list[ProbeRecord] = []

    def add(check: str, outcome: bool, asserted: bool):
        # a check is asserted exactly where its hypotheses are met
        if asserted and not outcome:
            raise InternalInconsistency(f"{model_id}: asserted check {check} came back false")
        if asserted or include_probes:
            # the fields in order, past the named tuple's Python-level __new__
            records.append(tuple.__new__(ProbeRecord, (model_id, check, outcome, asserted)))

    # each family check is one set inclusion, which stops at the first
    # image outside the family, so the lazy tables fill only what is asked
    square = record.square.__getitem__
    closed = closed_sets(topology)
    add("guu_open", frozenset(topology.opens).issuperset(map(square, topology.opens)), haus)
    add("gaa_closed", closed.issuperset(map(square, closed)), haus)
    if record.distributive is not True:
        return records

    # d_g and d_{g^-1} run over the same maps as g does, so testing each
    # distinct diagonal's continuity once tests every inverse: every d sends
    # each N(w) into N(d(w)) iff the packed diagonal images of the punctured
    # neighbourhoods stay inside the packed neighbourhoods, as in is_continuous
    space = record.orbits
    punctured, allowed = topology._continuity_masks
    add("delta_homeomorphism", not _reach(record.diagonal_pairs, punctured) & ~allowed, True)
    # the saturation G(A) is the union of the orbits of A's points
    add("ka_closed", closed.issuperset(map(space.saturated.__getitem__, closed)), True)

    qt = _model_quotient(record)
    closed_map = closed_sets(qt).issuperset(map(space.projected.__getitem__, closed))
    add("projection_closed", closed_map, True)
    add("projection_proper", closed_map, True)
    add("quotient_hausdorff", is_hausdorff(qt), haus)
    add("quotient_compact", is_compact(qt), True)
    add("quotient_locally_compact", is_locally_compact(qt), True)
    return records


# --- serialization -----------------------------------------------------------

def topology_to_json(t: FiniteTopology) -> dict:
    return {"size": t.carrier_size, "opens": [points_of(u) for u in t.opens]}


def topology_from_json(data: dict) -> FiniteTopology:
    if not isinstance(data, dict) or "size" not in data or "opens" not in data:
        raise MalformedTable("topology record must be an object with 'size' and 'opens'")
    return validate_topology(_int(data["size"], MalformedTable, "size"), data["opens"])
