"""Finite topologies as bitmask open-set families, plus theorem checks.

Open sets are ints: bit x set means carrier point x is in the set. On a
finite carrier every point has a minimal open neighborhood (the
intersection of all opens containing it), which makes continuity checks
exact: a map out of a product with a discrete factor is continuous iff
it maps minimal neighborhoods into minimal neighborhoods.

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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

from .actions import BinaryAction, is_distributive
from .errors import (
    CapExceeded,
    InternalInconsistency,
    MalformedTable,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotContinuous,
    ShapeMismatch,
)
from .binops import _int, _int_map, _list, _size
from .orbits import (OrbitSpace, SquareTable, UnionTable, _diagonal, _in_range, _orbit_space,
                     _require_distributive, image_table, k_orbits, mask_of, points_of)

TOPOLOGY_ENUM_CAP = 5


@dataclass(frozen=True)
class FiniteTopology:
    """A topology on points 0..carrier_size-1; construct via validate_topology.

    opens is ascending without repeats, as every constructor here builds
    it; is_open and is_closed look masks up in it by binary search.
    """

    carrier_size: int
    opens: tuple[int, ...]

    @property
    def full_mask(self) -> int:
        return (1 << self.carrier_size) - 1


def _coerce_mask(item, carrier_size: int) -> int:
    if isinstance(item, int):
        if not 0 <= item < (1 << carrier_size):
            raise MalformedTable(f"bitmask {item} out of range for carrier {carrier_size}")
        return item
    return mask_of(item, carrier_size)


def _mask(mask, carrier_size: int) -> int:
    """A bitmask read from outside: an int in 0..2^carrier_size - 1, or MalformedTable."""
    return _coerce_mask(_int(mask, MalformedTable, "bitmask"), carrier_size)


def validate_topology(carrier_size: int, opens) -> FiniteTopology:
    """Normalize (sort, deduplicate) and check the open-set family.

    Requires the empty set and full carrier, and closure under pairwise
    union and intersection; the first failing pair is reported.
    """
    carrier_size = _size(carrier_size, "carrier size")
    masks = sorted({_coerce_mask(u, carrier_size) for u in _list(opens, MalformedTable, "opens")})
    family = set(masks)
    full = (1 << carrier_size) - 1
    if 0 not in family or full not in family:
        raise MissingEmptyOrFull()
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


def closed_sets(t: FiniteTopology) -> tuple[int, ...]:
    full = t.full_mask
    return tuple(sorted(full & ~u for u in t.opens))


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


# bounded, yet above the 355 topologies on 4 points: a battery sweep cycles
# through all of them, and an LRU cache smaller than the cycle misses on
# every call
@lru_cache(maxsize=512)
def minimal_neighborhoods(t: FiniteTopology) -> tuple[int, ...]:
    """min_nbhd[x] = intersection of all opens containing x (itself open)."""
    out = []
    for x in range(t.carrier_size):
        acc = t.full_mask
        for u in t.opens:
            if u >> x & 1:
                acc &= u
        out.append(acc)
    return tuple(out)


def is_hausdorff(t: FiniteTopology) -> bool:
    """Points separated by disjoint opens; on finite carriers this forces
    the discrete topology (singleton minimal neighborhoods)."""
    nbhd = minimal_neighborhoods(t)
    for x in range(t.carrier_size):
        for y in range(x + 1, t.carrier_size):
            if nbhd[x] & nbhd[y]:
                return False
    return True


def is_discrete(t: FiniteTopology) -> bool:
    return len(t.opens) == 1 << t.carrier_size


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
    of N-values. Counts grow fast (6942 already at n = 5), hence the cap.
    """
    n = _size(n, "carrier size")
    if n > cap:
        raise CapExceeded(n, cap)
    # candidate masks for N(x): all masks containing bit x, ascending
    candidates = [
        sorted(mask for mask in range(1 << n) if mask >> x & 1)
        for x in range(n)
    ]
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
            opens = tuple(
                u for u in range(1 << n)
                if all(chosen[p] & ~u == 0 for p in points_of(u))
            )
            out.append(FiniteTopology(carrier_size=n, opens=opens))
            return
        for mask in candidates[x]:
            chosen[x] = mask
            if consistent(x):
                fill(x + 1)

    fill(0)
    return out


@dataclass(frozen=True)
class TopologicalBinaryGSpace:
    """A binary action paired with a topology on its carrier.

    The acting group always carries the discrete topology. Continuity is
    not forced at construction so that is_continuous can report witnesses;
    the theorem checks below refuse non-continuous models instead.
    """

    action: BinaryAction
    topology: FiniteTopology


def make_space(action: BinaryAction, topology: FiniteTopology) -> TopologicalBinaryGSpace:
    if action.carrier_size != topology.carrier_size:
        raise ShapeMismatch(
            f"action carrier {action.carrier_size} != topology carrier {topology.carrier_size}")
    return TopologicalBinaryGSpace(action=action, topology=topology)


# keeps the pair images of the 16 tables met last; battery-sized runs meet
# one table for many topologies in a row
@lru_cache(maxsize=16)
def _pair_images(table, identity: int) -> tuple[UnionTable, ...]:
    """pairs[w][U] = OR of 1 << (f(w) m + f(u)) over the points u of the
    bitmask U and the table's distinct one-argument maps f: the rows
    x' -> g(x, x') and the columns x -> g(x, x') of every g != identity.
    Bit y m + v says that some map sends w to y and some u in U to v. Each
    pairs[w] is a UnionTable over u, filled in for the sets U = N(w) - {w}
    the topologies met so far asked for. Derived from the table alone, so
    it is kept per table, never a verdict about a topology."""
    m = len(table[0])
    maps = set()
    for g, tg in enumerate(table):
        if g != identity:
            maps.update(tg)
            maps.update(zip(*tg))
    pairs = []
    for w in range(m):
        row = [0] * m
        for f in maps:
            base = f[w] * m
            for u in range(m):
                row[u] |= 1 << (base + f[u])
        pairs.append(UnionTable(row))
    return tuple(pairs)


def is_continuous(s: TopologicalBinaryGSpace):
    """True, or the first open V (ascending bitmask) whose preimage under
    the action is not open in discrete(G) x X x X.

    The minimal open neighbourhood of (g, x, x') in the product is
    {g} x N(x) x N(x'), so V fails exactly when some (g, x, x') lands in V
    while some g(u, w) with u in N(x), w in N(x') does not. That happens
    exactly when some one-argument map f, a row x' -> g(x, x') or a column
    x -> g(x, x') with g != e, has f(w) in V and f(u) outside V for some
    u in N(w): a failing row or column is a failing triple, and if
    g(x, x') is in V and g(u, w) is not, then either g(u, x') is outside
    V, and the column at x' fails at x, or it is in V, and the row at u
    fails at x'. (On a preorder, a map of two arguments is monotone exactly
    when it is monotone in each argument.) The identity's rows are the
    identity and its columns are constant, so they never fail.

    So the scan collects reach[y], the union of f(N(w) - {w}) over the
    distinct rows and columns f and the points w with f(w) = y; V fails
    iff some y in V has reach[y] outside V, the same opens as an
    open-by-open scan of the product. Every reach[y] is read at once from
    the table's pair images (_pair_images): reach, packed with reach[y] at
    bits y m .. y m + m - 1, is the OR over w of pairs[w][N(w) - {w}], one
    table entry per point. Every open containing y contains N(y), so if reach
    lies inside N packed the same way the action is continuous. Otherwise
    the opens are tried in ascending order and the first failing one is
    returned, which is the open the open-by-open scan finds first. Compare
    the result with ``is True``.
    """
    a = s.action
    t = s.topology
    nbhd = minimal_neighborhoods(t)
    m = a.carrier_size
    pairs = _pair_images(a.table, a.group.identity)
    reach = allowed = 0
    for w, nw in enumerate(nbhd):
        allowed |= nw << w * m
        reach |= pairs[w][nw & ~(1 << w)]
    if reach & ~allowed == 0:
        return True
    full = t.full_mask
    reach_of = [reach >> y * m & full for y in range(m)]
    for v in t.opens:
        for y in points_of(v):
            if reach_of[y] & ~v:
                return v
    return True


def is_continuous_map(src: FiniteTopology, dst: FiniteTopology, f) -> bool:
    """Plain continuity of f: src -> dst (preimages of opens are open).

    f is continuous iff it sends every minimal neighbourhood N(x) into
    N(f(x)): the preimage of the open N(f(x)) contains x, so it contains
    N(x) when it is open; and then the preimage of any open V is the union
    of the N(x) with f(x) in V, since V contains N(f(x)).
    """
    mapping = _int_map(f, src.carrier_size, dst.carrier_size, ShapeMismatch)
    return _is_continuous_map(minimal_neighborhoods(src), minimal_neighborhoods(dst), mapping)


def _is_continuous_map(src_nbhd, dst_nbhd, mapping) -> bool:
    """is_continuous_map on the two minimal-neighbourhood tuples, for a map
    already known to be in range."""
    for x, fx in enumerate(mapping):
        target = dst_nbhd[fx]
        for u in points_of(src_nbhd[x]):
            if not target >> mapping[u] & 1:
                return False
    return True


def _require_continuous(s: TopologicalBinaryGSpace):
    witness = is_continuous(s)
    if witness is not True:
        raise NotContinuous(witness)


# --- checks ------------------------------------------------------------------
#
# Each public check verifies its own hypotheses (continuity, distributivity,
# the kind of set it is handed) once per call, and reads what the action alone
# determines from the action's record (_record). _battery, behind
# run_topology_battery and `binact quotient`, scans each hypothesis once and
# runs every check on the model.

class _ActionRecord:
    """What the checks derive from one action, shared by every topology on
    its carrier: G(A, A) = square[A], the table part of the default model id,
    and, built on first use, the orbit space (orbits) and the distinct,
    verified diagonals. Read those two only after a distributivity scan has
    passed: on an action that is not distributive the partition check may
    raise PartitionViolation, which is a bug."""

    def __init__(self, action: BinaryAction):
        self.action = action
        self.square = SquareTable(image_table(action))
        cells = itertools.chain.from_iterable(itertools.chain.from_iterable(action.table))
        self.table_id = (f"group={action.group.name};carrier={action.carrier_size};"
                         f"table={','.join(map(str, cells))}")

    @cached_property
    def orbits(self) -> OrbitSpace:
        return _orbit_space(self.action)

    @cached_property
    def diagonals(self) -> frozenset:
        a = self.action
        return frozenset(_diagonal(a, g) for g in a.group.elements())


# _record(action): the records of the 16 actions met last, as for _pair_images;
# each table in a record is filled in only for the sets a check asks for
_record = lru_cache(maxsize=16)(_ActionRecord)


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
    saturation of A; K(A) is read from the UnionTable of the K({x}, {x}).
    """
    _require_distributive(s.action)
    K = _in_range(K, s.action.group.order, "K", "group element")
    a_mask = _mask(a_mask, s.topology.carrier_size)
    if not is_closed(s.topology, a_mask):
        raise MalformedTable(f"bitmask {a_mask} is not closed in this topology")
    return is_closed(s.topology, UnionTable(k_orbits(s.action, K))[a_mask])


def quotient_topology(s: TopologicalBinaryGSpace) -> FiniteTopology:
    """Finest topology on the orbit classes making the projection continuous:
    a class set is open iff its preimage is open."""
    _require_distributive(s.action)
    _require_continuous(s)
    return _quotient(s.topology, _record(s.action).orbits)


def _quotient(t: FiniteTopology, space: OrbitSpace) -> FiniteTopology:
    """The quotient opens are the class sets pi(U) of the saturated opens U,
    those equal to the union of the classes they meet: a class set C is
    open iff its preimage, a saturated set, is open, and pi sends saturated
    sets one to one onto class sets. Saturations and projections are read
    from the orbit space's tables. The family is still validated."""
    saturated, projected = space.saturated, space.projected
    opens = sorted(projected[u] for u in t.opens if saturated[u] == u)
    k = len(space.classes)
    qt = FiniteTopology(carrier_size=k, opens=tuple(opens))
    try:
        validate_topology(k, qt.opens)
    except Exception as exc:  # preimage commutes with union/intersection
        raise InternalInconsistency(f"quotient opens do not form a topology: {exc}") from exc
    return qt


@dataclass(frozen=True)
class ProjectionChecks:
    closed: bool
    proper: bool


def check_projection_closed_proper(s: TopologicalBinaryGSpace) -> ProjectionChecks:
    """Does the orbit projection send closed sets to closed sets?

    Properness adds compact fibers, which is automatic here, so proper
    simply coincides with closed on finite carriers.
    """
    qt = quotient_topology(s)
    projected = _record(s.action).orbits.projected
    closed = all(is_closed(qt, projected[amask]) for amask in closed_sets(s.topology))
    return ProjectionChecks(closed=closed, proper=closed)


@dataclass(frozen=True)
class QuotientChecks:
    hausdorff: bool
    compact: bool
    locally_compact: bool
    compactness_degenerate: bool = True


def check_quotient_hausdorff_compact(s: TopologicalBinaryGSpace) -> QuotientChecks:
    """Separation and compactness of the orbit space.

    compact and locally_compact are degenerately true for finite carriers;
    the flag says so explicitly so reports cannot oversell them.
    """
    qt = quotient_topology(s)
    return QuotientChecks(hausdorff=is_hausdorff(qt), compact=is_compact(qt),
                          locally_compact=is_locally_compact(qt))


@dataclass(frozen=True)
class ProbeRecord:
    model: str
    check: str
    outcome: bool
    hypotheses_met: bool

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "check": self.check,
            "outcome": self.outcome,
            "hypotheses_met": self.hypotheses_met,
        }


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
    check that comes back false raises InternalInconsistency.

    Continuity and distributivity are each scanned once; the quotient
    topology is built once.
    """
    return _battery(action, topology, model_id, include_probes)[2]


def _battery(action: BinaryAction, topology: FiniteTopology, model_id: str | None = None,
             include_probes: bool = True):
    """run_topology_battery, returning (quotient topology, True, records) for
    a distributive action and (None, distributivity witness, records) for
    any other: make_space, one continuity scan, one distributivity scan, and
    the checks, which read G(A, A), the saturations G(A) and the diagonals
    from the action's record and its orbit space."""
    s = make_space(action, topology)
    _require_continuous(s)
    witness = is_distributive(action)
    record = _record(action)
    haus = is_hausdorff(topology)
    if model_id is None:
        model_id = f"{record.table_id};opens={list(topology.opens)}"
    records: list[ProbeRecord] = []

    def add(check: str, outcome: bool, asserted: bool):
        # a check is asserted exactly where its hypotheses are met
        if asserted and not outcome:
            raise InternalInconsistency(f"{model_id}: asserted check {check} came back false")
        if asserted or include_probes:
            records.append(ProbeRecord(model=model_id, check=check,
                                       outcome=outcome, hypotheses_met=asserted))

    closed = closed_sets(topology)
    add("guu_open", all(is_open(topology, record.square[u]) for u in topology.opens), haus)
    add("gaa_closed", all(is_closed(topology, record.square[c]) for c in closed), haus)
    if witness is not True:
        return None, witness, records

    # d_g and d_{g^-1} run over the same maps as g does, so testing each
    # distinct diagonal's continuity once tests every inverse
    space = record.orbits
    nbhd = minimal_neighborhoods(topology)
    add("delta_homeomorphism",
        all(_is_continuous_map(nbhd, nbhd, d) for d in record.diagonals), True)
    # the saturation G(A) is the union of the orbits of A's points
    add("ka_closed", all(is_closed(topology, space.saturated[c]) for c in closed), True)

    qt = _quotient(topology, space)
    closed_map = all(is_closed(qt, space.projected[c]) for c in closed)
    add("projection_closed", closed_map, True)
    add("projection_proper", closed_map, True)
    add("quotient_hausdorff", is_hausdorff(qt), haus)
    add("quotient_compact", is_compact(qt), True)
    add("quotient_locally_compact", is_locally_compact(qt), True)
    return qt, witness, records


# --- serialization -----------------------------------------------------------

def topology_to_json(t: FiniteTopology) -> dict:
    return {"size": t.carrier_size, "opens": [points_of(u) for u in t.opens]}


def topology_from_json(data: dict) -> FiniteTopology:
    if not isinstance(data, dict) or "size" not in data or "opens" not in data:
        raise MalformedTable("topology record must be an object with 'size' and 'opens'")
    return validate_topology(_int(data["size"], MalformedTable, "size"), data["opens"])
