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
from functools import lru_cache
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
from .binops import _int, _int_map, _list
from .orbits import (OrbitSpace, _diagonal, _orbit_space, _require_distributive, image_table,
                     k_orbits, mask_of, orbit_space, points_of, saturation, square_image)

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


def validate_topology(carrier_size: int, opens) -> FiniteTopology:
    """Normalize (sort, deduplicate) and check the open-set family.

    Requires the empty set and full carrier, and closure under pairwise
    union and intersection; the first failing pair is reported.
    """
    if carrier_size < 1:
        raise MalformedTable("carrier size must be >= 1")
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
    return FiniteTopology(carrier_size=n, opens=tuple(range(1 << n)))


def indiscrete_topology(n: int) -> FiniteTopology:
    return FiniteTopology(carrier_size=n, opens=(0, (1 << n) - 1))


def is_open(t: FiniteTopology, mask: int) -> bool:
    i = bisect_left(t.opens, mask)
    return i < len(t.opens) and t.opens[i] == mask


def is_closed(t: FiniteTopology, mask: int) -> bool:
    return is_open(t, t.full_mask & ~mask)


def closed_sets(t: FiniteTopology) -> tuple[int, ...]:
    full = t.full_mask
    return tuple(sorted(full & ~u for u in t.opens))


def interior(t: FiniteTopology, mask: int) -> int:
    out = 0
    for u in t.opens:
        if u & ~mask == 0:
            out |= u
    return out


def closure(t: FiniteTopology, mask: int) -> int:
    """Smallest closed superset: complement of the interior of the complement."""
    return t.full_mask & ~interior(t, t.full_mask & ~mask)


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
    if n < 1:
        raise MalformedTable("carrier size must be >= 1")
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
def _pair_images(table, identity: int) -> tuple[tuple[int, ...], ...]:
    """pairs[w][u] = OR of 1 << (f(w) m + f(u)) over the table's distinct
    one-argument maps f: the rows x' -> g(x, x') and the columns
    x -> g(x, x') of every g != identity. Bit y m + v says that some map
    sends w to y and u to v. Derived from the table alone, so it is kept
    per table, never a verdict about a topology."""
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
        pairs.append(tuple(row))
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
    bits y m .. y m + m - 1, is the OR of pairs[w][u] over the edges
    u in N(w) - {w}. Every open containing y contains N(y), so if reach
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
        rest = nw & ~(1 << w)
        if rest:
            pw = pairs[w]
            for u in points_of(rest):
                reach |= pw[u]
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
# the kind of set it is handed) and then calls a private core. A core trusts
# its caller: it takes the verified orbit space, which exists only for a
# distributive action, and it assumes its set arguments are what its name
# says. run_topology_battery verifies continuity and distributivity once and
# hands the orbit space and quotient topology to _battery, the core that
# calls the others.

def check_guu_open(s: TopologicalBinaryGSpace, u_mask: int) -> bool:
    """Is G(U, U) open for the open set U?"""
    if not is_open(s.topology, u_mask):
        raise MalformedTable(f"bitmask {u_mask} is not open in this topology")
    return is_open(s.topology, square_image(image_table(s.action), u_mask))


def check_gaa_closed(s: TopologicalBinaryGSpace, a_mask: int) -> bool:
    """Is G(A, A) closed for the closed set A?"""
    if not is_closed(s.topology, a_mask):
        raise MalformedTable(f"bitmask {a_mask} is not closed in this topology")
    return is_closed(s.topology, square_image(image_table(s.action), a_mask))


def check_ka_closed(s: TopologicalBinaryGSpace, K: Iterable[int], a_mask: int) -> bool:
    """Is K(A) = {g(x, x) : g in K, x in A} closed for the closed set A?

    Requires a distributive action; with K the whole group this is the
    saturation of A, the union of the orbits of its points.
    """
    _require_distributive(s.action)
    if not is_closed(s.topology, a_mask):
        raise MalformedTable(f"bitmask {a_mask} is not closed in this topology")
    return is_closed(s.topology, saturation(k_orbits(s.action, K), a_mask))


def quotient_topology(s: TopologicalBinaryGSpace) -> FiniteTopology:
    """Finest topology on the orbit classes making the projection continuous:
    a class set is open iff its preimage is open."""
    space = orbit_space(s.action)
    _require_continuous(s)
    return _quotient(s.topology, space)


def _quotient(t: FiniteTopology, space: OrbitSpace) -> FiniteTopology:
    """The quotient opens are the class sets pi(U) of the saturated opens U,
    those equal to the union of the classes they meet: a class set C is
    open iff its preimage, a saturated set, is open, and pi sends saturated
    sets one to one onto class sets. The family is still validated."""
    opens = sorted(space.project(u) for u in t.opens if saturation(space.orbit_masks, u) == u)
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
    space = orbit_space(s.action)
    _require_continuous(s)
    return _projection_checks(s.topology, space, _quotient(s.topology, space))


def _projection_checks(t: FiniteTopology, space: OrbitSpace,
                       qt: FiniteTopology) -> ProjectionChecks:
    closed = all(is_closed(qt, space.project(amask)) for amask in closed_sets(t))
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
    return _quotient_checks(quotient_topology(s))


def _quotient_checks(qt: FiniteTopology) -> QuotientChecks:
    return QuotientChecks(
        hausdorff=is_hausdorff(qt),
        compact=is_compact(qt),
        locally_compact=is_locally_compact(qt),
        compactness_degenerate=True,
    )


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

    Continuity and distributivity are each scanned once; the orbit space
    and the quotient topology are built once and handed to the cores.
    """
    s = make_space(action, topology)
    _require_continuous(s)
    if is_distributive(action) is True:
        space = _orbit_space(action)
        qt = _quotient(topology, space)
    else:
        space = qt = None
    return _battery(s, space, qt, model_id, include_probes)


def _battery(s: TopologicalBinaryGSpace, space: OrbitSpace | None, qt: FiniteTopology | None,
             model_id: str | None = None, include_probes: bool = True) -> list[ProbeRecord]:
    """run_topology_battery for a model already known to be continuous,
    given the verified orbit space of its action and its quotient topology,
    or None for both when the action is not distributive."""
    action, topology = s.action, s.topology
    haus = is_hausdorff(topology)
    if model_id is None:
        cells = itertools.chain.from_iterable(itertools.chain.from_iterable(action.table))
        flat = ",".join(map(str, cells))
        model_id = (f"group={action.group.name};carrier={action.carrier_size};"
                    f"table={flat};opens={list(topology.opens)}")
    records: list[ProbeRecord] = []

    def add(check: str, outcome: bool, asserted: bool):
        # a check is asserted exactly where its hypotheses are met
        if asserted and not outcome:
            raise InternalInconsistency(f"{model_id}: asserted check {check} came back false")
        if asserted or include_probes:
            records.append(ProbeRecord(model=model_id, check=check,
                                       outcome=outcome, hypotheses_met=asserted))

    images = image_table(action)
    closed = closed_sets(topology)
    add("guu_open", all(is_open(topology, square_image(images, u)) for u in topology.opens), haus)
    add("gaa_closed", all(is_closed(topology, square_image(images, c)) for c in closed), haus)

    if space is not None:
        # every diagonal is verified a bijection inverse to its group
        # inverse's; d_g and d_{g^-1} run over the same maps as g does, so
        # testing each distinct diagonal's continuity once tests every inverse
        nbhd = minimal_neighborhoods(topology)
        diagonals = {_diagonal(action, g) for g in action.group.elements()}
        homeo = all(_is_continuous_map(nbhd, nbhd, d) for d in diagonals)
        add("delta_homeomorphism", homeo, True)

        # the saturation G(A) is the union of the orbits of A's points
        orbits = space.orbit_masks
        add("ka_closed", all(is_closed(topology, saturation(orbits, c)) for c in closed), True)

        proj = _projection_checks(topology, space, qt)
        add("projection_closed", proj.closed, True)
        add("projection_proper", proj.proper, True)

        quot = _quotient_checks(qt)
        add("quotient_hausdorff", quot.hausdorff, haus)
        add("quotient_compact", quot.compact, True)
        add("quotient_locally_compact", quot.locally_compact, True)

    return records


# --- serialization -----------------------------------------------------------

def topology_to_json(t: FiniteTopology) -> dict:
    return {"size": t.carrier_size, "opens": [points_of(u) for u in t.opens]}


def topology_from_json(data: dict) -> FiniteTopology:
    if not isinstance(data, dict) or "size" not in data or "opens" not in data:
        raise MalformedTable("topology record must be an object with 'size' and 'opens'")
    return validate_topology(_int(data["size"], MalformedTable, "size"), data["opens"])
