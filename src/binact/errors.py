"""Exception types shared across the package.

Two families: input-validation errors (bad tables, unmet preconditions) and
theorem violations. The second family signals an implementation bug, because
it contradicts a statement the library re-verifies instead of trusting.
"""

from __future__ import annotations


class BinactError(Exception):
    """Base class for every error raised by this package."""


class MalformedTable(BinactError):
    """A table or argument has the wrong shape, range, or content."""


class NotAssociative(BinactError):
    """Cayley table fails associativity; carries the first bad triple."""

    def __init__(self, a: int, b: int, c: int):
        super().__init__(f"(a*b)*c != a*(b*c) at (a, b, c) = ({a}, {b}, {c})")
        self.triple = (a, b, c)


class NoIdentity(BinactError):
    def __init__(self) -> None:
        super().__init__("no two-sided identity element")


class NoInverse(BinactError):
    def __init__(self, element: int):
        super().__init__(f"element {element} has no two-sided inverse")
        self.element = element


class NotASubgroup(BinactError):
    def __init__(self, elements):
        super().__init__(f"element set {sorted(elements)} is not a subgroup")
        self.elements = frozenset(elements)


class CarrierMismatch(BinactError):
    def __init__(self, left: int, right: int):
        super().__init__(f"carrier sizes differ: {left} vs {right}")
        self.sizes = (left, right)


class NotInvertible(BinactError):
    """Some row map is not a bijection; carries the smallest such row."""

    def __init__(self, row: int):
        super().__init__(f"row map at t={row} is not a bijection")
        self.row = row


class CapExceeded(BinactError):
    def __init__(self, requested: int, cap: int, what: str = "carrier size"):
        super().__init__(f"{what} {requested} exceeds configured cap {cap}")
        self.requested = requested
        self.cap = cap


class ShapeMismatch(BinactError):
    """Table dimensions or entry ranges do not match the declared sizes."""


class AxiomOneViolated(BinactError):
    def __init__(self, g: int, h: int, x: int, xp: int):
        super().__init__(f"axiom (1) fails at (g, h, x, x') = ({g}, {h}, {x}, {xp})")
        self.witness = (g, h, x, xp)


class AxiomTwoViolated(BinactError):
    def __init__(self, x: int, xp: int):
        super().__init__(f"axiom (2) fails at (x, x') = ({x}, {xp})")
        self.witness = (x, xp)


class NotDistributive(BinactError):
    def __init__(self, witness: tuple[int, int, int, int, int] | None = None):
        detail = "" if witness is None else f"; witness (g, h, x, x', x'') = {witness}"
        super().__init__("action is not distributive" + detail)
        self.witness = witness


class NotBiequivariant(BinactError):
    def __init__(self, witness: tuple[int, int, int] | None = None):
        detail = "" if witness is None else f"; witness (g, x, x') = {witness}"
        super().__init__("map is not biequivariant" + detail)
        self.witness = witness


class NotContinuous(BinactError):
    """The action is not continuous for the given topology."""

    def __init__(self, witness_open: int):
        super().__init__(f"action not continuous; witness open has bitmask {witness_open}")
        self.witness_open = witness_open


class NotClosedUnderUnion(BinactError):
    def __init__(self, u: int, v: int):
        super().__init__(f"open family misses the union of bitmasks {u} and {v}")
        self.pair = (u, v)


class NotClosedUnderIntersection(BinactError):
    def __init__(self, u: int, v: int):
        super().__init__(f"open family misses the intersection of bitmasks {u} and {v}")
        self.pair = (u, v)


class MissingEmptyOrFull(BinactError):
    def __init__(self) -> None:
        super().__init__("open family must contain the empty set and the full carrier")


class BudgetExceeded(BinactError):
    """Search ran out of nodes or time; carries the partial result."""

    def __init__(self, reason: str, partial=None):
        super().__init__(f"enumeration budget exceeded: {reason}")
        self.partial = partial


class _BudgetStop(Exception):
    """A budget stopped the run: the node budget, named by the message, or
    the deadline, which gives no message. The enumerator turns it into
    BudgetExceeded."""


class TheoremViolation(BinactError):
    """A re-verified theorem failed, which always means a bug somewhere."""


class InternalInconsistency(TheoremViolation):
    pass


class PartitionViolation(TheoremViolation):
    def __init__(self, x: int, xp: int):
        super().__init__(f"orbits of {x} and {xp} intersect without coinciding")
        self.witness = (x, xp)


class NotBijective(TheoremViolation):
    def __init__(self, g: int):
        super().__init__(f"diagonal map of group element {g} is not a bijection")
        self.element = g


class IllDefined(TheoremViolation):
    def __init__(self, x: int, xp: int):
        super().__init__(f"induced class map disagrees on orbit mates {x} and {xp}")
        self.witness = (x, xp)


class LawViolated(TheoremViolation):
    pass
