"""Exception taxonomy shared by all posetglue modules.

Every error raised on user-facing input paths derives from PosetGlueError and
carries a concrete witness where one exists, so a rejection can always be
explained, not just reported.
"""
from __future__ import annotations


class PosetGlueError(Exception):
    """Base class for all library errors."""


class ParseError(PosetGlueError):
    """Malformed input file or JSON document."""


# --- poset_core ---------------------------------------------------------

class CycleError(PosetGlueError):
    """Antisymmetry violated; carries one witnessing cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("not antisymmetric; cycle: " + " <= ".join(self.cycle))


class UnknownElement(PosetGlueError):
    """An element identifier does not belong to the poset."""

    def __init__(self, element):
        self.element = element
        super().__init__(f"unknown element: {element!r}")


class SizeLimit(PosetGlueError):
    """An exact search was asked to exceed its configured size cap."""


# --- gluing --------------------------------------------------------------

class GluingError(PosetGlueError):
    """Base class for rejections of gluing data."""


class AntichainViolation(GluingError):
    def __init__(self, x, y, y2, witness, side):
        self.x, self.y, self.y2, self.witness, self.side = x, y, y2, witness, side
        super().__init__(
            f"elements {y!r} and {y2!r} of the set at {x!r} share {witness!r} "
            f"in their {side}-sets"
        )


class PhiMissing(GluingError):
    def __init__(self, x, x2, y):
        self.x, self.x2, self.y = x, x2, y
        super().__init__(f"no admissible image of {y!r} when passing {x!r} -> {x2!r}")


class PhiNotBijective(GluingError):
    def __init__(self, x, x2):
        self.x, self.x2 = x, x2
        super().__init__(f"transfer map {x!r} -> {x2!r} is not a bijection")


class NotOrderPreserving(GluingError):
    def __init__(self, x, x2):
        self.x, self.x2 = x, x2
        super().__init__(f"map is not order preserving on {x!r} <= {x2!r}")


class InternalInconsistency(PosetGlueError):
    """A property the construction guarantees failed to hold; a bug, not bad input."""


# --- formula_cat ---------------------------------------------------------

class ShapeMismatch(PosetGlueError):
    """Matrix or object shapes are not composable/comparable."""


class BaseMismatch(PosetGlueError):
    """Two values that must share a poset do not."""


# --- abelian_eval --------------------------------------------------------

class InvalidChainMap(PosetGlueError):
    """Degreewise components do not commute with the differentials."""


class D2NotZero(PosetGlueError):
    """A differential failed d*d = 0; internal alarm on evaluation output."""


class DiagramAxiomFailure(PosetGlueError):
    """A diagram's restriction maps fail identity/composition axioms."""


class CommutativityFailure(DiagramAxiomFailure):
    """Restrictions of a formula diagram fail to compose; carries the pair
    and, in the message, the middle element and the difference matrix."""

    def __init__(self, pair, detail=""):
        self.pair = pair
        super().__init__(f"restriction square at {pair} does not commute {detail}".rstrip())


# --- harness -------------------------------------------------------------

class NaturalityFailure(PosetGlueError):
    """A component collection fails naturality across an edge."""

    def __init__(self, edge, detail=""):
        self.edge = edge
        super().__init__(f"naturality fails across edge {edge} {detail}".rstrip())


class NotATree(PosetGlueError):
    """The underlying undirected graph is not a tree."""


class NoPathFound(PosetGlueError):
    """Reflection search exhausted the orientation space without reaching the goal."""
