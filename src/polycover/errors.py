"""Exception types shared across the package."""


class PolycoverError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgument(PolycoverError, ValueError):
    """An argument lies outside the range the operation accepts."""


class InvalidComplex(PolycoverError):
    """Raw input cannot be turned into a simplicial complex."""


class VertexClash(PolycoverError):
    """A supposedly fresh vertex already belongs to the complex."""


class IncompleteMap(PolycoverError):
    """A vertex map is missing images for some source vertices."""


class InvalidPoint(PolycoverError):
    """Barycentric coordinates are malformed or lie on no simplex."""


class LevelMismatch(PolycoverError):
    """Operands live at different subdivision levels or stages."""


class CannotCoarsen(PolycoverError):
    """Star-sets and points can only be re-expressed at finer levels."""


class UnknownCoverElement(PolycoverError):
    """An (element, level) pair does not exist in the cover sequence."""


class EmptyPrefix(PolycoverError):
    """A cover prefix must contain at least one level."""


class UnknownCarrier(PolycoverError):
    """The given simplex is not a simplex of the working stage."""


class NotARefinement(PolycoverError):
    """Some fine element is contained in no coarse element."""


class NotCanonical(PolycoverError):
    """The supplied map fails the canonical-map predicate."""


class NoCoverage(PolycoverError):
    """The star-sets fail to cover the ground space."""


class LevelBudgetExceeded(PolycoverError):
    """Subdivision exceeded the configured maximum level or stage size.

    May carry a ``report`` attribute with partial driver results.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DisjointnessRequired(PolycoverError):
    """The operation needs pairwise-disjoint families per level."""


class ComposeError(PolycoverError):
    """Two maps cannot be composed: target and source complexes differ."""


class WitnessFailure(PolycoverError):
    """The cone witness does not embed one chain member into the next."""


class SkeletonViolation(PolycoverError):
    """A map sends some skeleton outside its prescribed chain member."""


class EmptyValue(PolycoverError):
    """A carrier table assigns an empty complex to some carrier."""


class ArityError(PolycoverError):
    """Map, cover prefix, and table sequence lengths disagree."""


class NoConeWitness(PolycoverError):
    """The carrier table sequence lacks a usable cone witness."""


class DimensionTooLow(PolycoverError):
    """The requested family count cannot accommodate the space dimension."""


class SchemaError(PolycoverError):
    """An input document violates its schema; ``path`` locates the defect."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message
