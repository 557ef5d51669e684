"""Exception hierarchy shared across the toolkit.

Every error raised by the library derives from SqchipError so callers can
catch at one level; the CLI maps SqchipError to a dedicated exit code.
"""


class SqchipError(Exception):
    pass


# ---- design documents -------------------------------------------------

class UnknownSelector(SqchipError):
    pass


def check_selector(name: str, value, allowed: tuple) -> None:
    """Raise UnknownSelector naming the allowed values unless value is one."""
    if value not in allowed:
        raise UnknownSelector(f"{name} {value!r}; expected one of {allowed}")


class MissingSubEntity(SqchipError):
    pass


class VersionMismatch(SqchipError):
    pass


class CrossEntityViolation(SqchipError):
    pass


class UnregisteredRequest(SqchipError):
    pass


class ParseError(SqchipError):
    """Design-file parse/validation failure.

    offset: byte offset into the stream (-1 when unknown)
    path:   dotted field path of the offending value ("" when unknown)
    """

    def __init__(self, message, offset=-1, path=""):
        super().__init__(message)
        self.offset = offset
        self.path = path


# ---- topology ----------------------------------------------------------

class InvalidDimension(SqchipError):
    pass


class EmptyGateList(SqchipError):
    pass


class UnknownLabel(SqchipError):
    pass


# ---- equivalent-circuit parameters ------------------------------------

class NonPositiveCapacitance(SqchipError):
    pass


class NonPositiveInput(SqchipError):
    pass


class PhaseOutOfRange(SqchipError):
    pass


class NegativeFrequency(SqchipError):
    pass


class NonNegativeOffDiagonal(SqchipError):
    pass


class InconsistentTargets(SqchipError):
    pass


# ---- layout ------------------------------------------------------------

class PitchTooSmall(SqchipError):
    pass


class InsufficientFrequencySet(SqchipError):
    pass


class MeanderDoesNotFit(SqchipError):
    pass


class InvalidSubstrate(SqchipError):
    pass


class PlacementOverlap(SqchipError):
    pass


# ---- routing -----------------------------------------------------------

class DegenerateGrid(SqchipError):
    pass


class NoPath(SqchipError):
    pass


class BlockedEndpoint(SqchipError):
    pass


class SpecInfeasible(SqchipError):
    pass


class LengthMismatch(SqchipError):
    pass


class CorridorExhausted(SqchipError):
    pass


# ---- process mapping ---------------------------------------------------

class UnresolvableOverlap(SqchipError):
    pass


# ---- device mapping ----------------------------------------------------

class TargetNotBracketed(SqchipError):
    pass


class MaxIterations(SqchipError):
    """Iteration budget exhausted; carries the best iterate seen."""

    def __init__(self, message: str, best_value: float = float("nan"),
                 best_metric: float = float("nan"), iterations: int = 0):
        super().__init__(message)
        self.best_value = best_value
        self.best_metric = best_metric
        self.iterations = iterations


class ComponentNotTunable(SqchipError):
    pass


# ---- GDS streams -------------------------------------------------------

class CoordinateOverflow(SqchipError):
    pass


class TruncatedRecord(SqchipError):
    def __init__(self, message, offset=-1):
        super().__init__(message)
        self.offset = offset


class BadMagic(SqchipError):
    pass


class OddLength(SqchipError):
    def __init__(self, message, offset=-1):
        super().__init__(message)
        self.offset = offset


class StageError(SqchipError):
    """Pipeline stage failure; carries the stage name for fail-fast reports."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
