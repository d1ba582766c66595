"""Exception hierarchy shared by all semidop modules."""


class SemidopError(Exception):
    """Base class for all domain errors raised by this package."""


class UndefinedWeight(SemidopError):
    """The weight is undefined at some lattice point, e.g. a vanishing (b)_k."""


class InvalidShift(SemidopError):
    """A parameter shift is out of range or would make the weight undefined."""


class PreconditionError(SemidopError):
    """An operation was invoked on inputs that violate its stated precondition,
    e.g. a Pearson-only identity requested for a deformed weight."""


class DivergentSeries(SemidopError):
    """The moment series does not converge for these parameters."""


class TermBudgetExceeded(SemidopError):
    """The series did not meet its tail bound within the term budget."""


class IndexOutOfTable(SemidopError):
    """A moment index beyond the table depth was requested."""


class TruncationTooLarge(SemidopError):
    """A truncation size exceeding the finite-support cap was requested."""


class SingularTruncation(SemidopError):
    """A pivot underflowed during triangular elimination.

    Carries the pivot index in ``index``.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"singular or near-singular pivot at index {index}")
