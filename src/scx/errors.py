"""Exception types, and the budget rules, shared across the package."""

DEFAULT_MAX_NODES = 10 ** 6


class ScxError(Exception):
    """Base class for all package-specific errors."""


class InvalidComplexError(ScxError):
    """Raised when an operation receives a complex that violates its preconditions."""


class BudgetExceededError(ScxError):
    """Raised when a computation would exceed an explicit resource budget.

    Carries enough context to report what was requested and what the cap was.
    """

    def __init__(self, message, requested=None, budget=None):
        super().__init__(message)
        self.requested = requested
        self.budget = budget


class NotDerivedSubdivisionError(ScxError):
    """Raised when a complex admits no consistent rank structure of a derived subdivision."""


class QuotientRejected(ScxError):
    """Raised when an edge identification would produce a degenerate face."""


class ScxFormatError(ScxError):
    """Raised on malformed .scx or certificate input; records the offending line."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = "line %d: %s" % (line_no, message)
        super().__init__(message)
        self.line_no = line_no


def check_budget(name, value):
    """Refuse a negative budget as a usage error, before any work is done."""
    if value < 0:
        raise InvalidComplexError("%s must be at least 0, got %d"
                                  % (name, value))


def spend(requested, budget, message):
    """Refuse work past its budget: raise BudgetExceededError when requested
    exceeds budget.

    requested is the amount of work asked for or, for a counted search, the
    count that passed the budget.  message is %-formatted with the mapping
    {"requested": requested, "budget": budget}.
    """
    if requested > budget:
        raise BudgetExceededError(
            message % {"requested": requested, "budget": budget},
            requested=requested, budget=budget)
