"""Exception hierarchy shared by all modules.

Each class carries the report status and exit code that ``cli.main``
gives it; a command that succeeds reports "ok" and exits 0.
"""


class CurvextError(Exception):
    """Base class for all package errors."""
    status, exit_code = "input-error", 1


class InputError(CurvextError, ValueError):
    """Malformed or mathematically invalid input (bad field, degree, JSON, ...)."""


class NotApplicable(CurvextError):
    """A hypothesis gate failed; the requested quantity is not defined here."""
    status, exit_code = "not-applicable", 2


class MembershipError(CurvextError):
    """A function was asserted to lie in a section space but does not."""


class InternalError(CurvextError):
    """A result failed its own re-verification: a bug, not bad input."""
    status, exit_code = "internal-error", 3


class ExhaustionError(CurvextError):
    """A complete search ran out of candidates that theory says must exist."""
    status, exit_code = "exhausted", 2
