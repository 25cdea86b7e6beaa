"""Exception hierarchy shared by all modules.

``cli.main`` maps these onto a report status and an exit code:
``NotApplicable`` gives "not-applicable" and ``ExhaustionError`` gives
"exhausted", both exit 2; ``InternalError`` gives "internal-error", exit
3; every other ``CurvextError`` gives "input-error", exit 1.  A command
that succeeds reports "ok" and exits 0.
"""


class CurvextError(Exception):
    """Base class for all package errors."""


class InputError(CurvextError, ValueError):
    """Malformed or mathematically invalid input (bad field, degree, JSON, ...)."""


class NotApplicable(CurvextError):
    """A hypothesis gate failed; the requested quantity is not defined here."""


class MembershipError(CurvextError):
    """A function was asserted to lie in a section space but does not."""


class InternalError(CurvextError):
    """A result failed its own re-verification: a bug, not bad input."""


class ExhaustionError(CurvextError):
    """A complete search ran out of candidates that theory says must exist."""
