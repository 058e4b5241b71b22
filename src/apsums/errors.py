"""The one exception type raised on precondition violations.

Every operation refuses an argument outside its domain with
:class:`DomainError` (a ``ValueError``).  The message names the rule that
was broken, so callers catch one type and read the message for the rest.
"""

__all__ = ["DomainError"]


class DomainError(ValueError):
    """An argument lies outside an operation's domain."""
