"""Shared exception types."""

from __future__ import annotations


class CombineKitError(Exception):
    """Base class for all library errors."""


class ParseError(CombineKitError):
    """Malformed formula or set literal; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class SignatureError(CombineKitError):
    """A predicate was used outside the signature(s) that own it."""


class CapabilityMissing(CombineKitError):
    """A spectrum query was asked of a theory that does not certify it.

    Raised instead of guessing: the caller picked a method whose
    preconditions the theory's certificate (or the specific query) does
    not support.
    """

    def __init__(self, theory: str, operation: str, detail: str = ""):
        msg = f"{theory} does not support {operation}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.theory = theory
        self.operation = operation


class IterationCapExceeded(CombineKitError):
    """An unbounded search passed the set bound (``sets.BOUND``).

    No set holds a member past it, so this signals a mis-declared
    certificate (e.g. an unbounded spectrum where a finite one was
    promised), never a normal outcome.
    """

    def __init__(self, operation: str, cap: int):
        super().__init__(f"{operation} exceeded iteration cap {cap}")
        self.operation = operation
        self.cap = cap


class SetBoundExceeded(CombineKitError, ValueError):
    """A set member or period past the bound of the dense bitmap sets."""


class MethodNotApplicable(CombineKitError):
    """The chosen combination method's hypotheses fail for the theory pair."""
