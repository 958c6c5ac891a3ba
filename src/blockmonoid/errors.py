"""Exception types shared across the package."""


class BlockMonoidError(Exception):
    """Base class for all package errors."""


class ContractError(BlockMonoidError):
    """An operation was called outside its contract (bad input, wrong shape)."""


class BudgetError(BlockMonoidError):
    """A computation would exceed its configured budget.

    Carries the computed bound so callers can report what was refused.
    """

    def __init__(self, message: str, bound: int | None = None):
        super().__init__(message)
        self.bound = bound


def format_bound(n: int) -> str:
    """`n` in decimal, or `about 2^k` if it is too long for str()."""
    try:
        return str(n)
    except ValueError:
        return f"about 2^{n.bit_length() - 1}"


class ParseError(BlockMonoidError):
    """A spec string failed to parse; carries position and expectation."""

    def __init__(self, text: str, position: int, expected: str):
        self.text = text
        self.position = position
        self.expected = expected
        super().__init__(f"at position {position}: expected {expected} "
                         f"(input: {text!r})")


class ConsistencyError(BlockMonoidError):
    """Two independent internal routes disagreed; indicates a bug, not bad input."""
