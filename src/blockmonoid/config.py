"""Budget configuration for enumeration-heavy commands."""
from __future__ import annotations

import os
from dataclasses import dataclass

ENV_BUDGET = "BLOCKMONOID_BUDGET"

# Grid-size bound (product of ord(g)+1 over the support) for atom enumeration.
DEFAULT_ENUMERATION_BUDGET = 10 ** 12
# Largest |G| the whole-group subset sweep will accept.
DEFAULT_SWEEP_MAX_GROUP = 16
# Cap on memo-table entries in the factorization-length search.
DEFAULT_MEMO_LIMIT = 5_000_000
# Cap on exponent vectors visited by the observed-distances oracle.
DEFAULT_ORACLE_VECTOR_LIMIT = 20_000_000


def default_enumeration_budget() -> int:
    raw = os.environ.get(ENV_BUDGET)
    if raw is None:
        return DEFAULT_ENUMERATION_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_BUDGET} must be an integer, got {raw!r}")
    if value <= 0:
        raise ValueError(f"{ENV_BUDGET} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class Budgets:
    """Resource limits applied by the CLI; library calls may pass None for no limit."""

    memo_limit: int | None = DEFAULT_MEMO_LIMIT
    oracle_vector_limit: int | None = DEFAULT_ORACLE_VECTOR_LIMIT
