"""Default limits for enumeration-heavy commands; library calls may pass None
for no limit."""
from __future__ import annotations

# Bound on the grid size (product of ord(g)+1 over the support) times the
# 64-bit words of one mask, for atom enumeration.
DEFAULT_ENUMERATION_BUDGET = 10 ** 12
# Most cyclic components a group spec may expand to; a larger rank cannot be
# swept, and a subset spec would write that many coordinates per element.
MAX_GROUP_COMPONENTS = 10 ** 7
# Largest |G| the whole-group subset sweep will accept.
DEFAULT_SWEEP_MAX_GROUP = 16
# Cap on the nonempty zero-sum sequences the length pass files.
DEFAULT_MEMO_LIMIT = 5_000_000
# Cap on C(max_len + k + 1, k) over k support elements, the observed-distances
# oracle's upper bound on the sequences it files.
DEFAULT_ORACLE_VECTOR_LIMIT = 20_000_000
