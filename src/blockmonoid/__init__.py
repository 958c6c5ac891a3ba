"""Exact factorization invariants of zero-sum sequence monoids over finite
abelian groups: atoms, sets of lengths, minimal distances, and whole-group
sweeps of the set of minimal distances."""

from .atoms import AtomSet, enumerate_atoms, enumeration_bound
from .classify import (ClassificationRecord, TransferReduction, build_named_set,
                       classify, is_decomposable, is_minimal_non_half_factorial,
                       is_simple, satisfies_span_property, transfer_reduce)
from .errors import (BlockMonoidError, BudgetError, ConsistencyError,
                     ContractError, ParseError)
from .groups import Element, FiniteAbelianGroup, abelian_groups_of_order
from .kernel import integer_kernel, min_delta, min_delta_witness
from .lengths import LengthSet, delta_of_lengths, distances_oracle, length_set
from .sequences import SequenceVec, SupportSet
from .specparse import parse_group, parse_sequence, parse_subset
from .sweep import ExtremalSetReport, SubsetRecord, SweepReport, delta_star
from .verify import expected_max_delta_star

__version__ = "0.1.0"

__all__ = [
    "AtomSet", "BlockMonoidError", "BudgetError",
    "ClassificationRecord", "ConsistencyError", "ContractError", "Element",
    "ExtremalSetReport", "FiniteAbelianGroup", "LengthSet",
    "ParseError", "SequenceVec", "SubsetRecord", "SupportSet", "SweepReport",
    "TransferReduction", "abelian_groups_of_order", "build_named_set",
    "classify", "delta_of_lengths", "delta_star", "distances_oracle",
    "enumerate_atoms", "enumeration_bound", "expected_max_delta_star",
    "integer_kernel", "is_decomposable", "is_minimal_non_half_factorial",
    "is_simple", "length_set", "min_delta", "min_delta_witness",
    "parse_group", "parse_sequence", "parse_subset", "satisfies_span_property",
    "transfer_reduce",
]
