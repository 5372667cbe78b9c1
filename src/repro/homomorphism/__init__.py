"""Homomorphisms and the graded covers/creates semantics of Eq. (9)."""

from repro.homomorphism.core import core_of, fold_count, is_core
from repro.homomorphism.covers import CoverComputer, covers, creates, error_facts
from repro.homomorphism.search import (
    FactIndex,
    fact_homomorphisms,
    fact_matches,
    find_homomorphism,
    has_fact_homomorphism,
    is_homomorphic,
)

__all__ = [
    "CoverComputer",
    "FactIndex",
    "core_of",
    "covers",
    "creates",
    "fold_count",
    "is_core",
    "error_facts",
    "fact_homomorphisms",
    "fact_matches",
    "find_homomorphism",
    "has_fact_homomorphism",
    "is_homomorphic",
]
