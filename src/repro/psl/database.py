"""Observation database for PSL grounding and inference.

Holds soft truth values for observed atoms and registers the random
variables (atoms of open predicates) inference should solve for.  Closed
predicates follow the closed-world assumption: atoms never observed are
false (truth 0).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import GroundingError
from repro.psl.predicate import GroundAtom, Predicate


class Database:
    """Soft observations plus declared random-variable atoms."""

    def __init__(self) -> None:
        self._observations: dict[GroundAtom, float] = {}
        # dict-as-ordered-set: target *insertion order* defines the
        # deterministic variable order of the compiled MRF, which is what
        # lets sharded and serial grounding fingerprint identically.
        self._targets: dict[GroundAtom, None] = {}
        # dict-as-ordered-set buckets so ``__iter__`` yields atoms in
        # insertion order — a set bucket here leaks hash-seed order into
        # anything iterating the database (RPL002-class nondeterminism).
        self._atoms_by_predicate: dict[Predicate, dict[GroundAtom, None]] = {}

    # -- writing -----------------------------------------------------------

    def observe(self, atom: GroundAtom, truth: float = 1.0) -> None:
        """Record an observed soft truth value in [0, 1]."""
        if not 0.0 <= truth <= 1.0:
            raise GroundingError(f"truth value {truth} for {atom} outside [0, 1]")
        if atom in self._targets:
            raise GroundingError(f"{atom} is already a target (random variable)")
        self._observations[atom] = float(truth)
        self._atoms_by_predicate.setdefault(atom.predicate, {})[atom] = None

    def retract_observation(self, atom: GroundAtom) -> None:
        """Remove a previously observed atom (back to closed-world default)."""
        if atom not in self._observations:
            raise GroundingError(f"{atom} is not observed; cannot retract")
        del self._observations[atom]
        self._drop_atom(atom)

    def add_target(self, atom: GroundAtom) -> None:
        """Register *atom* as a random variable for inference."""
        if atom.predicate.closed:
            raise GroundingError(
                f"cannot make target of closed predicate {atom.predicate.name}"
            )
        if atom in self._observations:
            raise GroundingError(f"{atom} is already observed")
        if atom in self._targets:
            return
        self._targets[atom] = None
        self._atoms_by_predicate.setdefault(atom.predicate, {})[atom] = None

    def retract_target(self, atom: GroundAtom) -> None:
        """Remove a target atom (it stops being a random variable)."""
        if atom not in self._targets:
            raise GroundingError(f"{atom} is not a target; cannot retract")
        del self._targets[atom]
        self._drop_atom(atom)

    def _drop_atom(self, atom: GroundAtom) -> None:
        bucket = self._atoms_by_predicate.get(atom.predicate)
        if bucket is not None:
            bucket.pop(atom, None)

    # -- reading -----------------------------------------------------------

    def is_target(self, atom: GroundAtom) -> bool:
        return atom in self._targets

    def truth(self, atom: GroundAtom) -> float | None:
        """Observed truth of *atom*, applying closed-world default 0.

        Returns None for target atoms (their truth is decided by inference).
        """
        if atom in self._targets:
            return None
        value = self._observations.get(atom)
        if value is not None:
            return value
        if atom.predicate.closed:
            return 0.0
        # Open-predicate atom that was never declared: treat as false
        # observation rather than silently inventing a random variable.
        return 0.0

    def atoms_of(self, predicate: Predicate) -> frozenset[GroundAtom]:
        """All known atoms (observed or target) of *predicate*."""
        return frozenset(self._atoms_by_predicate.get(predicate, ()))

    @property
    def targets(self) -> frozenset[GroundAtom]:
        return frozenset(self._targets)

    @property
    def targets_in_order(self) -> tuple[GroundAtom, ...]:
        """Target atoms in insertion order (the MRF's variable order)."""
        return tuple(self._targets)

    @property
    def observations(self) -> dict[GroundAtom, float]:
        return dict(self._observations)

    def observe_all(self, atoms: Iterable[GroundAtom], truth: float = 1.0) -> None:
        for a in atoms:
            self.observe(a, truth)

    def __iter__(self) -> Iterator[GroundAtom]:
        for bucket in self._atoms_by_predicate.values():
            yield from bucket
