"""PSL programs: predicates + rules + data, compiled to a HL-MRF.

:class:`PslProgram` is the user-facing entry point of the mini-PSL
engine.  Typical use::

    program = PslProgram()
    friend = program.predicate("friend", 2)
    votes = program.predicate("votes", 2, closed=False)
    program.rule([lit(friend, "A", "B"), lit(votes, "A", "P")],
                 [lit(votes, "B", "P")], weight=0.5)
    program.observe(friend("alice", "bob"))
    program.target(votes("alice", "left"))
    ...
    result = program.infer()
    result.truth(votes("alice", "left"))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import GroundingError, InferenceError
from repro.psl.admm import AdmmResult, AdmmSettings, AdmmSolver, AdmmWarmState
from repro.psl.database import Database
from repro.psl.grounding import ground_rule, linearize
from repro.psl.hlmrf import HingeLossMRF
from repro.psl.predicate import GroundAtom, Predicate
from repro.psl.rule import LinearConstraintSpec, Literal, Rule
from repro.psl.sharding import (
    GroundingShard,
    GroundingStats,
    ShardResult,
    TermBlockBuilder,
    ground_shards,
    iter_slices,
)


@dataclass
class InferenceResult:
    """MAP assignment over the target atoms, plus solver diagnostics."""

    assignment: dict[GroundAtom, float]
    admm: AdmmResult
    num_potentials: int
    num_constraints: int

    def truth(self, atom: GroundAtom) -> float:
        try:
            return self.assignment[atom]
        except KeyError:
            raise InferenceError(f"{atom} was not a target of inference") from None

    @property
    def converged(self) -> bool:
        return self.admm.converged


@dataclass(frozen=True)
class RuleGroundingShard:
    """One rule's groundings as a sharded work unit.

    ``database`` is the grounding data (observations + targets), carried
    by reference.  :func:`~repro.psl.grounding.ground_rule` enumerates
    in canonical order, so the emitted block is reproducible.
    """

    order: int
    rule: Rule
    weight: float | None
    database: Database

    def build(self) -> ShardResult:
        database = self.database
        builder = TermBlockBuilder()
        for grounding in ground_rule(self.rule, database):
            coefficients, constant = linearize(grounding, database)
            targets = [
                (a, c) for a, c in coefficients.items() if database.is_target(a)
            ]
            if self.rule.is_hard:
                builder.add_constraint(targets, constant)
            else:
                builder.add_potential(
                    targets, constant, self.weight, self.rule.squared, group=self.rule
                )
        atoms, block = builder.finish()
        return ShardResult(self.order, atoms, block)


@dataclass(frozen=True)
class RawPotentialShard:
    """A slice of a program's raw potentials as a sharded work unit."""

    #: items: ((atom, coeff) pairs, offset, weight, squared) per potential.
    order: int
    items: tuple[tuple[tuple[tuple[GroundAtom, float], ...], float, float, bool], ...]

    def build(self) -> ShardResult:
        builder = TermBlockBuilder()
        for pairs, offset, weight, squared in self.items:
            builder.add_potential(pairs, offset, weight, squared)
        atoms, block = builder.finish()
        return ShardResult(self.order, atoms, block)


@dataclass(frozen=True)
class RawConstraintShard:
    """A slice of a program's raw linear constraints as a sharded work unit."""

    #: items: ((atom, coeff) pairs, offset, equality) per constraint.
    order: int
    items: tuple[tuple[tuple[tuple[GroundAtom, float], ...], float, bool], ...]

    def build(self) -> ShardResult:
        builder = TermBlockBuilder()
        for pairs, offset, equality in self.items:
            builder.add_constraint(pairs, offset, equality)
        atoms, block = builder.finish()
        return ShardResult(self.order, atoms, block)


class PslProgram:
    """A PSL model: predicate declarations, rules, and grounding data."""

    def __init__(self) -> None:
        self._predicates: dict[str, Predicate] = {}
        self._rules: list[Rule] = []
        self._raw_potentials: list[tuple[dict[GroundAtom, float], float, float, bool]] = []
        self._raw_constraints: list[LinearConstraintSpec] = []
        self.database = Database()
        #: Full groundings performed so far (dict-based or sharded).  The
        #: regression counter behind the one-grounding-per-call contract
        #: of :func:`repro.psl.learning.learn_rule_weights`.
        self.grounding_count = 0

    # -- model construction --------------------------------------------------

    def predicate(self, name: str, arity: int, closed: bool = True) -> Predicate:
        """Declare (or fetch) a predicate."""
        existing = self._predicates.get(name)
        if existing is not None:
            if existing.arity != arity or existing.closed != closed:
                raise GroundingError(f"predicate {name} re-declared inconsistently")
            return existing
        p = Predicate(name, arity, closed)
        self._predicates[name] = p
        return p

    def rule(
        self,
        body: Sequence[Literal],
        head: Sequence[Literal],
        weight: float | None = 1.0,
        squared: bool = False,
        name: str = "",
    ) -> Rule:
        """Add a first-order rule (``weight=None`` makes it hard)."""
        r = Rule(tuple(body), tuple(head), weight, squared, name)
        self._rules.append(r)
        return r

    def observe(self, atom: GroundAtom, truth: float = 1.0) -> None:
        self.database.observe(atom, truth)

    def target(self, atom: GroundAtom) -> None:
        self.database.add_target(atom)

    def add_raw_potential(
        self,
        coefficients: Mapping[GroundAtom, float],
        offset: float,
        weight: float,
        squared: bool = False,
    ) -> None:
        """Attach ``weight*max(0, sum coeff*atom + offset)`` directly.

        Used for potentials that are unnatural as logical rules, e.g.
        per-candidate size priors with grounding-specific weights.
        """
        self._raw_potentials.append((dict(coefficients), offset, weight, squared))

    def add_linear_constraint(
        self,
        coefficients: Mapping[GroundAtom, float],
        offset: float,
        equality: bool = False,
    ) -> None:
        """Attach an arithmetic constraint ``sum coeff*atom + offset <= 0``."""
        self._raw_constraints.append(
            LinearConstraintSpec(dict(coefficients), offset, equality)
        )

    # -- compilation and inference -------------------------------------------

    def ground(
        self,
        weight_overrides: Mapping[Rule, float] | None = None,
        shard_size: int | None = None,
    ) -> HingeLossMRF:
        """Ground all rules and compile the HL-MRF.

        ``weight_overrides`` substitutes rule weights at grounding time
        without mutating the (frozen) rules — the hook weight learning
        uses to re-ground cheaply between epochs.

        With *shard_size* set, grounding runs through the sharded path
        of :mod:`repro.psl.sharding`: one shard per rule plus sliced raw
        potentials/constraints, merged back deterministically into an
        MRF fingerprint-identical to the dict-based one.  The default
        (``None``) is the dict-based path.
        """
        if shard_size is None:
            mrf, _ = self.ground_with_origins(weight_overrides)
            return mrf
        mrf, _ = self.ground_sharded(weight_overrides, shard_size=shard_size)
        return mrf

    def grounding_shards(
        self,
        weight_overrides: Mapping[Rule, float] | None = None,
        shard_size: int | None = None,
    ) -> list[GroundingShard]:
        """The program's grounding work as shard specs.

        Shard order (rules, then raw-potential slices, then raw-
        constraint slices) matches the compilation order of
        :meth:`ground_with_origins`, so merging the specs in order
        reproduces its potential/constraint sequences exactly.
        """
        overrides = weight_overrides or {}
        shards: list[GroundingShard] = []
        for rule in self._rules:
            shards.append(
                RuleGroundingShard(
                    len(shards), rule, overrides.get(rule, rule.weight), self.database
                )
            )
        for lo, hi in iter_slices(len(self._raw_potentials), shard_size):
            items = tuple(
                (tuple(coefficients.items()), offset, weight, squared)
                for coefficients, offset, weight, squared in self._raw_potentials[lo:hi]
            )
            shards.append(RawPotentialShard(len(shards), items))
        for lo, hi in iter_slices(len(self._raw_constraints), shard_size):
            items = tuple(
                (tuple(spec.coefficients.items()), spec.offset, spec.equality)
                for spec in self._raw_constraints[lo:hi]
            )
            shards.append(RawConstraintShard(len(shards), items))
        return shards

    def ground_sharded(
        self,
        weight_overrides: Mapping[Rule, float] | None = None,
        shard_size: int | None = None,
    ) -> tuple[HingeLossMRF, GroundingStats]:
        """Ground through shards; also returns merge stats.

        Target atoms are interned up front in insertion order — the same
        variable order the dict-based path produces — then shard term
        blocks are merged in spec order.
        """
        self.grounding_count += 1
        mrf = HingeLossMRF()
        for atom in self.database.targets_in_order:
            mrf.variable_index(atom)
        return ground_shards(self.grounding_shards(weight_overrides, shard_size), mrf=mrf)

    def ground_with_origins(
        self,
        weight_overrides: Mapping[Rule, float] | None = None,
    ) -> tuple[HingeLossMRF, list[Rule | None]]:
        """Like :meth:`ground`, also reporting each potential's source rule.

        The returned list is parallel to ``mrf.potentials``; raw potentials
        map to None.
        """
        overrides = weight_overrides or {}
        self.grounding_count += 1
        mrf = HingeLossMRF()
        origins: list[Rule | None] = []
        for atom in self.database.targets_in_order:
            mrf.variable_index(atom)
        for rule in self._rules:
            weight = overrides.get(rule, rule.weight)
            for grounding in ground_rule(rule, self.database):
                coefficients, constant = linearize(grounding, self.database)
                targets = {a: c for a, c in coefficients.items() if self.database.is_target(a)}
                # contributions of observed atoms are already in `constant`
                # via linearize; drop zero-coefficient leftovers.  Fully
                # observed groundings fold into mrf.constant_energy.
                if rule.is_hard:
                    mrf.add_constraint(targets, constant)
                else:
                    before = len(mrf.potentials)
                    mrf.add_potential(targets, constant, weight, rule.squared, group=rule)
                    origins.extend([rule] * (len(mrf.potentials) - before))
        for coefficients, offset, weight, squared in self._raw_potentials:
            before = len(mrf.potentials)
            mrf.add_potential(coefficients, offset, weight, squared)
            origins.extend([None] * (len(mrf.potentials) - before))
        for spec in self._raw_constraints:
            mrf.add_constraint(spec.coefficients, spec.offset, spec.equality)
        return mrf, origins

    def infer(
        self,
        settings: AdmmSettings | None = None,
        warm_start: Mapping[GroundAtom, float] | None = None,
        weight_overrides: Mapping[Rule, float] | None = None,
        warm_state: "AdmmWarmState | None" = None,
        shard_size: int | None = None,
    ) -> InferenceResult:
        """Ground, solve MAP by ADMM, and read back target truths.

        *warm_start* seeds consensus values per atom; *warm_state* (a
        previous result's ``admm.state``) restores the full ADMM state
        and is only honoured when the grounding structure is unchanged
        (the solver checks the shapes).  *shard_size* selects the
        sharded grounding path (see :meth:`ground`).
        """
        mrf = self.ground(weight_overrides, shard_size=shard_size)
        start = None
        if warm_start:
            start = np.full(mrf.num_variables, 0.5)
            for atom, value in warm_start.items():
                try:
                    start[mrf.index_of(atom)] = value
                except InferenceError:
                    pass
        result = AdmmSolver(mrf, settings).solve(start, warm_state=warm_state)
        assignment = {
            atom: float(result.x[mrf.index_of(atom)])
            for atom in self.database.targets_in_order
        }
        return InferenceResult(
            assignment=assignment,
            admm=result,
            num_potentials=len(mrf.potentials),
            num_constraints=len(mrf.constraints),
        )

    def ground_program(
        self,
        weight_overrides: Mapping[Rule, float] | None = None,
        settings: AdmmSettings | None = None,
        shard_size: int | None = None,
    ) -> "GroundedProgram":
        """Ground once into a reusable weight-mutable artifact.

        The returned :class:`GroundedProgram` owns the compiled HL-MRF
        *structure* and treats the rule weights as a mutable vector:
        :meth:`GroundedProgram.set_rule_weights` rewrites them in place
        and :meth:`GroundedProgram.solve` reuses one compiled ADMM
        solver across every reweighted solve.  This is the artifact
        weight learning iterates on — one grounding per learning run,
        not three per epoch.
        """
        mrf = self.ground(weight_overrides, shard_size=shard_size)
        return GroundedProgram(self, mrf, settings)

    # -- introspection ---------------------------------------------------------

    @property
    def rules(self) -> tuple[Rule, ...]:
        return tuple(self._rules)

    def predicates(self) -> Iterable[Predicate]:
        return self._predicates.values()


class GroundedProgram:
    """One grounding of a :class:`PslProgram`, with mutable rule weights.

    The HL-MRF energy is linear in the rule weights, so iterative
    reweighting schemes (perceptron weight learning, MM/EM-style
    algorithms) never need to re-ground: this artifact fixes the ground
    *structure* once and exposes

    * :meth:`set_rule_weights` — in-place weight writes, valid while no
      weight crosses zero (the MRF rejects zero crossings, since
      zero-weight potentials are dropped at grounding time);
    * :meth:`solve` — MAP inference on one lazily compiled, persistently
      reused ADMM solver (pass ``warm_state`` from the previous
      epoch's result to also reuse the dual state);
    * :meth:`rule_features` — Phi_r, the per-rule unweighted hinge
      masses at an assignment, read from the recorded per-potential
      origin groups instead of a fresh grounding.

    A reweighted artifact is element-for-element identical to a fresh
    grounding at the same weights, so solves from it are bit-identical
    to the re-grounding path they replace.
    """

    def __init__(
        self,
        program: PslProgram,
        mrf: HingeLossMRF,
        settings: AdmmSettings | None = None,
    ):
        self.program = program
        self.mrf = mrf
        self._settings = settings
        self._solver: AdmmSolver | None = None

    @property
    def solver(self) -> AdmmSolver:
        """The artifact's persistent solver (arrays compiled once)."""
        if self._solver is None:
            self._solver = AdmmSolver(self.mrf, self._settings)
        return self._solver

    def set_rule_weights(self, weights: Mapping[Rule, float]) -> None:
        """Rewrite the weights of every grounding of each rule in place."""
        self.mrf.set_group_weights(weights)

    def solve(
        self,
        warm_start: np.ndarray | None = None,
        warm_state: AdmmWarmState | None = None,
    ) -> AdmmResult:
        """MAP-solve the current weights on the reused compiled solver."""
        return self.solver.solve(warm_start, warm_state=warm_state)

    def assignment_vector(self, assignment: Mapping[GroundAtom, float]) -> np.ndarray:
        """A full MRF-variable vector from a per-target-atom assignment."""
        x = np.empty(self.mrf.num_variables)
        for atom in self.program.database.targets_in_order:
            try:
                x[self.mrf.index_of(atom)] = assignment[atom]
            except KeyError:
                raise InferenceError(
                    f"assignment missing target atom {atom}"
                ) from None
        return x

    def rule_features(
        self, assignment: Mapping[GroundAtom, float]
    ) -> dict[Rule, float]:
        """Phi_r: per-rule unweighted hinge mass at *assignment*.

        Computed from the grounded structure's recorded origin groups —
        no re-grounding.  Each potential contributes ``w * unit / w``
        (0 when ``w`` is 0), the historical weighted-value-over-weight
        arithmetic, so learning trajectories are bit-identical to the
        re-grounding path.
        """
        x = self.assignment_vector(assignment)
        features: dict[Rule, float] = {}
        mrf = self.mrf
        group_keys = mrf.group_keys
        for potential, gid, weight in zip(
            mrf.potentials, mrf.potential_groups, mrf.potential_weights().tolist()
        ):
            if gid < 0:
                continue
            key = group_keys[gid]
            if not isinstance(key, Rule):
                continue
            weighted = weight * potential.unit_value(x)
            features[key] = features.get(key, 0.0) + (
                weighted / weight if weight > 0 else 0.0
            )
        return features
