"""The collective, probabilistic mapping selector — the paper's method.

The discrete objective F(M) of :mod:`repro.selection.objective` is relaxed
into a hinge-loss MRF (the PSL MAP problem) over soft variables:

* ``in(theta)`` in [0,1] — degree of membership of candidate theta in M;
* ``explained(t)`` in [0,1] — degree to which example fact t is explained.

Model (per Section V of the paper, arithmetic-rule formulation):

====================  =====================================================
coverage reward       ``w_expl * max(0, 1 - explained(t))`` for each t in J
support cap (hard)    ``explained(t) <= sum_theta covers(theta,t)*in(theta)``
error penalty         ``w_err * in(theta)`` per error fact theta creates
size prior            ``w_size * size(theta) * in(theta)``
====================  =====================================================

All terms are jointly minimized by consensus ADMM — the *collective* part:
candidates compete and cooperate through the shared ``explained`` atoms
rather than being scored independently.  The fractional MAP state is then
rounded (threshold sweep + 1-flip local search, both scored by the exact
discrete F through the incremental engine
:class:`~repro.selection.objective.IncrementalObjective`) into the final
selection.

Error facts shared by several candidates (possible for full tgds that
produce identical ground facts) are mediated through an auxiliary
``errorOf(t)`` variable so each error is paid once, matching the
``sum over K_C - J`` of the objective.

**Sharded grounding.**  The HL-MRF is compiled straight from the
:class:`~repro.selection.metrics.SelectionProblem` in shards
(:mod:`repro.psl.sharding`), built one after another in the calling
process: coverage shards over slices of ``j_facts``, error shards over
slices of the shared-error owner groups, prior shards over slices of the
candidate list.  Each shard is a small spec carrying only its slice of
the tables, so the peak working set of a build is O(largest shard), and
the deterministic merge reproduces the monolithic compilation byte for
byte at any shard size.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from repro.errors import InferenceError

from repro.datamodel.instance import Fact
from repro.psl.admm import AdmmSettings, AdmmSolver, AdmmWarmState
from repro.psl.hlmrf import KIND_EQ, KIND_HINGE, KIND_SQUARED, HingeLossMRF
from repro.psl.predicate import GroundAtom, Predicate
from repro.psl.program import PslProgram
from repro.psl.rounding import round_solution
from repro.psl.sharding import (
    GroundingShard,
    GroundingStats,
    ShardResult,
    TermBlockBuilder,
    ground_shards,
    iter_slices,
)
from repro.selection.exact import SelectionResult
from repro.selection.metrics import SelectionProblem
# objective_value stays a name of this module: perfbench's traced run
# wraps ``collective.objective_value`` as its ``objective`` layer.
from repro.selection.objective import (
    DEFAULT_WEIGHTS,
    IncrementalObjective,
    ObjectiveWeights,
    objective_value,
)

#: The model's predicates.  Module-level so every shard builds atom keys
#: that compare equal.
IN_PREDICATE = Predicate("inMap", 1, closed=False)
EXPLAINED_PREDICATE = Predicate("explained", 1, closed=False)
ERROR_PREDICATE = Predicate("errorOf", 1, closed=False)

#: Origin-group keys of the model's weighted objective components.  Every
#: potential the shards emit is tagged with one of these, so a grounded
#: MRF can be *reweighted* in place — per-term weights recomputed from a
#: new :class:`~repro.selection.objective.ObjectiveWeights` — instead of
#: re-ground.  Coverage and error-mediator terms scale uniformly with
#: their component weight; prior terms are per-candidate linear
#: combinations (``w_err * private_errors + w_size * size``) and go
#: through the per-member weight API.
GROUP_EXPLAINS = "explains"
GROUP_ERRORS = "errors"
GROUP_PRIOR = "prior"


@dataclass
class CollectiveSettings:
    """Knobs of the collective selector.

    ``ground_shard_size`` selects how finely the HL-MRF grounding is
    sharded (``None`` → the sharding default); grounding always runs in
    the calling process.
    """

    weights: ObjectiveWeights = DEFAULT_WEIGHTS
    admm: AdmmSettings = field(default_factory=AdmmSettings)
    squared_hinges: bool = False
    rounding_local_search: bool = True
    ground_shard_size: int | None = None
    #: Reuse a per-process :class:`GroundedCollective` across solves of
    #: the same problem structure: weight-only changes reweight the
    #: cached MRF in place and re-solve on its compiled ADMM arrays
    #: instead of re-grounding (results are bit-identical to the
    #: re-grounding path).  Set False to force a fresh ground per call.
    reuse_grounding: bool = True


@dataclass(frozen=True)
class CollectiveResult(SelectionResult):
    """Selection plus the relaxation's fractional state and diagnostics.

    ``fractional`` holds the ``in`` memberships by candidate index;
    ``fractional_aux`` the ``explained``/``errorOf`` atom values keyed by
    ``(predicate name, index)`` — the payload that lets warm starts seed
    *all* atoms of the next solve, not just the memberships.
    """

    fractional: dict[int, float] = field(default_factory=dict)
    fractional_aux: dict[tuple[str, int], float] = field(default_factory=dict)
    iterations: int = 0
    converged: bool = True
    num_potentials: int = 0
    num_constraints: int = 0
    admm_state: AdmmWarmState | None = None
    grounding: GroundingStats | None = None


# -- shard work units ---------------------------------------------------------


@dataclass(frozen=True)
class CoverageShard:
    """Coverage terms for a slice of J's facts.

    Per entry ``(t_idx, ((candidate, degree), ...))``: the reward
    potential ``w_expl * max(0, 1 - explained(t))`` and the hard support
    cap ``explained(t) <= sum covers(theta,t) * in(theta)``.
    """

    order: int
    entries: tuple[tuple[int, tuple[tuple[int, float], ...]], ...]
    weight: float
    squared: bool

    def build(self) -> ShardResult:
        builder = TermBlockBuilder()
        in_atoms: dict[int, GroundAtom] = {}  # one atom per candidate
        for t_idx, support in self.entries:
            atom = GroundAtom(EXPLAINED_PREDICATE, (t_idx,))
            builder.add_potential(
                [(atom, -1.0)], 1.0, self.weight, self.squared, group=GROUP_EXPLAINS
            )
            cap = [(atom, 1.0)]
            for i, degree in support:
                in_atom = in_atoms.get(i)
                if in_atom is None:
                    in_atom = in_atoms[i] = GroundAtom(IN_PREDICATE, (i,))
                cap.append((in_atom, -degree))
            builder.add_constraint(cap, 0.0)
        atoms, block = builder.finish()
        return ShardResult(self.order, atoms, block)


@dataclass(frozen=True)
class ErrorShard:
    """Shared-error mediator terms for a slice of the owner groups.

    Per entry ``(e_idx, (owners...))``: the penalty potential
    ``w_err * errorOf(e)`` plus one cap ``in(theta) <= errorOf(e)`` per
    owner, so the error is paid once however many owners are selected.
    """

    order: int
    entries: tuple[tuple[int, tuple[int, ...]], ...]
    weight: float
    squared: bool

    def build(self) -> ShardResult:
        builder = TermBlockBuilder()
        for e_idx, owners in self.entries:
            atom = GroundAtom(ERROR_PREDICATE, (e_idx,))
            builder.add_potential(
                [(atom, 1.0)], 0.0, self.weight, self.squared, group=GROUP_ERRORS
            )
            for i in owners:
                builder.add_constraint(
                    [(GroundAtom(IN_PREDICATE, (i,)), 1.0), (atom, -1.0)], 0.0
                )
        atoms, block = builder.finish()
        return ShardResult(self.order, atoms, block)


@dataclass(frozen=True)
class PriorShard:
    """Per-candidate prior potentials for a slice of the candidate list.

    Per entry ``(candidate, penalty)``: the folded private-error + size
    prior ``penalty * in(theta)``.
    """

    order: int
    entries: tuple[tuple[int, float], ...]
    squared: bool

    def build(self) -> ShardResult:
        builder = TermBlockBuilder()
        for i, penalty in self.entries:
            builder.add_potential(
                [(GroundAtom(IN_PREDICATE, (i,)), 1.0)],
                0.0,
                penalty,
                self.squared,
                group=GROUP_PRIOR,
            )
        atoms, block = builder.finish()
        return ShardResult(self.order, atoms, block)


# -- shard planning -----------------------------------------------------------


@dataclass
class CollectivePlan:
    """The deterministic compilation plan of one selection problem.

    ``targets`` pins the MRF's variable order (``in`` atoms by candidate
    index, then ``explained`` atoms in ``j_facts`` order, then
    ``errorOf`` atoms in sorted-owner-group order); ``shards`` hold the
    work, each spec carrying only its slice of the problem's tables.

    ``prior_components`` records every candidate's raw prior features
    ``(candidate, private error count, size)`` and ``prior_included``
    the candidates whose folded penalty was positive at the planning
    weights (only those became potentials — zero-weight terms are
    dropped at grounding time).  Together they let a grounded MRF be
    *reweighted* for a new :class:`ObjectiveWeights` without
    re-planning: new per-candidate penalties are recomputed from the
    components, and the included set doubles as the zero-pattern guard
    (a penalty crossing zero means the structure itself would change,
    so reweighting must fall back to a fresh ground).
    """

    in_atoms: dict[int, GroundAtom]
    explained_atoms: dict[int, GroundAtom]
    error_atoms: dict[int, GroundAtom]
    targets: tuple[GroundAtom, ...]
    shards: tuple[GroundingShard, ...]
    prior_components: tuple[tuple[int, int, int], ...] = ()
    prior_included: tuple[int, ...] = ()


def plan_collective_grounding(
    problem: SelectionProblem,
    settings: CollectiveSettings | None = None,
    shard_size: int | None = None,
) -> CollectivePlan:
    """Compile *problem* into shard specs (no term is materialized yet).

    The plan's shard order — coverage slices in ``j_facts`` order, then
    error slices over the repr-sorted shared-error groups, then prior
    slices in candidate order — reproduces the potential/constraint
    order of the serial :func:`build_program` + ``ground()`` path, which
    is what makes the merged MRF fingerprint-identical to it.
    """
    settings = settings or CollectiveSettings()
    weights = settings.weights
    squared = settings.squared_hinges

    in_atoms = {
        i: GroundAtom(IN_PREDICATE, (i,)) for i in range(problem.num_candidates)
    }

    # Coverage: one entry per J fact some candidate covers (facts nobody
    # covers are certain-unexplained constants, excluded from the MRF).
    coverers: dict[Fact, list[tuple[int, Fraction]]] = {}
    for i, table in enumerate(problem.covers):
        for t, degree in table.items():
            coverers.setdefault(t, []).append((i, degree))
    coverage_entries: list[tuple[int, tuple[tuple[int, float], ...]]] = []
    explained_atoms: dict[int, GroundAtom] = {}
    for t_idx, t in enumerate(problem.j_facts):
        support = coverers.get(t)
        if not support:
            continue
        explained_atoms[t_idx] = GroundAtom(EXPLAINED_PREDICATE, (t_idx,))
        coverage_entries.append(
            (t_idx, tuple((i, float(degree)) for i, degree in support))
        )

    # Errors: shared facts get a mediator variable; private ones fold
    # into the per-candidate prior below.
    owners: dict[Fact, list[int]] = {}
    for i, facts in enumerate(problem.error_facts):
        for f in facts:
            owners.setdefault(f, []).append(i)
    private_error_counts = [0] * problem.num_candidates
    error_entries: list[tuple[int, tuple[int, ...]]] = []
    error_atoms: dict[int, GroundAtom] = {}
    for e_idx, (f, who) in enumerate(sorted(owners.items(), key=lambda kv: repr(kv[0]))):
        if len(who) == 1:
            private_error_counts[who[0]] += 1
        else:
            error_atoms[e_idx] = GroundAtom(ERROR_PREDICATE, (e_idx,))
            error_entries.append((e_idx, tuple(who)))

    # Per-candidate priors: private errors + size, folded into one term.
    prior_components = tuple(
        (i, private_error_counts[i], int(problem.sizes[i]))
        for i in range(problem.num_candidates)
    )
    prior_entries: list[tuple[int, float]] = []
    for i, private, size in prior_components:
        penalty = float(weights.errors * private + weights.size * size)
        if penalty > 0:
            prior_entries.append((i, penalty))

    shards: list[GroundingShard] = []
    for lo, hi in iter_slices(len(coverage_entries), shard_size):
        shards.append(
            CoverageShard(
                len(shards),
                tuple(coverage_entries[lo:hi]),
                float(weights.explains),
                squared,
            )
        )
    for lo, hi in iter_slices(len(error_entries), shard_size):
        shards.append(
            ErrorShard(
                len(shards), tuple(error_entries[lo:hi]), float(weights.errors), squared
            )
        )
    for lo, hi in iter_slices(len(prior_entries), shard_size):
        shards.append(PriorShard(len(shards), tuple(prior_entries[lo:hi]), squared))

    targets = (
        *(in_atoms[i] for i in range(problem.num_candidates)),
        *explained_atoms.values(),
        *error_atoms.values(),
    )
    return CollectivePlan(
        in_atoms=in_atoms,
        explained_atoms=explained_atoms,
        error_atoms=error_atoms,
        targets=targets,
        shards=tuple(shards),
        prior_components=prior_components,
        prior_included=tuple(i for i, _ in prior_entries),
    )


def ground_collective(
    problem: SelectionProblem,
    settings: CollectiveSettings | None = None,
    shard_size: int | None = None,
) -> tuple[HingeLossMRF, CollectivePlan, GroundingStats]:
    """Ground *problem*'s HL-MRF through shards.

    *shard_size* defaults to the settings' value.  The result is
    fingerprint-identical to the monolithic ``build_program(...)[0]
    .ground()`` path for any shard size.
    """
    settings = settings or CollectiveSettings()
    if shard_size is None:
        shard_size = settings.ground_shard_size
    plan = plan_collective_grounding(problem, settings, shard_size)
    mrf = HingeLossMRF()
    for atom in plan.targets:
        mrf.variable_index(atom)
    mrf, stats = ground_shards(plan.shards, mrf=mrf)
    return mrf, plan, stats


class GroundedCollective:
    """One selection problem's compiled HL-MRF, with mutable weights.

    The ground-once/reweight-many artifact of the collective selector:
    structure (variables, coefficients, constraints) is fixed at
    construction; :meth:`reweight` rewrites the per-term
    weights in place for a new :class:`ObjectiveWeights` — coverage and
    error-mediator groups uniformly, per-candidate priors through the
    recorded plan components — and :attr:`solver` reuses one compiled
    ADMM solver across every reweighted solve.  A reweighted artifact is element-for-element
    identical to a fresh grounding at the new weights, so solves from it
    are bit-identical to the re-grounding path.

    :meth:`can_reweight` is the structure guard: weights whose zero
    pattern differs from the grounding weights' (a component switched
    on/off, a prior penalty crossing zero) would have produced a
    *different* structure, and must re-ground instead.
    """

    def __init__(
        self,
        problem: SelectionProblem,
        settings: CollectiveSettings | None = None,
        shard_size: int | None = None,
    ):
        settings = settings or CollectiveSettings()
        self.problem = problem
        self.mrf, self.plan, self.stats = ground_collective(
            problem, settings, shard_size=shard_size
        )
        self.weights = settings.weights
        self._admm = settings.admm
        self._solver: AdmmSolver | None = None

    @property
    def solver(self) -> AdmmSolver:
        """The artifact's persistent solver (arrays compiled once)."""
        if self._solver is None:
            self._solver = AdmmSolver(self.mrf, self._admm)
        return self._solver

    def solver_for(self, admm: AdmmSettings | None) -> AdmmSolver:
        """The persistent solver, rebuilt only if *admm* settings differ."""
        admm = admm if admm is not None else AdmmSettings()
        if admm != self._admm:
            self._solver = None
            self._admm = admm
        return self.solver

    def _prior_penalty(self, weights: ObjectiveWeights, private: int, size: int) -> float:
        # Exactly the planning-time expression (exact Fractions, then
        # float) so a reweight reproduces a fresh plan bit for bit.
        return float(weights.errors * private + weights.size * size)

    def can_reweight(self, weights: ObjectiveWeights) -> bool:
        """Would *weights* ground to this very structure (zero patterns agree)?"""
        old = self.weights
        if (old.explains == 0) != (weights.explains == 0):
            return False
        if (old.errors == 0) != (weights.errors == 0):
            return False
        included = set(self.plan.prior_included)
        return all(
            (self._prior_penalty(weights, private, size) > 0) == (i in included)
            for i, private, size in self.plan.prior_components
        )

    def reweight(self, weights: ObjectiveWeights) -> None:
        """Rewrite the grounded term weights for *weights*, in place."""
        if not self.can_reweight(weights):
            raise InferenceError(
                "objective weights change the ground structure (a component "
                "or prior penalty crossed zero); re-ground instead"
            )
        self.mrf.set_group_weights(
            {
                GROUP_EXPLAINS: float(weights.explains),
                GROUP_ERRORS: float(weights.errors),
            }
        )
        included = set(self.plan.prior_included)
        self.mrf.set_group_potential_weights(
            GROUP_PRIOR,
            [
                self._prior_penalty(weights, private, size)
                for i, private, size in self.plan.prior_components
                if i in included
            ],
        )
        self.weights = weights


class CollectiveGroundingCache:
    """A small per-process LRU of :class:`GroundedCollective` artifacts.

    Keyed by problem identity plus the structure-affecting settings
    (squared hinges, grounding shard size) — *not* by weights: a hit
    whose weights differ only reweights the cached artifact in place.
    Anything else — a miss, or a hit whose zero pattern no longer
    matches — grounds fresh.  The thread id is part of the key so
    concurrent solves from different threads never share (and
    mid-solve reweight) one artifact; entries hold strong problem
    references, making identity keys collision-safe, and the LRU bound
    keeps the footprint at a few problems' worth of structure per
    process.

    Thread-safe: a lock guards the map itself.  Entries own no OS
    resources, so eviction just drops them; an evicted entry another
    thread is still solving on lives until that thread lets go of it.
    """

    # Always 0 (no patch or disk tier); perfbench's traced run reads them.
    patch_hits = 0
    disk_hits = 0

    def __init__(self, capacity: int = 4):
        self.capacity = capacity
        self._entries: OrderedDict[tuple, GroundedCollective] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def grounded(
        self,
        problem: SelectionProblem,
        settings: CollectiveSettings | None = None,
        shard_size: int | None = None,
    ) -> GroundedCollective:
        """A reweighted cached artifact for *problem*, or a fresh ground."""
        settings = settings or CollectiveSettings()
        if shard_size is None:
            shard_size = settings.ground_shard_size
        key = (
            threading.get_ident(),
            id(problem),
            bool(settings.squared_hinges),
            shard_size,
        )
        with self._lock:
            entry = self._entries.get(key)
            if (
                entry is not None
                and entry.problem is problem
                and entry.can_reweight(settings.weights)
            ):
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                if entry is not None:
                    self._entries.pop(key)
                entry = None
        if entry is not None:
            # Reweight outside the lock: the entry is thread-private (the
            # thread id is in its key), so no other thread can touch it.
            entry.reweight(settings.weights)
            return entry
        fresh = GroundedCollective(  # ground outside the lock, it is slow
            problem, settings, shard_size=shard_size
        )
        with self._lock:
            self.misses += 1
            self._entries[key] = fresh
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return fresh

    def clear(self) -> None:
        """Drop every cached artifact and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = 0


#: Per-process artifact cache consumed by :func:`solve_collective` when
#: ``CollectiveSettings.reuse_grounding`` is on (the default).  Worker
#: processes get their own instance, like the engine's scenario cache.
GROUNDING_CACHE = CollectiveGroundingCache()


def build_program(
    problem: SelectionProblem,
    settings: CollectiveSettings,
) -> tuple[PslProgram, dict[int, object]]:
    """Compile the selection problem into a monolithic PSL program.

    The serial reference path: the same shard specs
    :func:`plan_collective_grounding` emits are expanded through the
    program's dict-based raw-potential API, so ``program.ground()``
    produces — by construction — the MRF the sharded merge must
    reproduce.  Returns the program and the map from candidate index to
    its ``in`` atom, so callers can read fractional memberships back.
    """
    plan = plan_collective_grounding(problem, settings, shard_size=None)
    program = PslProgram()
    for predicate in (IN_PREDICATE, EXPLAINED_PREDICATE, ERROR_PREDICATE):
        program.predicate(predicate.name, predicate.arity, predicate.closed)
    for atom in plan.targets:
        program.target(atom)
    for shard in plan.shards:
        result = shard.build()
        block = result.block
        for t in range(block.num_terms):
            lo, hi = block.term_ptr[t], block.term_ptr[t + 1]
            coefficients = {
                result.atoms[block.atom_index[k]]: float(block.coefficient[k])
                for k in range(lo, hi)
            }
            kind = int(block.kinds[t])
            if kind in (KIND_HINGE, KIND_SQUARED):
                program.add_raw_potential(
                    coefficients, float(block.offsets[t]), float(block.weights[t]),
                    kind == KIND_SQUARED,
                )
            else:
                program.add_linear_constraint(
                    coefficients, float(block.offsets[t]), kind == KIND_EQ
                )
    return program, dict(plan.in_atoms)


def solve_collective(
    problem: SelectionProblem,
    settings: CollectiveSettings | None = None,
    warm_start: Mapping[int, float] | None = None,
    warm_state: AdmmWarmState | None = None,
    warm_start_aux: Mapping[tuple[str, int], float] | None = None,
    ground_shard_size: int | None = None,
    grounded: GroundedCollective | None = None,
) -> CollectiveResult:
    """Run the paper's pipeline: relax, infer with ADMM, round, score.

    Grounding runs through :func:`ground_collective` — sharded, in the
    calling process, *ground_shard_size* entries per shard (default: the
    settings' shard size) — so huge problems never materialize a
    monolithic dict-based program.
    With ``settings.reuse_grounding`` (the default) the grounding is
    served from the per-process :data:`GROUNDING_CACHE`: a repeated
    solve of the same problem structure (e.g. the cells of a
    weight-sweep lane) only *reweights* the cached
    :class:`GroundedCollective` and re-solves on its compiled ADMM
    arrays — bit-identical to re-grounding, minus the grounding.
    Pass *grounded* to manage the artifact explicitly (it is reweighted
    to ``settings.weights`` first).

    *warm_start* maps candidate indices to fractional memberships from a
    previous solve (e.g. the neighbouring point of a parameter sweep);
    *warm_start_aux* seeds the auxiliary ``explained``/``errorOf`` atoms
    by ``(predicate name, index)`` the same way.  The ADMM consensus
    vector starts from those values instead of 0.5.  *warm_state*
    restores the previous solve's full ADMM state (consensus + duals)
    and is what actually cuts iterations when the grounding structure is
    unchanged, e.g. across weight-only re-solves; it is ignored (shape
    check) when the structure differs.  The relaxation is convex, so
    *converged* solves reach the same optimum from any start; if ADMM
    exits at the iteration cap the truncated iterate does depend on the
    start (check ``CollectiveResult.converged``).  Indices unknown to
    this problem are ignored.
    """
    settings = settings or CollectiveSettings()
    if grounded is None and settings.reuse_grounding:
        grounded = GROUNDING_CACHE.grounded(
            problem, settings, shard_size=ground_shard_size
        )
    elif grounded is not None:
        grounded.reweight(settings.weights)
    if grounded is not None:
        mrf, plan, stats = grounded.mrf, grounded.plan, grounded.stats
        solver = grounded.solver_for(settings.admm)
    else:
        mrf, plan, stats = ground_collective(
            problem, settings, shard_size=ground_shard_size
        )
        solver = AdmmSolver(mrf, settings.admm)

    start = None
    if warm_start or warm_start_aux:
        start = np.full(mrf.num_variables, 0.5)
        for i, value in (warm_start or {}).items():
            atom = plan.in_atoms.get(i)
            if atom is not None:
                start[mrf.index_of(atom)] = float(value)
        aux_tables = {
            EXPLAINED_PREDICATE.name: plan.explained_atoms,
            ERROR_PREDICATE.name: plan.error_atoms,
        }
        for (kind, idx), value in (warm_start_aux or {}).items():
            atom = aux_tables.get(kind, {}).get(idx)
            if atom is not None:
                start[mrf.index_of(atom)] = float(value)

    inference = solver.solve(start, warm_state=warm_state)
    x = inference.x
    fractional = {
        i: float(x[mrf.index_of(atom)]) for i, atom in plan.in_atoms.items()
    }
    fractional_aux = {
        (EXPLAINED_PREDICATE.name, t): float(x[mrf.index_of(atom)])
        for t, atom in plan.explained_atoms.items()
    }
    fractional_aux.update(
        {
            (ERROR_PREDICATE.name, e): float(x[mrf.index_of(atom)])
            for e, atom in plan.error_atoms.items()
        }
    )

    engine = IncrementalObjective(problem, settings.weights)
    selected = round_solution(
        fractional,
        engine.value_of,
        with_local_search=settings.rounding_local_search,
    )
    return CollectiveResult(
        selected=frozenset(selected),
        objective=engine.value_of(selected),
        fractional=fractional,
        fractional_aux=fractional_aux,
        iterations=inference.iterations,
        converged=inference.converged,
        num_potentials=len(mrf.potentials),
        num_constraints=len(mrf.constraints),
        admm_state=inference.state,
        grounding=stats,
    )


@dataclass(frozen=True)
class CollectiveWarmPayload:
    """A picklable warm-start baton: one lane step's chained state.

    Exactly what :class:`WarmStartedCollective` carries between calls —
    the fractional ``in`` memberships, the auxiliary
    ``explained``/``errorOf`` values, and the full ADMM state — packaged
    so it can ride inside a sweep work unit to a worker process.  The
    engine's process-pool path ships the previous cell's payload forward
    through each lane (see ``EvaluationEngine``), which is what lets
    process grids warm-start exactly like serial ones.
    """

    fractional: tuple[tuple[int, float], ...]
    aux: tuple[tuple[tuple[str, int], float], ...]
    state: AdmmWarmState | None


class WarmStartedCollective:
    """A collective solver that chains warm starts across successive calls.

    Re-solving the HL-MRF at every point of a sweep (noise levels, weight
    settings) wastes the fact that neighbouring points have near-identical
    optima.  This callable keeps the previous call's fractional state —
    the ``in`` memberships *and* the auxiliary ``explained``/``errorOf``
    atom values — plus its full ADMM state (consensus + duals) and feeds
    all of it to :func:`solve_collective` — the standard warm-start trick
    of the surrogate-optimization literature applied across sweep points.
    When the grounding structure is unchanged (weight-only re-solves)
    the dual state is restored and the solver converges in a handful of
    iterations; when it differs (noise changed the example) the solver
    falls back to the fractional start, now covering every atom whose
    positional key still exists rather than only the memberships.
    Candidate and fact indices carry over positionally, so chaining is
    most effective when successive problems share their candidate grid.

    Only *converged* solves are chained: a solve truncated at the
    iteration cap yields a start-dependent iterate, and feeding it
    forward could make warm-started sweeps diverge from cold ones.  After
    an unconverged solve the chain resets and the next call starts cold.

    Instances satisfy the harness ``Solver`` protocol; each engine sweep
    lane gets its own instance, so there is no cross-talk between seeds.
    In serial grids the instance simply lives across a lane's cells; in
    process grids each cell reconstructs one from the previous cell's
    :attr:`payload` shipped inside the work unit — the two are
    equivalent because the payload is the chained state, verbatim.
    """

    def __init__(
        self,
        settings: CollectiveSettings | None = None,
        payload: CollectiveWarmPayload | None = None,
    ):
        self._settings = settings
        self._previous: dict[int, float] | None = None
        self._previous_aux: dict[tuple[str, int], float] | None = None
        self._previous_state: AdmmWarmState | None = None
        if payload is not None:
            self._previous = dict(payload.fractional)
            self._previous_aux = dict(payload.aux)
            self._previous_state = payload.state

    @property
    def payload(self) -> CollectiveWarmPayload | None:
        """The chained state as a shippable baton (None when cold)."""
        if self._previous is None:
            return None
        return CollectiveWarmPayload(
            fractional=tuple(self._previous.items()),
            aux=tuple((self._previous_aux or {}).items()),
            state=self._previous_state,
        )

    def __call__(self, problem: SelectionProblem) -> CollectiveResult:
        result = solve_collective(
            problem,
            self._settings,
            warm_start=self._previous,
            warm_state=self._previous_state,
            warm_start_aux=self._previous_aux,
        )
        if result.converged:
            self._previous = dict(result.fractional)
            self._previous_aux = dict(result.fractional_aux)
            self._previous_state = result.admm_state
        else:
            self.reset()
        return result

    def reset(self) -> None:
        """Forget the chained state (start the next call cold)."""
        self._previous = None
        self._previous_aux = None
        self._previous_state = None
