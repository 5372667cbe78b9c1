"""Hinge-loss Markov random fields.

The MAP problem of a HL-MRF (Bach, Broecheler, Huang, Getoor, JMLR 2017)
is the convex program::

    minimize    sum_k  w_k * max(0, a_k^T x + b_k)^{p_k}     (p_k in {1,2})
    subject to  a_c^T x + b_c  (<=|==) 0   for hard constraints
                x in [0, 1]^n

Variables are PSL ground atoms; potentials come from weighted rule
groundings (or are added directly).  Solved by consensus ADMM in
:mod:`repro.psl.admm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import InferenceError
from repro.psl.predicate import GroundAtom

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.psl.sharding import TermBlock

#: Term kinds shared by the sharded grounding path and the ADMM solver.
KIND_HINGE = 0
KIND_SQUARED = 1
KIND_LEQ = 2
KIND_EQ = 3


def filter_potential_terms(
    pairs: Iterable[tuple[object, float]],
    offset: float,
    weight: float,
    squared: bool,
) -> tuple[list[tuple[object, float]], float, float]:
    """Shared normalization of one potential's terms.

    The single source of truth for potential semantics, used by both the
    incremental :meth:`HingeLossMRF.add_potential` path and the sharded
    :class:`~repro.psl.sharding.TermBlockBuilder`, so the two can never
    diverge.  Validates the weight, drops zero-weight potentials,
    filters zero coefficients (normalizing values to float), and folds
    potentials that reduce to constants into an energy delta.  Returns
    ``(kept pairs, constant-energy delta, constant hinge mass)`` — the
    mass is the *unweighted* ``hinge^p`` of a folded constant (delta =
    weight * mass), what reweighting needs to rescale the constant
    without re-grounding.  An empty pair list means nothing should be
    appended.
    """
    if weight < 0:
        raise InferenceError(f"potential weight must be non-negative, got {weight}")
    if weight == 0:
        return [], 0.0, 0.0
    kept = [(a, float(c)) for a, c in pairs if c]
    if not kept:
        hinge = max(0.0, float(offset))
        mass = hinge * hinge if squared else hinge
        return [], weight * mass, mass
    return kept, 0.0, 0.0


def filter_constraint_terms(
    pairs: Iterable[tuple[object, float]],
    offset: float,
    equality: bool,
) -> list[tuple[object, float]]:
    """Shared normalization of one hard constraint's terms.

    Filters zero coefficients (normalizing values to float); a constraint
    with no remaining terms is dropped when trivially satisfied and
    rejected when infeasible.  The counterpart of
    :func:`filter_potential_terms` for constraints.
    """
    kept = [(a, float(c)) for a, c in pairs if c]
    if not kept:
        if (equality and abs(offset) > 1e-9) or (not equality and offset > 1e-9):
            raise InferenceError(f"infeasible constant constraint offset={offset}")
        return []
    return kept


@dataclass(frozen=True, slots=True)
class HingePotential:
    """The structure of ``w * max(0, sum(coeff*x) + offset)``, optionally squared.

    The weight ``w`` is not part of it: an MRF keeps every potential's
    weight in its weight vector (:meth:`HingeLossMRF.potential_weights`),
    so reweighting never rebuilds these objects.
    """

    coefficients: tuple[tuple[int, float], ...]
    offset: float
    squared: bool = False

    def unit_value(self, x) -> float:
        """The unweighted hinge mass ``max(0, a^T x + b)^p`` at *x*.

        The potential's feature value; its energy is ``w * unit_value(x)``.
        Weight-independent, which is what structure fingerprints and
        per-group hinge masses need.
        """
        s = self.offset + sum(c * x[i] for i, c in self.coefficients)
        hinge = max(0.0, s)
        return hinge * hinge if self.squared else hinge


@dataclass(frozen=True, slots=True)
class HardConstraint:
    """``sum(coeff*x) + offset <= 0`` (or ``== 0`` when *equality*)."""

    coefficients: tuple[tuple[int, float], ...]
    offset: float
    equality: bool = False

    def violation(self, x) -> float:
        s = self.offset + sum(c * x[i] for i, c in self.coefficients)
        return abs(s) if self.equality else max(0.0, s)


@dataclass
class HingeLossMRF:
    """A HL-MRF over named ground atoms.

    Use :meth:`variable_index` to intern atoms as variables, then add
    potentials and constraints in terms of atom keys — or, on the sharded
    grounding path, :meth:`intern_atoms` + :meth:`add_term_block` to
    append whole compact term blocks at once.

    ``constant_energy`` accumulates potentials whose coefficients all
    vanish (empty or all-zero with a positive offset): they do not affect
    the minimizer, but :meth:`energy` must include them for the reported
    objective to equal the true one.

    **Weights vs structure.**  The HL-MRF energy is *linear* in the
    potential weights, so weights are first-class mutable state, kept
    separate from the (immutable once grounded) term structure.  Every
    potential carries an optional *origin group* — the rule or objective
    component it was grounded from — and its weight lives only in one
    per-potential vector (:meth:`potential_weights`), never on the
    :class:`HingePotential` objects.
    :meth:`set_group_weights` / :meth:`set_group_potential_weights` /
    :meth:`set_potential_weights` rewrite weights in place (bumping
    :attr:`weights_version` so compiled solver arrays know to
    resync) without touching structure — the "ground once, reweight
    many" contract: a reweighted MRF is element-for-element identical to
    one freshly grounded at the new weights, provided no weight crosses
    zero (zero-weight potentials are dropped at grounding time, so a
    zero-crossing changes structure and is rejected).
    """

    variables: list[GroundAtom] = field(default_factory=list)
    _index: dict[GroundAtom, int] = field(default_factory=dict)
    potentials: list[HingePotential] = field(default_factory=list)
    constraints: list[HardConstraint] = field(default_factory=list)
    constant_energy: float = 0.0
    #: Per-potential origin-group id (-1 = fixed weight, no group).
    potential_groups: list[int] = field(default_factory=list)
    #: Bumped by every weight mutation; consumers cache against it.
    weights_version: int = 0
    _pot_weights: list[float] = field(default_factory=list)
    _group_ids: dict[Hashable, int] = field(default_factory=dict)
    _group_keys: list[Hashable] = field(default_factory=list)
    _group_members: dict[int, list[int]] = field(default_factory=dict)
    #: Per-group unweighted constant hinge mass and its currently
    #: weighted contribution to ``constant_energy``.
    _constant_mass: dict[int, float] = field(default_factory=dict)
    _constant_weighted: dict[int, float] = field(default_factory=dict)
    #: Groups that had potentials *dropped* because they were ground at
    #: weight zero: reweighting them to a non-zero weight would need the
    #: dropped structure back, so it is rejected (re-ground instead).
    _zero_dropped: set[int] = field(default_factory=set)

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def variable_index(self, atom: GroundAtom) -> int:
        """Intern *atom* as a variable and return its index."""
        index = self._index
        idx = index.get(atom)
        if idx is None:
            idx = len(self.variables)
            index[atom] = idx
            self.variables.append(atom)
        return idx

    def intern_atoms(self, atoms: Iterable[GroundAtom]) -> list[int]:
        """Intern *atoms* in order; returns their variable indices."""
        return [self.variable_index(a) for a in atoms]

    def index_of(self, atom: GroundAtom) -> int:
        try:
            return self._index[atom]
        except KeyError:
            raise InferenceError(f"{atom} is not a variable of this MRF") from None

    # -- origin groups and weights -------------------------------------------

    def group_id(self, key: Hashable) -> int:
        """Intern *key* (a rule / objective component) as an origin group."""
        gid = self._group_ids.get(key)
        if gid is None:
            gid = len(self._group_keys)
            self._group_ids[key] = gid
            self._group_keys.append(key)
            self._group_members[gid] = []
        return gid

    @property
    def group_keys(self) -> tuple[Hashable, ...]:
        """All interned origin-group keys, in intern order (id order)."""
        return tuple(self._group_keys)

    def group_members(self, key: Hashable) -> tuple[int, ...]:
        """Potential indices belonging to group *key* (append order)."""
        gid = self._group_ids.get(key)
        if gid is None:
            return ()
        return tuple(self._group_members[gid])

    def potential_weights(self) -> np.ndarray:
        """The per-potential weight vector as a contiguous float64 array.

        A snapshot copy: mutate weights through the ``set_*`` methods
        (which keep the constant energy and :attr:`weights_version`
        consistent), not by writing into this array.
        """
        return np.asarray(self._pot_weights, dtype=np.float64)

    def _record_constant(self, gid: int, mass: float, weighted: float) -> None:
        if mass:
            self._constant_mass[gid] = self._constant_mass.get(gid, 0.0) + mass
            self._constant_weighted[gid] = (
                self._constant_weighted.get(gid, 0.0) + weighted
            )

    @staticmethod
    def _check_new_weight(key: Hashable, weight: float) -> float:
        weight = float(weight)
        if weight < 0:
            raise InferenceError(
                f"group {key!r}: potential weight must be non-negative, got {weight}"
            )
        if weight == 0:
            raise InferenceError(
                f"group {key!r}: cannot reweight to zero — zero-weight "
                "potentials are dropped at grounding time, so this would "
                "change the ground structure; re-ground instead"
            )
        return weight

    def set_group_weights(self, weights: Mapping[Hashable, float]) -> None:
        """Set every potential of each group to its group's new weight.

        Unknown group keys are skipped (that origin produced no
        groundings here).  Folded constants belonging to a group are
        rescaled by the new weight, so :attr:`constant_energy` tracks
        exactly what a fresh grounding at the new weights would report.
        """
        for key, weight in weights.items():
            gid = self._group_ids.get(key)
            if gid is None:
                continue
            if gid in self._zero_dropped and float(weight) != 0.0:
                raise InferenceError(
                    f"group {key!r} was ground at weight zero, so its "
                    "potentials were dropped from the structure; reweighting "
                    "it to a non-zero weight cannot restore them — re-ground "
                    "instead"
                )
            members = self._group_members[gid]
            mass = self._constant_mass.get(gid, 0.0)
            if float(weight) == 0.0 and not members and not mass:
                continue  # was ground at zero weight; zero -> zero is a no-op
            weight = self._check_new_weight(key, weight)
            pot_weights = self._pot_weights
            for i in members:
                pot_weights[i] = weight
            if mass:
                weighted = weight * mass
                self.constant_energy += weighted - self._constant_weighted[gid]
                self._constant_weighted[gid] = weighted
        self.weights_version += 1

    def set_group_potential_weights(
        self, key: Hashable, weights: Sequence[float]
    ) -> None:
        """Set one group's member potentials to per-member weights.

        For groups whose members do not share one scalar — e.g. the
        collective model's per-candidate prior, where each potential's
        weight is its own linear combination of objective components.
        *weights* is ordered like :meth:`group_members` (append order).
        """
        gid = self._group_ids.get(key)
        if gid is None:
            if len(weights):
                raise InferenceError(f"unknown origin group {key!r}")
            return
        if gid in self._zero_dropped:
            raise InferenceError(
                f"group {key!r} was ground at weight zero (potentials "
                "dropped); re-ground instead of reweighting"
            )
        members = self._group_members[gid]
        if len(weights) != len(members):
            raise InferenceError(
                f"group {key!r} has {len(members)} potentials, got "
                f"{len(weights)} weights"
            )
        pot_weights = self._pot_weights
        for i, weight in zip(members, weights):
            pot_weights[i] = self._check_new_weight(key, weight)
        self.weights_version += 1

    def set_potential_weights(self, weights: Sequence[float]) -> None:
        """Replace the full per-potential weight vector in place.

        The fully general escape hatch (group APIs cover the common
        cases).  Folded constants cannot be updated through this path —
        they have no potential index — so an MRF whose grounding folded
        group-tagged constants rejects it (use the group APIs there, so
        ``constant_energy`` rescales and the reweighted MRF stays
        identical to a fresh grounding).
        """
        if self._constant_mass:
            raise InferenceError(
                "this MRF has group-folded constant potentials whose energy "
                "the flat weight vector cannot rescale; use "
                "set_group_weights/set_group_potential_weights instead"
            )
        if len(weights) != len(self.potentials):
            raise InferenceError(
                f"expected {len(self.potentials)} weights, got {len(weights)}"
            )
        self._pot_weights = [
            self._check_new_weight("<vector>", weight) for weight in weights
        ]
        self.weights_version += 1

    def add_potential(
        self,
        coefficients: Mapping[GroundAtom, float],
        offset: float,
        weight: float,
        squared: bool = False,
        group: Hashable | None = None,
    ) -> None:
        """Add ``weight * max(0, sum coeff*atom + offset)^(2 if squared)``.

        A potential whose coefficients are empty (or all zero) is a
        *constant*: it cannot influence the minimizer, but its energy
        ``weight * max(0, offset)^p`` is real and is tracked in
        :attr:`constant_energy` so :meth:`energy` reports the true
        objective instead of silently dropping it.

        *group* tags the potential (and any folded constant) with its
        origin — the hook the reweighting API keys on.
        """
        kept, constant, mass = filter_potential_terms(
            coefficients.items(), offset, weight, squared
        )
        self.constant_energy += constant
        gid = self.group_id(group) if group is not None else -1
        if not kept:
            if gid >= 0:
                self._record_constant(gid, mass, constant)
                if weight == 0:
                    self._zero_dropped.add(gid)
            return
        if gid >= 0:
            self._group_members[gid].append(len(self.potentials))
        self.potential_groups.append(gid)
        self._pot_weights.append(float(weight))
        self.potentials.append(
            HingePotential(
                tuple((self.variable_index(a), c) for a, c in kept),
                float(offset),
                squared,
            )
        )

    def add_constraint(
        self,
        coefficients: Mapping[GroundAtom, float],
        offset: float,
        equality: bool = False,
    ) -> None:
        """Add a hard linear constraint over atoms."""
        kept = filter_constraint_terms(coefficients.items(), offset, equality)
        if not kept:
            return
        self.constraints.append(
            HardConstraint(
                tuple((self.variable_index(a), c) for a, c in kept),
                float(offset),
                equality,
            )
        )

    def add_term_block(self, atoms: Iterable[GroundAtom], block: "TermBlock") -> None:
        """Append a compact shard-emitted term block (bulk construction).

        *atoms* is the block's shard-local atom table; it is interned once
        and every term's local indices are remapped through it, so the
        per-potential ``Mapping[GroundAtom, float]`` dicts of the
        incremental API never materialize.  Term order inside the block is
        preserved, which is what makes sharded merges reproduce the serial
        potential/constraint order byte for byte.
        """
        local_to_global = self.intern_atoms(atoms)
        self.constant_energy += block.constant_energy
        # Intern every group the producer mentioned, in mention order —
        # dropped ones included — so the merged registry (group ids,
        # zero-dropped set) matches the serial add_potential path's.
        for key, zero_dropped in block.observed_groups:
            gid = self.group_id(key)
            if zero_dropped:
                self._zero_dropped.add(gid)
        for key, mass, weighted in block.constant_masses:
            self._record_constant(self.group_id(key), mass, weighted)
        # Plain lists: per-element numpy indexing costs far more than the
        # conversion, and tolist() yields the same Python ints and floats.
        groups = block.groups
        ptr = block.term_ptr.tolist()
        offsets = block.offsets.tolist()
        weights = block.weights.tolist()
        variables = [local_to_global[i] for i in block.atom_index.tolist()]
        coefficient = block.coefficient.tolist()
        for t, kind in enumerate(block.kinds.tolist()):
            lo, hi = ptr[t], ptr[t + 1]
            pairs = tuple(zip(variables[lo:hi], coefficient[lo:hi]))
            if kind == KIND_HINGE or kind == KIND_SQUARED:
                key = groups[t] if groups is not None else None
                gid = self.group_id(key) if key is not None else -1
                if gid >= 0:
                    self._group_members[gid].append(len(self.potentials))
                self.potential_groups.append(gid)
                self._pot_weights.append(weights[t])
                self.potentials.append(
                    HingePotential(pairs, offsets[t], kind == KIND_SQUARED)
                )
            else:
                self.constraints.append(
                    HardConstraint(pairs, offsets[t], kind == KIND_EQ)
                )

    def _energy_arrays(self) -> tuple[np.ndarray, ...]:
        """Potential-prefix slices of the compiled arrays, for :meth:`energy`.

        Cached, keyed on the potential count: the potentials list is
        append-only and reweighting never touches it, so the count fully
        identifies the (weight-independent) structure.  Weights are
        deliberately *not* cached — :meth:`energy` reads them fresh every
        call, so the cache survives any amount of in-place reweighting.
        The slices come from the same
        :func:`~repro.psl.partition.compiled_term_arrays` the solver runs
        on.
        """
        cached = getattr(self, "_energy_terms", None)
        num = len(self.potentials)
        if cached is not None and cached[0] == num:
            return cached[1]
        # Imported here: repro.psl.partition builds on this module.
        from repro.psl.partition import compiled_term_arrays

        flat = compiled_term_arrays(self)
        copies = int(flat.term_ptr[num])
        arrays = (
            flat.var[:copies],
            flat.coeff[:copies],
            flat.term[:copies],
            flat.offset[:num],
            np.asarray(flat.kind[:num] == KIND_SQUARED),
        )
        self._energy_terms = (num, arrays)
        return arrays

    def __getstate__(self) -> dict:
        # The energy-array cache is a derived O(copies) structure; keep
        # it out of pickles (engine work units ship MRFs) and let the
        # receiver rebuild it lazily.  Likewise the precompiled flat
        # solver arrays; the receiver recompiles from the potential lists.
        state = self.__dict__.copy()
        state.pop("_energy_terms", None)
        state.pop("_compiled", None)
        return state

    def energy(self, x) -> float:
        """Total weighted hinge loss at *x* (ignores constraints).

        Computed on the cached compiled arrays — one gather, one
        per-term ``bincount``, one dot with the live weight vector —
        instead of a Python loop over potentials.  Validated against the
        per-potential sum in tests; float summation order differs, so
        the two agree to tolerance, not bit for bit (every bit-identity
        contract in the solver compares energies computed by this same
        function on both sides).
        """
        if not self.potentials:
            return self.constant_energy
        var, coeff, term, offset, squared = self._energy_arrays()
        xv = np.asarray(x, dtype=np.float64)
        s = np.bincount(term, weights=coeff * xv[var], minlength=len(offset))
        s += offset
        mass = np.maximum(s, 0.0)
        np.multiply(mass, mass, out=mass, where=squared)
        return float(self.constant_energy + np.dot(self.potential_weights(), mass))

    def max_violation(self, x) -> float:
        """Largest hard-constraint violation at *x*."""
        if not self.constraints:
            return 0.0
        return max(c.violation(x) for c in self.constraints)
