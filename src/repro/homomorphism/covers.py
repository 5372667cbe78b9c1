"""Graded ``covers`` and Boolean ``creates`` — the Eq. (9) building blocks.

Reconstructed from the paper's appendix (Section I), which fixes the
semantics numerically:

* ``creates(theta, t) = 1`` for a chase fact t of K_theta iff t has **no**
  homomorphic image in J — the candidate invents a fact the data example
  cannot justify at all.

* ``covers(theta, t') in [0,1]`` for a target-example fact t' in J is the
  best *fraction of attribute positions of t'* explained by some chase
  fact t with h(t) = t':

  - a position holding a **constant** counts iff it equals t' there;
  - a position holding a **null** n counts iff n is *corroborated*: n also
    occurs in another chase fact u of K_theta that itself maps into J by a
    homomorphism consistent with n -> t'[position].

  This reproduces the appendix exactly: theta1's lone null Null2 is not
  corroborated, so task(ML, Alice, Null2) covers task(ML, Alice, 111) to
  degree 2/3, while theta3's Null4 is corroborated through
  org(Null4, SAP) -> org(111, SAP), lifting the degree to 3/3.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from repro.datamodel.instance import Fact, Instance
from repro.datamodel.values import LabeledNull, Value, is_null
from repro.homomorphism.search import FactIndex, fact_matches, has_fact_homomorphism


def repr_order(facts: Iterable[Fact]) -> dict[Fact, int]:
    """Each fact's position in the repr-sorted order of *facts*."""
    return {f: i for i, f in enumerate(sorted(facts, key=repr))}


class CoverComputer:
    """The cover table of J by one candidate's chase instance.

    Construction computes the whole table chase-fact-first: each chase
    fact is matched only against the J facts a :class:`FactIndex` of J
    admits, and every J fact keeps its best :meth:`degree_via` over the
    chase facts matching it.  :attr:`table` lists the non-zero degrees in
    the order of *order* (default: J in repr order), and :meth:`degree`
    is a lookup into it.

    *target_example* is J as an :class:`Instance` or a prebuilt
    :class:`FactIndex` of it; corroboration searches all of it.  *order*
    maps the J facts to tabulate to their positions; facts outside it
    (e.g. outside a sample of J) get no entry.  Callers building many
    tables against one J pass the same index and order to each.

    The chase instance is indexed by null so corroboration checks touch
    only the facts sharing the null; corroboration results are memoized.
    """

    def __init__(
        self,
        chase_instance: Iterable[Fact],
        target_example: Instance | FactIndex,
        order: Mapping[Fact, int] | None = None,
    ):
        if not isinstance(target_example, FactIndex):
            target_example = FactIndex(target_example)
        self._j = target_example
        if order is None:
            order = repr_order(target_example)
        self._facts_with_null: dict[LabeledNull, list[Fact]] = {}
        for f in chase_instance:
            # dict.fromkeys dedups while keeping first-appearance order,
            # so _facts_with_null's key order is chase-order stable.
            for n in dict.fromkeys(f.nulls):
                self._facts_with_null.setdefault(n, []).append(f)
        self._corroboration_cache: dict[tuple[Fact, LabeledNull, Value], bool] = {}
        best: dict[Fact, Fraction] = {}
        for chase_fact in chase_instance:
            for target_fact, _ in self._j.images(chase_fact):
                if target_fact not in order or best.get(target_fact) == 1:
                    continue
                d = self._explained(chase_fact, target_fact)
                if d > best.get(target_fact, 0):
                    best[target_fact] = d
        self.table: dict[Fact, Fraction] = {
            t: best[t] for t in sorted(best, key=order.__getitem__)
        }

    def _is_corroborated(self, origin: Fact, null: LabeledNull, image: Value) -> bool:
        """Does *null* (bound to *image*) occur in another chase fact mapping into J?"""
        key = (origin, null, image)
        cached = self._corroboration_cache.get(key)
        if cached is not None:
            return cached
        result = False
        for witness in self._facts_with_null.get(null, ()):
            if witness == origin:
                continue
            if has_fact_homomorphism(witness, self._j, fixed={null: image}):
                result = True
                break
        self._corroboration_cache[key] = result
        return result

    def degree_via(self, chase_fact: Fact, target_fact: Fact) -> Fraction:
        """Cover degree of *target_fact* via the single *chase_fact* (0 if no hom)."""
        if fact_matches(chase_fact, target_fact) is None:
            return Fraction(0)
        return self._explained(chase_fact, target_fact)

    def _explained(self, chase_fact: Fact, target_fact: Fact) -> Fraction:
        """:meth:`degree_via` for a pair already known to match."""
        explained = 0
        for value, image in zip(chase_fact.values, target_fact.values):
            if not is_null(value):
                explained += 1
            elif self._is_corroborated(chase_fact, value, image):
                explained += 1
        return Fraction(explained, target_fact.arity)

    def degree(self, target_fact: Fact) -> Fraction:
        """Best cover degree of *target_fact* over all chase facts (the paper's covers).

        A lookup into :attr:`table`: 0 for J facts nothing covers and for
        facts outside J or outside *order*.
        """
        return self.table.get(target_fact, Fraction(0))


def covers(chase_instance: Instance, target_fact: Fact, target_example: Instance) -> Fraction:
    """One-shot cover degree; prefer :class:`CoverComputer` for many queries."""
    return CoverComputer(chase_instance, target_example).degree(target_fact)


def creates(chase_fact: Fact, target_example: Instance | FactIndex) -> bool:
    """True iff *chase_fact* has no homomorphic image in the target example.

    Such a fact is a (potential) error of any selection containing the
    candidate that produced it.
    """
    return not has_fact_homomorphism(chase_fact, target_example)


def error_facts(
    chase_instance: Instance, target_example: Instance | FactIndex
) -> list[Fact]:
    """All facts of *chase_instance* that :func:`creates` flags as errors."""
    return [f for f in chase_instance if creates(f, target_example)]
