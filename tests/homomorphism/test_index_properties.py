"""Property tests: indexed matching and chase-fact-first covers agree with scans.

Random instances draw constants and labeled nulls on both sides (J may
hold nulls), and fixed maps may bind a null to a constant or to another
null.  The oracles are the plain definitions: a linear scan over every
fact of the relation, and each J fact's cover degree as the best
``degree_via`` over all chase facts, corroborated by linear scans.
"""

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.datamodel.instance import Fact, Instance
from repro.datamodel.values import Constant, LabeledNull, is_null
from repro.homomorphism.covers import creates
from repro.homomorphism.search import (
    FactIndex,
    fact_homomorphisms,
    fact_matches,
    has_fact_homomorphism,
)
from repro.selection.metrics import IndexedTarget, cover_and_error_tables

# --- strategies -----------------------------------------------------------

constants = st.integers(min_value=0, max_value=3).map(Constant)
nulls = st.integers(min_value=0, max_value=3).map(LabeledNull)
values = st.one_of(constants, nulls)
#: Relation ``r`` appears at two arities, so the arity check is exercised.
shapes = st.sampled_from([("r", 2), ("r", 3), ("s", 2)])


@st.composite
def facts(draw):
    relation, arity = draw(shapes)
    return Fact(relation, tuple(draw(values) for _ in range(arity)))


def instances(max_size=12):
    return st.lists(facts(), max_size=max_size).map(Instance)


fixed_maps = st.dictionaries(nulls, values, max_size=3)


# --- oracles --------------------------------------------------------------


def scan_bindings(f, instance, fixed):
    """fact_homomorphisms by definition: try every fact in the instance."""
    found = (fact_matches(f, t, fixed) for t in instance)
    return Counter(frozenset(b.items()) for b in found if b is not None)


def oracle_covers(chase_facts, target, order):
    """Per J fact: the best cover over every chase fact, by linear scans."""

    def corroborated(origin, null, image):
        return any(
            witness != origin
            and null in witness.values
            and has_fact_homomorphism(witness, target, fixed={null: image})
            for witness in chase_facts
        )

    def degree_via(f, t):
        if fact_matches(f, t) is None:
            return Fraction(0)
        explained = sum(
            1
            for value, image in zip(f.values, t.values)
            if not is_null(value) or corroborated(f, value, image)
        )
        return Fraction(explained, t.arity)

    table = {}
    for t in sorted(order, key=order.__getitem__):
        best = max((degree_via(f, t) for f in chase_facts), default=Fraction(0))
        if best > 0:
            table[t] = best
    return table


# --- properties -----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(instances(), facts(), fixed_maps)
def test_indexed_bindings_equal_linear_scan(instance, f, fixed):
    index = FactIndex(instance)
    expected = scan_bindings(f, instance, fixed)
    indexed = Counter(frozenset(b.items()) for b in fact_homomorphisms(f, index, fixed))
    unindexed = Counter(frozenset(b.items()) for b in fact_homomorphisms(f, instance, fixed))
    assert indexed == unindexed == expected
    assert has_fact_homomorphism(f, index, fixed) == bool(expected)
    assert has_fact_homomorphism(f, instance, fixed) == bool(expected)


@settings(max_examples=300, deadline=None)
@given(instances(), facts())
def test_creates_unchanged_by_index(instance, f):
    expected = not any(fact_matches(f, t) is not None for t in instance)
    assert creates(f, instance) == creates(f, FactIndex(instance)) == expected


@settings(max_examples=200, deadline=None)
@given(instances(), instances(), st.data())
def test_cover_table_equals_per_fact_definition(chase_instance, target, data):
    chase_facts = list(chase_instance)
    indexed = IndexedTarget.of(target)
    covers, errors = cover_and_error_tables(chase_facts, indexed)
    expected = oracle_covers(chase_facts, target, indexed.order)
    # Same entries, in the same (repr-sorted J) order.
    assert list(covers.items()) == list(expected.items())
    assert errors == {
        f for f in chase_facts if all(fact_matches(f, t) is None for t in target)
    }

    # A sample of J: only sampled facts are tabulated, while
    # corroboration still searches all of J.
    pool = sorted(target, key=repr)
    sample = data.draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    order = {t: i for i, t in enumerate(sorted(sample, key=repr))}
    sampled, _ = cover_and_error_tables(chase_facts, IndexedTarget(indexed.index, order))
    assert list(sampled.items()) == list(oracle_covers(chase_facts, target, order).items())
