"""Unit tests for facts and instances."""

import pytest

from repro.datamodel.instance import DataExample, Fact, Instance, fact
from repro.datamodel.schema import Schema, relation
from repro.datamodel.values import Constant, LabeledNull
from repro.errors import InstanceError


def test_fact_helper_wraps_constants():
    f = fact("task", "ML", "Alice", 111)
    assert f.values == (Constant("ML"), Constant("Alice"), Constant(111))


def test_fact_helper_keeps_nulls():
    n = LabeledNull(5)
    f = fact("task", "ML", n)
    assert f.values[1] is n
    assert f.nulls == (n,)
    assert not f.is_ground


def test_ground_fact_has_no_nulls():
    assert fact("r", 1, 2).is_ground


def test_fact_substitute():
    n = LabeledNull(0)
    f = fact("r", "a", n)
    g = f.substitute({n: Constant(111)})
    assert g == fact("r", "a", 111)
    assert f.values[1] is n  # original untouched


def test_instance_add_and_membership():
    inst = Instance()
    assert inst.add(fact("r", 1))
    assert not inst.add(fact("r", 1))  # duplicate
    assert fact("r", 1) in inst
    assert fact("r", 2) not in inst
    assert len(inst) == 1


def test_instance_discard():
    inst = Instance([fact("r", 1)])
    assert inst.discard(fact("r", 1))
    assert not inst.discard(fact("r", 1))
    assert len(inst) == 0
    assert inst.relation_names == frozenset()


def test_instance_facts_of_groups_by_relation():
    inst = Instance([fact("r", 1), fact("r", 2), fact("s", 1)])
    assert inst.facts_of("r") == {fact("r", 1), fact("r", 2)}
    assert inst.facts_of("missing") == frozenset()


def test_instance_union_and_difference():
    a = Instance([fact("r", 1), fact("r", 2)])
    b = Instance([fact("r", 2), fact("s", 3)])
    assert set(a | b) == {fact("r", 1), fact("r", 2), fact("s", 3)}
    assert set(a - b) == {fact("r", 1)}


def test_instance_equality_is_set_based():
    assert Instance([fact("r", 1), fact("r", 2)]) == Instance([fact("r", 2), fact("r", 1)])
    assert Instance([fact("r", 1)]) != Instance([fact("r", 2)])


def test_instance_copy_is_independent():
    a = Instance([fact("r", 1)])
    b = a.copy()
    b.add(fact("r", 2))
    assert len(a) == 1
    assert len(b) == 2


def test_instance_nulls_and_groundness():
    n = LabeledNull(9)
    inst = Instance([fact("r", 1), fact("r", n)])
    assert inst.nulls == {n}
    assert not inst.is_ground
    assert Instance([fact("r", 1)]).is_ground


def test_validate_against_schema():
    schema = Schema("S")
    schema.add(relation("r", "a", "b"))
    Instance([fact("r", 1, 2)]).validate_against(schema)
    with pytest.raises(InstanceError):
        Instance([fact("r", 1)]).validate_against(schema)  # wrong arity
    with pytest.raises(InstanceError):
        Instance([fact("q", 1)]).validate_against(schema)  # unknown relation


def test_non_fact_membership_is_false():
    assert "not a fact" not in Instance([fact("r", 1)])


def test_data_example_holds_both_sides():
    ex = DataExample(Instance([fact("r", 1)]), Instance([fact("t", 2)]))
    assert fact("r", 1) in ex.source
    assert fact("t", 2) in ex.target


def test_iteration_is_insertion_ordered():
    # Hash-order iteration here leaked the per-process hash seed into
    # the scenario generator's skolem-constant numbering, making
    # "deterministic" generation differ across processes.
    facts = [fact("r", f"a{i}") for i in range(20)] + [fact("s", i) for i in range(5)]
    inst = Instance(facts)
    assert list(inst) == facts
    # Discard-then-re-add moves a fact to the back of its bucket —
    # iteration tracks current insertion order, not history.
    inst.discard(facts[0])
    inst.add(facts[0])
    assert list(inst) == facts[1:20] + [facts[0]] + facts[20:]


def test_scenario_generation_is_hash_seed_independent():
    # End to end: same config, same bytes, whatever the hash seed.
    import subprocess
    import sys

    from tests._subprocess import child_env

    script = (
        "from repro.ibench.config import ScenarioConfig\n"
        "from repro.ibench.generator import generate_scenario\n"
        "s = generate_scenario(ScenarioConfig(num_primitives=3, rows_per_relation=6, seed=11))\n"
        "print(sorted(repr(f) for f in s.target))\n"
        "print(sorted(repr(f) for f in s.source))\n"
    )
    outputs = set()
    for seed in ("1", "2"):
        outputs.add(
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env=child_env(PYTHONHASHSEED=seed),
            ).stdout
        )
    assert len(outputs) == 1
