"""Property-based tests (hypothesis) for core invariants."""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from repro.chase.engine import chase
from repro.datamodel.instance import Instance, fact
from repro.datamodel.values import NullFactory
from repro.homomorphism.search import fact_matches, find_homomorphism
from repro.mappings.atoms import Atom
from repro.mappings.parser import parse_tgd
from repro.mappings.tgd import StTgd
from repro.mappings.terms import Variable
from repro.psl.rounding import local_search, round_solution
from repro.selection.exact import solve_branch_and_bound, solve_exhaustive
from repro.selection.greedy import solve_greedy
from repro.selection.metrics import SelectionProblem, build_selection_problem
from repro.selection.objective import (
    IncrementalObjective,
    ObjectiveWeights,
    objective_breakdown,
    objective_value,
)

# --- strategies -----------------------------------------------------------

values = st.integers(min_value=0, max_value=4)
relation_names = st.sampled_from(["r", "s"])
target_names = st.sampled_from(["u", "v"])


@st.composite
def instances(draw, names=relation_names, arity=2, max_facts=8):
    facts = draw(
        st.lists(
            st.tuples(names, st.tuples(*[values] * arity)),
            max_size=max_facts,
        )
    )
    return Instance(fact(name, *vals) for name, vals in facts)


@st.composite
def full_tgds(draw):
    body_rel = draw(relation_names)
    head_rel = draw(target_names)
    # permutation / projection of two body variables
    xs = [Variable("X0"), Variable("X1")]
    head_terms = draw(st.lists(st.sampled_from(xs), min_size=1, max_size=2))
    return StTgd((Atom(body_rel, tuple(xs)),), (Atom(head_rel, tuple(head_terms)),))


@st.composite
def existential_tgds(draw):
    body_rel = draw(relation_names)
    head_rel = draw(target_names)
    xs = [Variable("X0"), Variable("X1")]
    choices = xs + [Variable("E0")]
    head_terms = draw(st.lists(st.sampled_from(choices), min_size=1, max_size=3))
    return StTgd((Atom(body_rel, tuple(xs)),), (Atom(head_rel, tuple(head_terms)),))


# --- chase properties -------------------------------------------------------


@given(instances(), st.lists(existential_tgds(), max_size=3))
@settings(max_examples=60, deadline=None)
def test_chase_runs_are_isomorphic_up_to_nulls(source, tgds):
    """Two chase runs differ only in null labels: homomorphic both ways."""
    a = chase(source, tgds, NullFactory(0)).instance
    b = chase(source, tgds, NullFactory(10_000)).instance
    assert find_homomorphism(a, b) is not None
    assert find_homomorphism(b, a) is not None


@given(instances(), full_tgds())
@settings(max_examples=60, deadline=None)
def test_full_tgd_chase_is_deterministic_and_ground(source, tgd):
    result = chase(source, [tgd]).instance
    assert result.is_ground
    assert result == chase(source, [tgd]).instance


@given(instances(), st.lists(existential_tgds(), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_chase_of_subset_of_tgds_maps_into_full_chase(source, tgds):
    sub = chase(source, tgds[:1]).instance
    full = chase(source, tgds).instance
    assert find_homomorphism(sub, full) is not None


# --- homomorphism properties ------------------------------------------------


@given(instances(names=st.sampled_from(["r"])), instances(names=st.sampled_from(["r"])))
@settings(max_examples=60, deadline=None)
def test_fact_matches_binding_actually_maps(a, b):
    for f in a:
        for g in b.facts_of(f.relation):
            binding = fact_matches(f, g)
            if binding is not None:
                assert f.substitute(binding) == g


# --- canonicalization properties ---------------------------------------------


@given(existential_tgds(), st.permutations(["A", "B", "C", "X0", "X1", "E0"]))
@settings(max_examples=60, deadline=None)
def test_canonical_invariant_under_renaming(tgd, fresh_names):
    renaming = {
        v: Variable(f"fresh_{fresh_names[i]}")
        for i, v in enumerate(sorted(tgd.universal_variables | tgd.existential_variables, key=lambda v: v.name))
    }
    assert tgd.rename(renaming).canonical() == tgd.canonical()


# --- selection objective properties ------------------------------------------


@st.composite
def selection_problems(draw):
    source = draw(instances(max_facts=6))
    target = draw(instances(names=target_names, max_facts=6))
    tgds = draw(st.lists(existential_tgds(), min_size=1, max_size=4))
    return build_selection_problem(source, target, tgds)


@given(selection_problems(), st.data())
@settings(max_examples=40, deadline=None)
def test_size_and_error_terms_monotone_coverage_antimonotone(problem, data):
    from repro.selection.objective import objective_breakdown

    n = problem.num_candidates
    small = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    extra = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    large = small | extra
    b_small = objective_breakdown(problem, small)
    b_large = objective_breakdown(problem, large)
    assert b_large.size >= b_small.size
    assert b_large.errors >= b_small.errors
    assert b_large.unexplained <= b_small.unexplained


@given(selection_problems())
@settings(max_examples=30, deadline=None)
def test_branch_and_bound_matches_exhaustive(problem):
    assert (
        solve_branch_and_bound(problem).objective
        == solve_exhaustive(problem).objective
    )


@given(selection_problems())
@settings(max_examples=30, deadline=None)
def test_greedy_never_beats_exact_and_never_worse_than_trivial(problem):
    greedy = solve_greedy(problem)
    exact = solve_branch_and_bound(problem)
    assert exact.objective <= greedy.objective
    assert greedy.objective <= objective_value(problem, [])
    assert greedy.objective <= objective_value(problem, range(problem.num_candidates))


@given(selection_problems())
@settings(max_examples=20, deadline=None)
def test_collective_upper_bounds_exact_and_beats_trivial(problem):
    from repro.selection.collective import solve_collective

    collective = solve_collective(problem)
    exact = solve_branch_and_bound(problem)
    assert exact.objective <= collective.objective
    trivial = min(
        objective_value(problem, []),
        objective_value(problem, range(problem.num_candidates)),
    )
    assert collective.objective <= trivial


@given(selection_problems())
@settings(max_examples=30, deadline=None)
def test_objective_values_are_exact_fractions(problem):
    value = objective_value(problem, range(problem.num_candidates))
    assert isinstance(value, Fraction)
    assert value >= 0


# --- the incremental objective engine -----------------------------------------


@st.composite
def synthetic_problems(draw, max_candidates=5):
    """Cover tables drawn directly: J facts covered at several degrees at
    once and error facts shared between candidates, which small chased
    scenarios rarely produce."""
    j_facts = [fact("u", k) for k in range(draw(st.integers(1, 6)))]
    error_pool = [fact("v", k) for k in range(4)]
    n = draw(st.integers(1, max_candidates))
    degrees = st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)])
    x = Variable("X0")
    tgd = StTgd((Atom("r", (x,)),), (Atom("u", (x,)),))
    return SelectionProblem(
        candidates=[tgd] * n,
        source=Instance(),
        target=Instance(j_facts),
        j_facts=j_facts,
        covers=[draw(st.dictionaries(st.sampled_from(j_facts), degrees)) for _ in range(n)],
        error_facts=[draw(st.frozensets(st.sampled_from(error_pool))) for _ in range(n)],
        sizes=draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
    )


objective_problems = st.one_of(selection_problems(), synthetic_problems())
weight_values = st.fractions(min_value=0, max_value=3, max_denominator=4)
objective_weights = st.builds(
    ObjectiveWeights, explains=weight_values, errors=weight_values, size=weight_values
)


@given(objective_problems, objective_weights, st.data())
@settings(max_examples=60, deadline=None)
def test_incremental_objective_tracks_batch_under_random_moves(problem, weights, data):
    engine = IncrementalObjective(problem, weights)
    n = problem.num_candidates
    index = st.integers(0, n - 1)
    moves = data.draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("add"), index),
                st.tuples(st.just("remove"), index),
                st.tuples(st.just("value_of"), st.frozensets(index)),
            ),
            max_size=16,
        )
    )
    expected = set()
    for kind, arg in moves:
        if kind == "add":
            engine.add(arg)  # re-adding a selected candidate is a no-op
            expected.add(arg)
        elif kind == "remove":
            engine.remove(arg)  # removing an unselected one is a no-op
            expected.discard(arg)
        else:
            value = engine.value_of(arg)
            expected = set(arg)
            assert value == objective_breakdown(problem, arg, weights).total
        assert engine.selected == expected
        assert engine.value == objective_breakdown(problem, expected, weights).total
        # Every single flip away from here, undone again: removals
        # exercise the runner-up degree, additions delta_add.
        for i in range(n):
            if i in expected:
                engine.remove(i)
                assert engine.value == objective_value(problem, expected - {i}, weights)
                engine.add(i)
            else:
                after = objective_value(problem, expected | {i}, weights)
                assert engine.delta_add(i) == after - engine.value


fractional_vectors = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)


@given(objective_problems, objective_weights, fractional_vectors, st.booleans())
@settings(max_examples=60, deadline=None)
def test_rounding_with_engine_matches_rounding_with_oracle(
    problem, weights, values, with_local_search
):
    fractional = dict(enumerate(values[: problem.num_candidates]))
    engine = IncrementalObjective(problem, weights)
    assert round_solution(
        fractional, engine.value_of, with_local_search=with_local_search
    ) == round_solution(
        fractional,
        lambda s: objective_value(problem, s, weights),
        with_local_search=with_local_search,
    )


@given(objective_problems, objective_weights, fractional_vectors, st.data())
@settings(max_examples=60, deadline=None)
def test_local_search_never_increases_the_objective(problem, weights, values, data):
    # MM descent: every accepted 1-flip strictly lowers F.
    fractional = dict(enumerate(values[: problem.num_candidates]))
    start = data.draw(st.frozensets(st.sampled_from(sorted(fractional))))
    engine = IncrementalObjective(problem, weights)
    result = local_search(start, fractional, engine.value_of)
    assert objective_value(problem, result, weights) <= objective_value(
        problem, start, weights
    )


@given(objective_problems, objective_weights, st.data())
@settings(max_examples=60, deadline=None)
def test_lower_bound_never_exceeds_the_best_completion(problem, weights, data):
    n = problem.num_candidates
    order = data.draw(st.permutations(range(n)))
    engine = IncrementalObjective(problem, weights)
    suffixes = engine.suffix_covers(order)
    assert engine.lower_bound(suffixes[0]) <= solve_exhaustive(problem, weights).objective
    depth = data.draw(st.integers(0, n))
    decided = {i for i in order[:depth] if data.draw(st.booleans())}
    engine.value_of(decided)
    undecided = order[depth:]
    best_completion = min(
        objective_value(problem, decided | set(extra), weights)
        for k in range(len(undecided) + 1)
        for extra in combinations(undecided, k)
    )
    assert engine.lower_bound(suffixes[depth]) <= best_completion
