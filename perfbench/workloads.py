"""The benchmark's three workloads: select-large, noise-sweep, edit-chain.

Each workload is driven by ``run.py`` in a closed loop:

* ``setup(seed, workdir)`` makes the inputs from the seed (untimed by the
  loop, counted in ``setup_s``);
* ``prepare()`` restores the per-operation starting state (untimed);
* ``run()`` is one timed operation and returns its raw outputs;
* ``check(output)`` verifies the outputs (untimed) and returns them as
  reference records, ``{key: {selected, objective, data_f1, map_f1}}``.

Every workload runs one fixed scenario structure per seed, so a run
measures the same amount of work whatever the seed: select-large and
edit-chain run an isomorphic copy of their scenario of record (constants
permuted, candidates reordered, both from the seed), and noise-sweep
runs its fixed lanes with the noise levels in a seeded order.  Cost at
these sizes varies by 30% between generator seeds (and branch and bound
by 30x between sweep lanes), which would make the figures measure the
draw instead of the code.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import groupby

import repro.evaluation.engine as engine
import repro.io.serialize as serialize
import repro.selection.collective as collective
from repro.evaluation.metrics import data_quality, mapping_quality
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.ibench.mutations import AddTargetTuple, MutableSelection, RemoveTargetTuple
from repro.selection.metrics import build_selection_problem, problem_fingerprint
from repro.selection.objective import (
    DEFAULT_WEIGHTS,
    ObjectiveWeights,
    objective_breakdown,
)


class CheckFailed(Exception):
    """An operation's output disagrees with a check."""


def relabel(payload: dict, seed: int) -> dict:
    """An isomorphic copy of a scenario JSON payload, drawn from *seed*.

    Constants are permuted consistently across every instance of the
    scenario and the candidate list is reordered (gold indices follow),
    so the selection problem keeps its size and structure while every
    repr-sorted order the pipeline uses changes.
    """
    rng = random.Random(seed)
    instances = ("source", "target", "reference_target", "deleted_facts", "added_facts")
    constants = sorted(
        {v for key in instances for _, values in payload[key] for v in values if isinstance(v, str)}
    )
    shuffled = list(constants)
    rng.shuffle(shuffled)
    rename = dict(zip(constants, shuffled))
    out = dict(payload)
    for key in instances:
        out[key] = [
            [relation, [rename.get(v, v) if isinstance(v, str) else v for v in values]]
            for relation, values in payload[key]
        ]
    order = list(range(len(payload["candidates"])))
    rng.shuffle(order)
    out["candidates"] = [payload["candidates"][i] for i in order]
    position = {old: new for new, old in enumerate(order)}
    out["gold_indices"] = sorted(position[i] for i in payload["gold_indices"])
    return out


def record(problem, selected, objective, weights, data_f1, map_f1) -> dict:
    """One method's output as a reference record, re-scored from scratch."""
    rescored = objective_breakdown(problem, selected, weights).total
    if rescored != objective:
        raise CheckFailed(f"objective {objective} but from-scratch re-score {rescored}")
    return {
        "selected": sorted(selected),
        "objective": str(objective),
        "data_f1": data_f1,
        "map_f1": map_f1,
    }


def cell_records(cells, problem, prefix: str = "") -> dict:
    return {
        prefix + cell.method: record(
            problem,
            cell.run.selected,
            cell.run.objective,
            DEFAULT_WEIGHTS,
            cell.run.data.f1,
            cell.run.mapping.f1,
        )
        for cell in cells
    }


class SelectLarge:
    """``repro select``'s work on one saved 64-primitive scenario."""

    name = "select-large"
    #: The ROADMAP's scale of record: |C| = 110, |J| = 1979.
    config = ScenarioConfig(num_primitives=64, rows_per_relation=20, seed=1)
    methods = ("collective", "greedy", "all-candidates")
    min_ops = 1

    def setup(self, seed: int, workdir) -> None:
        payload = relabel(serialize.scenario_to_json(generate_scenario(self.config)), seed)
        self.path = workdir / "select-large.json"
        serialize.save_scenario(serialize.scenario_from_json(payload), self.path)

    def prepare(self) -> None:
        collective.GROUNDING_CACHE.clear()

    def run(self):
        scenario = serialize.load_scenario(self.path)
        problem = scenario.selection_problem()
        methods = {m: engine.METHOD_REGISTRY[m] for m in self.methods}
        cells = engine.run_scenario(scenario, methods, problem=problem)
        return problem, cells

    def check(self, output) -> dict:
        problem, cells = output
        return cell_records(cells, problem)

    @staticmethod
    def cells(output) -> int:
        return len(output[1])

    @staticmethod
    def steps(output, seconds: float) -> list[float]:
        return [seconds]


class NoiseSweep:
    """One ``EvaluationEngine.sweep`` over pi_corresp on small scenarios."""

    name = "noise-sweep"
    base = ScenarioConfig(num_primitives=8, rows_per_relation=12)
    levels = (0, 25, 50, 75, 100)
    lanes = (1, 2, 3)
    methods = ("collective", "greedy", "all-candidates", "exact")
    min_ops = 1

    def setup(self, seed: int, workdir) -> None:
        order = list(self.levels)
        random.Random(seed).shuffle(order)
        self.order = tuple(order)

    def prepare(self) -> None:
        collective.GROUNDING_CACHE.clear()
        self.engine = engine.EvaluationEngine(methods=self.methods)

    def run(self):
        return self.engine.sweep(self.base, "pi_corresp", self.order, self.lanes)

    def check(self, output) -> dict:
        records = {}
        for config, cells in groupby(output.grid.cells, key=lambda c: c.config):
            cells = list(cells)
            problem, _ = self.engine.cache.problem(config)
            objectives = {c.method: c.run.objective for c in cells}
            worse = [m for m, value in objectives.items() if value < objectives["exact"]]
            if worse:
                raise CheckFailed(f"{config}: {worse} beat the exact optimum")
            prefix = f"{config.pi_corresp:g}/{config.seed}/"
            records.update(cell_records(cells, problem, prefix))
        return records

    @staticmethod
    def cells(output) -> int:
        return len(output.grid.cells)

    @staticmethod
    def steps(output, seconds: float) -> list[float]:
        """Per noise level — one point of the paper's figure, all lanes:
        generation + build + every method's solve, from ``CellTiming``.

        Single grid points cluster by lane (branch and bound costs 4x more
        on lane 3 than on lane 2), so their median jumps between clusters;
        levels do not cluster.
        """
        return [
            sum(c.timing.total_seconds for c in cells)
            for _, cells in groupby(output.grid.cells, key=lambda c: c.config.pi_corresp)
        ]


#: Weight edits cycle through these (all positive, so every one re-solves
#: on the cached structure).
EDIT_WEIGHTS = (
    ObjectiveWeights(),
    ObjectiveWeights(explains=Fraction(3, 2)),
    ObjectiveWeights(size=Fraction(3, 4)),
)


class EditChain:
    """Data and weight edits on one scenario, each re-solved collectively.

    Step 0 solves the base problem (a fresh ground).  After it, every
    third step is a data edit — remove, then re-add, one of the four
    latest-sorting target tuples, rebuilt by ``MutableSelection`` and
    grounded by the patch tier — and the other steps are weight edits
    re-solved on the cached structure (hit plus reweight).
    """

    name = "edit-chain"
    config = ScenarioConfig(num_primitives=16, rows_per_relation=20, seed=1)
    pool_size = 4
    data_every = 3
    #: p75 of the step latencies is the tail; 40 steps keep 10 beyond it.
    min_ops = 40

    def setup(self, seed: int, workdir) -> None:
        payload = relabel(serialize.scenario_to_json(generate_scenario(self.config)), seed)
        self.scenario = serialize.scenario_from_json(payload)
        self.chain = MutableSelection(
            self.scenario.source, self.scenario.target, self.scenario.candidates
        )
        self.pool = sorted(self.chain.target, key=repr)[-self.pool_size :]
        self.settings = [collective.CollectiveSettings(weights=w) for w in EDIT_WEIGHTS]
        self.step = 0
        self.data_edits = 0
        self.weights = 0
        self.removed = None
        self.checked_revision = None
        self.fingerprints: dict = {}
        self.data_f1: dict = {}
        collective.GROUNDING_CACHE.clear()

    def prepare(self) -> None:
        pass

    def run(self):
        if self.step > 0 and self.step % self.data_every == 1:
            fact = self.pool[(self.data_edits // 2) % self.pool_size]
            if self.data_edits % 2 == 0:
                self.chain.apply(RemoveTargetTuple(fact))
                self.removed = fact
            else:
                self.chain.apply(AddTargetTuple(fact))
                self.removed = None
            self.data_edits += 1
        elif self.step > 0:
            self.weights = (self.weights + 1) % len(EDIT_WEIGHTS)
        self.step += 1
        problem = self.chain.problem
        result = collective.solve_collective(problem, self.settings[self.weights])
        return problem, self.removed, self.weights, result

    def check(self, output) -> dict:
        problem, removed, weights, result = output
        state = "-" if removed is None else repr(removed)
        if problem is not self.checked_revision:
            if state not in self.fingerprints:
                scratch = build_selection_problem(
                    problem.source, problem.target, problem.candidates
                )
                self.fingerprints[state] = problem_fingerprint(scratch)
            if problem_fingerprint(problem) != self.fingerprints[state]:
                raise CheckFailed(f"revision without {state} differs from a from-scratch build")
            self.checked_revision = problem
        selected = result.selected
        if selected not in self.data_f1:
            tgds = [problem.candidates[i] for i in sorted(selected)]
            self.data_f1[selected] = data_quality(
                self.scenario.source, tgds, self.scenario.reference_target
            ).f1
        map_f1 = mapping_quality(selected, self.scenario.gold_indices).f1
        return {
            f"{state}|w{weights}": record(
                problem,
                selected,
                result.objective,
                EDIT_WEIGHTS[weights],
                self.data_f1[selected],
                map_f1,
            )
        }

    @staticmethod
    def cells(output) -> int:
        return 1

    @staticmethod
    def steps(output, seconds: float) -> list[float]:
        return [seconds]


WORKLOADS = {w.name: w for w in (SelectLarge, NoiseSweep, EditChain)}
