"""The scenario-evaluation engine: (scenario × method × seed) grids.

The paper's evaluation — and every figure/table benchmark in this repo —
is a sweep: generate a scenario per (noise level, seed), build its
selection problem, run each selection method, score the result.  The
engine turns that single-shot loop into a reusable, parallelizable grid
runner:

* **work units** — one :class:`ConfigCells` job per scenario config runs
  every requested method on that scenario.  Jobs are picklable and
  independent, so they execute through any
  :class:`~repro.executors.MapExecutor` (serial or process pool);
* **scenario caching** — scenarios and their
  :class:`~repro.selection.metrics.SelectionProblem` tables are memoized
  per process, so a config appearing in several grids is generated and
  chased once; with a ``cache_dir`` the cache also spills to disk keyed
  by config hash, so repeated benchmark *sessions* skip generation too;
* **sharded grounding** — the collective method's HL-MRF compilation
  runs in shards (:func:`~repro.selection.collective.ground_collective`)
  whose size the engine's ``ground_shard_size`` knob sets; one cell's
  problem is always built, ground and solved in the process running the
  cell — the grid of cells is the parallel axis;
* **per-cell timing** — every :class:`GridCell` records scenario
  generation, problem build, and solve time separately;
* **warm starting** — the collective method chains ADMM warm starts
  across the cells of a sweep lane (one lane per seed) via
  :class:`~repro.selection.collective.WarmStartedCollective`; serial
  runs keep one solver per lane, parallel runs execute the lanes as
  waves and ship each cell's chained state
  (:class:`~repro.selection.collective.CollectiveWarmPayload`) to the
  lane's next cell inside the work unit.

:func:`repro.evaluation.harness.run_methods`, the CLI ``sweep``/``select``
commands, and :mod:`benchmarks.sweeps` all sit on top of this module.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.errors import ReproError
from repro.executors import MapExecutor, SerialExecutor, resolve_executor
from repro.ibench.config import ScenarioConfig
from repro.ibench.generator import generate_scenario
from repro.ibench.scenario import Scenario
from repro.selection.baselines import select_all, solve_independent
from repro.selection.collective import (
    CollectiveSettings,
    CollectiveWarmPayload,
    WarmStartedCollective,
    solve_collective,
)
from repro.selection.exact import SelectionResult, solve_branch_and_bound
from repro.selection.greedy import solve_greedy
from repro.selection.metrics import SelectionProblem, build_selection_problem
from repro.selection.objective import ObjectiveWeights

Solver = Callable[[SelectionProblem], SelectionResult]

#: Every selection method the engine can run by name.  Values are
#: module-level callables, so the registry survives pickling into workers.
METHOD_REGISTRY: dict[str, Solver] = {
    "collective": solve_collective,
    "greedy": solve_greedy,
    "all-candidates": select_all,
    "exact": solve_branch_and_bound,
    "independent": solve_independent,
}

#: The methods the paper's figures sweep over, in column order.
DEFAULT_GRID_METHODS = ("collective", "greedy", "all-candidates")


@dataclass(frozen=True)
class CellTiming:
    """Wall-clock breakdown of one grid cell.

    Generation and problem-build time are attributed to the first cell
    that needed the scenario; cells served from the cache report 0.0.
    """

    generate_seconds: float
    problem_seconds: float
    solve_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.generate_seconds + self.problem_seconds + self.solve_seconds


@dataclass(frozen=True)
class GridCell:
    """One (scenario config, method) evaluation outcome."""

    config: ScenarioConfig
    method: str
    run: "MethodRun"
    timing: CellTiming


#: Bump when the on-disk scenario/problem formats (or the generation /
#: chasing semantics behind them) change: the version is folded into the
#: cache key, so entries from older formats are simply never matched.
#: v2: :class:`~repro.selection.metrics.SelectionProblem` pickles carried
#: a ``lineage`` revision field; v3: they no longer do.
CACHE_FORMAT_VERSION = 3


def config_hash(config: ScenarioConfig) -> str:
    """A stable hex digest of a scenario config — the disk-cache key.

    Built from the frozen dataclass repr (deterministic field rendering)
    plus :data:`CACHE_FORMAT_VERSION`, so equal configs hash equally
    across processes and sessions but never across incompatible cache
    formats.  The version cannot detect arbitrary code changes — clear
    the cache directory after modifying scenario generation or chasing
    if the constant was not bumped.
    """
    key = f"v{CACHE_FORMAT_VERSION}:{config!r}"
    return hashlib.sha256(key.encode()).hexdigest()[:20]


class ScenarioCache:
    """Memoizes scenarios and their selection problems by config.

    One instance lives in each worker process (module-level singleton) and
    one in the driving process, so repeated grid points never re-chase.

    With *cache_dir* set, the cache is two-level: misses fall through to
    disk (``<hash>.scenario.json`` via the stable JSON format of
    :mod:`repro.io.serialize`; ``<hash>.problem.pkl`` for the chased
    metric tables), and fresh results are written back, so repeated
    benchmark *sessions* skip generation and chasing entirely.  Disk
    failures (corrupt or unreadable files) silently fall back to
    regeneration.  A disk hit reports the load time as the cell's
    generate/build cost; in-memory hits still report 0.0.
    """

    def __init__(self, cache_dir: str | Path | None = None):
        self._scenarios: dict[ScenarioConfig, tuple[Scenario, float]] = {}
        self._problems: dict[ScenarioConfig, tuple[SelectionProblem, float]] = {}
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None

    # -- disk layer --------------------------------------------------------

    def _disk_path(self, config: ScenarioConfig, suffix: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{config_hash(config)}.{suffix}"

    def _load_scenario(self, config: ScenarioConfig) -> Scenario | None:
        path = self._disk_path(config, "scenario.json")
        if path is None or not path.exists():
            return None
        from repro.io.serialize import load_scenario

        try:
            scenario = load_scenario(path)
        except Exception:
            return None
        return scenario if scenario.config == config else None

    def _store_scenario(self, config: ScenarioConfig, scenario: Scenario) -> None:
        path = self._disk_path(config, "scenario.json")
        if path is None:
            return
        from repro.io.serialize import save_scenario

        # Write-then-rename so concurrent sessions sharing a cache_dir
        # never publish a torn file (a corrupt entry would silently
        # defeat the cache for that key forever).
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            save_scenario(scenario, tmp)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)

    #: Everything unpickling a cached problem can raise on a bad entry.
    #: Corruption shows up as ``UnpicklingError``/``EOFError``/``ValueError``;
    #: *version skew* — an entry written by a code revision whose classes
    #: have since moved or lost attributes — as ``ModuleNotFoundError``
    #: (an ``ImportError``) or ``AttributeError``.  Both kinds are plain
    #: cache misses: regenerate and overwrite, never crash.
    _PROBLEM_LOAD_ERRORS = (
        OSError,
        EOFError,
        ValueError,
        TypeError,
        KeyError,
        IndexError,
        ImportError,
        AttributeError,
        pickle.UnpicklingError,
    )

    def _load_problem(self, config: ScenarioConfig) -> SelectionProblem | None:
        path = self._disk_path(config, "problem.pkl")
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
        except self._PROBLEM_LOAD_ERRORS:
            return None
        # Entries are version-wrapped dicts; anything else (including a
        # bare problem from an older layout) is stale and regenerated.
        if not isinstance(payload, dict):
            return None
        if payload.get("format") != CACHE_FORMAT_VERSION:
            return None
        problem = payload.get("problem")
        return problem if isinstance(problem, SelectionProblem) else None

    def _store_problem(self, config: ScenarioConfig, problem: SelectionProblem) -> None:
        path = self._disk_path(config, "problem.pkl")
        if path is None:
            return
        payload = {"format": CACHE_FORMAT_VERSION, "problem": problem}
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with tmp.open("wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)

    # -- lookups -----------------------------------------------------------

    def scenario(self, config: ScenarioConfig) -> tuple[Scenario, float]:
        """The scenario for *config* plus the seconds spent generating it
        (0.0 on an in-memory cache hit)."""
        hit = self._scenarios.get(config)
        if hit is not None:
            return hit[0], 0.0
        start = time.perf_counter()
        scenario = self._load_scenario(config)
        if scenario is None:
            scenario = generate_scenario(config)
            self._store_scenario(config, scenario)
        elapsed = time.perf_counter() - start
        self._scenarios[config] = (scenario, elapsed)
        return scenario, elapsed

    def problem(self, config: ScenarioConfig) -> tuple[SelectionProblem, float]:
        """The selection problem for *config* plus build seconds (0.0 on hit)."""
        hit = self._problems.get(config)
        if hit is not None:
            return hit[0], 0.0
        start = time.perf_counter()
        problem = self._load_problem(config)
        if problem is None:
            scenario, _ = self.scenario(config)
            start = time.perf_counter()
            problem = build_selection_problem(
                scenario.source, scenario.target, scenario.candidates
            )
            self._store_problem(config, problem)
        elapsed = time.perf_counter() - start
        self._problems[config] = (problem, elapsed)
        return problem, elapsed

    def clear(self) -> None:
        """Drop the in-memory layer (disk entries, if any, survive)."""
        self._scenarios.clear()
        self._problems.clear()


#: Per-process cache used by worker-side jobs.
_PROCESS_CACHE = ScenarioCache()


@dataclass(frozen=True)
class ConfigCells:
    """A picklable work unit: run *methods* on the scenario of *config*.

    ``cache_dir`` (if set) points the executing process's scenario cache
    at the shared on-disk cache; ``collective_settings`` configures the
    collective solver (grounding shard size, weights…) wherever the unit
    runs.
    ``warm_payload`` carries the previous lane cell's chained collective
    warm-start state (fractional vectors + full ADMM state) into the
    executing process — the engine's wave scheduler sets it so
    process-pool grids warm-start exactly like serial ones.
    """

    config: ScenarioConfig
    methods: tuple[str, ...]
    include_gold: bool = False
    cache_dir: str | None = None
    collective_settings: CollectiveSettings | None = None
    warm_payload: CollectiveWarmPayload | None = None

    def __call__(self) -> list[GridCell]:
        return evaluate_config_cells(self)


def run_scenario(
    scenario: Scenario,
    methods: Mapping[str, Solver],
    problem: SelectionProblem | None = None,
    include_gold: bool = True,
    config: ScenarioConfig | None = None,
    generate_seconds: float = 0.0,
    problem_seconds: float = 0.0,
) -> list[GridCell]:
    """Run each solver in *methods* on one prepared scenario.

    The engine-level primitive under both the config-grid path and
    :func:`repro.evaluation.harness.run_methods` — any name→solver mapping
    works, including stateful solver instances.
    """
    from repro.evaluation.harness import score_selection

    config = config if config is not None else scenario.config
    if problem is None:
        start = time.perf_counter()
        problem = scenario.selection_problem()
        problem_seconds += time.perf_counter() - start

    cells: list[GridCell] = []
    for method, solver in methods.items():
        start = time.perf_counter()
        result = solver(problem)
        solve_seconds = time.perf_counter() - start
        run = score_selection(
            scenario, problem, method, result.selected, result.objective, solve_seconds
        )
        cells.append(
            GridCell(
                config=config,
                method=method,
                run=run,
                timing=CellTiming(generate_seconds, problem_seconds, solve_seconds),
            )
        )
        # Only the first cell of a scenario pays the shared build costs.
        generate_seconds = problem_seconds = 0.0

    if include_gold:
        from repro.selection.objective import objective_value

        gold = frozenset(scenario.gold_indices)
        run = score_selection(
            scenario, problem, "gold", gold, objective_value(problem, gold), 0.0
        )
        cells.append(
            GridCell(
                config=config,
                method="gold",
                run=run,
                timing=CellTiming(generate_seconds, problem_seconds, 0.0),
            )
        )
    return cells


def evaluate_config_cells(
    work: ConfigCells,
    cache: ScenarioCache | None = None,
    solvers: Mapping[str, Solver] | None = None,
) -> list[GridCell]:
    """Evaluate one config's cells (the executor-side entry point).

    *solvers* overrides registry lookups per method name — the hook the
    serial path uses to substitute warm-started solver instances.
    """
    cache = cache if cache is not None else _PROCESS_CACHE
    # Only the per-process singleton inherits the work unit's cache_dir —
    # caller-provided caches keep whatever directory their owner chose —
    # and it is (re)set per job, so a dirless run never silently reuses a
    # directory leaked by an earlier engine in the same process.
    if cache is _PROCESS_CACHE:
        cache.cache_dir = Path(work.cache_dir) if work.cache_dir is not None else None
    unknown = [m for m in work.methods if m not in METHOD_REGISTRY]
    if unknown:
        raise ReproError(f"unknown methods {unknown}; known: {sorted(METHOD_REGISTRY)}")
    scenario, generate_seconds = cache.scenario(work.config)
    problem, problem_seconds = cache.problem(work.config)
    methods: dict[str, Solver] = {}
    for m in work.methods:
        solver = (solvers or {}).get(m)
        if solver is None:
            solver = METHOD_REGISTRY[m]
            if m == "collective" and work.collective_settings is not None:
                solver = partial(solve_collective, settings=work.collective_settings)
        methods[m] = solver
    return run_scenario(
        scenario,
        methods,
        problem=problem,
        include_gold=work.include_gold,
        config=work.config,
        generate_seconds=generate_seconds,
        problem_seconds=problem_seconds,
    )


def _run_work_unit(work: ConfigCells) -> list[GridCell]:
    """Module-level adapter so process pools can pickle the job."""
    return evaluate_config_cells(work)


def _run_warm_work_unit(
    work: ConfigCells,
) -> tuple[list[GridCell], CollectiveWarmPayload | None]:
    """One lane step: run the cells warm-started from the shipped payload.

    Reconstructs a :class:`WarmStartedCollective` from the work unit's
    ``warm_payload``, runs the cells, and returns the solver's new
    payload (None after an unconverged solve — the chain-reset rule) so
    the engine can thread it into the lane's next wave.
    """
    solver = WarmStartedCollective(work.collective_settings, payload=work.warm_payload)
    cells = evaluate_config_cells(work, solvers={"collective": solver})
    return cells, solver.payload


@dataclass
class GridResult:
    """All cells of a grid run, with structured accessors."""

    cells: list[GridCell] = field(default_factory=list)

    def by_method(self, method: str) -> list[GridCell]:
        return [c for c in self.cells if c.method == method]

    def for_config(self, config: ScenarioConfig) -> list[GridCell]:
        return [c for c in self.cells if c.config == config]

    def methods(self) -> list[str]:
        seen: dict[str, None] = {}
        for c in self.cells:
            seen.setdefault(c.method, None)
        return list(seen)

    @property
    def total_seconds(self) -> float:
        return sum(c.timing.total_seconds for c in self.cells)


class EvaluationEngine:
    """Runs (scenario × method × seed) grids through a pluggable executor.

    Args:
        methods: method names to run per scenario (registry keys);
            defaults to the paper's sweep columns.
        executor: where config jobs run — ``None``/``"serial"`` (default),
            ``"process[:N]"``, or a custom
            :class:`~repro.executors.MapExecutor`.
        include_gold: add the gold-reference row per scenario.
        warm_start: chain ADMM warm starts for the collective method
            across a seed's cells.  Serial grids keep one
            :class:`WarmStartedCollective` per lane; parallel grids run
            the lanes as waves, shipping each cell's chained state to
            the next cell inside the work unit, so both paths produce
            the same warm-started solves.  Chaining is inherently
            sequential within a lane, so waves bound concurrency by the
            number of lanes (seeds) and pay one executor dispatch per
            wave — with few seeds and many workers, a cold grid
            (``warm_start=False``) exposes more parallelism at the cost
            of cold solves.
        cache: scenario cache for the serial path; defaults to a fresh
            private cache (with *cache_dir* applied, when given).
        cache_dir: directory for the persistent scenario/problem cache;
            ``None`` keeps caching in-memory only.
        ground_shard_size: entries per grounding shard (``None`` → the
            sharding default).
    """

    def __init__(
        self,
        methods: Sequence[str] | None = None,
        executor: MapExecutor | str | None = None,
        include_gold: bool = True,
        warm_start: bool = True,
        cache: ScenarioCache | None = None,
        cache_dir: str | Path | None = None,
        ground_shard_size: int | None = None,
    ):
        self.methods = tuple(methods if methods is not None else DEFAULT_GRID_METHODS)
        self.executor = resolve_executor(executor)
        self.include_gold = include_gold
        self.warm_start = warm_start
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.cache = cache if cache is not None else ScenarioCache(cache_dir=cache_dir)
        self.collective_settings: CollectiveSettings | None = None
        if ground_shard_size is not None:
            self.collective_settings = CollectiveSettings(
                ground_shard_size=ground_shard_size
            )

    def run_grid(self, configs: Sequence[ScenarioConfig]) -> GridResult:
        """Evaluate every config; cells come back in (config, method) order."""
        jobs = [
            ConfigCells(
                config,
                self.methods,
                include_gold=self.include_gold,
                cache_dir=self.cache_dir,
                collective_settings=self.collective_settings,
            )
            for config in configs
        ]
        return GridResult(self._execute_jobs(jobs))

    def _execute_jobs(self, jobs: Sequence[ConfigCells]) -> list[GridCell]:
        if isinstance(self.executor, SerialExecutor):
            return self._run_serial(jobs)
        if self.warm_start and "collective" in self.methods:
            return self._run_waves(jobs)
        nested = self.executor.map(_run_work_unit, jobs)
        return [cell for group in nested for cell in group]

    def _run_waves(self, jobs: Sequence[ConfigCells]) -> list[GridCell]:
        # Parallel grids with warm starts: cells of one lane (seed) must
        # run in order so each can chain the previous solve's state, but
        # lanes are independent — so run the grid as waves, one cell per
        # lane at a time, shipping each lane's CollectiveWarmPayload into
        # its next work unit.  Per-lane results are identical to the
        # serial path's because the payload *is* the chained state.
        lanes: dict[int, list[int]] = {}
        for position, job in enumerate(jobs):
            lanes.setdefault(job.config.seed, []).append(position)
        payloads: dict[int, CollectiveWarmPayload | None] = {}
        groups: list[list[GridCell] | None] = [None] * len(jobs)
        depth = max((len(positions) for positions in lanes.values()), default=0)
        for step in range(depth):
            wave = [
                (seed, positions[step])
                for seed, positions in lanes.items()
                if len(positions) > step
            ]
            wave_jobs = [
                replace(jobs[position], warm_payload=payloads.get(seed))
                for seed, position in wave
            ]
            results = self.executor.map(_run_warm_work_unit, wave_jobs)
            for (seed, position), (cells, payload) in zip(wave, results):
                groups[position] = cells
                payloads[seed] = payload
        return [cell for group in groups if group is not None for cell in group]

    def _run_serial(self, jobs: Sequence[ConfigCells]) -> list[GridCell]:
        # One warm-start lane per (method, seed): successive levels of a
        # sweep re-solve a near-identical relaxation, so the previous
        # fractional optimum is an excellent ADMM starting point.  Lanes
        # chain CollectiveWarmPayload batons (like the wave path) rather
        # than one long-lived solver instance, so per-job settings — a
        # weight sweep gives every cell its own weights — are honoured
        # cell by cell.
        lanes: dict[tuple[str, int], CollectiveWarmPayload | None] = {}
        cells: list[GridCell] = []
        for job in jobs:
            solvers: dict[str, Solver] = {}
            lane_solver: WarmStartedCollective | None = None
            key = ("collective", job.config.seed)
            if self.warm_start and "collective" in job.methods:
                lane_solver = WarmStartedCollective(
                    job.collective_settings, payload=lanes.get(key)
                )
                solvers["collective"] = lane_solver
            cells.extend(evaluate_config_cells(job, cache=self.cache, solvers=solvers))
            if lane_solver is not None:
                lanes[key] = lane_solver.payload
        return cells

    def sweep(
        self,
        base: ScenarioConfig,
        noise: str,
        levels: Sequence[float],
        seeds: Sequence[int],
    ) -> "SweepResult":
        """Run the paper's quality-vs-noise grid and aggregate per level."""
        if noise not in ("pi_corresp", "pi_errors", "pi_unexplained"):
            raise ReproError(f"unknown noise parameter {noise!r}")
        configs = [
            replace(base, seed=seed, **{noise: float(level)})
            for level in levels
            for seed in seeds
        ]
        result = self.run_grid(configs)
        return SweepResult(
            noise=noise,
            levels=tuple(float(level) for level in levels),
            seeds=tuple(seeds),
            grid=result,
        )

    def weight_sweep(
        self,
        base: ScenarioConfig,
        weight_grid: Sequence["ObjectiveWeights"],
        seeds: Sequence[int],
    ) -> "WeightSweepResult":
        """Sweep the objective weights on a *fixed* scenario structure.

        Every cell of one seed's lane re-solves the **same** selection
        problem under different :class:`~repro.selection.objective.
        ObjectiveWeights`.  The scenario/problem come from the scenario
        cache and the collective method's grounding from the per-process
        :data:`~repro.selection.collective.GROUNDING_CACHE`, so after a
        lane's first cell each further cell only *reweights* the cached
        ground structure and re-solves (warm-started, when enabled) —
        no re-generation, no re-chase, no re-ground.  Results are
        bit-identical to grounding each cell from scratch.

        Note the gold reference row (``include_gold``) is scored at the
        default objective weights, like everywhere else in the engine.
        """
        base_settings = (
            self.collective_settings
            if self.collective_settings is not None
            else CollectiveSettings()
        )
        jobs = [
            ConfigCells(
                replace(base, seed=seed),
                self.methods,
                include_gold=self.include_gold,
                cache_dir=self.cache_dir,
                collective_settings=replace(base_settings, weights=weights),
            )
            for weights in weight_grid
            for seed in seeds
        ]
        cells = self._execute_jobs(jobs)
        return WeightSweepResult(
            weight_grid=tuple(weight_grid),
            seeds=tuple(seeds),
            cells_per_job=len(self.methods) + int(self.include_gold),
            grid=GridResult(cells),
        )


@dataclass
class SweepResult:
    """A noise sweep's cells plus figure-ready aggregation."""

    noise: str
    levels: tuple[float, ...]
    seeds: tuple[int, ...]
    grid: GridResult

    def mean_f1_rows(self, methods: Sequence[str] | None = None) -> list[list[float]]:
        """``[level, mean data-F1 per method...]`` rows, sweep order."""
        from repro.evaluation.reporting import mean

        methods = list(methods if methods is not None else self.grid.methods())
        rows = []
        for level in self.levels:
            per_method: dict[str, list[float]] = {m: [] for m in methods}
            for cell in self.grid.cells:
                if getattr(cell.config, self.noise) == level and cell.method in per_method:
                    per_method[cell.method].append(cell.run.data.f1)
            rows.append([level] + [mean(per_method[m]) for m in methods])
        return rows


def weights_label(weights: ObjectiveWeights) -> str:
    """Compact ``explains/errors/size`` rendering for table rows."""
    return (
        f"{float(weights.explains):g}/{float(weights.errors):g}/"
        f"{float(weights.size):g}"
    )


@dataclass
class WeightSweepResult:
    """A weight sweep's cells plus per-weight-setting aggregation.

    The grid's cells arrive in job order — ``cells_per_job`` consecutive
    cells per (weight setting × seed) job, weight-setting-major — which
    is what :meth:`cells_by_weight` slices on (scenario configs alone
    cannot distinguish weight settings: the whole point of the sweep is
    that the scenario is fixed).
    """

    weight_grid: tuple[ObjectiveWeights, ...]
    seeds: tuple[int, ...]
    cells_per_job: int
    grid: GridResult

    def cells_by_weight(self) -> list[tuple[ObjectiveWeights, list[GridCell]]]:
        """All cells grouped per weight setting, sweep order."""
        per_weight = len(self.seeds) * self.cells_per_job
        groups = []
        for w_idx, weights in enumerate(self.weight_grid):
            lo = w_idx * per_weight
            groups.append((weights, self.grid.cells[lo : lo + per_weight]))
        return groups

    def mean_f1_rows(self, methods: Sequence[str] | None = None) -> list[list]:
        """``[weights label, mean data-F1 per method...]`` rows."""
        from repro.evaluation.reporting import mean

        methods = list(methods if methods is not None else self.grid.methods())
        rows = []
        for weights, cells in self.cells_by_weight():
            per_method: dict[str, list[float]] = {m: [] for m in methods}
            for cell in cells:
                if cell.method in per_method:
                    per_method[cell.method].append(cell.run.data.f1)
            rows.append(
                [weights_label(weights)] + [mean(per_method[m]) for m in methods]
            )
        return rows
