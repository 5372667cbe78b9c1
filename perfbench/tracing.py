"""Outside-in tracing for the benchmark's traced run.

Spans are recorded by wrappers that the benchmark installs over the names
the pipeline looks up at call time (module attributes, class attributes
and ``METHOD_REGISTRY`` entries).  Nothing in ``src/`` knows about them,
and the untraced run installs none, so the end-to-end figures are taken
on unmodified code.

A span is ``[name, start, end, parent, op, count, busy, child_busy]``.
Consecutive calls of the same leaf under one parent (a cover computer's
``degree`` calls, rounding's objective calls) are run-length merged into
one record: ``count`` calls, ``busy`` seconds inside them.  A span's self
time is ``busy - child_busy``, so the self times of all spans of an
operation add up to the operation's wall time exactly; the operation's
root span keeps, as its self time, everything no wrapper covers (the
remainder).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, OP, COUNT, BUSY, CHILD_BUSY = range(8)

#: Span name of an operation's root; its self time is the remainder.
OP_SPAN = "op"


class Tracer:
    """Records spans in memory and installs/removes the layer wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.events: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._has_children: set[int] = set()
        self._last_leaf: dict[int | None, int] = {}
        self._patches: list[tuple[object, str, object, bool]] = []
        self.op: int | None = None

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            self._has_children.add(parent)
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self.op, 1, 0.0, 0.0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = perf_counter()
        self._stack.pop()
        span = self.spans[index]
        duration = end - span[START]
        span[END] = end
        span[BUSY] = duration
        parent = span[PARENT]
        if parent is not None:
            self.spans[parent][CHILD_BUSY] += duration
        if index in self._has_children:
            self._last_leaf.pop(parent, None)
            return
        previous = self._last_leaf.get(parent)
        if previous is not None and self.spans[previous][NAME] == span[NAME]:
            merged = self.spans[previous]
            merged[END] = end
            merged[COUNT] += 1
            merged[BUSY] += duration
            self.spans.pop()
        else:
            self._last_leaf[parent] = index

    @contextmanager
    def operation(self, op: int):
        """The root span of operation *op*; every span inside carries its id."""
        self.op = op
        self._last_leaf.clear()
        index = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) until :meth:`unpatch`."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr], True))
            owner[attr] = replacement
        else:
            self._patches.append((owner, attr, getattr(owner, attr), False))
            setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original, is_dict = self._patches.pop()
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def remove_pauses(self, pauses: list[tuple[float, float]]) -> None:
        """Take out time the main thread spent paused (host-speed slices
        run by the sampler thread) from the innermost span around each
        pause and from its ancestors, so no layer is charged for it.

        Spans are stored in start order.  A merged leaf spans the gaps
        between its calls, so a pause in such a gap is charged to the
        leaf rather than its parent; pauses are a few milliseconds.
        """
        starts = [span[START] for span in self.spans]
        for begin, finish in pauses:
            index = bisect_right(starts, begin) - 1
            while index >= 0 and not (self.spans[index][END] or 0.0) >= finish:
                index -= 1
            if index < 0:
                continue
            duration = finish - begin
            child = None
            while index is not None:
                span = self.spans[index]
                span[BUSY] -= duration
                if child is not None:
                    span[CHILD_BUSY] -= duration
                child, index = index, span[PARENT]

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans only), self seconds."""
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, span in enumerate(self.spans):
            row = table[span[NAME]]
            row["calls"] += span[COUNT]
            row["self_s"] += span[BUSY] - span[CHILD_BUSY]
            if not self._inside_same_name(index):
                row["total_s"] += span[BUSY]
        return dict(table)

    def _inside_same_name(self, index: int) -> bool:
        name = self.spans[index][NAME]
        parent = self.spans[index][PARENT]
        while parent is not None:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def wall_seconds(self) -> float:
        return sum(s[BUSY] for s in self.spans if s[NAME] == OP_SPAN)

    def dump(self, path, extra: dict) -> None:
        keys = ("name", "start", "end", "parent", "op", "count", "busy_s", "self_s")
        spans = [
            dict(zip(keys, (*s[:BUSY], s[BUSY], s[BUSY] - s[CHILD_BUSY])))
            for s in self.spans
        ]
        payload = {**extra, "layers": self.layer_table(), "spans": spans}
        with open(path, "w") as handle:
            json.dump(payload, handle)


def wrapper_seconds(calls: int = 100_000) -> float:
    """What one traced call costs on top of the call, timed on a no-op leaf.

    Host load moves the replay-versus-untraced comparison by more than the
    tracing costs, so the run also reports this calibrated estimate.
    """
    tracer = Tracer()

    def noop():
        pass

    traced = tracer.wrap("noop", noop)
    with tracer.operation(0):
        start = perf_counter()
        for _ in range(calls):
            traced()
        wrapped = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - start
    return (wrapped - bare) / calls


# -- the pipeline's layers ------------------------------------------------------


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross (undo with ``unpatch``).

    Names are patched where the pipeline looks them up at call time.
    ``METHOD_REGISTRY`` holds the solver functions bound at import, so
    its entries are wrapped themselves; patching ``solve_branch_and_bound``
    in its module would record nothing.
    """
    import repro.evaluation.engine as engine
    import repro.evaluation.harness as harness
    import repro.ibench.mutations as mutations
    import repro.ibench.scenario as scenario
    import repro.io.serialize as serialize
    import repro.psl.admm as admm
    import repro.selection.collective as collective
    import repro.selection.metrics as metrics

    wrap, patch = tracer.wrap, tracer.patch

    def count_solve(tracer, args, result):
        tracer.events["admm.iterations"] += result.iterations
        tracer.events["admm.unconverged"] += not result.converged

    grounded = collective.CollectiveGroundingCache.grounded

    def grounded_counting_splices(cache, *args, **kwargs):
        # A patched artifact keeps the splice stats that built it, and a
        # later hit returns the same object: count them on patches only.
        patches = cache.patch_hits
        artifact = grounded(cache, *args, **kwargs)
        if cache.patch_hits != patches:
            stats = artifact.splice_stats
            tracer.events["ground.reused_terms"] += stats.reused_terms
            tracer.events["ground.needed_terms"] += stats.reused_terms + stats.fresh_terms
        return artifact

    patch(
        collective.CollectiveGroundingCache,
        "grounded",
        wrap("ground", grounded_counting_splices),
    )
    patch(serialize, "load_scenario", wrap("load", serialize.load_scenario))
    patch(engine, "generate_scenario", wrap("generate", engine.generate_scenario))
    for module in (scenario, engine):
        patch(module, "build_selection_problem", wrap("build", module.build_selection_problem))
    patch(metrics, "chase", wrap("chase", metrics.chase))
    base = metrics.CoverComputer
    patch(
        metrics,
        "CoverComputer",
        type(
            base.__name__,
            (base,),
            {
                "__init__": wrap("covers", base.__init__),
                "degree": wrap("covers", base.degree),
            },
        ),
    )
    patch(mutations.MutableSelection, "apply", wrap("edit", mutations.MutableSelection.apply))
    patch(admm.AdmmSolver, "solve", wrap("admm", admm.AdmmSolver.solve))
    patch(collective, "round_solution", wrap("round", collective.round_solution))
    patch(collective, "objective_value", wrap("objective", collective.objective_value))
    patch(
        collective,
        "solve_collective",
        wrap("collective", collective.solve_collective, count_solve),
    )
    registry = engine.METHOD_REGISTRY
    for method in ("collective", "greedy", "all-candidates", "exact"):
        on_result = count_solve if method == "collective" else None
        patch(registry, method, wrap(method, registry[method], on_result))
    patch(harness, "score_selection", wrap("score", harness.score_selection))


def _tiers(cache) -> dict[str, int]:
    return {
        "ground.hit": cache.hits,
        "ground.patch": cache.patch_hits,
        "ground.disk": cache.disk_hits,
        "ground.fresh": cache.misses - cache.patch_hits - cache.disk_hits,
    }


@contextmanager
def traced_operation(tracer: Tracer, op: int):
    """Run one operation with the layer wrappers installed.

    The grounding-cache tier counters are read before and after, and the
    per-operation deltas added to the tracer's events.
    """
    from repro.selection.collective import GROUNDING_CACHE

    before = _tiers(GROUNDING_CACHE)
    install_layers(tracer)
    try:
        with tracer.operation(op):
            yield
    finally:
        tracer.unpatch()
        for name, value in _tiers(GROUNDING_CACHE).items():
            tracer.events[name] += value - before[name]


#: Per-layer metric -> (span name, field of the layer table).
LAYER_METRICS = {
    "load.s": ("load", "total_s"),
    "generate.s": ("generate", "total_s"),
    "build.s": ("build", "total_s"),
    "build.chase.s": ("chase", "total_s"),
    "build.covers.s": ("covers", "total_s"),
    "edit.s": ("edit", "total_s"),
    "edit.calls": ("edit", "calls"),
    "ground.s": ("ground", "total_s"),
    "admm.s": ("admm", "total_s"),
    "collective.s": ("collective", "total_s"),
    "round.s": ("round", "total_s"),
    "round.self_s": ("round", "self_s"),
    "objective.s": ("objective", "total_s"),
    "objective.calls": ("objective", "calls"),
    "greedy.s": ("greedy", "total_s"),
    "exact.s": ("exact", "total_s"),
    "score.s": ("score", "total_s"),
}

#: Counters read from public state (cache counters, CollectiveResult).
EVENT_METRICS = (
    "ground.hit",
    "ground.patch",
    "ground.disk",
    "ground.fresh",
    "admm.iterations",
    "admm.unconverged",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    table = tracer.layer_table()
    values = {
        metric: table.get(span, {}).get(field, 0.0)
        for metric, (span, field) in LAYER_METRICS.items()
    }
    for metric in EVENT_METRICS:
        values[metric] = tracer.events.get(metric, 0.0)
    needed = tracer.events.get("ground.needed_terms", 0.0)
    values["ground.term_reuse"] = (
        tracer.events["ground.reused_terms"] / needed if needed else 0.0
    )
    values["trace.wall_s"] = tracer.wall_seconds()
    values["trace.remainder_s"] = table.get(OP_SPAN, {}).get("self_s", 0.0)
    return values
