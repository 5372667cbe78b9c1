"""Benchmark of record for the selection pipeline.

Usage (from the repository root; no install needed)::

    python3 perfbench/run.py --workload select-large --seed 1 --seconds 15 --trace 0

One process, closed loop: the next operation starts only after the
previous one returned and was checked.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced replay (see ``perfbench/README.md``).
"""

import time

# Set-up time counts from here, so it includes importing the pipeline.
START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed, REFERENCE_SLICE_S  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
REFERENCES = HERE / "references.json"

#: Percentile reported as ``step_tail_s``; edit-chain runs at least 40
#: steps, so at least 10 samples lie beyond it there.
TAIL_PERCENTILE = 75
#: Set-ups per run: this process's own plus fresh interpreters.
SETUP_SAMPLES = 7


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 100])."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Loop:
    """The closed loop: prepare, time one operation, check, repeat.

    ``latencies`` and ``steps`` hold wall times as measured, less the
    host-speed slices (``hostspeed``) that ran inside them;
    ``scaled_latencies`` and ``scaled_steps`` give them in seconds at the
    reference host speed, each operation scaled by the slices around it.
    """

    def __init__(self, workload, references: dict | None, trace_ops=None):
        self.workload = workload
        self.references = references
        self.trace_ops = trace_ops
        self.speed = HostSpeed()
        self.spans: list[tuple[float, float]] = []
        self.latencies: list[float] = []
        self.steps: list[list[float]] = []
        self.cells = 0
        self.attempted = 0
        self.failed = 0
        self.records: dict = {}

    def one(self, op: int) -> None:
        wl = self.workload
        wl.prepare()
        self.attempted += 1
        tracing = self.trace_ops(op) if self.trace_ops else contextlib.nullcontext()
        try:
            start = time.perf_counter()
            with tracing:
                output = wl.run()
            end = time.perf_counter()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        wall = end - start
        seconds = wall - self.speed.inside(start, end)
        self.spans.append((start, end))
        self.latencies.append(seconds)
        self.steps.append([step * seconds / wall for step in wl.steps(output, wall)])
        self.cells += wl.cells(output)
        try:
            records = wl.check(output)
            self.compare(records)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1

    def scales(self) -> list[float]:
        return [self.speed.scale_around(start, end) for start, end in self.spans]

    def scaled_latencies(self) -> list[float]:
        return [s * scale for s, scale in zip(self.latencies, self.scales())]

    def scaled_steps(self) -> list[float]:
        return [s * scale for steps, scale in zip(self.steps, self.scales()) for s in steps]

    def compare(self, records: dict) -> None:
        for key, value in records.items():
            seen = self.records.setdefault(key, value)
            if seen != value:
                raise RuntimeError(f"{key}: {value} differs from an earlier {seen}")
            if self.references is not None:
                expected = self.references.get(key)
                if expected != value:
                    raise RuntimeError(f"{key}: {value} but the reference is {expected}")

    def run_for(self, seconds: float, min_ops: int) -> None:
        start = time.perf_counter()
        op = 0
        with self.speed.sampling():
            while op < min_ops or time.perf_counter() - start < seconds:
                self.one(op)
                op += 1


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh interpreter (imports included), from its own clock."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs as the seed's references")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the whole run, so the host-speed sampler thread and the
    # operations it calibrates share a CPU (set-up children inherit it).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload.setup(args.seed, workdir)
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, workload, workdir, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir, setup_s: float) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    seed_key = str(args.seed)
    references = None
    if not args.record:
        references = all_references.get(workload.name, {}).get(seed_key)
    loop = Loop(workload, references)
    loop.run_for(args.seconds, workload.min_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not loop.latencies:
        print("error: no operation completed", file=sys.stderr)
        return 1
    attempted, failed = loop.attempted, loop.failed

    if args.record:
        if failed:
            print("error: not recording a run with failures", file=sys.stderr)
            return 1
        all_references.setdefault(workload.name, {})[seed_key] = dict(sorted(loop.records.items()))
        REFERENCES.write_text(json.dumps(all_references, indent=1, sort_keys=True) + "\n")

    if args.trace:
        values, traced = traced_replay(args, workload, workdir, loop, references)
        attempted += traced.attempted
        failed += traced.failed
        metrics = declared["per_layer"]
    else:
        setups = setup_seconds(args, setup_s)
        values = end_to_end(loop, setups, peak_rss_mb)
        metrics = declared["end_to_end"]
        speed = loop.speed
        print(f"workload {workload.name} seed {args.seed}: {len(loop.latencies)} ops, "
              f"{sum(map(len, loop.steps))} steps (tail = p{TAIL_PERCENTILE}); wall seconds as measured: "
              f"median op {statistics.median(loop.latencies):.4f}; "
              f"set-ups at reference speed {[round(s, 3) for s in setups]}")
        print(f"  host speed: {len(speed.slices)} calibration slices, mean "
              f"{speed.mean_slice() * 1e3:.3f} ms (reference "
              f"{REFERENCE_SLICE_S * 1e3:g} ms), so times below are scaled by {speed.scale():.4f} "
              f"on the whole (each operation by the slices around it)")
    result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}
    print(f"  failed_ops {failed / attempted:.4f} ratio ({failed}/{attempted})")
    for name, metric in result.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


def setup_seconds(args, own_s: float) -> list[float]:
    """This process's set-up and fresh interpreters', scaled by
    calibration blocks run before and between them."""
    speed = HostSpeed()
    speed.block()
    setups = [own_s]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(child_setup_seconds(args))
        speed.block()
    return [seconds * speed.scale() for seconds in setups]


def end_to_end(loop: Loop, setups: list[float], peak_rss_mb: float) -> dict[str, float]:
    latencies, steps = loop.scaled_latencies(), loop.scaled_steps()
    return {
        "select_s": statistics.median(latencies),
        "cells_per_s": loop.cells / sum(latencies),
        "step_p50_s": percentile(steps, 50),
        "step_tail_s": percentile(steps, TAIL_PERCENTILE),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }


def traced_replay(args, workload, workdir, untraced: Loop, references):
    """Replay the untraced run's first operations with the wrappers installed.

    The replay starts from a fresh set-up, repeats exactly the work of the
    first ``min_ops`` untraced operations, and compares their times at the
    reference host speed: the difference is the tracing overhead.
    """
    from tracing import Tracer, layer_metrics, traced_operation, wrapper_seconds

    ops = workload.min_ops
    workload.setup(args.seed, workdir)
    tracer = Tracer()
    traced = Loop(workload, references, trace_ops=lambda op: traced_operation(tracer, op))
    with traced.speed.sampling():
        for op in range(ops):
            traced.one(op)
    tracer.remove_pauses(traced.speed.slices)
    if len(traced.latencies) != ops:
        raise RuntimeError("a traced operation failed")
    metrics = layer_metrics(tracer)
    metrics["trace.overhead"] = (
        sum(traced.scaled_latencies()) / sum(untraced.scaled_latencies()[:ops]) - 1
    )

    layers = tracer.layer_table()
    self_total = sum(row["self_s"] for row in layers.values())
    wrapped_calls = sum(row["calls"] for name, row in layers.items() if name != "op")
    estimate = wrapped_calls * wrapper_seconds() / metrics["trace.wall_s"]
    print(f"traced replay of {ops} ops: wall {metrics['trace.wall_s']:.4f} s, "
          f"sum of self times {self_total:.4f} s, overhead {metrics['trace.overhead']:+.2%} "
          f"against the untraced ops ({wrapped_calls} wrapped calls: {estimate:.2%} by calibration)")
    print(f"  {'layer':<16}{'calls':>10}{'total s':>12}{'self s':>12}{'self %':>9}")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        label = "(remainder)" if name == "op" else name
        share = row["self_s"] / metrics["trace.wall_s"]
        print(f"  {label:<16}{row['calls']:>10}{row['total_s']:>12.4f}"
              f"{row['self_s']:>12.4f}{share:>9.1%}")
    path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    tracer.dump(path, {
        "workload": workload.name,
        "seed": args.seed,
        "metrics": metrics,
        "calibrated_overhead": estimate,
    })
    print(f"  spans written to {path.relative_to(ROOT)}")
    return metrics, traced


if __name__ == "__main__":
    sys.exit(main())
