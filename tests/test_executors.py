"""Tests for the executor abstraction: spec resolution, streaming, init.

Covers the ``resolve_executor`` edge cases (bad worker counts, object
passthrough), the bounded-window streaming behaviour of
``ProcessExecutor.map`` and its in-flight cleanup on errors/abandonment,
persistent-pool lifecycle (reuse, initializer recycling, close), scoped
serial-fallback initializers, and the thread backend's pickling
contract.
"""

import os
import pickle
import subprocess
import sys
import textwrap
import threading
from contextlib import contextmanager

import pytest

from repro.errors import ReproError
from repro.executors import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    resolve_executor,
)
from tests._subprocess import child_env

# Module-level so process workers (fork or spawn-with-import) can
# unpickle them by reference.
_INIT_VALUE = 0


def _install_value(value):
    global _INIT_VALUE
    _INIT_VALUE = value


def _read_value(_):
    return _INIT_VALUE


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


def _pid_and_value(_):
    return (os.getpid(), _INIT_VALUE)


_SCOPED_VALUE = 0


def _install_scoped(value):
    global _SCOPED_VALUE
    _SCOPED_VALUE = value


@contextmanager
def _scoped(value):
    global _SCOPED_VALUE
    previous = _SCOPED_VALUE
    _SCOPED_VALUE = value
    try:
        yield
    finally:
        _SCOPED_VALUE = previous


_install_scoped.scope = _scoped


def _read_scoped(_):
    return _SCOPED_VALUE


# -- resolve_executor edge cases ---------------------------------------------


def test_resolve_none_and_serial():
    assert isinstance(resolve_executor(None), SerialExecutor)
    assert isinstance(resolve_executor("serial"), SerialExecutor)


def test_resolve_process_with_and_without_count():
    assert isinstance(resolve_executor("process"), ProcessExecutor)
    assert resolve_executor("process:3").max_workers == 3


def test_resolve_thread_with_and_without_count():
    assert isinstance(resolve_executor("thread"), ThreadExecutor)
    assert resolve_executor("thread:2").max_workers == 2


def test_resolve_thread_shares_one_executor_per_worker_count():
    # One AdmmSolver is built per solve; resolving "thread:N" each time
    # must reuse one pool, not accumulate a new one per solver.
    assert resolve_executor("thread:2") is resolve_executor("thread:2")
    assert resolve_executor("thread:2") is not resolve_executor("thread:3")


def test_resolve_thread_reuses_without_constructing(monkeypatch):
    # Regression: resolution used to build a throwaway ThreadExecutor
    # (WeakSet churn + a lock) before the registry lookup on EVERY call.
    resolve_executor("thread:2")  # ensure the shared instance exists
    constructed = []
    original = ThreadExecutor.__init__

    def counting(self, max_workers=None):
        constructed.append(max_workers)
        original(self, max_workers)

    monkeypatch.setattr(ThreadExecutor, "__init__", counting)
    assert resolve_executor("thread:2").max_workers == 2
    assert constructed == []


def test_resolve_process_shares_one_persistent_executor_per_count():
    executor = resolve_executor("process:2")
    assert executor is resolve_executor("process:2")
    assert executor is not resolve_executor("process:3")
    assert executor.persistent
    # Direct construction keeps the stateless fresh-pool-per-map mode.
    assert not ProcessExecutor(2).persistent


@pytest.mark.parametrize("spec", ["process:0", "process:-1", "thread:0"])
def test_resolve_rejects_nonpositive_worker_counts(spec):
    with pytest.raises(ReproError):
        resolve_executor(spec)


@pytest.mark.parametrize("spec", ["process:x", "thread:2.5", "gpu", "serial-ish"])
def test_resolve_rejects_malformed_specs(spec):
    with pytest.raises(ReproError):
        resolve_executor(spec)


def test_resolve_passes_through_objects_with_map():
    class Custom:
        def map(self, fn, items):
            return map(fn, items)

    custom = Custom()
    assert resolve_executor(custom) is custom


def test_resolve_rejects_objects_without_map():
    with pytest.raises(ReproError):
        resolve_executor(42)


# -- ProcessExecutor streaming -----------------------------------------------


def test_process_map_preserves_order():
    executor = ProcessExecutor(2)
    assert list(executor.map(_square, list(range(25)))) == [i * i for i in range(25)]


def test_process_map_streams_lazily():
    # The parallel path returns a generator (the pool's owner), not a
    # materialized list: sharded grounding merges results as they arrive.
    executor = ProcessExecutor(2)
    result = executor.map(_square, list(range(8)))
    assert not isinstance(result, (list, tuple))
    assert iter(result) is result  # a true iterator, consumed once
    assert list(result) == [i * i for i in range(8)]


def test_process_map_serial_fallbacks():
    one_item = ProcessExecutor(4).map(_square, [3])
    assert list(one_item) == [9]
    one_worker = ProcessExecutor(1).map(_square, [2, 3])
    assert list(one_worker) == [4, 9]


def test_process_map_initializer_reaches_workers():
    executor = ProcessExecutor(2)
    results = list(
        executor.map(
            _read_value, list(range(8)), initializer=_install_value, initargs=(7,)
        )
    )
    assert results == [7] * 8


def test_process_map_initializer_on_serial_fallback():
    _install_value(0)
    executor = ProcessExecutor(1)
    results = list(
        executor.map(
            _read_value, [1, 2], initializer=_install_value, initargs=(5,)
        )
    )
    assert results == [5, 5]


def test_process_map_propagates_worker_exceptions():
    def boom(x):  # local: only reachable on the serial fallback
        raise ValueError(x)

    with pytest.raises(ValueError):
        list(ProcessExecutor(1).map(boom, [1, 2]))
    with pytest.raises(Exception):
        list(ProcessExecutor(2).map(_raise, [1, 2]))


def _raise(x):
    raise RuntimeError(f"boom {x}")


# -- ThreadExecutor -----------------------------------------------------------


def test_thread_map_preserves_order_and_reuses_pool():
    executor = ThreadExecutor(2)
    assert list(executor.map(_square, list(range(10)))) == [i * i for i in range(10)]
    first_pool = executor._pool
    assert list(executor.map(_square, [4])) == [16]  # serial shortcut
    assert list(executor.map(_square, [1, 2, 3])) == [1, 4, 9]
    assert executor._pool is first_pool  # the pool persists across maps


def _nested_map(executor):
    def inner(x):
        # A map issued from inside one of the pool's own worker threads:
        # must run inline, not queue behind the jobs occupying the pool.
        return sum(executor.map(_square, [x, x + 1]))

    return inner


def test_thread_executor_nested_map_does_not_deadlock():
    # Shared "thread:N" instances serve both an engine grid and the
    # solvers inside its cells; nested maps used to queue behind their
    # own parents and hang forever.
    executor = ThreadExecutor(2)
    results = list(executor.map(_nested_map(executor), [0, 1, 2, 3]))
    assert results == [0 + 1, 1 + 4, 4 + 9, 9 + 16]


def test_thread_executor_pickles_without_pool():
    executor = ThreadExecutor(3)
    list(executor.map(_square, [1, 2]))  # force pool creation
    clone = pickle.loads(pickle.dumps(executor))
    assert clone.max_workers == 3
    assert clone._pool is None
    assert list(clone.map(_square, [2, 3])) == [4, 9]


def _thread_map_in_worker(x):
    # Runs inside a forked process-pool worker: the inherited shared
    # ThreadExecutor's pool threads died with the fork, so without the
    # at-fork reset this map would submit to a dead pool and hang.
    executor = resolve_executor("thread:2")
    return sum(executor.map(_square, [x, x + 1]))


def test_shared_thread_pools_survive_fork_into_process_workers():
    parent = resolve_executor("thread:2")
    assert list(parent.map(_square, [1, 2, 3])) == [1, 4, 9]  # live parent pool
    results = list(ProcessExecutor(2).map(_thread_map_in_worker, [0, 1, 2, 3]))
    assert results == [0 + 1, 1 + 4, 4 + 9, 9 + 16]
    # ...and the parent's own pool still works afterwards.
    assert list(parent.map(_square, [2, 3])) == [4, 9]


# -- persistent process pools --------------------------------------------------


def test_persistent_pool_reuses_workers_across_maps():
    with ProcessExecutor(2, persistent=True) as executor:
        pids: set[int] = set()
        for _ in range(3):
            pids.update(executor.map(_pid, list(range(8))))
        # Three fresh pools could show up to six distinct workers; one
        # persistent pool shows at most max_workers across all maps.
        assert 1 <= len(pids) <= 2


def test_persistent_pool_initializer_once_then_recycle_on_change():
    with ProcessExecutor(2, persistent=True) as executor:
        seen: set[int] = set()
        for _ in range(2):
            results = list(
                executor.map(
                    _pid_and_value,
                    list(range(8)),
                    initializer=_install_value,
                    initargs=(7,),
                )
            )
            assert {value for _, value in results} == {7}
            seen.update(pid for pid, _ in results)
        # An initializer-less map rides the same warm pool: the worker
        # state installed once per worker is still there.
        bare = list(executor.map(_pid_and_value, list(range(8))))
        assert {value for _, value in bare} == {7}
        seen.update(pid for pid, _ in bare)
        assert len(seen) <= 2
        # A *different* payload must recycle the pool — reusing workers
        # initialized for another program would silently compute against
        # stale state.
        recycled = list(
            executor.map(
                _pid_and_value,
                list(range(8)),
                initializer=_install_value,
                initargs=(9,),
            )
        )
        assert {value for _, value in recycled} == {9}
        assert {pid for pid, _ in recycled}.isdisjoint(seen)


class _TokenPayload:
    """A mutable initializer payload that tracks its own state version."""

    def __init__(self):
        self.value = 0

    def state_token(self):
        return self.value


def _install_payload(payload):
    _install_value(payload.value)


def test_persistent_pool_recycles_when_initarg_mutates_in_place():
    # Identity comparison alone cannot see in-place mutation: workers
    # hold a pickled snapshot of the payload, so reusing the warm pool
    # after the payload changed would compute against stale state (the
    # re-ground-after-observe() bug).  state_token() makes the mutation
    # visible and forces a recycle.
    payload = _TokenPayload()
    with ProcessExecutor(2, persistent=True) as executor:
        first = list(
            executor.map(
                _read_value, list(range(8)), initializer=_install_payload,
                initargs=(payload,),
            )
        )
        assert first == [0] * 8
        payload.value = 5  # same object, new contents
        second = list(
            executor.map(
                _read_value, list(range(8)), initializer=_install_payload,
                initargs=(payload,),
            )
        )
        assert second == [5] * 8  # fresh workers saw the new snapshot


def test_persistent_pool_close_is_idempotent_and_reusable():
    executor = ProcessExecutor(2, persistent=True)
    first = set(executor.map(_pid, list(range(8))))
    executor.close()
    executor.close()  # idempotent
    second = set(executor.map(_pid, list(range(8))))  # lazily rebuilt
    assert second and second.isdisjoint(first)
    executor.close()


def test_abandoned_unstarted_stream_releases_its_slot_on_gc():
    import gc

    with ProcessExecutor(2, persistent=True) as executor:
        stream = executor.map(_square, list(range(8)))
        assert sum(executor._active.values()) == 1
        del stream  # never started: the generator finally cannot run
        gc.collect()
        # The GC finalizer is lock-free (GC can fire on a thread holding
        # the executor lock): it only queues the release, and the next
        # map()/close() in normal context applies it.
        assert list(executor._zombies)
        assert list(executor.map(_square, [1, 2])) == [1, 4]
        assert executor._active == {}


def test_force_close_shuts_down_despite_registered_streams():
    # The process-exit hook's path: in an exiting pool worker no thread
    # will ever consume a registered stream again, so close(force=True)
    # must not defer (a graceful close would, re-opening the nested-pool
    # exit deadlock for an abandoned unstarted map).
    executor = ProcessExecutor(2, persistent=True)
    stream = executor.map(_square, list(range(8)))
    executor.close(force=True)
    assert executor._pool is None
    del stream  # zombie stream's later release is harmless (idempotent)


def test_persistent_pool_survives_worker_exception():
    with ProcessExecutor(2, persistent=True) as executor:
        before = set(executor.map(_pid, list(range(8))))
        with pytest.raises(RuntimeError):
            list(executor.map(_raise, list(range(8))))
        after = set(executor.map(_pid, list(range(8))))
        assert after and len(before | after) <= 2  # same pool, not rebuilt


def _die(_):
    os._exit(13)


def test_persistent_pool_recovers_from_dead_worker():
    # A crashed worker (OOM-kill, segfault) breaks the pool; a shared
    # registry instance must rebuild it, not stay poisoned forever.
    from concurrent.futures.process import BrokenProcessPool

    with ProcessExecutor(2, persistent=True) as executor:
        with pytest.raises(BrokenProcessPool):
            list(executor.map(_die, list(range(8))))
        assert set(executor.map(_pid, list(range(8))))  # recycled and healthy


def test_initializer_recycle_defers_shutdown_under_live_stream():
    # An engine grid on threads can hold two concurrent grounds on the
    # one shared process executor; the second ground's different
    # initializer recycles the pool, which must not be shut down under
    # the first ground's still-streaming map.
    with ProcessExecutor(2, persistent=True) as executor:
        first = executor.map(
            _read_value, list(range(12)), initializer=_install_value, initargs=(7,)
        )
        assert next(first) == 7  # stream live on the first pool
        second = list(
            executor.map(
                _read_value, list(range(12)), initializer=_install_value, initargs=(9,)
            )
        )
        assert second == [9] * 12
        assert list(first) == [7] * 11  # old stream drains on the old pool
        assert executor._active == {}  # ...which was retired on exit


def test_nested_persistent_pools_exit_cleanly():
    # Regression: a pool worker that resolves "process:N" for its own
    # nested maps exits through os._exit without threading._shutdown, so
    # nothing told its inner pool's processes to stop — the worker then
    # joined them forever and the driver hung on the worker.  Live
    # persistent pools must be closed by a per-process multiprocessing
    # finalizer (registered lazily: the bootstrap of a multiprocessing
    # child clears any registry inherited at fork).
    script = textwrap.dedent(
        """
        from repro.executors import ProcessExecutor, resolve_executor

        def _sq(y):
            return y * y

        def nested(x):
            inner = resolve_executor("process:2")
            return sum(inner.map(_sq, [x, x + 1]))

        outer = ProcessExecutor(2, persistent=True)
        assert list(outer.map(nested, [0, 1, 2, 3])) == [1, 5, 13, 25]
        outer.close()
        print("clean-exit")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=child_env(),
        timeout=120,  # the regression is an exit-time deadlock
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "clean-exit" in proc.stdout


def test_persistent_process_executor_pickles_config_only():
    executor = ProcessExecutor(3, persistent=True)
    try:
        assert list(executor.map(_square, [1, 2])) == [1, 4]
        clone = pickle.loads(pickle.dumps(executor))
        assert clone.max_workers == 3
        assert clone.persistent
        assert clone._pool is None
    finally:
        executor.close()


# -- in-flight cleanup on errors and early abandonment ------------------------


def test_thread_stream_cancels_pending_on_early_abandon():
    executor = ThreadExecutor(2)
    release = threading.Event()
    executed: list[int] = []

    def fn(i):
        if i == 0:
            return i
        release.wait(5)
        executed.append(i)
        return i

    gen = executor.map(fn, [0, 1, 2, 3, 4, 5])
    assert next(gen) == 0
    # Window now holds 1, 2 (running, gated) and 3, 4 (pending).
    gen.close()
    release.set()
    # Drain the shared pool (FIFO): once these probes finish, every
    # pending-at-close future has either run (leak) or been cancelled.
    probes = [executor._pool.submit(int, 0) for _ in range(2)]
    for probe in probes:
        probe.result()
    # Items already running at close time may finish; everything still
    # pending must have been cancelled, never run.
    assert set(executed) <= {1, 2}


def test_thread_stream_cancels_pending_on_worker_exception():
    executor = ThreadExecutor(2)
    release = threading.Event()
    executed: list[int] = []

    def fn(i):
        if i == 0:
            raise ValueError("boom")
        release.wait(5)
        executed.append(i)
        return i

    gen = executor.map(fn, [0, 1, 2, 3, 4, 5])
    with pytest.raises(ValueError):
        next(gen)
    release.set()
    probes = [executor._pool.submit(int, 0) for _ in range(2)]
    for probe in probes:
        probe.result()
    assert set(executed) <= {1, 2}


def test_process_stream_early_abandon_shuts_down_cleanly():
    executor = ProcessExecutor(2)  # fresh pool owned by the generator
    gen = executor.map(_square, list(range(64)))
    assert next(gen) == 0
    gen.close()  # must cancel the window and shut the pool down, not hang
    assert list(executor.map(_square, [3])) == [9]


# -- scoped serial-fallback initializers --------------------------------------


@pytest.mark.parametrize("persistent", [False, True])
def test_serial_fallback_scopes_initializer_with_scope_hook(persistent):
    executor = ProcessExecutor(1, persistent=persistent)
    gen = executor.map(
        _read_scoped, [1, 2], initializer=_install_scoped, initargs=(5,)
    )
    assert _SCOPED_VALUE == 0  # nothing installed before consumption
    assert list(gen) == [5, 5]
    assert _SCOPED_VALUE == 0  # ...and the previous value is restored


def test_serial_fallback_without_scope_hook_runs_initializer_bare():
    _install_value(0)
    assert list(
        ProcessExecutor(1).map(
            _read_value, [1, 2], initializer=_install_value, initargs=(6,)
        )
    ) == [6, 6]
    assert _INIT_VALUE == 6  # unscoped initializers keep the old contract
    _install_value(0)
