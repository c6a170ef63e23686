"""Conservative windowed shard execution across OS processes.

The coordinator owns a :class:`~.partition.CutPlan`'s shard specs and a
*factory* (a picklable top-level callable ``spec -> shard``).  A shard
object wraps one fully built scenario around today's sequential
:class:`~repro.sim.kernel.Simulator`.  It is a context manager — the
engine enters it once built and leaves it on every exit path, failed
windows included — and exposes two methods:

* ``advance(window, until) -> dict`` — run the shard's simulator to
  virtual time ``until`` and return a picklable window report (clock,
  cumulative event count, merge-point deltas since the last window);
* ``finish() -> dict`` — after the last window, derive the shard's
  final payload (its deterministic report section plus raw samples).

Synchronisation is the conservative null-message scheme specialised to
a fixed window size: the coordinator's ``("advance", k, until)`` grant
*is* the null message — it promises every peer shard has reached the
previous boundary, so executing up to ``until`` (≥ lookahead past the
boundary) can never receive a straggler from the past.  No shard ever
executes past its granted horizon, which is the CMB safety condition.

Two hosting modes execute the *identical* decomposition:

* ``workers >= 2`` — shards are dealt round-robin onto worker
  processes connected by pipes (fork start method where available;
  specs and factories are picklable so spawn works too);
* ``workers == 1`` — the lockstep debug mode: same shards, same
  windows, interleaved in shard order inside the calling process.

Because each shard's virtual run is a function of its spec alone —
never of which process hosts it — the per-shard payloads, and hence the
merged report, are byte-identical across worker counts.  That claim is
enforced, not assumed: ``repro.perf.determinism.parallel_check`` holds
it to byte equality in CI.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from contextlib import ExitStack
from typing import Callable

__all__ = ["ParallelExecutionError", "run_partitioned"]


class ParallelExecutionError(RuntimeError):
    """A worker process failed; carries the remote traceback."""


def _window_boundaries(horizon: float, windows: int) -> list:
    """Window end times; the final boundary is exactly the horizon."""
    windows = max(1, int(windows))
    return [horizon if k == windows else horizon * k / windows
            for k in range(1, windows + 1)]


def _worker_main(conn, factory, specs) -> None:
    """Worker process loop: build the assigned shards, serve grants."""
    try:
        with ExitStack() as stack:
            shards = [stack.enter_context(factory(spec)) for spec in specs]
            conn.send(("ready", [spec.shard_id for spec in specs]))
            while True:
                message = conn.recv()
                if message[0] == "advance":
                    _, window, until = message
                    conn.send(("window",
                               [shard.advance(window, until)
                                for shard in shards]))
                elif message[0] == "finish":
                    conn.send(("done",
                               [shard.finish() for shard in shards]))
                elif message[0] == "stop":
                    return
                else:  # pragma: no cover - protocol misuse
                    raise RuntimeError(f"unknown message {message[0]!r}")
    except EOFError:  # coordinator died; exit quietly
        pass
    except BaseException:  # repro: noqa[broad-except] — process boundary: any worker failure must be reported over the pipe, not lost to a silent exit code
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        return multiprocessing.get_context("spawn")


def run_partitioned(specs: list, factory: Callable, horizon: float,
                    windows: int, workers: int = 1) -> dict:
    """Execute the shard specs under window synchronisation.

    Returns ``{"payloads", "window_log", "mode", "workers",
    "wall_seconds", "total_seconds", "windows"}`` where ``payloads`` is
    the per-shard ``finish()`` results in shard order and
    ``window_log`` is ``[{"window", "until", "reports"}, ...]`` with
    the reports in shard order.  ``wall_seconds`` covers only the
    granted execution (build/spawn excluded, matching the sequential
    bench's measured loop); ``total_seconds`` includes process start
    and shard build.
    """
    if not specs:
        raise ValueError("run_partitioned needs at least one shard spec")
    boundaries = _window_boundaries(horizon, windows)
    workers = max(1, min(int(workers), len(specs)))
    if workers == 1:
        return _run_lockstep(specs, factory, boundaries)
    return _run_processes(specs, factory, boundaries, workers)


def _run_lockstep(specs, factory, boundaries) -> dict:
    """Single-process debug mode: same windows, shard-order interleave."""
    build_started = time.perf_counter()  # repro: noqa[wall-clock]
    with ExitStack() as stack:
        shards = [stack.enter_context(factory(spec)) for spec in specs]
        started = time.perf_counter()  # repro: noqa[wall-clock]
        window_log = []
        for window, until in enumerate(boundaries, start=1):
            reports = [shard.advance(window, until) for shard in shards]
            window_log.append({"window": window, "until": until,
                               "reports": reports})
        payloads = [shard.finish() for shard in shards]
    finished = time.perf_counter()  # repro: noqa[wall-clock]
    return {
        "payloads": payloads,
        "window_log": window_log,
        "mode": "lockstep",
        "workers": 1,
        "windows": len(boundaries),
        "wall_seconds": finished - started,
        "total_seconds": finished - build_started,
    }


def _run_processes(specs, factory, boundaries, workers) -> dict:
    """Multiprocess mode: shards dealt round-robin onto worker pipes."""
    context = _mp_context()
    assignments = [specs[index::workers] for index in range(workers)]
    spawn_started = time.perf_counter()  # repro: noqa[wall-clock]
    connections = []
    processes = []
    try:
        for chunk in assignments:
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(child_conn, factory, chunk),
                daemon=True)
            process.start()
            child_conn.close()
            connections.append(parent_conn)
            processes.append(process)

        shard_order = [spec.shard_id for chunk in assignments
                       for spec in chunk]
        for conn in connections:
            _expect(conn, "ready")

        started = time.perf_counter()  # repro: noqa[wall-clock]
        window_log = []
        for window, until in enumerate(boundaries, start=1):
            for conn in connections:
                conn.send(("advance", window, until))
            reports = []
            for conn in connections:
                reports.extend(_expect(conn, "window"))
            window_log.append({
                "window": window, "until": until,
                "reports": _in_shard_order(reports, shard_order),
            })
        for conn in connections:
            conn.send(("finish",))
        payloads = []
        for conn in connections:
            payloads.extend(_expect(conn, "done"))
        payloads = _in_shard_order(payloads, shard_order)
        finished = time.perf_counter()  # repro: noqa[wall-clock]
        for conn in connections:
            conn.send(("stop",))
        for process in processes:
            process.join(timeout=30)
    finally:
        for conn in connections:
            conn.close()
        for process in processes:
            if process.is_alive():  # pragma: no cover - error cleanup
                process.terminate()
                process.join(timeout=5)
    return {
        "payloads": payloads,
        "window_log": window_log,
        "mode": "processes",
        "workers": workers,
        "windows": len(boundaries),
        "wall_seconds": finished - started,
        "total_seconds": finished - spawn_started,
    }


def _expect(conn, kind: str):
    message = conn.recv()
    if message[0] == "error":
        raise ParallelExecutionError(
            f"shard worker failed:\n{message[1]}")
    if message[0] != kind:  # pragma: no cover - protocol misuse
        raise ParallelExecutionError(
            f"expected {kind!r} from worker, got {message[0]!r}")
    return message[1]


def _in_shard_order(items: list, shard_order: list) -> list:
    """Canonical shard order regardless of worker assignment.

    Window reports and payloads carry their shard id (dicts with a
    ``"shard"`` key); sorting on it makes the merged stream independent
    of how shards were dealt onto workers.
    """
    del shard_order  # the id on each item is authoritative
    return sorted(items, key=lambda item: item["shard"])
