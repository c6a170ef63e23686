"""The repository benchmark: three closed-loop workloads, end to end.

One run measures one workload for about ``--seconds`` seconds::

    python3 perfbench/run.py --workload overload --seed 1 --seconds 36 --trace 0

A run is a sequence of *repetitions*, each a fresh interpreter started
from this script (one at a time, waited for): it imports the program,
builds the scenario, simulates it and derives the report, then checks
the simulated results.  Every repetition of a seed must reproduce the
same digest.  A fresh interpreter per repetition makes ``setup_s`` what
a user pays (process start, imports, wiring) and keeps module-level
caches and counters of one repetition out of the next.

``--trace 0`` repeats for about that long (at least once) and reports
the end-to-end metrics, host times as medians over the repetitions (the
report time over every report call).  Host times are seconds rescaled to
one reference host speed by a probe that runs alongside the repetition
(see ``speed.py``); the raw medians are printed beside them.
``--trace 1`` makes one plain and one traced repetition and reports the
traced one's per-layer metrics (see ``layers.py``) from raw seconds.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

``attempted`` counts repetitions.  A repetition whose checks fail ends
the run with exit code 1 and no result line.  Simulated transactions
that the modelled system sheds or times out are results, not failures
of the benchmark: the ledger line and ``goodput_share`` report them.

Other modes:

* ``--all`` runs every workload, plain and traced, and prints one table;
* ``--holdout-seed N`` also measures seed N, on its own line, to confirm
  a claim on data not used while writing a change;
* ``--record-digest`` stores the run's simulated-results digest in
  ``perfbench/digests.json``; later runs of that seed must match it;
* ``--manifest`` rewrites ``BENCHMARK.json`` from ``spec.py``.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import spec
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
# A run that has not finished by then fails instead of overrunning.
RUN_LIMIT_S = 175.0


class CheckFailed(Exception):
    """A simulated result is wrong; the run must not report figures."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ------------------------------------------------------------ one repetition
def repetition(name: str, seed: int, size: int, trace: bool) -> dict:
    """Run one repetition in this process and check it (child side).

    A plain repetition runs under a speed clock from before the program
    is imported; a traced one does not, as the profiler would slow the
    probe as well.
    """
    clock = None
    if not trace:
        clock = speed.SpeedClock()
        clock.start()
    try:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import workloads
        from repro.opt import OPTIMIZATIONS

        if trace:
            import layers
            rep, metrics, vt = layers.traced_run(
                name, seed, size, own_tracer=name == "overload")
            check_virtual_time(name, vt, rep)
        else:
            rep = workloads.run_workload(name, seed, size)
            metrics = workloads.simulated_metrics(rep)
    finally:
        if clock is not None:
            clock.stop()
    check_rep(name, seed, size, rep)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    record = {
        "built_at": rep.built_at,
        "finished_at": rep.finished_at,
        "run_s": (clock.raw_seconds(rep.run_at, rep.report_at) if clock
                  else rep.report_at - rep.run_at),
        "report_s": statistics.median(end - start
                                      for start, end in rep.report_calls),
        "events": rep.events,
        "ledger": rep.ledger,
        "samples": len(rep.latencies),
        "digest": rep.digest,
        "metrics": metrics,
        "environment": {
            "host_cpus": os.cpu_count(),
            "python": platform.python_version(),
            "optimizations": OPTIMIZATIONS.as_dict(),
            "scheduler": rep.system.sim.scheduler_name,
            "commit": git_commit(),
        },
    }
    if clock is not None:
        record["started_at"] = clock.started_at
        record["ref"] = {
            "setup_s": clock.seconds(clock.started_at, rep.built_at),
            "run_s": clock.seconds(rep.run_at, rep.report_at),
            "report_s": [clock.seconds(start, end)
                         for start, end in rep.report_calls],
            "wall_s": clock.seconds(clock.started_at, rep.finished_at),
        }
    return record


def _load_digests() -> dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as handle:
        return json.load(handle)


def check_rep(name: str, seed: int, size: int, rep) -> None:
    """Invariants of one repetition's simulated results."""
    import workloads

    entry = rep.ledger
    try:
        workloads.check_ledger(entry)
    except workloads.LedgerError as exc:
        raise CheckFailed(f"{name}: {exc}") from None
    failed = sum(entry["failed"].values())
    started = entry["offered"] - entry["not_started"]
    report = rep.report
    if name == "overload":
        det = report["deterministic"]
        _require((det["offered"], det["started"], det["completed"],
                  det["succeeded"])
                 == (entry["offered"], started, entry["succeeded"] + failed,
                     entry["succeeded"]),
                 f"overload: ledger {entry} disagrees with the report")
        check_virtual_time(name, det["layers"], rep)
        if seed == 7 and size == 500:
            figures = {"kernel_events": det["kernel_events"],
                       "success_vs_offered": det["success_vs_offered"],
                       "p95": det["latency"]["p95"]}
            _require(figures == spec.OVERLOAD_SEED7,
                     f"overload seed 7: {figures} != committed "
                     f"BENCH_PERF.json figures {spec.OVERLOAD_SEED7}")
    elif name == "fleet-outage":
        _require((report["offered"], report["completed"],
                  report["successful"])
                 == (entry["offered"], entry["succeeded"] + failed,
                     entry["succeeded"]),
                 f"fleet-outage: ledger {entry} disagrees with the report")
        health = report["fleet"]["health"]
        _require(health.get("ejections", 0) >= 1
                 and health.get("readmissions", 0) >= 1,
                 f"fleet-outage: expected an ejection and a readmission, "
                 f"got {health}")
    else:
        missing = [category for category, outcome in rep.categories.items()
                   if outcome["succeeded"] < 1]
        _require(not missing,
                 f"apps-mix: categories never completed: {missing}")
    stored = _load_digests().get(name, {}).get(str(size), {}).get(str(seed))
    _require(stored is None or stored == rep.digest,
             f"{name} seed {seed}: digest {rep.digest} != stored {stored}")


def check_virtual_time(name: str, vt: dict, rep) -> None:
    """Virtual seconds per component add up to the summed latency of
    the closed traces (every finished transaction's root span)."""
    latency = math.fsum(record.latency for record in rep.engine.completed)
    total = math.fsum(vt.values())
    _require(abs(total - latency) <= 1e-4 + 1e-9 * latency,
             f"{name}: vt.* sum {total:.6f}s != summed latency "
             f"{latency:.6f}s of closed traces")
    unknown = set(vt) - set(spec.VT_LAYERS)
    _require(not unknown, f"{name}: unknown virtual-time layers {unknown}")


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git_dir, ref)):
            with open(os.path.join(git_dir, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ------------------------------------------------------------ measuring
def spawn(name: str, seed: int, size: int, trace: bool,
          deadline: float) -> dict:
    """One repetition in a fresh interpreter; returns its record with
    ``setup_s`` and ``wall_s`` measured from the launch.

    The part of a plain repetition before its speed clock started (the
    interpreter's own start) is added to the rescaled set-up and wall
    time as measured.
    """
    command = [sys.executable, os.path.abspath(__file__), "--repetition",
               "--workload", name, "--seed", str(seed), "--size", str(size),
               "--trace", str(int(trace))]
    # One string-hash seed for every repetition, so that repetitions of
    # a seed also iterate sets alike and do the same work.
    env = dict(os.environ, PYTHONHASHSEED="0")
    launched = time.monotonic()
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               env=env,
                               timeout=max(1.0, deadline - launched),
                               check=False)
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"{name} seed {seed}: the run did not finish "
                          f"within {RUN_LIMIT_S:.0f}s") from None
    lines = child.stdout.strip().splitlines()
    _require(child.returncode == 0 and bool(lines),
             f"{name} seed {seed}: repetition exited with "
             f"{child.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["built_at"] - launched
    record["wall_s"] = record["finished_at"] - launched
    if "ref" in record:
        booting = record["started_at"] - launched
        record["ref"]["setup_s"] += booting
        record["ref"]["wall_s"] += booting
    return record


def measure(name: str, seed: int, seconds: float, size: int) -> dict:
    """Repeat the workload for about ``seconds``; medians + results.

    Host times are rescaled (see ``speed.py``); ``raw`` holds the
    medians of the same times as measured.

    Another repetition starts only while at least half of one would
    still fit, so a run lasts ``seconds`` give or take half a repetition.
    """
    records = []
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    last = 0.0
    while not records or time.monotonic() - started + last / 2 < seconds:
        launched = time.monotonic()
        record = spawn(name, seed, size, False, deadline)
        last = time.monotonic() - launched
        _require(not records or record["digest"] == records[0]["digest"],
                 f"{name} seed {seed}: repetition {len(records) + 1} digest "
                 f"{record['digest']} != the first repetition's")
        records.append(record)
    metrics = {key: statistics.median(record["ref"][key]
                                      for record in records)
               for key in ("setup_s", "run_s", "wall_s")}
    metrics["report_s"] = statistics.median(
        sample for record in records for sample in record["ref"]["report_s"])
    raw = {key: statistics.median(record[key] for record in records)
           for key in ("setup_s", "run_s", "report_s", "wall_s")}
    metrics["peak_rss_mb"] = statistics.median(
        record["metrics"]["peak_rss_mb"] for record in records)
    for key in ("goodput_share", "slo_10s_share", "virt_latency_p50_s",
                "virt_latency_p95_s"):
        metrics[key] = records[0]["metrics"][key]
    return dict(records[0], metrics=metrics, raw=raw,
                repetitions=len(records))


def measure_traced(name: str, seed: int, size: int) -> dict:
    """One plain and one traced repetition; per-layer metrics."""
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = spawn(name, seed, size, False, deadline)
    traced = spawn(name, seed, size, True, deadline)
    _require(traced["digest"] == plain["digest"],
             f"{name} seed {seed}: the traced run simulated something "
             f"else (digest {traced['digest']} != {plain['digest']})")
    metrics = traced["metrics"]
    if name == "overload":
        # The workload's own report phase is the layer breakdown.
        metrics["obs.report_s"] = plain["report_s"]
    metrics["trace_overhead_share"] = traced["run_s"] / plain["run_s"] - 1.0
    metrics["sim.kernel.us_per_event"] = (plain["run_s"] / plain["events"]
                                          * 1e6)
    return dict(traced, repetitions=2)


def run_one(name: str, seed: int, seconds: float, trace: bool,
            size: int) -> dict:
    if trace:
        return measure_traced(name, seed, size)
    return measure(name, seed, seconds, size)


def selected_metrics(result: dict, trace: bool) -> dict:
    table = spec.PER_LAYER if trace else spec.END_TO_END
    metrics = result["metrics"]
    missing = [metric[0] for metric in table if metric[0] not in metrics]
    _require(not missing, f"metrics not measured: {missing}")
    return {metric[0]: {"value": metrics[metric[0]],
                        "unit": spec.UNITS[metric[0]]}
            for metric in table}


def print_result(label: str, result: dict, trace: bool) -> dict:
    shown = selected_metrics(result, trace)
    print(f"{label}: {result['repetitions']} repetition(s), ledger "
          f"{json.dumps(result['ledger'], sort_keys=True)}, latency "
          f"samples {result['samples']}, kernel events {result['events']}, "
          f"digest {result['digest']}")
    if "raw" in result:
        print("  raw host seconds, medians: " + ", ".join(
            f"{key} {value:.6g}" for key, value in result["raw"].items()))
    for name, entry in shown.items():
        print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']}")
    return shown


# ------------------------------------------------------------ modes
def record_digest(name: str, size: int, seed: int, digest: str) -> None:
    digests = _load_digests()
    digests.setdefault(name, {}).setdefault(str(size), {})[str(seed)] = \
        digest
    with open(DIGESTS, "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_manifest() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
        json.dump(spec.manifest(), handle, indent=2)
        handle.write("\n")


def run_all(seed: int, seconds: float) -> None:
    """Every workload, plain and traced, as one table."""
    columns = {}
    for name, _ in spec.WORKLOADS:
        size = spec.DEFAULT_SIZE[name]
        plain = measure(name, seed, seconds, size)
        traced = measure_traced(name, seed, size)
        columns[name] = dict(selected_metrics(plain, False),
                             **selected_metrics(traced, True))
        print(f"{name}: {plain['repetitions']} repetition(s), ledger "
              f"{json.dumps(plain['ledger'], sort_keys=True)}", flush=True)
    print("env " + json.dumps(plain["environment"], sort_keys=True))
    names = list(columns)
    print(f"\n{'metric':34s} {'unit':>10s} "
          + " ".join(f"{name:>14s}" for name in names))
    for metric in columns[names[0]]:
        print(f"{metric:34s} {spec.UNITS[metric]:>10s} " + " ".join(
            f"{columns[name][metric]['value']:>14.6g}" for name in names))
    print(json.dumps(columns, sort_keys=True))


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload",
                        choices=[name for name, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="clients (default: the workload's full size)")
    parser.add_argument("--holdout-seed", type=int, default=None)
    parser.add_argument("--record-digest", action="store_true")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--manifest", action="store_true")
    parser.add_argument("--repetition", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.workload or args.all or args.manifest):
        parser.error("one of --workload, --all or --manifest is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.manifest:
        write_manifest()
        return 0
    try:
        if args.repetition:
            record = repetition(args.workload, args.seed, args.size,
                                bool(args.trace))
            print(json.dumps(record, sort_keys=True))
            return 0
        if args.all:
            run_all(args.seed, args.seconds)
            return 0
        name, trace = args.workload, bool(args.trace)
        size = args.size or spec.DEFAULT_SIZE[name]
        result = run_one(name, args.seed, args.seconds, trace, size)
        print("env " + json.dumps(result["environment"], sort_keys=True))
        shown = print_result(f"{name} seed {args.seed}", result, trace)
        if args.record_digest:
            record_digest(name, size, args.seed, result["digest"])
        if args.holdout_seed is not None:
            held = run_one(name, args.holdout_seed, args.seconds, trace,
                           size)
            held_shown = print_result(
                f"{name} held-out seed {args.holdout_seed}", held, trace)
            print("holdout " + json.dumps(
                {"seed": args.holdout_seed, "metrics": held_shown},
                sort_keys=True))
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": result["repetitions"],
                      "failed": 0, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
