"""Self-test of the benchmark at a tiny scale (about half a minute).

    python3 perfbench/selftest.py

For every workload it checks that a plain and a traced run report every
named metric with its unit, that two runs of one seed reproduce the
simulated-results digest, and that ``BENCHMARK.json`` matches
``spec.py``.  Exits 1 on the first failure.
"""

import json
import os
import sys

import run
import spec

SIZE = 8
SEED = 5


def check(condition: bool, message: str) -> None:
    if not condition:
        raise run.CheckFailed(message)


def check_metrics(shown: dict, table) -> None:
    for name, unit, *_ in table:
        check(name in shown, f"metric {name} missing")
        check(shown[name]["unit"] == unit,
              f"metric {name} has unit {shown[name]['unit']}, not {unit}")
        value = shown[name]["value"]
        check(isinstance(value, (int, float)) and value == value,
              f"metric {name} is not a number: {value!r}")
    check(len(shown) == len(table), "unexpected extra metrics")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        committed = json.load(handle)
    try:
        check(committed == spec.manifest(),
              "BENCHMARK.json is stale: run perfbench/run.py --manifest")
        for name, _ in spec.WORKLOADS:
            first = run.measure(name, SEED, 0, SIZE)
            second = run.measure(name, SEED, 0, SIZE)
            check(first["digest"] == second["digest"],
                  f"{name}: digest changed between two runs of seed {SEED}")
            check_metrics(run.selected_metrics(first, False),
                          spec.END_TO_END)
            traced = run.measure_traced(name, SEED, SIZE)
            check_metrics(run.selected_metrics(traced, True),
                          spec.PER_LAYER)
            shares = sum(traced["metrics"][f"{layer}.host_share"]
                         for layer in spec.HOST_LAYERS)
            check(abs(shares - 1.0) < 1e-6,
                  f"{name}: host shares add up to {shares}, not 1")
            print(f"{name}: ok (digest {first['digest'][:16]}...)",
                  flush=True)
    except run.CheckFailed as exc:
        print(f"selftest: FAIL: {exc}", file=sys.stderr)
        return 1
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
