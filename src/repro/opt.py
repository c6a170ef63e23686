"""The optimisations every run carries, stated for result stamping.

There are no switches.  An optimisation stays in the tree only while an
ablation on the current tree shows it wins by more than the noise
(DESIGN.md §10), and then it is always on:

* ``sql_cache`` — ``repro.db.sql.parse`` memoizes the AST per SQL text;
* ``gc_isolation`` — ``repro.perf.GCIsolation`` freezes the host
  interpreter's live object graph around the measured run loop.

Both touch host time only, never the virtual timeline.  Benchmark
results record :data:`OPTIMIZATIONS` so a reader can tell which of
them the numbers include.
"""

from __future__ import annotations

__all__ = ["OPTIMIZATIONS"]


class _Optimizations:
    """Read-only record of the always-on optimisations."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {"gc_isolation": True, "sql_cache": True}


#: Stamped into benchmark results; it switches nothing.
OPTIMIZATIONS = _Optimizations()
