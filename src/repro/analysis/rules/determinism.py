"""Determinism rules: virtual time and seeded randomness only.

Reproducible runs require that nothing outside the simulation kernel
reads the wall clock or draws from process-global randomness — both
make traces irreproducible across runs and machines.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, SEVERITY_ERROR
from .base import ModuleInfo, Rule, register_rule

__all__ = ["WallClockRule", "ModuleRandomRule"]

# The only package allowed to touch host time / host RNG state.
KERNEL_PACKAGE = "repro.sim"

# module -> attribute names that read or depend on the wall clock.
WALL_CLOCK_ATTRS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns",
             "perf_counter", "perf_counter_ns", "sleep", "localtime",
             "gmtime"},
    "datetime": {"now", "utcnow", "today"},
}


def _dotted(node: ast.AST) -> str:
    """Render ``a.b.c`` attribute chains; '' for anything dynamic."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


@register_rule
class WallClockRule(Rule):
    """No wall-clock access outside the simulation kernel.

    Flags calls such as ``time.time()``, ``time.sleep()``,
    ``datetime.datetime.now()`` and bare ``sleep(...)``/``time()``
    imported from :mod:`time` — everywhere except ``repro.sim``.
    Simulated code must use ``sim.now`` and ``sim.timeout()``.
    """

    rule_id = "wall-clock"
    severity = SEVERITY_ERROR
    description = ("wall-clock read/sleep outside the kernel; use "
                   "sim.now / sim.timeout()")

    def check_module(self, info: ModuleInfo) -> Iterator[Finding]:
        if info.in_package(KERNEL_PACKAGE):
            return
        # Names imported straight off the time module: from time import X.
        direct: dict[str, str] = {}
        for node in ast.walk(info.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module in WALL_CLOCK_ATTRS:
                for alias in node.names:
                    if alias.name in WALL_CLOCK_ATTRS[node.module]:
                        direct[alias.asname or alias.name] = \
                            f"{node.module}.{alias.name}"
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            if not name:
                continue
            if name in direct:
                yield self.finding(
                    info, node.lineno,
                    f"call to {direct[name]} (imported as {name!r}): "
                    "wall-clock time is nondeterministic in simulation",
                )
                continue
            head, _, tail = name.partition(".")
            attr = tail.rsplit(".", 1)[-1] if tail else ""
            if head in WALL_CLOCK_ATTRS and attr in WALL_CLOCK_ATTRS[head]:
                yield self.finding(
                    info, node.lineno,
                    f"call to {name}: wall-clock time is nondeterministic "
                    "in simulation; use the kernel's virtual clock",
                )
            elif head == "datetime" and tail and \
                    attr in WALL_CLOCK_ATTRS["datetime"]:
                yield self.finding(
                    info, node.lineno,
                    f"call to {name}: wall-clock date is nondeterministic "
                    "in simulation",
                )


@register_rule
class ModuleRandomRule(Rule):
    """No direct use of :mod:`random` outside ``repro.sim.random``.

    All stochastic draws must come from a named, seeded
    :class:`repro.sim.RandomStream` so that two runs with the same root
    seed produce identical traces.
    """

    rule_id = "module-random"
    severity = SEVERITY_ERROR
    description = ("direct 'random' module use; draw from a seeded "
                   "repro.sim.RandomStream instead")

    ALLOWED_MODULE = "repro.sim.random"

    def check_module(self, info: ModuleInfo) -> Iterator[Finding]:
        if info.module == self.ALLOWED_MODULE:
            return
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or \
                            alias.name.startswith("random."):
                        yield self.finding(
                            info, node.lineno,
                            f"import of {alias.name!r}: unseeded global "
                            "RNG breaks reproducibility; use "
                            "repro.sim.SeedBank streams",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "random":
                    yield self.finding(
                        info, node.lineno,
                        "from-import of the 'random' module: use "
                        "repro.sim.SeedBank streams",
                    )
