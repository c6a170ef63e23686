"""Performance rules: keep known-quadratic idioms off the hot path.

The benchmark profile showed ``list.pop(0)`` on packet and frame queues
as a measurable cost at load (each call shifts every remaining element).
The rule encodes the repo-wide convention adopted in the optimization
pass: FIFO queues use :class:`collections.deque` with ``popleft()``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, SEVERITY_WARNING
from .base import ModuleInfo, Rule, register_rule

__all__ = ["HotQueuePopRule", "DirectHeapqRule"]


def _is_zero(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == 0


@register_rule
class HotQueuePopRule(Rule):
    """No ``x.pop(0)`` / ``x.insert(0, ...)`` inside ``repro``.

    Both are O(n) on lists and crop up on exactly the queues that grow
    under load.  Use ``collections.deque`` with ``popleft()`` /
    ``appendleft()``; for a genuine list (or a deque, where ``insert``
    is fine), suppress with ``# repro: noqa[hot-queue-pop]``.
    """

    rule_id = "hot-queue-pop"
    severity = SEVERITY_WARNING
    description = ("O(n) front-of-list operation; use deque.popleft() / "
                   "appendleft()")

    def check_module(self, info: ModuleInfo) -> Iterator[Finding]:
        if not info.in_package("repro"):
            return
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call) or \
                    not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            args = node.args
            if method == "pop" and len(args) == 1 and _is_zero(args[0]):
                yield self.finding(
                    info, node.lineno,
                    "pop(0) shifts the whole list on every call; "
                    "use collections.deque and popleft()",
                )
            elif method == "insert" and len(args) == 2 and _is_zero(args[0]):
                yield self.finding(
                    info, node.lineno,
                    "insert(0, ...) shifts the whole list on every call; "
                    "use collections.deque and appendleft()",
                )


@register_rule
class DirectHeapqRule(Rule):
    """No direct ``heapq`` use outside :mod:`repro.sim.sched`.

    The kernel's event ordering is owned by its event queue
    (``repro.sim.sched``); a stray ``heapq`` priority queue elsewhere
    tends to become a shadow event queue whose ordering bypasses the
    kernel's ``(time, priority, seq)`` total order.  Algorithmic uses
    that are *not* event scheduling (e.g. Dijkstra's frontier in the
    routing table) suppress with ``# repro: noqa[direct-heapq]`` and a
    justification.
    """

    rule_id = "direct-heapq"
    severity = SEVERITY_WARNING
    description = ("direct heapq use outside repro.sim.sched; schedule "
                   "through the kernel's event queue")

    SANCTIONED = "repro.sim.sched"

    def check_module(self, info: ModuleInfo) -> Iterator[Finding]:
        if not info.in_package("repro") or info.module == self.SANCTIONED:
            return
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
                if any(name == "heapq" or name.startswith("heapq.")
                       for name in names):
                    yield self.finding(
                        info, node.lineno,
                        "import heapq outside repro.sim.sched; event "
                        "ordering belongs to the kernel's event queue",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module is not None and \
                        (node.module == "heapq"
                         or node.module.startswith("heapq.")):
                    yield self.finding(
                        info, node.lineno,
                        "from heapq import ... outside repro.sim.sched; "
                        "event ordering belongs to the kernel's event "
                        "queue",
                    )
