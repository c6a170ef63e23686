"""Fork-safety rule: module-level state that outlives one system.

A simulated system must compute the same bytes whether it is the first
or the fifth one built in a process.  Any module-level mutable container
or counter that code advances at runtime breaks that: the second system
built in one interpreter (a repeat, an A/B guard, a test after another
test) starts from whatever the first left behind, so its results
depend on run history.  ``security.auth`` once numbered tokens from a
module-level ``itertools.count``, and two same-seed runs in one process
disagreed.  Per-instance state is safe: every instance lives in exactly
one system's object graph.  The same state would also diverge across
forked processes, which is where the rule id comes from.

The rule flags a module-level name bound to a mutable container
(literal or known factory call) that any function in the module then
mutates — method mutators (``append``/``update``/...), subscript
assignment, augmented assignment or ``del`` — and a module-level
``itertools.count(...)`` that a function advances with ``next(NAME)``.
Registries filled once at import time by decorators are conventionally
suppressed with ``# repro: noqa[fork-unsafe-global]`` and a
justification, as are process-wide caches and ids whose history never
reaches a result.  Tooling under ``repro.analysis`` is exempt: it
inspects systems but is no part of one.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, SEVERITY_WARNING
from .base import ModuleInfo, Rule, register_rule
from .hygiene import _mutable_default

__all__ = ["ForkUnsafeGlobalRule"]

MUTATOR_METHODS = {
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "pop", "popitem", "remove", "setdefault",
    "update",
}

# Packages that build no simulated system: their state cannot leak
# from one run into the next.
EXEMPT_PACKAGES = ("repro.analysis",)


def _module_level_mutables(tree: ast.Module) -> dict:
    """Module-scope ``NAME = <mutable>`` bindings -> assignment line."""
    bindings: dict = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value = node.value
        else:
            continue
        if _mutable_default(value) is None:
            continue
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if isinstance(target, ast.Name):
                bindings.setdefault(target.id, node.lineno)
    return bindings


def _is_count_call(value: ast.AST, count_names: set) -> bool:
    """Is ``value`` a call of ``itertools.count`` (under any import)?"""
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Attribute):
        return (func.attr == "count" and isinstance(func.value, ast.Name)
                and func.value.id == "itertools")
    return isinstance(func, ast.Name) and func.id in count_names


def _module_level_counters(tree: ast.Module) -> dict:
    """Module-scope ``NAME = itertools.count(...)`` -> assignment line."""
    count_names = {alias.asname or alias.name
                   for node in tree.body
                   if isinstance(node, ast.ImportFrom)
                   and node.module == "itertools"
                   for alias in node.names if alias.name == "count"}
    bindings: dict = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) \
                and _is_count_call(node.value, count_names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bindings.setdefault(target.id, node.lineno)
    return bindings


def _local_bindings(func: ast.AST) -> set:
    """Names the function binds locally (params, assignments) without
    declaring them ``global`` — those shadow the module global."""
    declared_global: set = set()
    local: set = set()
    args = func.args
    for arg in (args.posonlyargs + args.args + args.kwonlyargs
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])):
        local.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    local.add(target.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    local.add(sub.id)
    return local - declared_global


def _mutations(func: ast.AST, names: set,
               counters: set) -> Iterator[tuple]:
    """(name, lineno, use) for each mutation of a tracked global."""
    shadowed = _local_bindings(func)
    visible = names - shadowed
    advanced = counters - shadowed
    if not visible and not advanced:
        return
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "next" and node.args \
                and isinstance(node.args[0], ast.Name) \
                and node.args[0].id in advanced:
            name = node.args[0].id
            yield (name, node.lineno, f"next({name})")
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in visible \
                and node.func.attr in MUTATOR_METHODS:
            name = node.func.value.id
            yield (name, node.lineno, f"{name}.{node.func.attr}()")
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id in visible:
                    name = target.value.id
                    yield (name, node.lineno, f"{name}[...] =")
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id in visible:
                    name = target.value.id
                    yield (name, node.lineno, f"del {name}[...]")


@register_rule
class ForkUnsafeGlobalRule(Rule):
    """Module-level state mutated at runtime leaks from one simulated
    system into the next one built in the process; hang it off an
    instance instead."""

    rule_id = "fork-unsafe-global"
    severity = SEVERITY_WARNING
    description = "module-level mutable state or counter mutated at " \
                  "runtime (leaks between systems built in one process)"

    def check_module(self, info: ModuleInfo) -> Iterator[Finding]:
        if not info.in_package("repro"):
            return
        if any(info.in_package(package) for package in EXEMPT_PACKAGES):
            return
        mutables = _module_level_mutables(info.tree)
        counters = _module_level_counters(info.tree)
        if not mutables and not counters:
            return
        bindings = {**mutables, **counters}
        reported: set = set()
        for node in ast.walk(info.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            for name, lineno, use in _mutations(node, set(mutables),
                                                set(counters)):
                if name in reported:
                    continue
                reported.add(name)
                yield self.finding(
                    info, bindings[name],
                    f"module-level {name!r} is mutated at runtime "
                    f"(line {lineno}: {use}); a second system built in "
                    "this process starts from the first one's state, so "
                    "its results depend on run history — move it onto "
                    "an instance, or suppress with a justification if "
                    "that history never reaches a result",
                )
