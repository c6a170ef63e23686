"""Tests for the sim-safety linter: every rule detects its violation,
stays quiet on clean code, and honours ``# repro: noqa[...]``."""

import json
import os
import textwrap

import pytest

from repro.__main__ import main
from repro.analysis import Finding, Linter, lint_paths
from repro.analysis.rules import ModuleInfo, RULE_REGISTRY, default_rules

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_rule(rule_id, source, module=None, path="fixture.py"):
    """Findings of one rule over one dedented source snippet."""
    info = ModuleInfo.parse(path, textwrap.dedent(source), module=module)
    report = Linter(default_rules(only=[rule_id])).lint_sources([info])
    return report


# -- wall-clock --------------------------------------------------------------

def test_wall_clock_detects_time_calls():
    report = run_rule("wall-clock", """\
        import time
        def measure():
            start = time.time()
            time.sleep(1)
            return time.perf_counter() - start
    """)
    assert [f.line for f in report.findings] == [3, 4, 5]
    assert all(f.rule_id == "wall-clock" for f in report.findings)


def test_wall_clock_detects_from_import_and_datetime():
    report = run_rule("wall-clock", """\
        from time import sleep
        from datetime import datetime
        def nap():
            sleep(2)
            return datetime.now()
    """)
    assert len(report.findings) == 2


def test_wall_clock_allows_kernel_and_virtual_time():
    report = run_rule("wall-clock", """\
        import time
        def kernel_tick():
            return time.time()
    """, module="repro.sim.kernel")
    assert report.findings == []
    clean = run_rule("wall-clock", """\
        def worker(env):
            yield env.timeout(5)
            return env.now
    """)
    assert clean.findings == []


def test_wall_clock_suppressed():
    report = run_rule("wall-clock", """\
        import time
        def bench():
            return time.time()  # repro: noqa[wall-clock] host-side bench
    """)
    assert report.findings == []
    assert report.suppressed == 1


# -- module-random ----------------------------------------------------------

def test_module_random_detects_import_forms():
    report = run_rule("module-random", """\
        import random
        from random import choice
    """)
    assert [f.line for f in report.findings] == [1, 2]


def test_module_random_allows_sim_random_and_streams():
    report = run_rule("module-random", "import random\n",
                      module="repro.sim.random")
    assert report.findings == []
    clean = run_rule("module-random", """\
        from repro.sim import SeedBank
        stream = SeedBank(0).stream("loss")
    """)
    assert clean.findings == []


def test_module_random_suppressed():
    report = run_rule(
        "module-random",
        "import random  # repro: noqa[module-random] fixture shuffling\n")
    assert report.findings == []
    assert report.suppressed == 1


# -- yield-event --------------------------------------------------------------

def test_yield_event_detects_constant_yields():
    report = run_rule("yield-event", """\
        def proc(env):
            yield 42
            yield None
            yield
    """)
    assert [f.line for f in report.findings] == [2, 3, 4]


def test_yield_event_ignores_non_process_and_event_yields():
    report = run_rule("yield-event", """\
        def numbers():
            yield 1
        def proc(sim):
            yield sim.timeout(1)
            def helper():
                yield 2
    """)
    assert report.findings == []


def test_yield_event_suppressed():
    report = run_rule("yield-event", """\
        def proc(env):
            yield 42  # repro: noqa[yield-event] malformed on purpose
    """)
    assert report.findings == []
    assert report.suppressed == 1


# -- bare-except / broad-except ------------------------------------------------

def test_bare_except_detected_and_clean():
    report = run_rule("bare-except", """\
        try:
            risky()
        except:
            pass
    """)
    assert [f.line for f in report.findings] == [3]
    clean = run_rule("bare-except", """\
        try:
            risky()
        except ValueError:
            pass
    """)
    assert clean.findings == []


def test_broad_except_detects_exception_and_tuple():
    report = run_rule("broad-except", """\
        try:
            risky()
        except Exception:
            pass
        try:
            risky()
        except (ValueError, BaseException):
            pass
    """)
    assert len(report.findings) == 2
    clean = run_rule("broad-except", """\
        try:
            risky()
        except (ValueError, KeyError):
            pass
    """)
    assert clean.findings == []


def test_broad_except_suppressed():
    report = run_rule("broad-except", """\
        try:
            risky()
        except Exception:  # repro: noqa[broad-except] fault barrier
            pass
    """)
    assert report.findings == []
    assert report.suppressed == 1


# -- mutable-default ----------------------------------------------------------

def test_mutable_default_detects_literals_and_calls():
    report = run_rule("mutable-default", """\
        def f(a, b=[], c={}, d=dict()):
            return a
    """)
    assert len(report.findings) == 3


def test_mutable_default_allows_none_and_tuples():
    report = run_rule("mutable-default", """\
        def f(a, b=None, c=(), d="x", e=0):
            return a
    """)
    assert report.findings == []


def test_mutable_default_suppressed():
    report = run_rule("mutable-default", """\
        def f(cache={}):  # repro: noqa[mutable-default] shared memo
            return cache
    """)
    assert report.findings == []
    assert report.suppressed == 1


# -- export-drift --------------------------------------------------------------

def test_export_drift_detects_phantom_and_missing():
    report = run_rule("export-drift", """\
        __all__ = ["exists", "phantom", "exists"]
        def exists():
            pass
        def unlisted():
            pass
    """)
    messages = [f.message for f in report.findings]
    assert any("phantom" in m for m in messages)
    assert any("twice" in m for m in messages)
    assert any("unlisted" in m for m in messages)


def test_export_drift_clean_and_no_all():
    clean = run_rule("export-drift", """\
        __all__ = ["public", "CONST"]
        CONST = 1
        def public():
            pass
        def _private():
            pass
    """)
    assert clean.findings == []
    no_all = run_rule("export-drift", "def anything():\n    pass\n")
    assert no_all.findings == []


def test_export_drift_suppressed():
    report = run_rule(
        "export-drift",
        '__all__ = ["ghost"]  # repro: noqa[export-drift] lazy attr\n')
    assert report.findings == []
    assert report.suppressed == 1


# -- import-cycle --------------------------------------------------------------

def _modules(**sources):
    return [ModuleInfo.parse(f"{name.replace('.', '/')}.py",
                             textwrap.dedent(src), module=name)
            for name, src in sources.items()]


def run_cycle_rule(infos):
    return Linter(default_rules(only=["import-cycle"])).lint_sources(infos)


def test_import_cycle_detected():
    report = run_cycle_rule(_modules(**{
        "repro.aa.one": "from repro.bb import two\n",
        "repro.bb.two": "import repro.aa.one\n",
    }))
    assert len(report.findings) == 1
    assert "repro.aa.one" in report.findings[0].message
    assert "repro.bb.two" in report.findings[0].message


def test_import_cycle_ignores_acyclic_and_type_checking():
    acyclic = run_cycle_rule(_modules(**{
        "repro.aa.one": "from repro.bb import two\n",
        "repro.bb.two": "import json\n",
    }))
    assert acyclic.findings == []
    guarded = run_cycle_rule(_modules(**{
        "repro.aa.one": textwrap.dedent("""\
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from repro.bb import two
        """),
        "repro.bb.two": "import repro.aa.one\n",
    }))
    assert guarded.findings == []


def test_import_cycle_resolves_relative_imports():
    report = run_cycle_rule([
        ModuleInfo.parse("repro/aa/__init__.py",
                         "from .one import x\n", module="repro.aa"),
        ModuleInfo.parse("repro/aa/one.py",
                         "from . import helper\n", module="repro.aa.one"),
    ])
    assert len(report.findings) == 1


def test_import_cycle_suppressed():
    report = run_cycle_rule([
        ModuleInfo.parse(
            "repro/aa/one.py",
            "from repro.bb import two  # repro: noqa[import-cycle] legacy\n",
            module="repro.aa.one"),
        ModuleInfo.parse("repro/bb/two.py", "import repro.aa.one\n",
                         module="repro.bb.two"),
    ])
    assert report.findings == []
    assert report.suppressed == 1


# -- hot-queue-pop -----------------------------------------------------------

def test_hot_queue_pop_detects_front_of_list_ops():
    report = run_rule("hot-queue-pop", """\
        def drain(queue):
            head = queue.pop(0)
            queue.insert(0, head)
            return head
    """, module="repro.net.fixture")
    assert [f.line for f in report.findings] == [2, 3]
    assert all(f.rule_id == "hot-queue-pop" for f in report.findings)


def test_hot_queue_pop_allows_tail_ops_and_foreign_modules():
    clean = run_rule("hot-queue-pop", """\
        def drain(queue, table):
            last = queue.pop()
            removed = table.pop("key")
            queue.insert(2, last)
            return queue.popleft()
    """, module="repro.net.fixture")
    assert clean.findings == []
    # Outside the repro package the idiom is not our business.
    foreign = run_rule("hot-queue-pop", """\
        def drain(queue):
            return queue.pop(0)
    """, module="thirdparty.queue")
    assert foreign.findings == []


def test_hot_queue_pop_suppressed():
    report = run_rule("hot-queue-pop", """\
        def reorder(parts, package):
            parts.insert(0, package)  # repro: noqa[hot-queue-pop]
    """, module="repro.analysis.fixture")
    assert report.findings == []
    assert report.suppressed == 1


# -- set-iteration -----------------------------------------------------------

def test_set_iteration_flags_loops_and_conversions():
    report = run_rule("set-iteration", """\
        members = {"a", "b"}
        def walk():
            for m in members:
                print(m)
            ordered = list(members)
            joined = ",".join(members)
            combos = [m for m in members | {"c"}]
            return ordered, joined, combos
    """, module="repro.fake.walk")
    assert [f.line for f in report.findings] == [3, 5, 6, 7]
    assert all(f.rule_id == "set-iteration" for f in report.findings)


def test_set_iteration_allows_sorted_and_aggregates():
    report = run_rule("set-iteration", """\
        members = {"a", "b"}
        def walk():
            for m in sorted(members):
                print(m)
            return len(members), max(members), "a" in members
    """, module="repro.fake.walk")
    assert report.findings == []


def test_set_iteration_only_in_sim_facing_code():
    source = """\
        def walk():
            for m in {"a", "b"}:
                print(m)
    """
    foreign = run_rule("set-iteration", source, module="thirdparty.mod")
    assert foreign.findings == []
    tooling = run_rule("set-iteration", source,
                       module="repro.analysis.fixture")
    assert tooling.findings == []
    sim_facing = run_rule("set-iteration", source, module="repro.web.fake")
    assert len(sim_facing.findings) == 1


def test_set_iteration_suppressed():
    report = run_rule("set-iteration", """\
        def walk(members: set):
            return list(set(members))  # repro: noqa[set-iteration]
    """, module="repro.fake.walk")
    assert report.findings == []
    assert report.suppressed == 1


# -- fork-unsafe-global ------------------------------------------------------

def test_fork_unsafe_global_flags_mutated_module_list():
    report = run_rule("fork-unsafe-global", """\
        PENDING = []
        LIMITS = {"max": 3}
        def enqueue(item):
            PENDING.append(item)
            return LIMITS["max"]
        def shadowed(PENDING):
            PENDING.append(1)
    """, module="repro.fake.queue")
    assert [f.line for f in report.findings] == [1]
    assert "'PENDING'" in report.findings[0].message
    assert "line 4: PENDING.append()" in report.findings[0].message


def test_fork_unsafe_global_flags_counter_advanced_with_next():
    report = run_rule("fork-unsafe-global", """\
        import itertools
        from itertools import count as counter
        _ids = itertools.count(1)
        _serials = counter()
        _unused = itertools.count(1)
        def issue():
            return next(_ids), next(_serials)
        class Issuer:
            def __init__(self):
                self._own = itertools.count(1)
            def issue(self):
                return next(self._own)
    """, module="repro.fake.ids")
    assert [f.line for f in report.findings] == [3, 4]
    assert "line 7: next(_ids)" in report.findings[0].message


def test_fork_unsafe_global_suppressed():
    report = run_rule("fork-unsafe-global", """\
        import itertools
        _ids = itertools.count(1)  # repro: noqa[fork-unsafe-global] label
        def issue():
            return next(_ids)
    """, module="repro.fake.ids")
    assert report.findings == []
    assert report.suppressed == 1


def test_fork_unsafe_global_exempts_analysis_and_foreign_code():
    source = """\
        import itertools
        SEEN = []
        _ids = itertools.count(1)
        def note(item):
            SEEN.append(item)
            return next(_ids)
    """
    assert run_rule("fork-unsafe-global", source,
                    module="repro.analysis.fixture").findings == []
    assert run_rule("fork-unsafe-global", source,
                    module="thirdparty.mod").findings == []
    assert len(run_rule("fork-unsafe-global", source,
                        module="repro.web.fake").findings) == 2


# -- stable output ordering ---------------------------------------------------

def test_findings_sorted_regardless_of_input_order():
    """Identical byte output however files and rules are discovered."""
    sources = [
        ModuleInfo.parse("zz.py", "import random\nimport time\n",
                         module="repro.fake.zz"),
        ModuleInfo.parse("aa.py", "import random\n",
                         module="repro.fake.aa"),
    ]
    forward = Linter().lint_sources(sources)
    reverse = Linter().lint_sources(list(reversed(sources)))
    assert forward.render_text() == reverse.render_text()
    keys = [(f.file, f.line, f.rule_id, f.message)
            for f in forward.findings]
    assert keys == sorted(keys)


def test_parse_errors_render_sorted(tmp_path):
    for name in ("zz_bad.py", "aa_bad.py"):
        (tmp_path / name).write_text("def broken(:\n")
    report = lint_paths([str(tmp_path)])
    assert len(report.parse_errors) == 2
    assert report.parse_errors == sorted(report.parse_errors)
    assert "aa_bad.py" in report.parse_errors[0]


# -- catalogue, suppression syntax, report plumbing ---------------------------

def test_catalogue_has_at_least_eight_rules():
    assert len(RULE_REGISTRY) >= 8
    assert set(RULE_REGISTRY) >= {
        "wall-clock", "module-random", "yield-event", "bare-except",
        "broad-except", "mutable-default", "export-drift", "import-cycle",
        "hot-queue-pop", "set-iteration",
    }


def test_bare_noqa_suppresses_every_rule():
    report = run_rule("bare-except", """\
        try:
            risky()
        except:  # repro: noqa
            pass
    """)
    assert report.findings == []
    assert report.suppressed == 1


def test_unrelated_noqa_does_not_suppress():
    report = run_rule("bare-except", """\
        try:
            risky()
        except:  # repro: noqa[wall-clock]
            pass
    """)
    assert len(report.findings) == 1


def test_unknown_rule_id_rejected():
    with pytest.raises(KeyError):
        default_rules(only=["no-such-rule"])


def test_finding_rejects_unknown_severity():
    with pytest.raises(ValueError):
        Finding("f.py", 1, "x", "fatal", "boom")


# -- JSON output and CLI -------------------------------------------------------

def test_json_report_schema(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    report = lint_paths([str(bad)])
    payload = json.loads(report.render_json())
    assert set(payload) == {"findings", "files_checked", "suppressed",
                            "parse_errors"}
    assert payload["files_checked"] == 1
    (finding,) = payload["findings"]
    assert set(finding) == {"file", "line", "rule_id", "severity", "message"}
    assert finding["rule_id"] == "module-random"
    assert finding["line"] == 1


def test_cli_lint_flags_seeded_violation(tmp_path, capsys):
    bad = tmp_path / "seeded.py"
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "wall-clock" in out


def test_cli_lint_clean_file_exits_zero(tmp_path, capsys):
    good = tmp_path / "clean.py"
    good.write_text("def f(env):\n    yield env.timeout(1)\n")
    assert main(["lint", str(good)]) == 0


def test_cli_lint_strict_fails_on_warning(tmp_path):
    drifty = tmp_path / "drift.py"
    drifty.write_text('__all__ = ["ghost"]\n')
    assert main(["lint", str(drifty)]) == 0
    assert main(["lint", str(drifty), "--strict"]) == 1


def test_cli_lint_json_output(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    assert main(["lint", str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"][0]["rule_id"] == "module-random"


def test_repo_lints_clean_under_strict(capsys):
    """The acceptance gate: the repo passes its own linter."""
    targets = [os.path.join(REPO_ROOT, "src", "repro"),
               os.path.join(REPO_ROOT, "benchmarks"),
               os.path.join(REPO_ROOT, "examples")]
    assert all(os.path.isdir(t) for t in targets)
    assert main(["lint", "--strict", *targets]) == 0
