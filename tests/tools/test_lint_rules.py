"""Tests of the ``repro-lint`` static analyzer.

Each AST rule gets a seeded violating fixture and a clean counterpart;
the registry layer gets a deliberately broken registry; the baseline and
CLI get workflow tests; unreadable paths surface as RPL099; and a
self-check asserts that linting the live tree matches the committed
``lint-baseline.json`` exactly.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.tools.lint import (
    Finding,
    LintRunner,
    RegistrySpec,
    all_rules,
    check_registries,
    compare_with_baseline,
    load_baseline,
    main,
    run_lint,
    write_baseline,
)
import repro.tools.lint.dataflow as dataflow_module
import repro.tools.lint.engine as engine_module

REPO_ROOT = Path(__file__).resolve().parents[2]


def write_tree(tmp_path: Path, sources: dict[str, str]) -> None:
    """Write ``{rel_path: source}`` under ``tmp_path``."""
    for rel_path, source in sources.items():
        target = tmp_path / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")


def lint_dir(tmp_path: Path) -> list[Finding]:
    """Run every rule over everything under ``tmp_path``."""
    module_rules, project_rules = all_rules()
    runner = LintRunner(
        module_rules=module_rules, project_rules=project_rules, root=tmp_path
    )
    return runner.run([tmp_path])


def lint_source(tmp_path: Path, source: str, name: str = "fixture.py") -> list[Finding]:
    """Write ``source`` under ``tmp_path`` and run every rule over it."""
    write_tree(tmp_path, {name: source})
    return lint_dir(tmp_path)


def codes(findings: list[Finding]) -> list[str]:
    return [finding.rule for finding in findings]


class TestDeterminismRule:
    def test_unseeded_rng_and_wall_clocks_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import os
            import random
            import time
            from datetime import datetime

            import numpy as np


            def noisy():
                rng = np.random.default_rng()
                jitter = random.random()
                stamp = time.time()
                now = datetime.now()
                token = os.urandom(8)
                return rng, jitter, stamp, now, token
            """,
        )
        assert codes(findings) == ["RPL001"] * 5

    def test_seeded_rng_and_perf_counter_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            import numpy as np


            def tidy(seed: int = 0):
                rng = np.random.default_rng(seed)
                legacy = np.random.RandomState(42)
                started = time.perf_counter()
                return rng, legacy, started


            def driver():
                return tidy(123)
            """,
        )
        assert findings == []

    def test_legacy_global_numpy_stream_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np


            def sample(n):
                return np.random.rand(n)
            """,
        )
        assert codes(findings) == ["RPL001"]


class TestPicklabilityRule:
    def test_unpicklable_payload_reached_from_process_submit(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import threading
            from concurrent.futures import ProcessPoolExecutor
            from dataclasses import dataclass, field


            @dataclass
            class Payload:
                lock: threading.Lock = field(default_factory=threading.Lock)


            def worker(payload: "Payload") -> int:
                return 0


            def sweep(items):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(worker, item) for item in items]
            """,
        )
        assert "RPL002" in codes(findings)
        assert any("Payload" in finding.message for finding in findings)

    def test_lambda_and_nested_function_submissions_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from concurrent.futures import ProcessPoolExecutor


            def sweep(items):
                def inner(x):
                    return x

                with ProcessPoolExecutor() as pool:
                    one = pool.submit(lambda: 1)
                    two = [pool.submit(inner, i) for i in items]
                return one, two
            """,
        )
        assert codes(findings) == ["RPL002", "RPL002"]

    def test_thread_pool_closures_are_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from concurrent.futures import ThreadPoolExecutor


            def sweep(items):
                def inner(x):
                    return x

                with ThreadPoolExecutor() as pool:
                    return list(pool.map(inner, items))
            """,
        )
        assert findings == []

    def test_picklable_payload_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from concurrent.futures import ProcessPoolExecutor
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class Payload:
                name: str
                weight: float


            def worker(payload: "Payload") -> float:
                return payload.weight


            def sweep(items):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(worker, item) for item in items]
            """,
        )
        assert findings == []

    @pytest.mark.parametrize("sibling", ["core", "zcore"])
    def test_payload_resolves_past_a_same_stem_module(self, tmp_path, sibling):
        # Two linted ``metrics.py`` files: the payload must be found in the
        # one the worker imports, whichever of the two sorts last.
        write_tree(
            tmp_path,
            {
                "pkg/obs/metrics.py": """
                import threading
                from dataclasses import dataclass, field


                @dataclass
                class Payload:
                    lock: threading.Lock = field(default_factory=threading.Lock)
                """,
                f"pkg/{sibling}/metrics.py": """
                def total():
                    return 0
                """,
                "pkg/net/sweep.py": """
                from concurrent.futures import ProcessPoolExecutor

                from pkg.obs.metrics import Payload


                def worker(item):
                    return Payload()


                def sweep(items):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(worker, items))
                """,
            },
        )
        picklability = [
            finding for finding in lint_dir(tmp_path) if finding.rule == "RPL002"
        ]
        assert [finding.path for finding in picklability] == [
            "pkg/obs/metrics.py"
        ]
        assert "Payload" in picklability[0].message

    LOCKED_PAYLOAD = """
    import threading
    from dataclasses import dataclass, field


    @dataclass
    class Payload:
        lock: threading.Lock = field(default_factory=threading.Lock)
    """

    def rpl002(self, tmp_path: Path) -> list[Finding]:
        return [
            finding for finding in lint_dir(tmp_path) if finding.rule == "RPL002"
        ]

    def test_payload_reached_through_relative_import(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/payloads.py": self.LOCKED_PAYLOAD,
                "pkg/sweep.py": """
                from concurrent.futures import ProcessPoolExecutor

                from .payloads import Payload


                def worker(item):
                    return Payload()


                def sweep(items):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(worker, items))
                """,
            },
        )
        picklability = self.rpl002(tmp_path)
        assert [finding.path for finding in picklability] == ["pkg/payloads.py"]

    def test_payload_reached_through_a_helper_in_another_module(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "payloads.py": self.LOCKED_PAYLOAD,
                "helpers.py": """
                from payloads import Payload


                def build(item):
                    return Payload()
                """,
                "sweep.py": """
                from concurrent.futures import ProcessPoolExecutor

                from helpers import build


                def worker(item):
                    return build(item)


                def sweep(items):
                    with ProcessPoolExecutor() as pool:
                        return [pool.submit(worker, item) for item in items]
                """,
            },
        )
        picklability = self.rpl002(tmp_path)
        assert [finding.path for finding in picklability] == ["payloads.py"]
        assert "'lock'" in picklability[0].message

    def test_methods_of_a_reachable_class_join_the_walk(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import threading
            from concurrent.futures import ProcessPoolExecutor
            from dataclasses import dataclass, field


            @dataclass
            class Payload:
                lock: threading.Lock = field(default_factory=threading.Lock)


            class Runner:
                def result(self):
                    return Payload()


            def worker(item):
                return Runner().result()


            def sweep(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(worker, items))
            """,
        )
        assert codes(findings) == ["RPL002"]
        assert "'Payload'" in findings[0].message

    def test_graph_and_handle_fields_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from concurrent.futures import ProcessPoolExecutor
            from dataclasses import dataclass
            from typing import TextIO

            import networkx as nx


            @dataclass
            class Payload:
                graph: nx.Graph
                log: TextIO


            def worker(payload: "Payload") -> int:
                return 0


            def sweep(items):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(worker, item) for item in items]
            """,
        )
        assert codes(findings) == ["RPL002", "RPL002"]
        assert "'graph'" in findings[0].message
        assert "'log'" in findings[1].message

    def test_lambda_default_factory_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from concurrent.futures import ProcessPoolExecutor
            from dataclasses import dataclass, field


            @dataclass
            class Payload:
                tags: list = field(default_factory=lambda: ["a"])


            def worker(payload: Payload) -> int:
                return len(payload.tags)


            def sweep(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(worker, items))
            """,
        )
        assert codes(findings) == ["RPL002"]
        assert "lambda default_factory" in findings[0].message

    def test_classvar_lock_is_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import threading
            from concurrent.futures import ProcessPoolExecutor
            from dataclasses import dataclass
            from typing import ClassVar


            @dataclass
            class Payload:
                weight: float
                guard: ClassVar[threading.Lock] = threading.Lock()


            def worker(payload: Payload) -> float:
                return payload.weight


            def sweep(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(worker, items))
            """,
        )
        assert findings == []

    def test_unreachable_dataclass_is_not_checked(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import threading
            from concurrent.futures import ProcessPoolExecutor
            from dataclasses import dataclass, field


            @dataclass
            class Coordinator:
                lock: threading.Lock = field(default_factory=threading.Lock)


            def worker(item: int) -> int:
                return item * 2


            def sweep(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(worker, items))
            """,
        )
        assert findings == []

    def test_payload_shipped_only_to_threads_is_exempt(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "payloads.py": self.LOCKED_PAYLOAD,
                "sweep.py": """
                from concurrent.futures import ThreadPoolExecutor

                from payloads import Payload


                def worker(item):
                    return Payload()


                def sweep(items):
                    with ThreadPoolExecutor() as pool:
                        return list(pool.map(worker, items))
                """,
            },
        )
        assert self.rpl002(tmp_path) == []

    def test_pool_bound_by_assignment_is_a_root(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from concurrent.futures import ProcessPoolExecutor


            def sweep(items):
                def inner(x):
                    return x

                pool = ProcessPoolExecutor()
                try:
                    return list(pool.map(inner, items))
                finally:
                    pool.shutdown()
            """,
        )
        assert codes(findings) == ["RPL002"]
        assert "nested function 'inner'" in findings[0].message


class TestSharedStateRule:
    def test_function_scope_mutation_of_module_global_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            CACHE = {}


            def remember(key, value):
                CACHE[key] = value
            """,
        )
        assert codes(findings) == ["RPL003"]

    def test_import_time_registration_is_allowed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            REGISTRY = {}


            def allocate_equal(flows, links):
                return {}


            REGISTRY["equal"] = allocate_equal
            """,
        )
        assert findings == []

    def test_mutator_calls_and_subscript_deletes_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            SEEN = set()
            COUNTS = {}


            def record(key):
                SEEN.add(key)
                COUNTS[key] += 1


            def forget(key):
                del COUNTS[key]
            """,
        )
        assert codes(findings) == ["RPL003"] * 3
        assert "'SEEN'" in findings[0].message
        assert all("'COUNTS'" in finding.message for finding in findings[1:])

    def test_parameters_and_locals_shadow_the_global(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            CACHE = {}


            def fill(CACHE, key):
                CACHE[key] = 1
                return CACHE


            def fresh(key):
                CACHE = {}
                CACHE[key] = 1
                return CACHE
            """,
        )
        assert findings == []


class TestFloatLoopRule:
    def test_float_accumulation_loop_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def simulate(end, dt):
                t = 0.0
                while t < end:
                    t += dt
                return t
            """,
        )
        assert codes(findings) == ["RPL004"]

    def test_integer_counter_loop_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def iterate(limit):
                rounds = 0
                while rounds < limit:
                    rounds += 1
                return rounds
            """,
        )
        assert findings == []


class TestPerFlowLoopRule:
    NETWORK = "src/repro/network/hot_path.py"

    def test_for_loop_over_flows_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def tally(flows):
                total = 0.0
                for item in flows:
                    total += item.demand_gbps
                return total
            """,
            name=self.NETWORK,
        )
        assert codes(findings) == ["RPL006"]

    def test_generator_sum_and_zip_wrapper_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def offered(candidate_flows, weights):
                total = sum(item.demand_gbps for item in candidate_flows)
                pairs = [w * f.demand_gbps for w, f in zip(weights, candidate_flows)]
                return total, pairs
            """,
            name=self.NETWORK,
        )
        assert codes(findings) == ["RPL006", "RPL006"]

    def test_loop_binding_flow_variable_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def latencies(routed):
                return [flow.latency_ms for flow in routed]
            """,
            name=self.NETWORK,
        )
        assert codes(findings) == ["RPL006"]

    def test_same_loops_outside_network_layer_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def tally(flows):
                return sum(item.demand_gbps for item in flows)
            """,
            name="src/repro/analysis/report.py",
        )
        assert findings == []

    def test_whole_array_network_code_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np


            def tally(demand, reachable):
                for attempt in range(3):
                    routed = float(demand[reachable].sum())
                return routed, float(np.count_nonzero(reachable))
            """,
            name=self.NETWORK,
        )
        assert findings == []


class TestDataclassHygieneRule:
    def test_array_field_in_equality_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from dataclasses import dataclass

            import numpy as np


            @dataclass
            class Result:
                label: str
                values: np.ndarray
            """,
        )
        assert codes(findings) == ["RPL005"]

    def test_compare_false_array_field_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from dataclasses import dataclass, field

            import numpy as np


            @dataclass
            class Result:
                label: str
                values: np.ndarray = field(default=None, compare=False)
            """,
        )
        assert findings == []

    def test_unhashable_field_in_frozen_spec_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class Spec:
                name: str
                params: dict[str, float]
            """,
        )
        assert codes(findings) == ["RPL005"]

    def test_frozen_spec_of_scalars_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class Spec:
                name: str
                weight: float
                tags: tuple[str, ...] = ()
            """,
        )
        assert findings == []


class TestSuppressions:
    def test_inline_suppression_silences_the_finding(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np


            def noisy():
                return np.random.default_rng()  # repro-lint: ignore[RPL001]
            """,
        )
        assert findings == []

    def test_unused_suppression_is_reported(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def tidy():
                return 1  # repro-lint: ignore[RPL001]
            """,
        )
        assert codes(findings) == ["RPL000"]

    def test_suppression_text_inside_strings_is_inert(self, tmp_path):
        findings = lint_source(
            tmp_path,
            '''
            def document():
                """Explains the marker ``# repro-lint: ignore[RPL001]``."""
                return "# repro-lint: ignore[RPL005]"
            ''',
        )
        assert findings == []

    def test_unparsable_module_becomes_parse_error_finding(self, tmp_path):
        findings = lint_source(tmp_path, "def broken(:\n    pass\n")
        assert codes(findings) == ["RPL099"]


class TestUnreadablePaths:
    def test_undecodable_file_is_a_parse_error_finding(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "binary.py").write_bytes(b"\xff\xfe\x00junk")
        findings = lint_dir(tmp_path)
        assert [finding.rule for finding in findings] == ["RPL099"]
        assert findings[0].path == "pkg/binary.py"

    def test_permission_denied_file_is_a_parse_error_finding(
        self, tmp_path, monkeypatch
    ):
        write_tree(
            tmp_path,
            {
                "pkg/open.py": "def f():\n    return 1\n",
                "pkg/locked.py": "def g():\n    return 2\n",
            },
        )
        real_read_text = Path.read_text

        def read_text(self, *args, **kwargs):
            # The suite runs as root, where chmod 000 still reads fine;
            # simulate the EACCES the engine must surface.
            if self.name == "locked.py":
                raise PermissionError(13, "Permission denied", str(self))
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", read_text)
        findings = lint_dir(tmp_path)
        assert [finding.rule for finding in findings] == ["RPL099"]
        assert findings[0].path == "pkg/locked.py"
        assert "Permission denied" in findings[0].message

    def test_unlistable_directory_is_a_parse_error_finding(
        self, tmp_path, monkeypatch
    ):
        write_tree(tmp_path, {"pkg/mod.py": "def f():\n    return 1\n"})
        real_walk = engine_module.os.walk

        def walk(top, onerror=None, **kwargs):
            if onerror is not None:
                onerror(
                    PermissionError(
                        13, "Permission denied", str(Path(top) / "secret")
                    )
                )
            return real_walk(top, onerror=onerror, **kwargs)

        monkeypatch.setattr(engine_module.os, "walk", walk)
        findings = lint_dir(tmp_path)
        assert [finding.rule for finding in findings] == ["RPL099"]
        assert findings[0].path.endswith("secret")
        assert "could not be read" in findings[0].message


class TestRunner:
    SUBMITTER = """
    from concurrent.futures import ThreadPoolExecutor

    from counter import worker


    def run(items):
        with ThreadPoolExecutor() as pool:
            return list(pool.map(worker, items))
    """

    COUNTER = """
    TOTAL = 0


    def worker(item):
        global TOTAL
        TOTAL += item
        return item
    """

    def test_each_run_reflects_the_current_sources(self, tmp_path):
        # A cross-file finding lives only as long as the submit site that
        # causes it, even when the same runner lints the tree again.
        write_tree(tmp_path, {"app.py": self.SUBMITTER, "counter.py": self.COUNTER})
        module_rules, project_rules = all_rules()
        runner = LintRunner(
            module_rules=module_rules, project_rules=project_rules, root=tmp_path
        )
        first = runner.run([tmp_path])
        assert {(finding.rule, finding.path) for finding in first} == {
            ("RPL008", "counter.py")
        }
        write_tree(
            tmp_path,
            {
                "app.py": """
                from counter import worker


                def run(items):
                    return [worker(item) for item in items]
                """
            },
        )
        assert runner.run([tmp_path]) == []

    def test_one_project_per_run(self, tmp_path, monkeypatch):
        built: list[int] = []

        class CountingProject(dataflow_module.Project):
            def __init__(self, modules):
                built.append(len(modules))
                super().__init__(modules)

        monkeypatch.setattr(dataflow_module, "Project", CountingProject)
        write_tree(tmp_path, {"app.py": self.SUBMITTER, "counter.py": self.COUNTER})
        findings = lint_dir(tmp_path)
        assert codes(findings) == ["RPL008"]
        assert built == [2]


class TestRegistryConformance:
    def test_live_registries_are_conformant(self):
        assert check_registries() == []

    def test_broken_registry_fixture_is_caught(self, tmp_path, monkeypatch):
        fixture = tmp_path / "broken_registry_fixture.py"
        fixture.write_text(
            textwrap.dedent(
                """
                def allocate_good(flows, links):
                    return {}


                def allocate_wrong(flows, links):
                    return {}


                def no_arguments():
                    return {}


                REGISTRY = {
                    "good": allocate_good,
                    "missing": None,
                    "misnamed": allocate_wrong,
                    "lopsided": no_arguments,
                }


                def get_entry(key):
                    if key == "good":
                        return allocate_good
                    return object()
                """
            ),
            encoding="utf-8",
        )
        monkeypatch.syspath_prepend(str(tmp_path))

        import broken_registry_fixture as fixture_module

        def entry_check(key, value):
            import inspect

            try:
                inspect.signature(value).bind(None, None)
            except TypeError as error:
                return [f"entry cannot accept (flows, links): {error}"]
            return []

        def declared_name(key, value):
            name = getattr(value, "__name__", None)
            if name is None:
                return None
            return name.removeprefix("allocate_")

        spec = RegistrySpec(
            module="broken_registry_fixture",
            attribute="REGISTRY",
            entry_check=entry_check,
            declared_name=declared_name,
            accessor=fixture_module.get_entry,
            accessor_name="get_entry",
        )
        findings = check_registries([spec])
        by_key = {}
        for finding in findings:
            key = finding.symbol.split("[")[-1].rstrip("]").strip("'")
            by_key.setdefault(key, set()).add(finding.rule)
        assert by_key["missing"] == {"RPL100"}
        assert "RPL102" in by_key["misnamed"]
        assert "RPL103" in by_key["misnamed"]
        assert "RPL101" in by_key["lopsided"]
        assert "good" not in by_key

    def test_unimportable_registry_module_is_a_finding(self):
        spec = RegistrySpec(module="no_such_module_xyz", attribute="REGISTRY")
        findings = check_registries([spec])
        assert codes(findings) == ["RPL100"]


class TestBaseline:
    def make_finding(self, path="pkg/mod.py", rule="RPL001", message="m", line=3):
        return Finding(rule=rule, path=path, line=line, message=message)

    def test_round_trip_and_matching(self, tmp_path):
        tracked = self.make_finding()
        baseline_path = tmp_path / "lint-baseline.json"
        write_baseline(baseline_path, [tracked])
        baseline = load_baseline(baseline_path)

        moved = self.make_finding(line=30)  # same fingerprint, new line
        fresh = self.make_finding(message="different")
        comparison = compare_with_baseline([moved, fresh], baseline)
        assert comparison.matched == [moved]
        assert comparison.new == [fresh]
        assert comparison.stale == []
        assert not comparison.clean

    def test_fixed_violation_turns_entry_stale(self, tmp_path):
        tracked = self.make_finding()
        baseline_path = tmp_path / "lint-baseline.json"
        write_baseline(baseline_path, [tracked])
        comparison = compare_with_baseline([], load_baseline(baseline_path))
        assert comparison.stale == [tracked]
        assert not comparison.clean

    def test_stale_check_is_scoped_to_linted_paths(self, tmp_path):
        inside = self.make_finding(path="pkg/a.py")
        outside = self.make_finding(path="other/b.py")
        baseline_path = tmp_path / "lint-baseline.json"
        write_baseline(baseline_path, [inside, outside])
        comparison = compare_with_baseline(
            [], load_baseline(baseline_path), scope_prefixes=["pkg"]
        )
        assert comparison.stale == [inside]

    def test_registry_entries_scoped_by_registry_layer_marker(self, tmp_path):
        entry = self.make_finding(path="repro.network.capacity", rule="RPL102")
        baseline_path = tmp_path / "lint-baseline.json"
        write_baseline(baseline_path, [entry])
        baseline = load_baseline(baseline_path)
        without = compare_with_baseline([], baseline, scope_prefixes=["src"])
        assert without.stale == []
        with_registries = compare_with_baseline(
            [], baseline, scope_prefixes=["src", ""]
        )
        assert with_registries.stale == [entry]

    def test_disabled_rules_cannot_turn_entries_stale(self, tmp_path):
        entry = self.make_finding(rule="RPL005")
        baseline_path = tmp_path / "lint-baseline.json"
        write_baseline(baseline_path, [entry])
        comparison = compare_with_baseline(
            [],
            load_baseline(baseline_path),
            enabled=lambda code: code == "RPL001",
        )
        assert comparison.stale == []
        assert comparison.clean

    def test_malformed_baseline_rejected(self, tmp_path):
        path = tmp_path / "lint-baseline.json"
        path.write_text('{"version": 99, "entries": []}', encoding="utf-8")
        with pytest.raises(ValueError, match="version-1"):
            load_baseline(path)


class TestCli:
    VIOLATION = textwrap.dedent(
        """
        import numpy as np


        def noisy():
            return np.random.default_rng()
        """
    )

    def write_fixture(self, tmp_path, source=None):
        target = tmp_path / "pkg"
        target.mkdir(exist_ok=True)
        (target / "mod.py").write_text(
            source if source is not None else self.VIOLATION, encoding="utf-8"
        )
        return target

    def test_findings_fail_without_baseline(self, tmp_path, monkeypatch, capsys):
        self.write_fixture(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["pkg", "--no-registries"]) == 1
        assert "RPL001" in capsys.readouterr().out

    def test_select_narrows_the_rule_set(self, tmp_path, monkeypatch):
        self.write_fixture(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["pkg", "--select", "RPL004", "--no-registries"]) == 0

    def test_baseline_workflow_tracks_then_fails_stale(
        self, tmp_path, monkeypatch, capsys
    ):
        target = self.write_fixture(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["pkg", "--no-registries", "--write-baseline"]) == 0
        assert (tmp_path / "lint-baseline.json").exists()
        # Tracked violation is allowed...
        assert main(["pkg", "--no-registries"]) == 0
        # ...a new violation is not...
        (target / "new.py").write_text(
            "import time\n\n\ndef stamp():\n    return time.time()\n",
            encoding="utf-8",
        )
        assert main(["pkg", "--no-registries"]) == 1
        (target / "new.py").unlink()
        # ...and fixing the tracked violation makes the entry stale.
        self.write_fixture(tmp_path, source="def tidy():\n    return 1\n")
        capsys.readouterr()
        assert main(["pkg", "--no-registries"]) == 1
        assert "stale" in capsys.readouterr().out

    def test_select_does_not_stale_out_other_rules_entries(
        self, tmp_path, monkeypatch
    ):
        self.write_fixture(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["pkg", "--no-registries", "--write-baseline"]) == 0
        # The RPL001 baseline entry is out of scope for an RPL004-only run.
        assert main(["pkg", "--select", "RPL004", "--no-registries"]) == 0

    def test_json_format_is_parseable(self, tmp_path, monkeypatch, capsys):
        self.write_fixture(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["pkg", "--no-registries", "--format=json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["findings"][0]["rule"] == "RPL001"

    def test_json_output_is_identical_across_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        self.write_fixture(tmp_path)
        (tmp_path / "pkg" / "other.py").write_text(
            "CACHE = {}\n\n\ndef remember(key):\n    CACHE[key] = 1\n",
            encoding="utf-8",
        )
        monkeypatch.chdir(tmp_path)
        argv = ["pkg", "--no-registries", "--no-baseline", "--format=json"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        rules = [entry["rule"] for entry in json.loads(outputs[0])["findings"]]
        assert rules == ["RPL001", "RPL003"]

    def test_missing_path_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["no_such_dir.txt", "--no-registries"]) == 2
        assert "error" in capsys.readouterr().err

    def test_stale_baseline_prints_regeneration_hint(
        self, tmp_path, monkeypatch, capsys
    ):
        self.write_fixture(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["pkg", "--no-registries", "--write-baseline"]) == 0
        # Fix the violation: the baseline entry goes stale and the CLI
        # must print the exact regeneration command and the new size.
        self.write_fixture(tmp_path, source="def tidy():\n    return 1\n")
        capsys.readouterr()
        assert main(["pkg", "--no-registries"]) == 1
        out = capsys.readouterr().out
        assert "python -m repro.tools.lint pkg --write-baseline" in out
        assert "down by 1" in out

    def test_github_format_emits_annotations(
        self, tmp_path, monkeypatch, capsys
    ):
        self.write_fixture(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert (
            main(
                [
                    "pkg",
                    "--no-registries",
                    "--no-baseline",
                    "--format=github",
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "::error file=pkg/mod.py,line=" in out
        assert "title=repro-lint RPL001::" in out


class TestSelfCheck:
    def test_live_tree_matches_committed_baseline(self):
        findings = run_lint(
            [
                str(REPO_ROOT / "src"),
                str(REPO_ROOT / "tests"),
                str(REPO_ROOT / "benchmarks"),
            ],
            root=REPO_ROOT,
        )
        baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
        comparison = compare_with_baseline(
            findings, baseline, ["src", "tests", "benchmarks", ""]
        )
        assert [finding.render() for finding in comparison.new] == []
        assert [entry.render() for entry in comparison.stale] == []
