"""Tests of the interprocedural lint layer: the import-graph/call-graph
substrate and the RPL007/008/009 rules that ride on it.

Every rule gets a violating fixture and a clean counterpart, including the
two reconstructions the layer exists for: a seed derived from
``time.time()`` three calls away from the executor submit site (RPL007)
and the historical ``_SharedRouteCache`` unlocked-write bug, whose thread
pool RPL008 flags at the submit site.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.tools.lint import Finding, ImportGraph, LintRunner, all_rules
from repro.tools.lint.importgraph import module_imports
import ast


def lint_tree(tmp_path: Path, sources: dict[str, str]) -> list[Finding]:
    """Write ``{rel_path: source}`` under ``tmp_path`` and lint the tree."""
    for rel_path, source in sources.items():
        target = tmp_path / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    module_rules, project_rules = all_rules()
    runner = LintRunner(
        module_rules=module_rules, project_rules=project_rules, root=tmp_path
    )
    return runner.run([tmp_path])


def codes(findings: list[Finding]) -> set[str]:
    return {finding.rule for finding in findings}


def by_code(findings: list[Finding], code: str) -> list[Finding]:
    return [finding for finding in findings if finding.rule == code]


class TestImportGraph:
    def graph_of(self, sources: dict[str, str]) -> ImportGraph:
        return ImportGraph.build(
            {
                rel_path: module_imports(ast.parse(textwrap.dedent(source)))
                for rel_path, source in sources.items()
            }
        )

    def test_src_layout_suffix_resolution(self):
        graph = self.graph_of(
            {
                "src/repro/network/capacity.py": "",
                "src/repro/network/faults.py": (
                    "from repro.network.capacity import Flow\n"
                ),
                "tests/test_faults.py": "import repro.network.faults\n",
            }
        )
        assert graph.edges["src/repro/network/faults.py"] == {
            "src/repro/network/capacity.py"
        }
        assert graph.edges["tests/test_faults.py"] == {
            "src/repro/network/faults.py"
        }

    def test_relative_imports_resolve_against_the_package(self):
        graph = self.graph_of(
            {
                "pkg/__init__.py": "",
                "pkg/inner/__init__.py": "",
                "pkg/inner/a.py": "from .b import thing\n",
                "pkg/inner/b.py": "from ..top import other\n",
                "pkg/top.py": "",
            }
        )
        assert graph.edges["pkg/inner/a.py"] == {"pkg/inner/b.py"}
        assert graph.edges["pkg/inner/b.py"] == {"pkg/top.py"}

    def test_ambiguous_suffix_creates_no_edge(self):
        graph = self.graph_of(
            {
                "one/grid.py": "",
                "two/grid.py": "",
                "user.py": "import grid\n",
                "precise.py": "from one.grid import thing\n",
            }
        )
        assert graph.edges["user.py"] == set()
        assert graph.edges["precise.py"] == {"one/grid.py"}

    def test_import_cycle_does_not_break_the_linter(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "a.py": "import b\n\n\ndef use():\n    return b.helper()\n",
                "b.py": "import a\n\n\ndef helper():\n    return 1\n",
            },
        )
        assert codes(findings) == set()


class TestSeedProvenance:
    def test_wall_clock_seed_three_calls_from_submit_site(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "sweep.py": """
                import time
                from concurrent.futures import ThreadPoolExecutor

                from numpy.random import default_rng


                def make_seed():
                    return int(time.time())


                def derive(cfg):
                    return make_seed() + cfg


                def worker(cfg):
                    rng = default_rng(derive(cfg))
                    return rng.random()


                def run(configs):
                    with ThreadPoolExecutor() as pool:
                        futures = [pool.submit(worker, cfg) for cfg in configs]
                    return [future.result() for future in futures]
                """
            },
        )
        provenance = by_code(findings, "RPL007")
        assert len(provenance) == 1
        assert "wall clock" in provenance[0].message
        # The finding anchors at the origin of the bad value.
        assert provenance[0].symbol == "make_seed"

    def test_seed_from_spec_field_is_clean(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "sweep.py": """
                from dataclasses import dataclass

                from numpy.random import default_rng


                @dataclass(frozen=True)
                class Scenario:
                    name: str
                    seed: int


                def worker(scenario: Scenario):
                    rng = default_rng(scenario.seed)
                    return rng.random()


                def run(scenarios):
                    return [worker(scenario) for scenario in scenarios]
                """
            },
        )
        assert "RPL007" not in codes(findings)

    def test_seed_traced_through_callers_to_a_literal_is_clean(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "lib.py": """
                from numpy.random import default_rng


                def sample(seed):
                    return default_rng(seed).random()
                """,
                "app.py": """
                from lib import sample


                def run():
                    return sample(1234)
                """,
            },
        )
        assert "RPL007" not in codes(findings)

    def test_bare_parameter_with_no_seeded_caller_is_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "lib.py": """
                from numpy.random import default_rng


                def sample(seed):
                    return default_rng(seed).random()
                """
            },
        )
        provenance = by_code(findings, "RPL007")
        assert len(provenance) == 1
        assert "bare parameter 'seed'" in provenance[0].message

    def test_unseeded_rng_derivation_is_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "lib.py": """
                import numpy as np
                from numpy.random import default_rng


                def resample():
                    wild = np.random.default_rng()  # repro-lint: ignore[RPL001]
                    child = default_rng(int(wild.integers(2**32)))
                    return child.random()
                """
            },
        )
        assert any(
            "unseeded" in finding.message
            for finding in by_code(findings, "RPL007")
        )

    def test_pytest_parametrize_seed_parameter_is_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "test_thing.py": """
                import pytest
                from numpy.random import default_rng


                @pytest.mark.parametrize("seed", [0, 1, 2])
                def test_stream(seed):
                    rng = default_rng(seed)
                    assert rng.random() >= 0
                """
            },
        )
        assert "RPL007" not in codes(findings)


class TestExecutorRaces:
    SHARED_ROUTE_CACHE = """
    import threading
    from concurrent.futures import ThreadPoolExecutor


    class SharedRouteCache:
        def __init__(self):
            self._lock = threading.Lock()
            self._routes = {{}}

        def routes_from(self, router, source):
            {body}


    def sweep(scenarios, router):
        cache = SharedRouteCache()

        def evaluate(scenario):
            return cache.routes_from(router, scenario)

        with ThreadPoolExecutor() as pool:
            return list(pool.map(evaluate, scenarios))
    """

    def test_historical_shared_route_cache_pattern_is_redetected(
        self, tmp_path
    ):
        findings = lint_tree(
            tmp_path,
            {
                "engine.py": self.SHARED_ROUTE_CACHE.format(
                    body=(
                        "if source not in self._routes:\n"
                        "                self._routes[source] = "
                        "router.compute(source)\n"
                        "            return self._routes[source]"
                    )
                )
            },
        )
        races = by_code(findings, "RPL008")
        assert races, [finding.render() for finding in findings]
        assert any("ThreadPoolExecutor.map" in finding.message for finding in races)

    def test_lock_guarded_thread_cache_is_flagged_too(self, tmp_path):
        # The site is the finding: the library parallelises over processes
        # only, so a lock does not make a thread pool acceptable.
        findings = lint_tree(
            tmp_path,
            {
                "engine.py": self.SHARED_ROUTE_CACHE.format(
                    body=(
                        "with self._lock:\n"
                        "                if source not in self._routes:\n"
                        "                    self._routes[source] = "
                        "router.compute(source)\n"
                        "                return self._routes[source]"
                    )
                )
            },
        )
        races = by_code(findings, "RPL008")
        assert [finding.symbol for finding in races] == ["sweep"]
        assert "ThreadPoolExecutor.map" in races[0].message

    def test_direct_write_to_captured_container_is_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "engine.py": """
                from concurrent.futures import ThreadPoolExecutor


                def sweep(scenarios):
                    results = {}

                    def evaluate(scenario):
                        results[scenario] = scenario * 2
                        return scenario

                    with ThreadPoolExecutor() as pool:
                        list(pool.map(evaluate, scenarios))
                    return results
                """
            },
        )
        races = by_code(findings, "RPL008")
        assert any("ThreadPoolExecutor.map" in finding.message for finding in races)

    def test_worker_local_accumulator_is_merge_pattern_clean(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "engine.py": """
                from concurrent.futures import ProcessPoolExecutor


                def evaluate(scenario):
                    local = {}
                    local[scenario] = scenario * 2
                    return local


                def sweep(scenarios):
                    with ProcessPoolExecutor() as pool:
                        partials = list(pool.map(evaluate, scenarios))
                    merged = {}
                    for partial in partials:
                        merged.update(partial)
                    return merged
                """
            },
        )
        assert "RPL008" not in codes(findings)

    def test_process_worker_mutating_cross_module_global_is_flagged(
        self, tmp_path
    ):
        findings = lint_tree(
            tmp_path,
            {
                "registry.py": "REGISTRY = {}\n",
                "engine.py": """
                from concurrent.futures import ProcessPoolExecutor

                from registry import REGISTRY


                def worker(item):
                    REGISTRY[item] = item * 2  # diverges across processes
                    return item


                def sweep(items):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(worker, items))
                """,
            },
        )
        races = by_code(findings, "RPL008")
        assert any("'REGISTRY'" in finding.message for finding in races)

    def test_lock_guarded_cross_module_process_write_is_flagged(self, tmp_path):
        # Each worker process writes its own copy of SEEN, lock or no lock.
        findings = lint_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/registry.py": "SEEN = {}\n",
                "pkg/work.py": """
                import threading
                from concurrent.futures import ProcessPoolExecutor

                from pkg.registry import SEEN

                _LOCK = threading.Lock()


                def worker(item):
                    with _LOCK:
                        SEEN[item] = True
                    return item


                def sweep(items):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(worker, items))
                """,
            },
        )
        races = by_code(findings, "RPL008")
        assert [(finding.path, finding.symbol) for finding in races] == [
            ("pkg/work.py", "worker")
        ]
        assert "module global 'SEEN'" in races[0].message
        assert "lock" not in races[0].message

    def test_thread_pool_without_shared_state_is_flagged(self, tmp_path):
        # The lock-guarded and unguarded cache fixtures above are flagged at
        # the site too; here nothing is shared at all.
        findings = lint_tree(
            tmp_path,
            {
                "work.py": """
                from concurrent.futures import ThreadPoolExecutor


                def worker(item):
                    return item * 2


                def sweep(items):
                    with ThreadPoolExecutor() as pool:
                        return [pool.submit(worker, i) for i in items]
                """
            },
        )
        races = by_code(findings, "RPL008")
        assert [finding.symbol for finding in races] == ["sweep"]
        assert "ThreadPoolExecutor.submit in sweep" in races[0].message


class TestMergeSafety:
    def test_lock_field_on_merge_target_is_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "metrics.py": """
                import threading


                class Metrics:
                    def __init__(self):
                        self.counts = {}
                        self._lock = threading.Lock()

                    def merge(self, other):
                        for key, value in other.counts.items():
                            self.counts[key] = self.counts.get(key, 0) + value
                """
            },
        )
        safety = by_code(findings, "RPL009")
        assert len(safety) == 1
        assert "'_lock'" in safety[0].message

    def test_lambda_and_handle_fields_are_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "metrics.py": """
                class Sink:
                    def __init__(self, path):
                        self.transform = lambda value: value + 1
                        self.handle = open(path, "a")

                    def merge(self, other):
                        return self
                """
            },
        )
        messages = [finding.message for finding in by_code(findings, "RPL009")]
        assert any("'transform'" in message for message in messages)
        assert any("'handle'" in message for message in messages)

    def test_elementwise_mergeable_dataclass_is_clean(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "metrics.py": """
                from dataclasses import dataclass, field


                @dataclass
                class RunMetrics:
                    delivered: float = 0.0
                    dropped: float = 0.0
                    per_station: dict = field(default_factory=dict)

                    def merge(self, other):
                        self.delivered += other.delivered
                        self.dropped += other.dropped
                        for key, value in other.per_station.items():
                            self.per_station[key] = (
                                self.per_station.get(key, 0.0) + value
                            )
                """
            },
        )
        assert "RPL009" not in codes(findings)

    def test_zero_argument_finalisers_do_not_count_as_merge(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "metrics.py": """
                import threading


                class Builder:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def merge(self):
                        return dict()
                """
            },
        )
        assert "RPL009" not in codes(findings)


class TestSuppressionsForDataflowRules:
    def test_inline_suppression_silences_rpl009(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "metrics.py": """
                import threading


                class Metrics:
                    def __init__(self):
                        self.counts = {}
                        self._lock = threading.Lock()  # repro-lint: ignore[RPL009]

                    def merge(self, other):
                        return self
                """
            },
        )
        assert "RPL009" not in codes(findings)
        assert "RPL000" not in codes(findings)

