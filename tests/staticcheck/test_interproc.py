"""R7/R9 semantics: reachability and escape contracts."""

from __future__ import annotations

from pathlib import Path

from repro.staticcheck.cli import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures"


def rules_of(result):
    return sorted({finding.rule for finding in result.findings})


# ---------------------------------------------------------------------------
# R7: purity reachability
# ---------------------------------------------------------------------------

def test_r7_flags_rng_reached_through_two_calls(lint_files):
    result = lint_files(
        {
            "core/codec.py": """
            import random


            def jitter() -> float:
                return random.random()


            def canonical(value: float) -> float:
                return value + jitter()


            def scenario_fingerprint(value: float) -> str:
                return str(canonical(value))
            """
        },
        rules=["R7"],
    )
    assert len(result.findings) == 1
    finding = result.findings[0]
    assert "random.random" in finding.message
    assert (
        "scenario_fingerprint -> canonical -> jitter" in finding.message
    )


def test_r7_flags_wall_clock_and_global_write_from_cache_entry(lint_files):
    result = lint_files(
        {
            "heuristics/cache.py": """
            import time
            from typing import Dict

            MEMO: Dict[str, float] = {}


            class TreeCache:
                def key_for(self, item: str) -> str:
                    MEMO[item] = time.time()
                    return item
            """
        },
        rules=["R7"],
    )
    messages = sorted(finding.message for finding in result.findings)
    assert len(messages) == 2
    assert any("time.time" in message for message in messages)
    assert any("MEMO" in message for message in messages)
    assert all("cache entry point" in message for message in messages)


def test_r7_covers_the_tree_cache_replay_and_release_replay(lint_files):
    result = lint_files(
        {
            "heuristics/cache.py": """
            import random


            def jitter() -> float:
                return random.random()


            class TreeCache:
                def _replay(self) -> float:
                    return jitter()

                def _replay_release(self, machine: int) -> bool:
                    return random.random() < 0.5
            """
        },
        rules=["R7"],
    )
    messages = sorted(finding.message for finding in result.findings)
    assert len(messages) == 2
    assert all("cache entry point" in message for message in messages)
    assert any("_replay -> jitter" in message for message in messages)
    assert any("_replay_release" in message for message in messages)


def test_r7_entry_methods_are_defined_by_the_tree_cache():
    """Every tree-cache entry name R7 lists is a method the shipped
    ``TreeCache`` defines, so the rule cannot go on naming a method that
    no longer exists."""
    from repro.heuristics.base import TreeCache
    from repro.staticcheck.rules.purity import _CACHE_ENTRY_METHODS

    assert {"_replay", "_replay_release"} <= _CACHE_ENTRY_METHODS
    tree_cache_names = _CACHE_ENTRY_METHODS - {"key_for"}
    assert all(name in vars(TreeCache) for name in tree_cache_names)


def test_r7_ignores_impurity_outside_the_entry_call_tree(lint_files):
    result = lint_files(
        {
            "core/codec.py": """
            import random


            def unrelated() -> float:
                return random.random()


            def scenario_fingerprint(value: float) -> str:
                return str(value)
            """
        },
        rules=["R7"],
    )
    assert result.clean


def test_r7_accepts_injected_seeded_stream(lint_files):
    result = lint_files(
        {
            "core/codec.py": """
            import random


            def sample(rng: random.Random) -> float:
                return rng.random()


            def payload_to_dict(rng: random.Random) -> dict:
                return {"value": sample(rng)}
            """
        },
        rules=["R7"],
    )
    assert result.clean


def test_r7_treats_compile_functions_as_entry_points(lint_files):
    result = lint_files(
        {
            "routing/compiled.py": """
            import random


            def compile_network(network) -> list:
                return [random.random()]
            """
        },
        rules=["R7"],
    )
    assert len(result.findings) == 1
    assert "compile entry point" in result.findings[0].message


def test_r7_compile_entries_are_path_scoped(lint_files):
    # The same function name outside routing/compiled.py is no entry.
    result = lint_files(
        {
            "workload/builder.py": """
            import random


            def compile_network(network) -> list:
                return [random.random()]
            """
        },
        rules=["R7"],
    )
    assert result.clean


def test_r7_memo_wrappers_stay_outside_the_pure_core(lint_files):
    # compiled_for writes the module-level memo — legal, because only the
    # compile_* call trees are held to the purity bar; the wrapper calls
    # into the pure core, never the other way around.
    result = lint_files(
        {
            "routing/compiled.py": """
            MEMO = {}


            def compile_network(network) -> int:
                return network


            def compiled_for(network) -> int:
                value = MEMO.get(network)
                if value is None:
                    value = compile_network(network)
                    MEMO[network] = value
                return value
            """
        },
        rules=["R7"],
    )
    assert result.clean


# ---------------------------------------------------------------------------
# R9: exception contracts
# ---------------------------------------------------------------------------

def test_r9_flags_broad_swallow_without_reraise(lint_files):
    result = lint_files(
        {
            "core/run.py": """
            def run(task) -> None:
                try:
                    task()
                except Exception:
                    pass
            """
        },
        rules=["R9"],
    )
    assert len(result.findings) == 1
    assert "swallows every failure" in result.findings[0].message


def test_r9_broad_handler_with_reraise_is_clean(lint_files):
    result = lint_files(
        {
            "core/run.py": """
            def run(task) -> None:
                try:
                    task()
                except BaseException:
                    raise
            """
        },
        rules=["R9"],
    )
    assert result.clean


def test_r9_flags_undocumented_builtin_leak_through_helper(lint_files):
    result = lint_files(
        {
            "experiments/api.py": """
            def run_sweep(count: int) -> int:
                return scale(count)


            def scale(count: int) -> int:
                if count < 0:
                    raise ValueError("negative")
                return count * 2
            """
        },
        rules=["R9"],
    )
    flagged = {finding.line: finding for finding in result.findings}
    assert len(flagged) == 2  # run_sweep (propagated) and scale (origin)
    assert any(
        "run_sweep may leak ValueError" in finding.message
        for finding in result.findings
    )


def test_r9_docstring_raises_discharges_the_contract(lint_files):
    result = lint_files(
        {
            "experiments/api.py": """
            def run_sweep(count: int) -> int:
                '''Scale a count.

                Raises:
                    ValueError: if ``count`` is negative.
                '''
                if count < 0:
                    raise ValueError("negative")
                return count * 2
            """
        },
        rules=["R9"],
    )
    assert result.clean


def test_r9_documentation_midway_discharges_callers_too(lint_files):
    result = lint_files(
        {
            "experiments/api.py": """
            def outer(count: int) -> int:
                return inner(count)


            def inner(count: int) -> int:
                '''Validate.

                Raises:
                    ValueError: if ``count`` is negative.
                '''
                if count < 0:
                    raise ValueError("negative")
                return count
            """
        },
        rules=["R9"],
    )
    assert result.clean


def test_r9_caught_types_do_not_propagate(lint_files):
    result = lint_files(
        {
            "experiments/api.py": """
            def outer(count: int) -> int:
                try:
                    return inner(count)
                except ValueError:
                    return 0


            def inner(count: int) -> int:
                if count < 0:
                    raise ValueError("negative")
                return count
            """
        },
        rules=["R9"],
    )
    flagged = [
        finding
        for finding in result.findings
        if "outer may leak" in finding.message
    ]
    assert flagged == []


def test_r9_project_errors_always_pass(lint_files):
    result = lint_files(
        {
            "errors.py": """
            class DataStagingError(Exception):
                pass


            class ValidationError(DataStagingError):
                pass
            """,
            "experiments/api.py": """
            from errors import ValidationError


            def run_sweep(count: int) -> int:
                if count < 0:
                    raise ValidationError("negative")
                return count
            """
        },
        rules=["R9"],
    )
    assert result.clean


def test_r9_class_docstring_covers_the_constructor(lint_files):
    result = lint_files(
        {
            "core/model.py": """
            class Window:
                '''A validated window.

                Raises:
                    ValueError: if the window is inverted.
                '''

                def __init__(self, start: float, end: float) -> None:
                    if end < start:
                        raise ValueError("inverted")
                    self.span = (start, end)
            """,
            "experiments/api.py": """
            from core.model import Window


            def build(start: float, end: float) -> Window:
                return Window(start, end)
            """,
        },
        rules=["R9"],
    )
    assert result.clean


def test_r9_private_functions_are_not_surface(lint_files):
    result = lint_files(
        {
            "experiments/api.py": """
            def _helper(count: int) -> int:
                if count < 0:
                    raise ValueError("negative")
                return count
            """
        },
        rules=["R9"],
    )
    assert result.clean


# ---------------------------------------------------------------------------
# Fixture trees: each new rule catches bad and passes clean.
# ---------------------------------------------------------------------------

def test_fixture_trees_per_interprocedural_rule(capsys):
    for rule_id in ("R7", "R9"):
        bad = lint_main(
            [
                str(FIXTURES / "bad_tree"),
                "--no-baseline",
                "--rules",
                rule_id,
            ]
        )
        out = capsys.readouterr().out
        assert bad == 1, rule_id
        assert rule_id in out
        assert (
            lint_main(
                [
                    str(FIXTURES / "clean_tree"),
                    "--no-baseline",
                    "--rules",
                    rule_id,
                ]
            )
            == 0
        ), rule_id
        capsys.readouterr()
