"""The repository's pytest settings, the library's dependencies and the homes of its laws and checks."""

import ast
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_test_prints_its_falsifying_example(tmp_path):
    # with warnings as errors, a warning raised while hypothesis reports a
    # failure ends the run in an INTERNALERROR (exit 3) that hides the example
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr


def test_the_library_imports_only_the_standard_library_and_numpy():
    # scipy and the other test dependencies stay oracles of the tests
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = []
    for path in sorted((PYPROJECT.parent / "src" / "weakdecay").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in allowed
            ]
    assert outside == []


def test_the_harness_and_the_checks_take_every_law_from_laws():
    # a reference law written by hand calls exp; weakdecay.laws holds them all
    calls = []
    for name in ("harness.py", "checks.py"):
        tree = ast.parse((PYPROJECT.parent / "src" / "weakdecay" / name).read_text(encoding="utf-8"))
        calls += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "exp"
        ]
    assert calls == []


def _name(node) -> str | None:
    return getattr(node, "attr", getattr(node, "id", None))


def test_only_core_checks_the_shared_rules():
    # the null-overlap floor, the recurrence guard, the survival-time rule and
    # the finite-time rule are core.nonsingular, core.check_recurrence,
    # core.check_times and core.check_phase_times
    copies = []
    for path in sorted((PYPROJECT.parent / "src" / "weakdecay").glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                found = any(_name(side) == "DENOM_FLOOR" for side in [node.left, *node.comparators])
            elif isinstance(node, ast.Raise):
                found = _name(getattr(node.exc, "func", node.exc)) in ("PostSelectionNull", "BeyondRecurrence")
            else:
                found = isinstance(node, ast.Constant) and any(
                    rule in str(node.value) for rule in ("t must be nonnegative", "t must be finite")
                )
            if found:
                copies.append(f"{path.name}:{node.lineno}")
    assert copies == []
