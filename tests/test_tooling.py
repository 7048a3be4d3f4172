"""The repository's pytest settings, the library's dependencies and the homes of its laws and checks."""

import ast
import re
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


def _outside(paths, allowed: set[str]) -> list[str]:
    """``file:line module`` of each absolute import in ``paths`` whose top-level module is not ``allowed``."""
    outside = []
    for path in sorted(paths):
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
    return outside


def test_the_library_imports_only_the_standard_library_and_numpy():
    # scipy and the other test dependencies stay oracles of the tests
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    assert _outside((PYPROJECT.parent / "src" / "weakdecay").glob("*.py"), allowed) == []


def test_the_tests_import_only_declared_dependencies():
    # every other module the tests import must be named in the test extra,
    # which is read by hand, since Python 3.10 has no tomllib
    extra = re.search(r"^test = \[(.*?)\]", PYPROJECT.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)
    declared = {re.match(r"[\w.-]+", spec)[0].replace("-", "_") for spec in re.findall(r'"([^"]+)"', extra[1])}
    tests = list((PYPROJECT.parent / "tests").rglob("*.py"))
    allowed = set(sys.stdlib_module_names) | {"numpy", "weakdecay"} | {path.stem for path in tests} | declared
    assert _outside(tests, allowed) == []


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
