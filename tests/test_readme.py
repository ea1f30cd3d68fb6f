"""The README's code and its proof ledger, kept in step with the package."""

import ast
import importlib
import re
from pathlib import Path

import projcut as pc

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    """The README text under the level-2 heading ``title``, up to the next one."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else len(README)]


def test_library_quick_start_runs():
    # the quick start's python block, run as written: its last line asserts
    # that verify passes, and its comments claim exact values
    block = re.search(r"```python\n(.*?)```", _section("Library quick start"), re.S).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    chi, K, report = scope["chi"], scope["K"], scope["report"]
    assert chi(K.balls[0].center) == 1.0
    assert chi(pc.ProjectivePoint([1.0, -1.0])) == 0.0
    assert report.passed


def _resolve(dotted: str):
    """The object at a dotted path: the longest importable module prefix,
    then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)  # on a class, a property is the descriptor itself
        return obj
    raise ModuleNotFoundError(dotted)


def _test_names(path: Path) -> set:
    return {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def test_proof_ledger_names_existing_functions_and_tests():
    # every link names at least one function of the package and one tier-1
    # test; each function imports and each test is defined in its file
    links = _section("The proof").split("\n- ")[1:]
    assert len(links) == 5
    for link in links:
        names = re.findall(r"`([^`]+)`", link)
        functions = [n for n in names if n.startswith("projcut.")]
        tests = [n for n in names if n.startswith("tests/")]
        assert functions and tests, link
        for dotted in functions:
            assert _resolve(dotted) is not None, dotted
        for node in tests:
            path, name = node.split("::")
            assert name in _test_names(ROOT / path), node
