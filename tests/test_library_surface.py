"""Every definition in the library and the scripts has a caller outside
tests: library modules hold only what the pipeline, the scripts or the
benchmark harness call, and test oracles live in tests/.

The scan is by name. A module-level function or class, or a method (other
than a dunder) of a module-level class, is called when its name appears
outside its own definition: as a name or an attribute in the AST of a
module of src/pdecontrol or scripts/, or as a word in the text of a module
of perfbench/, which is matched as text because its tracer names library
functions in strings. A name shared with another definition or attribute
counts for both, so the scan errs toward passing: it can miss dead code.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each definition the scan checks."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item.lineno, item.end_lineno


def _references(tree: ast.Module):
    """(name, line) of each name and attribute that the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def uncalled(scanned: list[Path], texts: list[Path]) -> list[str]:
    """'path:line name' of each definition in scanned with no caller."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in scanned}
    refs = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    text = "\n".join(path.read_text() for path in texts)
    missing = []
    for path, tree in trees.items():
        for name, first, last in _definitions(tree):
            outside = any(p != path or not first <= line <= last for p, line in refs.get(name, ()))
            if not outside and not re.search(rf"\b{re.escape(name)}\b", text):
                missing.append(f"{path.parent.name}/{path.name}:{first} {name}")
    return missing


def test_every_library_and_script_definition_has_a_caller_outside_tests():
    scanned = sorted((ROOT / "src" / "pdecontrol").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert uncalled(scanned, sorted((ROOT / "perfbench").glob("*.py"))) == []


def test_the_scan_flags_a_definition_only_its_own_body_reads(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "class Box:\n    def __init__(self):\n        self.read()\n\n"
        "    def read(self):\n        return 2\n\n"
        "    def unread(self):\n        return 3\n\n\n"
        "def traced():\n    return 4\n\n\n"
        "used()\nBox()\n"
    )
    bench = tmp_path / "bench.py"
    bench.write_text("# calls mod.traced\n")
    missing = [entry.rsplit(" ", 1)[1] for entry in uncalled([module], [bench])]
    assert missing == ["recursive", "unread"]
