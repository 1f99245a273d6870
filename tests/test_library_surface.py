"""Every definition in the library, and every option of one, has a caller
outside tests: library modules hold only what the pipeline, the CLI or the
benchmark harness call, and test oracles live in tests/.

The scans are by name. A module-level function or class, or a method (other
than a dunder) of a module-level class, is called when its name appears
outside its own definition: as a name or an attribute in the AST of a
module of src/pdecontrol, or as a word in the text of a module of
perfbench/, which is matched as text because its tracer names library
functions in strings. A name shared with another definition or attribute
counts for both, so the scan errs toward passing: it can miss dead code.

A defaulted parameter of such a function or method (or of a class's
__init__, which its class name calls) is passed when a call of that name
outside the definition, in src/pdecontrol, passes it by keyword or by
position; a * or ** splat passes every parameter. In perfbench/ it is
passed when the text names the function and holds `name=`. A parameter
that no caller passes is a test-only option: it belongs in a constant.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _functions(tree: ast.Module):
    """(name, node, is a method) of each function the scans check; a
    class's __init__ goes under the class's name, which calls it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if item.name == "__init__":
                        yield node.name, item, True
                    elif not (item.name.startswith("__") and item.name.endswith("__")):
                        yield item.name, item, True


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


def _defaulted(node: ast.FunctionDef, method: bool):
    """(name, index) of each defaulted parameter: index its place among the
    positional parameters a call passes (a method's self left out), None
    for a keyword-only one."""
    args = node.args
    positional = (args.posonlyargs + args.args)[1 if method else 0 :]
    first = len(positional) - len(args.defaults)
    yield from ((arg.arg, i) for i, arg in enumerate(positional) if i >= first)
    yield from ((arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None)


def _calls(tree: ast.Module):
    """(callee name, line, positional count, keyword names, splat) of each call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            splat = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
            yield name, node.lineno, len(node.args), {k.arg for k in node.keywords}, splat


def unpassed(scanned: list[Path], texts: list[Path]) -> list[str]:
    """'path:line function(parameter)' of each defaulted parameter in
    scanned that no call passes."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in scanned}
    calls = {}
    for path, tree in trees.items():
        for name, line, n_args, keywords, splat in _calls(tree):
            calls.setdefault(name, []).append((path, line, n_args, keywords, splat))
    text = "\n".join(path.read_text() for path in texts)
    missing = []
    for path, tree in trees.items():
        for name, node, method in _functions(tree):
            outside = [call for call in calls.get(name, ())
                       if call[0] != path or not node.lineno <= call[1] <= node.end_lineno]
            named = re.search(rf"\b{re.escape(name)}\b", text)
            for param, index in _defaulted(node, method):
                passed = any(splat or param in keywords or (index is not None and n_args > index)
                             for _, _, n_args, keywords, splat in outside)
                if not passed and not (named and re.search(rf"\b{re.escape(param)}\s*=", text)):
                    missing.append(f"{path.parent.name}/{path.name}:{node.lineno} {name}({param})")
    return missing


def test_every_library_definition_has_a_caller_outside_tests():
    scanned = sorted((ROOT / "src" / "pdecontrol").glob("*.py"))
    assert uncalled(scanned, sorted((ROOT / "perfbench").glob("*.py"))) == []


def test_every_library_option_has_a_caller_outside_tests():
    scanned = sorted((ROOT / "src" / "pdecontrol").glob("*.py"))
    assert unpassed(scanned, sorted((ROOT / "perfbench").glob("*.py"))) == []


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


def test_the_scan_flags_a_parameter_no_caller_passes(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def by_position(a, b=1, c=2):\n    return a\n\n\n"
        "def by_keyword(a, *, b=1, c=2):\n    return a\n\n\n"
        "def splatted(a=1, b=2):\n    return splatted(a, b) if a else 0\n\n\n"
        "def recursive(a, b=1):\n    return recursive(a - 1, b) if a else 0\n\n\n"
        "def traced(a, b=1, c=2):\n    return a\n\n\n"
        "class Box:\n    def __init__(self, a, b=1):\n        self.a = a\n\n"
        "    def read(self, a=1, b=2):\n        return a\n\n\n"
        "def main(args, kw):\n"
        "    by_position(0, 1)\n    by_keyword(0, c=3)\n    splatted(*args)\n    splatted(**kw)\n"
        "    recursive(3)\n    Box(0).read(5)\n"
    )
    bench = tmp_path / "bench.py"
    bench.write_text("tracer.call(mod.traced, 0, b=4)\nother(c=5)\n")
    missing = [entry.rsplit(" ", 1)[1] for entry in unpassed([module], [bench])]
    assert missing == ["by_position(c)", "by_keyword(b)", "recursive(b)", "Box(b)", "read(b)"]
