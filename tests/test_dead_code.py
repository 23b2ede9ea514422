"""Every top-level function and class in src/cqcalc is reached from the
package, the tests or the benchmark.  A reference is `alias.name` through
an import of its module, `from ... import name`, or a bare name inside
its own module; a definition that nothing refers to is dead code.  A
public method or property of a package class is reached when its name
is read as an attribute outside its own body."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cqcalc"


def _dotted(node) -> str:
    if isinstance(node, ast.Attribute):
        return _dotted(node.value) + "." + node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _references(tree: ast.Module, own: str | None) -> set[tuple[str, str]]:
    """(module, name) pairs that one file refers to; own is its module
    name when the file is part of the package."""
    aliases, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("cqcalc").lstrip(".")
            for a in node.names:
                if module:  # from cqcalc.regcalc import name
                    refs.add((module, a.name))
                else:  # from cqcalc import regcalc as rc
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):  # import cqcalc.cli
            aliases.update((a.asname or a.name, a.name.split(".")[-1]) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _dotted(node.value) in aliases:
            refs.add((aliases[_dotted(node.value)], node.attr))
        elif isinstance(node, ast.Name) and own:
            refs.add((own, node.id))
    return refs


def test_every_definition_is_referenced():
    defined, refs = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined |= {(path.stem, n.name) for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        refs |= _references(tree, path.stem)
    for path in sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        refs |= _references(ast.parse(path.read_text(), str(path)), None)
    assert sorted(defined - refs) == []


def _attributes(tree: ast.AST) -> Counter:
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def test_every_public_method_is_referenced():
    """A public method or property of a package class is read as `.name`
    somewhere outside its own body.  A name scan: a method that shares
    its name with one in use elsewhere passes unseen."""
    methods, refs = [], Counter()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        refs += _attributes(tree)
        if path.parent == PACKAGE:
            methods += [
                (f"{path.stem}.{cls.name}.{fn.name}", fn)
                for cls in tree.body
                if isinstance(cls, ast.ClassDef)
                for fn in cls.body
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
            ]
    assert [name for name, fn in methods if refs[fn.name] == _attributes(fn)[fn.name]] == []
