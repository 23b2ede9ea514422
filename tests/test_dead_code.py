"""Every top-level function and class in src/cqcalc is reached from the
package, the tests or the benchmark.  A reference is `alias.name` through
an import of its module, `from ... import name`, or a bare name inside
its own module; a definition that nothing refers to is dead code.  A
public method or property of a package class is reached when its name
is read as an attribute outside its own body.  And every definition,
and every public method of a class in use, that only tests reach, not
the command line or the benchmark, is on a list that may only shrink."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cqcalc"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _dotted(node) -> str:
    if isinstance(node, ast.Attribute):
        return _dotted(node.value) + "." + node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _module_key(node) -> str | None:
    """The module of package["regcalc"]-style lookups, as the benchmark
    holds the imported modules."""
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant) and node.slice.value in MODULES:
        return node.slice.value
    return None


def _imports(tree: ast.Module) -> tuple[dict, dict]:
    """(aliases, names) of one file: the package module each module
    alias stands for, and the (module, name) pair of each name imported
    from a package module."""
    aliases, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("cqcalc").lstrip(".")
            for a in node.names:
                if module:  # from cqcalc.regcalc import name
                    names[a.asname or a.name] = (module, a.name)
                else:  # from cqcalc import regcalc as rc
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):  # import cqcalc.cli
            aliases.update((a.asname or a.name, a.name.split(".")[-1]) for a in node.names)
        elif isinstance(node, ast.Assign) and _module_key(node.value):  # rc = package["regcalc"]
            aliases.update((t.id, _module_key(node.value)) for t in node.targets if isinstance(t, ast.Name))
    return aliases, names


def _names(node: ast.AST, own: str | None, aliases: dict, names: dict) -> set[tuple[str, str]]:
    """(module, name) pairs that node refers to; own is its module name
    when the file is part of the package."""
    refs = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and (module := aliases.get(_dotted(n.value)) or _module_key(n.value)):
            refs.add((module, n.attr))
        elif isinstance(n, ast.Name) and n.id in names:
            refs.add(names[n.id])
        elif isinstance(n, ast.Name) and own:
            refs.add((own, n.id))
    return refs


def _references(tree: ast.Module, own: str | None) -> set[tuple[str, str]]:
    """(module, name) pairs that one file refers to, its imports included."""
    aliases, names = _imports(tree)
    return set(names.values()) | _names(tree, own, aliases, names)


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


def _public_methods(cls: ast.ClassDef) -> list:
    return [fn for fn in cls.body if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]


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
                for fn in _public_methods(cls)
            ]
    assert [name for name, fn in methods if refs[fn.name] == _attributes(fn)[fn.name]] == []


# Top-level definitions, and public methods of reached classes, that
# neither cli.main nor bench/ reaches: only tests call them.  A change
# may only shrink this list, by wiring a name into a command or by
# moving it out of src/ (with the tests that use it).
TEST_ONLY = {
    "diagram": ["Diagram.dagger", "Diagram.topo_order"],
    "duplication": [
        "DuplicateState", "_branch_operator", "_branch_vector", "_duplicate_from_roots", "_psd_sqrt",
        "_purification_rows", "_relating_isometry", "apply_alpha", "canonical_duplicate",
        "check_duplicate_stability", "corollary_alpha", "cq_marginal", "perturbed_pair", "random_cq_state",
        "rotate_duplicate", "universality_alpha", "verify_marginal",
    ],
    "extractor": [
        "DoublingStage", "ExpansionPlan", "ExtractorParams", "_exact_stage_distribution",
        "_pipeline_exact_distance", "extract_subnormalized", "unbounded_pipeline",
    ],
    "protocol": [
        "DIProtocol", "_in_register", "build_di_protocol", "chsh_scoring_diagram", "classical_game_value",
        "failure_filter_tensor", "fn_matrix", "game_value", "honest_expansion_round", "measurement_tensor",
        "rational_approx", "strategy_to_json",
    ],
    "regcalc": [
        "CQState.from_tensor", "CQState.registers", "CQState.to_tensor", "channel_from_kraus", "compose_seq",
        "dagger_conjugate_transpose", "operator_effect",
    ],
    "rewrite": ["const", "lam", "script_to_json", "ure_final_form"],
}


def test_only_listed_definitions_are_test_only():
    """A transitive name scan from cli.main and every reference in
    bench/: a reached definition reaches what its body refers to, and
    what a module runs at import is reached.  A public method is a
    definition of its own, reached when its class is reached and its
    name is read as an attribute in reached code (a class body and its
    field defaults included, its public methods not)."""
    edges, reads, methods, roots, read = {}, {}, {}, {("cli", "main")}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases, names = _imports(tree)
        for node in tree.body:
            parts = [node]
            if isinstance(node, ast.ClassDef):
                own = _public_methods(node)
                parts = [n for n in ast.iter_child_nodes(node) if n not in own]
                for fn in own:
                    key = (path.stem, f"{node.name}.{fn.name}")
                    edges[key], reads[key] = _names(fn, path.stem, aliases, names), set(_attributes(fn))
                    methods[key] = ((path.stem, node.name), fn.name)
            refs = set().union(*(_names(n, path.stem, aliases, names) for n in parts))
            attrs = set().union(*map(_attributes, parts))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                edges[(path.stem, node.name)], reads[(path.stem, node.name)] = refs, attrs
            else:
                roots |= refs
                read |= attrs
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        roots |= _references(tree, None)
        read |= set(_attributes(tree))
    reached, todo = set(), sorted(roots & edges.keys())
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            read |= reads[key]
            todo += sorted(edges[key] & edges.keys() - reached)
            todo += sorted(m for m, (cls, name) in methods.items() if m not in reached and cls in reached and name in read)
    # the methods of an unreached class are listed with their class
    dead = {key for key in edges.keys() - reached if key not in methods or methods[key][0] in reached}
    unreached = {f"{m}.{n}" for m, n in dead}
    listed = {f"{m}.{n}" for m, ns in TEST_ONLY.items() for n in ns}
    assert sorted(unreached - listed) == [], "reached only from tests: wire it into a command or move it to the tests"
    assert sorted(listed - unreached) == [], "reached or removed now: take it off TEST_ONLY"
