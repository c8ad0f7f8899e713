"""The package surface: no public name that only tests reach, no tracer hook that finds nothing.

The census is by name: a definition counts as reached when an `ast.Name`
or `ast.Attribute` of its name appears anywhere in the package outside its
own body. A name shared with another attribute (say a `size` property
beside numpy's `.size`) therefore counts as reached; the check finds
helpers that nothing calls, not every unread property.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "mllgraph"
TRACING = REPO / "perfbench" / "tracing.py"

# public names that nothing in the package calls, each with why it stays
ALLOWED_UNREFERENCED = {
    "diagnostics.snapshot": "read API: the benchmark reads the counters after each command",
    "diagnostics.reset": "read API: the benchmark clears the counters before each command",
    "trainer.checkpoint_bytes": "read API: tools/checkpoint_resave.py compares a re-save with a file's bytes; "
                                "save_checkpoint writes the same chunks without joining them",
}
# perfbench/tracing.py hooks mllgraph.cli.build_cooccurrence, which the CLI no
# longer looks up; the benchmark reports it as not wrapped
KNOWN_STALE_HOOKS = {"mllgraph.cli.build_cooccurrence"}


def _public_definitions(trees):
    """(module.qualname, module, node) of each public function, class, method and property."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", module, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{module}.{node.name}.{member.name}", module, member


def _references(trees):
    """{name: [(module, line), ...]} of every `ast.Name` and `ast.Attribute` in the package."""
    refs = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                refs.setdefault(name, []).append((module, node.lineno))
    return refs


def test_every_public_name_is_reached_from_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    refs = _references(trees)
    defined = set()
    unreached = []
    for qualname, module, node in _public_definitions(trees):
        defined.add(qualname)
        outside = [
            (m, line) for m, line in refs.get(node.name, ())
            if not (m == module and node.lineno <= line <= node.end_lineno)  # not in its own body
        ]
        if not outside and qualname not in ALLOWED_UNREFERENCED:
            unreached.append(qualname)
    assert unreached == [], f"public names that nothing in src/mllgraph calls: {unreached}"
    assert set(ALLOWED_UNREFERENCED) <= defined, set(ALLOWED_UNREFERENCED) - defined


def test_the_package_root_binds_no_name():
    """The root is its docstring: a caller imports each name from the module that defines it."""
    namespace = {"__name__": "mllgraph", "__package__": "mllgraph"}
    exec(compile((PACKAGE / "__init__.py").read_text(encoding="utf-8"), "mllgraph/__init__.py", "exec"), namespace)
    bound = sorted(set(namespace) - {"__name__", "__package__", "__builtins__", "__doc__"})
    assert bound == [], f"names bound by src/mllgraph/__init__.py: {bound}"


def test_every_tracer_hook_finds_its_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, path, _, _ in tracing.WRAPS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or vars(owner).get(attr) is None:
            missing.append(f"{module}.{path}")
    assert set(missing) <= KNOWN_STALE_HOOKS, sorted(set(missing) - KNOWN_STALE_HOOKS)
