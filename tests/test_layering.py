"""Import layering of the package, read from the source with ``ast``.

The analytic layer (probability, placement, latency, simulate) reads a
scheme's own shape and never imports the codec; only the codec itself, the
CLI and the package's public re-exports in ``durakit/__init__.py`` do.
The modules ``import durakit.cli`` loads never import numpy, and the CLI
imports the codec and the simulator, which do, only inside the functions
that use them; ``durakit/__init__.py`` binds their names on first access.
Within the codec, ``fragments`` imports the schemes at module level, so its
only deferred import is the codec core that ``Fragment.role`` reads.  Code
dispatches on a scheme's stated shape, not on its class: no code in ``src/``
checks a scheme's class.
A fragment's wire frame is its one representation, and only ``fragments``
reads it.  The simulator builds its own count tables: from the analytic
models it takes only the values it checks against, the types of its
arguments and the count cap, so its cross-check stays independent.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "durakit"
SCHEME_CLASSES = {"ReplicationScheme", "ErasureScheme", "LrcScheme"}


def modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        yield path, parts


def import_nodes(tree, module_level=False):
    """Every import statement in ``tree``; with ``module_level``, none in a function."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if module_level and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def imported_modules(path, parts, module_level=False):
    """Absolute names of every module an import in ``path`` can bind."""
    package = parts[:-1]  # what a relative import is relative to, __init__ too
    names = set()
    for node in import_nodes(ast.parse(path.read_text(encoding="utf-8")), module_level):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                base = ".".join((*base, node.module) if node.module else base)
            else:
                base = node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_only_the_codec_cli_and_package_root_import_the_codec():
    allowed = {("durakit", "cli"), ("durakit", "__init__")}
    offenders = {
        ".".join(parts): sorted(
            name for name in imported_modules(path, parts)
            if name == "durakit.codec" or name.startswith("durakit.codec.")
        )
        for path, parts in modules()
        if parts[:2] != ("durakit", "codec") and parts not in allowed
    }
    assert {module: names for module, names in offenders.items() if names} == {}


def within(names, *packages):
    return {n for n in names if any(n == p or n.startswith(f"{p}.") for p in packages)}


def test_cli_imports_the_codec_and_the_simulator_only_inside_functions():
    cli = PACKAGE / "cli.py", ("durakit", "cli")
    deferred = ("durakit.codec", "durakit.simulate")
    assert within(imported_modules(*cli, module_level=True), *deferred) == set()
    assert within(imported_modules(*cli), *deferred) >= set(deferred)


def test_the_simulator_builds_its_own_tables():
    models = ("durakit.probability", "durakit.placement", "durakit.latency")
    allowed = {
        "durakit.probability.prob_loss_ec",
        "durakit.placement.placement_unavailability",
        "durakit.latency.expected_latency_replication",
        "durakit.latency.ec_read_latency_expectation",
        "durakit.probability.DiskFailureModel",
        "durakit.probability.ErasureScheme",
        "durakit.placement.Placement",
        "durakit.placement.Topology",
        "durakit.latency.LatencyProfile",
        "durakit.probability.MAX_TABLE_COUNT",
    }
    names = imported_modules(PACKAGE / "simulate.py", ("durakit", "simulate"))
    # a whole model module, ``from . import probability``, would put every
    # helper of the analytic side within reach
    assert "durakit" not in names
    assert within(names, *models) - set(models) - allowed == set()


def test_what_the_cli_loads_never_imports_numpy():
    for name in ("errors", "probability", "placement", "latency"):
        path = PACKAGE / f"{name}.py"
        assert within(imported_modules(path, ("durakit", name)), "numpy") == set(), name


def test_fragments_defers_only_the_import_role_needs():
    tree = ast.parse((PACKAGE / "codec" / "fragments.py").read_text(encoding="utf-8"))
    deferred = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and in_function:
                deferred.append(".".join(scope))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (*scope, child.name), True)
            elif isinstance(child, ast.ClassDef):
                visit(child, (*scope, child.name), in_function)
            else:
                visit(child, scope, in_function)

    visit(tree, (), False)
    assert deferred == ["Fragment.role"]


def scheme_class_checks(path, parts):
    """Where in ``path`` an ``isinstance`` names a scheme class, by qualified name."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*where, child.name))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance" and len(child.args) == 2):
                named = {
                    getattr(n, "id", None) or getattr(n, "attr", None)
                    for n in ast.walk(child.args[1])
                }
                if named & SCHEME_CLASSES:
                    found.add(".".join(where))
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), parts)
    return found


def test_no_scheme_class_checks():
    found = set().union(*(scheme_class_checks(path, parts) for path, parts in modules()))
    assert found == set()


def test_only_fragments_reads_a_fragment_frame():
    readers = {
        ".".join(parts)
        for path, parts in modules()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "_frame"
    }
    assert readers == {"durakit.codec.fragments"}
