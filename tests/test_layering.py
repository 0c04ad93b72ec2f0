"""Import layering of the package, read from the source with ``ast``.

The analytic layer (probability, placement, latency, simulate) reads a
scheme's own shape and never imports the codec; only the codec itself, the
CLI, the answer builder (for its repair column) and the package's public
re-exports in ``durakit/__init__.py`` do.
The modules ``import durakit.cli`` loads never import numpy, and the CLI and
the answer builder import the codec and the simulator, which do, only inside
the functions that use them; ``durakit/__init__.py`` binds their names on
first access.  The CLI takes every analytic value from the answer builder:
from the model modules it imports only types, constants, the sizing solvers
and the placement ``simulate`` hands to the simulator.
Within the codec, ``fragments`` imports the schemes at module level, so its
only deferred import is the codec core that ``Fragment.role`` reads.  Code
dispatches on a scheme's stated shape, not on its class: no code in ``src/``
checks a scheme's class.
A fragment's wire frame is its one representation, and only ``fragments``
reads it.  The simulator builds its own count tables: from the analytic
models it takes only the values it checks against, the types of its
arguments and the count cap, so its cross-check stays independent.
Every top-level name is needed: something in ``src/`` refers to it, the
README documents it, or a short allowlist here says why it stays.  So is
every class member: something in ``src/`` reads it as an attribute, the
README names it in backticks, or an allowlist here says why it stays.
"""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "durakit"
SCHEME_CLASSES = {"ReplicationScheme", "ErasureScheme", "LrcScheme"}
MODELS = ("durakit.probability", "durakit.placement", "durakit.latency")


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
    allowed = {("durakit", "cli"), ("durakit", "answers"), ("durakit", "__init__")}
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


def test_the_answer_builder_imports_the_codec_only_inside_functions():
    answers = PACKAGE / "answers.py", ("durakit", "answers")
    deferred = ("durakit.codec", "durakit.simulate")
    assert within(imported_modules(*answers, module_level=True), *deferred) == set()
    assert within(imported_modules(*answers), *deferred) == {
        "durakit.codec", "durakit.codec.repair_plan",
    }


def test_the_cli_takes_every_analytic_value_from_the_builder():
    allowed = {
        # types of the arguments the CLI parses and hands on
        "durakit.probability.ReplicationScheme",
        "durakit.probability.ErasureScheme",
        "durakit.probability.LRC_6_2_2",
        "durakit.probability.DiskFailureModel",
        "durakit.placement.Topology",
        "durakit.latency.LatencyProfile",
        # option bounds
        "durakit.probability.MAX_TABLE_COUNT",
        "durakit.probability.DEFAULT_PARITY_CAP",
        # plan sizes a scheme before the builder answers for it
        "durakit.probability.parity_needed",
        "durakit.probability.replicas_needed",
        # the placement simulate hands to the simulator
        "durakit.placement.balanced_placement",
        # the range rule for a probability, which checks compare's and curve's
        # q without --dcs, when no Topology is built to check it
        "durakit.probability._check_prob",
    }
    names = imported_modules(PACKAGE / "cli.py", ("durakit", "cli"))
    assert "durakit" not in names
    assert "durakit.answers.scheme_answers" in names
    assert within(names, *MODELS) - set(MODELS) - allowed == set()


def test_the_simulator_builds_its_own_tables():
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
    assert within(names, *MODELS) - set(MODELS) - allowed == set()


def test_what_the_cli_loads_never_imports_numpy():
    for name in ("answers", "errors", "probability", "placement", "latency"):
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


#: top-level names that stay although nothing in ``src/`` refers to them and
#: the README does not name them -> why they stay
NEEDED_ELSEWHERE = {
    "durakit.codec.gf256.mul_bytes": "perfbench/tracer.py wraps it",
    "durakit.codec.gf256.addmul_bytes": "perfbench's addmul and xor probes time it",
    "durakit.codec.gf256.matrix_rank": "perfbench's rank probe times it",
    "durakit.codec.gf256.matrix_invert": "perfbench's invert probes time it",
    "durakit.codec.lrc.GLOBAL_PARITY_INDICES": "perfbench loses LRC globals by it",
    "durakit.codec.lrc.DEFAULT_DC_ASSIGNMENT": "perfbench places the LRC by it",
}


def defined_names(statement):
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def referenced_names(statement):
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(statement)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        or isinstance(node, ast.Attribute)
    }


def registered_by_decorator(statement):
    """A click command or group, which click, not a caller, reaches."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in getattr(statement, "decorator_list", ())
    )


def test_every_top_level_name_is_needed():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    statements = [
        (".".join(parts).removesuffix(".__init__"), statement)
        for path, parts in modules()
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    # a name's own definition, a recursive call included, is no reference to it
    references = [(statement, referenced_names(statement)) for _, statement in statements]
    unneeded = {
        f"{module}.{name}"
        for module, statement in statements
        if not registered_by_decorator(statement)
        for name in defined_names(statement)
        if not (name.startswith("__") and name.endswith("__"))
        and not any(name in names for other, names in references if other is not statement)
        and not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", readme)
    }
    assert unneeded == set(NEEDED_ELSEWHERE)


#: class members that stay although nothing in ``src/`` reads them as an
#: attribute and the README does not name them -> why they stay
MEMBERS_NEEDED_ELSEWHERE: dict[str, str] = {}


def class_members(cls):
    """The methods, properties and class-level constants of ``cls``, by
    statement: no dunder, and no field of a dataclass."""
    dataclass = any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in cls.decorator_list
    )
    for statement in cls.body:
        if dataclass and isinstance(statement, ast.AnnAssign):
            continue
        for name in defined_names(statement):
            if not (name.startswith("__") and name.endswith("__")):
                yield name, statement


def attribute_reads(tree):
    return Counter(
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)
    )


def test_every_class_member_is_needed():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"`([^`]*)`", readme)
    trees = {".".join(parts): ast.parse(path.read_text(encoding="utf-8"))
             for path, parts in modules()}
    reads = sum(map(attribute_reads, trees.values()), Counter())
    unneeded = {
        f"{module}.{cls.name}.{name}"
        for module, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for name, statement in class_members(cls)
        # a read inside the member's own definition, a recursive call, does not count
        if reads[name] == attribute_reads(statement)[name]
        and not any(re.search(rf"(?<!\w){re.escape(name)}(?!\w)", span) for span in spans)
    }
    assert unneeded == set(MEMBERS_NEEDED_ELSEWHERE)
