"""Source hygiene of ``src/lamtool``, read with the stdlib ``ast``.

Every ``__all__`` entry resolves, no import goes unused, no module imports
``dataclasses`` (records are ``typing.NamedTuple``s), numpy or ``array``
(a word is a code-point ``str``), ``pyproject.toml`` lists no run-time
dependency, no subclass of ``LanguageSource`` redefines a table the base
derives, and only
``laminations.certify`` runs the steps that decide whether a map carries
an attracting language.  Every module-level
function and class, and every method and property of a class, is named
somewhere that a command, an acceptance test or the benchmark reaches:
elsewhere in ``src/lamtool``, in ``tests/test_acceptance.py`` or in
``perfbench/``.  A method or property is named only as an attribute
(``x.name``), an imported name or a component of a dotted string, never by
a variable or a plain string of the same name.  A definition that only unit
tests call belongs in ``tests/conftest.py``, not in ``src/``.  Only the
check of methods imports ``lamtool``, to exempt the overrides of a
base-class method.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lamtool"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _is_all(node):
    return (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets))


def _all_names(tree):
    """The strings of the module's ``__all__`` list, or ()."""
    for node in tree.body:
        if _is_all(node):
            return tuple(ast.literal_eval(node.value))
    return ()


def _bound_names(tree):
    """Names bound by the module's top-level statements."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _annotation(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.returns
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return node.annotation
    return None


def _references(tree, annotations=True, names=True):
    """Names a tree refers to: ``Name`` ids and ``Attribute`` attributes,
    only the attributes without ``names``.  Without ``annotations``, those
    only an annotation names are left out: under ``from __future__ import
    annotations`` no annotation runs."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and names:
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        skip = None if annotations else _annotation(node)
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if child is not skip)
    return found


def _outside_mentions(path, names=True):
    """Names a file outside ``src/`` mentions: references, imported names
    and the components of dotted strings such as the span name
    ``"laminations.AttractingSource.materialize"``.  With ``names``, also
    ``Name`` ids and identifier strings without a dot."""
    tree = _tree(path)
    found = _references(tree, names=names)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(map(str.isidentifier, parts)) and (names or len(parts) > 1):
                found.update(parts)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_resolve(path):
    tree = _tree(path)
    missing = set(_all_names(tree)) - _bound_names(tree)
    assert not missing, f"{path.name}: __all__ names {sorted(missing)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _references(tree) | set(_all_names(tree))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{name} (line {node.lineno})")
    assert not unused, f"{path.name} imports without using: {unused}"


def _imported_packages(path):
    """The top-level packages a module imports, at any depth of its tree."""
    imported = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    return imported


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    """One record idiom: ``typing.NamedTuple``.  ``dataclasses`` would also
    load ``inspect``, ``dis``, ``ast`` and ``tokenize`` into every start."""
    imported = _imported_packages(path)
    assert "dataclasses" not in imported, f"{path.name} imports dataclasses"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numpy_only_for_a_reducible_spectrum(path):
    """Words are code-point ``str``, never numpy arrays, and a reducible
    matrix's spectrum comes from its strongly connected blocks: no module
    imports numpy."""
    assert "numpy" not in _imported_packages(path), f"{path.name} imports numpy"


def test_one_word_format():
    """A word is a code-point ``str`` from expansion to the automaton: no
    module imports ``array`` or packs a word into bytes."""
    offenders = {path.name for path in MODULES
                 if "array" in _imported_packages(path)
                 or any(isinstance(node, ast.Attribute) and node.attr == "tobytes"
                        for node in ast.walk(_tree(path)))}
    assert not offenders, f"{sorted(offenders)} use another word format"


def test_one_place_certifies_a_map():
    """Whether a map carries an attracting language is decided once, by
    ``laminations.certify``: no other function of ``src/lamtool`` calls the
    steps of that decision."""
    steps = {"is_train_track", "transition_matrix", "analyze_matrix",
             "orientability", "from_train_track"}
    callers = set()
    for path in MODULES:
        for func in ast.walk(_tree(path)):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in steps):
                    callers.add(f"{path.stem}.{func.name}")
    assert callers == {"laminations.certify"}


def test_one_shape_for_every_language_source():
    """``LanguageSource`` derives every table, and refuses it past
    ``complete_to``: no subclass defines one of the derived tables, and no
    class states a limit of its own on the extension of the search."""
    derived = {"p_counts", "beta_counts", "metric_beta", "cover_bounds",
               "rose_counts", "transport"}
    classes = {node.name: node for path in MODULES
               for node in ast.walk(_tree(path)) if isinstance(node, ast.ClassDef)}
    sources = ["LanguageSource"]
    for name in sources:  # read as it grows: every subclass, at any depth
        sources += [sub for sub, node in classes.items()
                    if name in {getattr(base, "id", None) for base in node.bases}]
    overrides = sorted(f"{name}.{child.name}" for name in sources[1:]
                       for child in classes[name].body
                       if isinstance(child, ast.FunctionDef) and child.name in derived)
    assert not overrides, f"subclasses define derived tables: {overrides}"
    limits = sorted(path.name for path in MODULES
                    if "extension_limit" in _references(_tree(path)))
    assert not limits, f"{limits} name extension_limit"


def test_no_run_time_dependency():
    """lamtool runs on the standard library; numpy, a test oracle and a
    benchmark recorder, is in the ``dev`` extra."""
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines


def _unreached_methods(statements, outside):
    """The methods and properties named nowhere outside their own bodies:
    not in another method, elsewhere in ``src/lamtool`` or in ``outside``.
    Dunders and overrides of a base-class method are called by the base and
    are exempt.  The check is by name: inside ``src/lamtool`` a method is
    reached by any attribute of the same name, not by a variable."""
    def attributes(node):
        return _references(node, annotations=False, names=False)

    # the units are the methods of each class, the rest of each class
    # body, and every other top-level statement
    units = []
    methods = []
    for path, node, _ in statements:
        if not isinstance(node, ast.ClassDef):
            units.append(attributes(node))
            continue
        rest = node.bases + node.keywords + node.decorator_list
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_names = attributes(child)
                units.append(child_names)
                methods.append((path, node.name, child, child_names))
            else:
                rest.append(child)
        units.append(set().union(*map(attributes, rest)))
    inside = Counter(name for names in units for name in names)
    unreached = []
    for path, owner, node, names in methods:
        name = node.name
        if (name.startswith("__") and name.endswith("__") or name in outside
                or inside[name] > (name in names)):
            continue
        cls = getattr(importlib.import_module(f"lamtool.{path.stem}"), owner)
        if any(name in vars(base) for base in cls.__mro__[1:]):
            continue  # an override: the base class calls it
        unreached.append(f"{path.name}:{node.lineno} {owner}.{name}")
    return unreached


def test_every_definition_is_reached():
    """A module-level function or class is named in ``src/lamtool`` outside
    its own definition, ``__init__``, ``__all__`` and annotations, or in
    ``tests/test_acceptance.py`` or ``perfbench/``; so is every method and
    property (see ``_unreached_methods``)."""
    reaching = [ROOT / "tests" / "test_acceptance.py",
                *sorted((ROOT / "perfbench").glob("*.py"))]
    outside = set().union(*map(_outside_mentions, reaching))
    # per top-level statement of every module but __init__, the names it
    # refers to; a definition is reached from any statement but its own
    statements = [(path, node, _references(node, annotations=False))
                  for path in MODULES if path.name != "__init__.py"
                  for node in _tree(path).body if not _is_all(node)]
    inside = Counter(name for _, _, names in statements for name in names)
    unreached = [f"{path.name}:{node.lineno} {node.name}"
                 for path, node, names in statements
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name not in outside
                 and inside[node.name] == (node.name in names)]
    unreached += _unreached_methods(statements, set().union(
        *(_outside_mentions(path, names=False) for path in reaching)))
    assert not unreached, ("only unit tests reach these; move oracles to "
                           f"tests/conftest.py and delete the rest: {unreached}")
