"""Library surface that no code in src/ calls.

The scan reads every module of the package and lists each top-level
function and class, and each method that is not a dunder, that no other
code in the package reads. A top-level name counts as read only when its
own module names it, a sibling module imports it by name, or a sibling
module reads it as `module.name`; so `groups.star` is seen although
`args.star` and `Factor.star` are read. A method counts as read when any
module reads an attribute of its name. Each name the scan finds must be on
the allowlist below with the reason it stays, and each allowlisted name
must still be found, so a name that gains a caller or goes leaves the
list."""

import ast
import dataclasses
import functools
import importlib
import pathlib
import re

from cosimplex import braid, simplicial

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cosimplex"
LAYERTRACE = ROOT / "bench" / "layertrace.py"
README = ROOT / "README.md"

TRACED = "named in bench/layertrace.py TARGETS"
ROADMAP_5 = "ROADMAP item 5: gets a caller through the correspondence suite or goes"

ALLOWED = {
    "braid.diagram_identity_check": TRACED,
    "braid.lemma_power_check": TRACED,
    "cohomology.cohomology_dim": TRACED,
    "groups.Permutation.cycle": ROADMAP_5,
    "groups.braid_conj_coface": ROADMAP_5,
    "groups.burau_of_word": ROADMAP_5,
    "groups.coxeter": ROADMAP_5,
    "groups.embed": ROADMAP_5,
    "groups.perm_of_word": ROADMAP_5,
    "groups.square_root_generator": ROADMAP_5,
    "groups.star": ROADMAP_5,
    "linalg.Matrix.conj_transpose": TRACED,
    "linalg.Matrix.hstack": TRACED,
    "linalg.Matrix.transpose": TRACED,
    "linalg.Matrix.vstack": TRACED,
    "linalg.column_space_basis": TRACED,
    "linalg.from_columns": TRACED,
    "linalg.solve_columns": TRACED,
    "ncprob.free_coface": ROADMAP_5,
    "ncprob.sequence_distribution": TRACED,
    "ncprob.subsequence_witness": ROADMAP_5,
    "simplicial.fixed_point_filtration": TRACED,
    "simplicial.prop_partial_check": TRACED,
    "simplicial.relabel": ROADMAP_5,
    "simplicial.sco_from_shifts": TRACED,
    "tl.tl_probability_sco": ROADMAP_5,
}


def unreferenced_names(sources: dict[str, str]) -> set[str]:
    """Qualified names of the definitions in `sources` (module name ->
    source text) that nothing in them reads."""
    defined, methods = [], []
    names: dict[str, set] = {}  # module -> the plain names it reads
    imported = set()  # (module, name) imported or read as module.name by a sibling
    attributes = set()  # every attribute name read anywhere
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                methods.extend(
                    (f"{module}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
        siblings = {}  # local name -> sibling module imported as a whole
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        siblings[alias.asname or alias.name] = alias.name
                    else:
                        imported.add((node.module, alias.name))
        names[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[module].add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in siblings:
                    imported.add((siblings[node.value.id], node.attr))
    return {
        f"{module}.{name}" for module, name in defined
        if name not in names[module] and (module, name) not in imported
    } | {qualified for qualified, name in methods if name not in attributes}


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def traced_names() -> set[str]:
    """module.name or module.Class.name for each entry of layertrace's TARGETS."""
    tree = ast.parse(LAYERTRACE.read_text())
    targets = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    names = set()
    for _layer, module, owner, attrs, _hot in ast.literal_eval(targets):
        prefix = module.removeprefix("cosimplex.") + (f".{owner}" if owner else "")
        names.update(f"{prefix}.{attr}" for attr in attrs)
    return names


def test_the_scan_tells_a_reused_name_from_a_read():
    sources = {
        "a": "def star(): pass\ndef used(): pass\ndef local(): pass\nlocal()\n"
             "class K:\n    def star(self): pass\n    def idle(self): pass\n",
        "b": "from .a import used\nfrom . import a as alias\nargs.star\nalias.K\n",
    }
    assert unreferenced_names(sources) == {"a.star", "a.K.idle"}


def test_every_unreferenced_name_is_allowed_with_its_reason():
    assert unreferenced_names(package_sources()) == set(ALLOWED)


def test_each_traced_reason_holds():
    assert {name for name, why in ALLOWED.items() if why == TRACED} <= traced_names()


def readme_names() -> set[tuple[str, str]]:
    """(module, name) for each backticked `module.name` or
    `cosimplex.module.name` of the package in README.md."""
    modules = "|".join(sorted(package_sources()))
    return set(re.findall(rf"`(?:cosimplex\.)?({modules})\.(\w+)", README.read_text()))


def test_every_readme_name_resolves():
    names = readme_names()
    assert len(names) >= 30  # the pattern still finds the README's names
    assert [
        f"{module}.{name}" for module, name in sorted(names)
        if not hasattr(importlib.import_module(f"cosimplex.{module}"), name)
    ] == []


# One table rule: `tables` is defined by the three structures only, and a
# construction that derives tables seeds them, so no class overrides it and
# none subclasses a structure that has it.
TABLE_OWNERS = {"simplicial.Sco", "simplicial.PartialShiftSystem", "braid.BraidAction"}


def table_classes(sources: dict[str, str]) -> tuple[set[str], set[str]]:
    """(the classes that define `tables`, the classes with a base named
    like a class of TABLE_OWNERS), each as module.Class."""
    owners = {name.rpartition(".")[2] for name in TABLE_OWNERS}
    defining, subclassing = set(), set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            names = set()
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(stmt.name)
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
            if "tables" in names:
                defining.add(f"{module}.{node.name}")
            bases = {b.id if isinstance(b, ast.Name) else b.attr for b in node.bases
                     if isinstance(b, (ast.Name, ast.Attribute))}
            if bases & owners:
                subclassing.add(f"{module}.{node.name}")
    return defining, subclassing


def test_the_scan_sees_a_tables_override_and_a_subclass():
    sources = {
        "simplicial": "class Sco:\n    @property\n    def tables(self): pass\n",
        "braid": "class BraidAction:\n    tables = None\n"
                 "class _Seeded(simplicial.Sco):\n    def tables(self): pass\n"
                 "class _Plain(BraidAction):\n    pass\n",
    }
    assert table_classes(sources) == (
        {"simplicial.Sco", "braid.BraidAction", "braid._Seeded"},
        {"braid._Seeded", "braid._Plain"},
    )


def test_tables_are_defined_only_by_the_three_structures():
    assert table_classes(package_sources()) == (TABLE_OWNERS, set())


def test_only_an_sco_tabulates_and_decides_its_own_maps():
    # an SCO builds its tables and decisions on first read; a braid action
    # and a shift system hold None unless the construction that derives
    # them seeds them (simplicial._seed), and neither is a dataclass field
    for name in ("tables", "failing"):
        assert isinstance(vars(simplicial.Sco)[name], functools.cached_property)
        for cls in (braid.BraidAction, simplicial.PartialShiftSystem):
            assert vars(cls)[name] is None
            assert name not in {f.name for f in dataclasses.fields(cls)}
