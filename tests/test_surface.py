"""Library surface that no code in src/ calls.

The scan reads every module of the package except the re-exports of
`__init__.py` and lists each top-level function and class, and each method
that is not a dunder, whose name no other code in the package mentions, as
a plain name or as an attribute. It works by name only: a name reused
elsewhere in the package counts as used, so `groups.star`, which nothing
calls, is not seen, because `args.star` and `Factor.star` are read. Each
name it finds must be on the allowlist below with the reason it stays, and
each allowlisted name must still be found, so a name that gains a caller or
goes leaves the list."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cosimplex"
LAYERTRACE = ROOT / "bench" / "layertrace.py"

TRACED = "named in bench/layertrace.py TARGETS"
REFERENCE = "a reference the tests compare against"
ROADMAP_5 = "ROADMAP item 5: gets a caller through the correspondence suite or goes"

ALLOWED = {
    "braid.diagram_identity_check": TRACED,
    "braid.lemma_power_check": TRACED,
    "cohomology.cohomology_dim": TRACED,
    "groups.Permutation.cycle": ROADMAP_5,
    "groups.braid_conj_coface": ROADMAP_5,
    "groups.burau_of_word": ROADMAP_5,
    "groups.coxeter": ROADMAP_5,
    "groups.perm_of_word": ROADMAP_5,
    "groups.square_root_generator": ROADMAP_5,
    "linalg.Matrix.conj_transpose": TRACED,
    "linalg.Matrix.hstack": TRACED,
    "linalg.Matrix.transpose": TRACED,
    "linalg.column_space_basis": TRACED,
    "linalg.from_columns": TRACED,
    "ncprob.free_coface": ROADMAP_5,
    "ncprob.sequence_distribution": TRACED,
    "ncprob.subsequence_witness": ROADMAP_5,
    "simplicial.fixed_point_filtration": TRACED,
    "simplicial.prop_partial_check": TRACED,
    "simplicial.relabel": ROADMAP_5,
    "simplicial.sco_from_shifts": TRACED,
    "tl.coeff_add": REFERENCE,
    "tl.coeff_one": REFERENCE,
    "tl.coeff_zero": REFERENCE,
    "tl.delta_power": REFERENCE,
    "tl.tl_probability_sco": ROADMAP_5,
}


def unreferenced_names() -> set[str]:
    """Qualified names of the definitions whose name nothing in the package reads."""
    defined, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {qualified for qualified, name in defined if name not in read}


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


def test_every_unreferenced_name_is_allowed_with_its_reason():
    assert unreferenced_names() == set(ALLOWED)


def test_each_traced_or_reference_reason_holds():
    assert {name for name, why in ALLOWED.items() if why == TRACED} <= traced_names()
    tests = "".join(
        path.read_text() for path in (ROOT / "tests").glob("test_*.py") if path.name != "test_surface.py"
    )
    for name, why in ALLOWED.items():
        if why == REFERENCE:
            assert f"{name.rsplit('.', 1)[1]}(" in tests, name
