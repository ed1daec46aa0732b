"""The failure contract, pinned by a scan of the class definitions.

A failed check is a report, raised inside a construction as
`reports.VerificationError(report)`; a bad request is a `ValueError`, of
which `simplicial.TruncationError` is one; `tl.ParityError` is the one
arithmetic invariant raised in the middle of an evaluation. No other class
in `cosimplex` derives from an exception type.
"""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cosimplex"


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def exception_classes(sources: dict[str, str]) -> dict[str, tuple[str, list[str]]]:
    """{class name: (module, base names)} of every class in `sources` that
    derives from a builtin exception, directly or through another class
    found here."""
    classes = {
        node.name: (module, [_base_name(b) for b in node.bases])
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    }

    def builtin_exception(name: str) -> bool:
        value = getattr(builtins, name, None)
        return isinstance(value, type) and issubclass(value, BaseException)

    found: dict[str, tuple[str, list[str]]] = {}
    grew = True
    while grew:
        grew = False
        for name, (module, bases) in classes.items():
            if name not in found and any(builtin_exception(b) or b in found for b in bases):
                found[name] = (module, bases)
                grew = True
    return found


def test_the_scan_follows_bases_across_modules():
    sources = {
        "a": "class Plain:\n    pass\nclass Bad(ValueError):\n    pass\n",
        "b": "from . import a\nclass Worse(a.Bad):\n    pass\nclass Fine(a.Plain):\n    pass\n",
    }
    assert exception_classes(sources) == {"Bad": ("a", ["ValueError"]), "Worse": ("b", ["Bad"])}


def test_three_exception_classes_carry_every_failure():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert exception_classes(sources) == {
        "VerificationError": ("reports", ["Exception"]),
        "TruncationError": ("simplicial", ["ValueError"]),
        "ParityError": ("tl", ["Exception"]),
    }
