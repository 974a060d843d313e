"""Every public function, class and method of the package is referenced by
code in the package, or is on the allowlist with its reason."""

import ast
from pathlib import Path

import zipstrata

SRC = Path(zipstrata.__file__).resolve().parent

# Public names that no code in the package refers to.
ALLOWED = {
    # Public API named in the README.
    "cache_stats": "README: lists the package's caches",
    "dual": "README: the reps constructors",
    "from_weights": "README: the reps constructors",
    "entries": "README: a module's exact weights with their multiplicities",
    "ogus_everywhere": "README: the programmatic example prints it",
    # Read by zsbench (its call metrics or make_reference.py); kept until
    # the benchmark stops reading them.
    "build_standard": "zsbench: fzip.build_standard.calls",
    "mat_mul": "zsbench: oracle.mat_mul.calls",
    "reflect": "zsbench: rootsys.reflect.calls",
    "min_in_double_coset": "zsbench: weyl.min_in_double_coset.calls",
    "elements": "zsbench: make_reference.py enumerates the GL cells with it",
}


def test_every_public_definition_is_referenced_in_the_package() -> None:
    """A module-level function or class counts as referenced by a Name or
    an Attribute node anywhere in the package, a method only by an
    Attribute node, so a local variable of the same name does not hide an
    unused method. A definition or an import is no reference."""
    functions, methods, names, attributes = set(), set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                functions.add(node.name)
            if isinstance(node, ast.ClassDef):
                methods.update(
                    item.name for item in node.body if isinstance(item, ast.FunctionDef)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    unreferenced = (functions - names - attributes) | (methods - attributes)
    assert {name for name in unreferenced if not name.startswith("_")} == set(ALLOWED)
