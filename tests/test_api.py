"""The public API is what the package's own modules and the demos use."""

import ast
from pathlib import Path

import lossgeom

PACKAGE_DIR = Path(lossgeom.__file__).parent
DEMO_DIR = Path(__file__).parent.parent / "demos"


def loaded_names(path):
    """Every name the file reads (definitions and imports alone do not count)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_name_is_used_by_the_package_or_a_demo():
    sources = [p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py"]
    sources += sorted(DEMO_DIR.glob("*.py"))
    used = set().union(*(loaded_names(p) for p in sources))
    assert sorted(set(lossgeom.__all__) - used) == []


def test_every_name_a_demo_imports_is_public():
    imported = {
        alias.name
        for path in sorted(DEMO_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "lossgeom"
        for alias in node.names
    }
    assert sorted(imported - set(lossgeom.__all__)) == []


def test_every_public_definition_is_used_by_the_package_or_a_demo():
    # a public function or class that only tests call is a test oracle: it
    # belongs under tests/, not in src/
    sources = [p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*(loaded_names(p) for p in sources + sorted(DEMO_DIR.glob("*.py"))))
    unused = [
        f"{path.stem}.{node.name}"
        for path in sorted(sources)
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in used
    ]
    assert unused == []
