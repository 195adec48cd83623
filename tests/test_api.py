"""The public API is what the CLI and the demos run, with the result types
and errors of those calls; the package's building blocks stay in its modules."""

import ast
import inspect
import re
from pathlib import Path

import lossgeom

PACKAGE_DIR = Path(lossgeom.__file__).parent
DEMO_DIR = Path(__file__).parent.parent / "demos"
README = Path(__file__).parent.parent / "README.md"


def loaded_names(path):
    """Every name the file reads (definitions and imports alone do not count)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_name_is_a_cli_or_demo_call_or_what_one_returns_or_raises():
    sources = [PACKAGE_DIR / "cli.py", *sorted(DEMO_DIR.glob("*.py"))]
    run = set().union(*map(loaded_names, sources))
    public = {name: getattr(lossgeom, name) for name in lossgeom.__all__}
    calls = [value for name, value in public.items() if name in run and inspect.isfunction(value)]
    returned = {  # the names in each such function's return annotation
        node.id
        for fn in calls
        for node in ast.walk(ast.parse(inspect.signature(fn).return_annotation, mode="eval"))
        if isinstance(node, ast.Name)
    }
    raised = {  # the errors of the modules those functions are in
        name for name, value in public.items()
        if isinstance(value, type) and issubclass(value, Exception)
        and value.__module__ in {fn.__module__ for fn in calls}
    }
    assert sorted(set(public) - run - returned - raised) == []


def test_the_readme_lists_the_public_names():
    section = README.read_text(encoding="utf-8").split("\n## Python API\n")[1].split("\n## ")[0]
    listed = [name for paragraph in section.split("\n\n") if paragraph.startswith("* ")
              for name in re.findall(r"`(\w+)`", paragraph)]
    assert sorted(listed) == lossgeom.__all__


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


def test_no_module_imports_an_underscore_name_from_a_sibling():
    # a module's underscore names are its own: a sibling that needs one
    # shares its decision, and the two belong in one module
    imports = [
        f"{path.name}: from .{node.module} import {alias.name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "lossgeom")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert imports == []
