"""The package's modules use one another only through public names."""

import ast
from pathlib import Path

import causalboot

PACKAGE = Path(causalboot.__file__).resolve().parent


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path, siblings):
    """``from .mod import _name`` and ``mod._name`` of a sibling module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = set()  # local names bound to sibling modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0 and source.split(".")[0] != "causalboot":
                continue
            for alias in node.names:
                if alias.name in siblings and source in ("", "causalboot"):
                    modules.add(alias.asname or alias.name)
                elif private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {source}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("causalboot.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    paths = sorted(PACKAGE.glob("*.py"))
    siblings = {path.stem for path in paths}
    found = [line for path in paths for line in private_reads(path, siblings)]
    assert found == []


def test_the_check_sees_both_forms(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from . import engine, __version__\n"
        "from .engine import _fit_scores, run_blb\n"
        "engine._poisson_rows(1)\n"
        "engine.run_blb\n"
    )
    assert private_reads(path, {"engine"}) == [
        "mod.py:2 imports engine._fit_scores",
        "mod.py:3 reads engine._poisson_rows",
    ]
