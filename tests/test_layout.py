"""The package's modules use one another only through public names."""

import ast
import dataclasses
import importlib
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


def unused_imports(path):
    """Names a module imports and never reads; a name in its ``__all__``
    is read, and ``from __future__`` imports are not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported
    return [f"{path.name}:{line} imports {name}" for name, line in imported.items()
            if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in unused_imports(path)]
    assert found == []


def test_the_unused_import_check_sees_every_form(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .errors import ConfigError, DataError\n"
        "from .engine import run_blb\n"
        "__all__ = ['run_blb']\n"
        "x: np.ndarray = os.sep\n"
        "raise ConfigError\n"
    )
    assert unused_imports(path) == ["mod.py:4 imports DataError"]


# np.quantile, np.percentile and np.median find their order statistics
# through np.unique, which imports numpy.ma (about 1.9 MB); the thread
# pool's module imports logging, which a one-thread run never needs
HEAVY_CALLS = {"quantile", "percentile", "median", "unique"}


def heavy_loads(path):
    """Module-level imports of ``concurrent.futures`` and reads of
    ``np.quantile``, ``np.percentile``, ``np.median`` or ``np.unique``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    pending = list(tree.body)  # statements run at import, class bodies included
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            found += [f"{path.name}:{node.lineno} imports {name} at module level"
                      for name in names if name.split(".")[0] == "concurrent"]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            pending.extend(ast.iter_child_nodes(node))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in HEAVY_CALLS
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return sorted(found)


def test_no_module_loads_numpy_ma_or_the_thread_pool_at_import():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in heavy_loads(path)]
    assert found == []


def test_the_footprint_check_sees_every_form(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import concurrent.futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import numpy as np\n"
        "def pool():\n"
        "    from concurrent.futures import ThreadPoolExecutor\n"
        "    return np.quantile(x, 0.5), np.partition(x, 1)\n"
        "class Cell:\n"
        "    median = np.median\n"
    )
    assert heavy_loads(path) == [
        "mod.py:1 imports concurrent.futures at module level",
        "mod.py:2 imports concurrent.futures at module level",
        "mod.py:6 reads np.quantile",
        "mod.py:8 reads np.median",
    ]


# Mutable on purpose: perfbench's checks assign fields of a finished
# estimate (tau_hat, mean, b0, draws) to show that a corrupted result
# fails them.
MUTABLE_RECORDS = {"engine.SubsetEstimate", "engine.BlbEstimate"}


def test_every_record_is_frozen():
    mutable = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"causalboot.{path.stem}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and dataclasses.is_dataclass(cls) and not cls.__dataclass_params__.frozen):
                mutable.append(f"{path.stem}.{cls.__name__}")
    assert sorted(mutable) == sorted(MUTABLE_RECORDS)
