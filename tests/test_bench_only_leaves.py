"""Three objects stay in ``src/`` only for the benchmark, and nothing else
imports them.

``bench/layers.py`` imports the batch optimizer (:mod:`repro.plan.optimize`,
re-exported by :mod:`repro.plan`), ``WeightedQueryEngine`` and
``QueryPlanner`` to probe and to name its span layers.  The served path
answers through the evaluators' :class:`~repro.plan.ColumnarExecutor` and
routes through ``ThemisModel.plan``, so no other module of the package may
import a leaf — directly, relatively, through a re-export, or inside a
function.  The scan reads every module's source (``ast``) and resolves each
imported name to the object it denotes.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent

#: Leaf (a module, or ``module.name`` of a class) -> the modules allowed to
#: import it besides its own: ``repro.plan`` re-exports the optimizer for
#: the benchmark's probe.
LEAVES = {
    "repro.plan.optimize": {"repro.plan"},
    "repro.sql.engine.WeightedQueryEngine": set(),
    "repro.serving.planner": set(),
}


@functools.cache
def _resolve(name: str):
    """The module or attribute a dotted name denotes, or ``None``."""
    try:
        return importlib.import_module(name)
    except ImportError:
        parent, _, attribute = name.rpartition(".")
        try:
            return getattr(importlib.import_module(parent), attribute, None)
        except ImportError:
            return None


def _leaf_objects(leaf: str) -> list:
    """The leaf and, for a module, every function and class defined in it."""
    target = _resolve(leaf)
    assert target is not None, f"{leaf} no longer exists"
    if not inspect.ismodule(target):
        return [target]
    return [target] + [
        value
        for value in vars(target).values()
        if (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == target.__name__
    ]


def _imported_names(path: Path, module: str):
    """The dotted names ``path`` (module ``module``) imports, with relative
    imports resolved and ``from X import name`` yielding both ``X`` and
    ``X.name``."""
    package = module.split(".") if path.name == "__init__.py" else module.split(".")[:-1]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            source = ".".join(base + ([node.module] if node.module else []))
            yield source
            yield from (f"{source}.{alias.name}" for alias in node.names)


def _modules():
    """``(dotted module name, path)`` of every module of the package."""
    for path in sorted(ROOT.rglob("*.py")):
        parts = path.relative_to(ROOT.parent).with_suffix("").parts
        yield ".".join(parts[:-1] if parts[-1] == "__init__" else parts), path


@pytest.mark.parametrize("leaf", sorted(LEAVES))
def test_no_package_module_imports_a_bench_only_leaf(leaf):
    objects = _leaf_objects(leaf)
    own = leaf if inspect.ismodule(objects[0]) else leaf.rpartition(".")[0]
    importers = sorted(
        {
            module
            for module, path in _modules()
            if module != own and module not in LEAVES[leaf]
            for name in _imported_names(path, module)
            if name.startswith("repro.")
            and any(_resolve(name) is target for target in objects)
        }
    )
    assert importers == []
