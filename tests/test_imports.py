"""Importing the CLI loads only the scipy subpackages a run needs, and
every public name of the package has a caller in it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import trdlab

# only the Picard ODE oracle (scipy.integrate, which pulls in scipy.sparse,
# scipy.optimize and scipy.linalg) and the tests' reference operators use these
HEAVY = ("scipy.integrate", "scipy.sparse")


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    src = str(Path(trdlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = f"import sys, trdlab.cli; print(*[m for m in {HEAVY!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


# no command runs these yet: ROADMAP item 3 (the rigorous Picard certificate)
# gives them a caller in picard-demo
NO_CALLER_YET = {"picard.picard_iterate_mp", "picard.convergence_envelope_check"}


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _definitions(tree: ast.Module, name: str):
    """The module's top-level def, class, assignment or import that binds name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, ast.Assign):
            bound = [getattr(target, "id", None) for target in node.targets]
        elif isinstance(node, ast.AnnAssign):
            bound = [getattr(node.target, "id", None)]
        elif isinstance(node, ast.ImportFrom):
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        if name in bound:
            yield node


def _mentions(node: ast.AST, name: str) -> bool:
    """node reads name, as a variable, an attribute or an import; strings (the
    module's __all__, docstrings) are not mentions, and ast drops comments."""
    if isinstance(node, ast.Name):
        return node.id == name and isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.Attribute):
        return node.attr == name
    return isinstance(node, ast.alias) and node.name == name


def test_every_public_name_has_a_caller_in_src():
    src = Path(trdlab.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    uncalled = set()
    for module, tree in trees.items():
        for name in _exported(tree):
            own = {id(node) for definition in _definitions(tree, name) for node in ast.walk(definition)}
            if not any(
                _mentions(node, name) and id(node) not in own for other in trees.values() for node in ast.walk(other)
            ):
                uncalled.add(f"{module}.{name}")
    assert uncalled == NO_CALLER_YET
