"""Importing the CLI loads only the scipy subpackages a run needs, and no
mpmath; every public name of the package has a caller in it, and one
function writes every file."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import trdlab

# only the Picard ODE oracle (scipy.integrate, which pulls in scipy.sparse,
# scipy.optimize and scipy.linalg), the tests' reference operators and the
# 80-digit Picard certificate (mpmath) use these
HEAVY = ("scipy.integrate", "scipy.sparse", "mpmath")


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    src = str(Path(trdlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = f"import sys, trdlab.cli; print(*[m for m in {HEAVY!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


# no command runs these yet: ROADMAP item 5 (the rigorous Picard certificate)
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


def _defaults(tree: ast.Module):
    """(name, params, defaulted) for every def of the tree: name is the class's
    for __init__, params the positional parameters a call fills (self and cls
    dropped), defaulted the parameters that have a default."""
    classes = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = [a.arg for a in positional[len(positional) - len(args.defaults):]]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        method = id(node) in classes and positional and positional[0].arg in ("self", "cls")
        params = [a.arg for a in positional[1 if method else 0:]]
        yield (classes[id(node)] if node.name == "__init__" else node.name), params, defaulted


def test_every_parameter_default_is_set_by_a_caller():
    root = Path(trdlab.__file__).resolve().parents[2]
    src = sorted((root / "src").rglob("*.py"))
    files = src + sorted((root / "tests").rglob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    set_by_calls: dict[str, set] = {}  # callee name -> positions and keywords some call passes
    for path in files:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            passed = set_by_calls.setdefault(name, set())
            if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
                passed.add("*")
            passed.update(range(len(call.args)))
            passed.update(k.arg for k in call.keywords)
    unset = set()
    for path in src:
        for name, params, defaulted in _defaults(ast.parse(path.read_text())):
            passed = set_by_calls.get(name, set())
            for param in defaulted:
                if "*" not in passed and param not in passed and not (
                    param in params and params.index(param) in passed
                ):
                    unset.add(f"{name}.{param}")
    assert unset == set()


def _opens_for_writing(call: ast.AST) -> bool:
    """call is open(file, mode) or path.open(mode) with a mode that is not a
    constant read mode, or a path.write_text / path.write_bytes."""
    if not isinstance(call, ast.Call):
        return False
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    args = call.args[1:] if isinstance(call.func, ast.Name) else call.args
    mode = args[0] if args else next((k.value for k in call.keywords if k.arg == "mode"), None)
    return mode is not None and not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))


def test_only_write_artifacts_opens_a_file_for_writing():
    src = Path(trdlab.__file__).resolve().parent
    writers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(_opens_for_writing, ast.walk(node))):
                writers.add(f"{path.stem}.{node.name}")
    assert writers == {"runner.write_artifacts"}
