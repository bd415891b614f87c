"""The compiler imports the middleware, never the reverse — at any nesting
depth: a lazy import inside a function is held to the same rule."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LOWER = ("freeride", "obs", "machine", "chapel", "util")
UPPER = ("repro.compiler", "repro.apps", "repro.analysis")
#: (file, enclosing function) of the imports that are inherent
ALLOWED = {
    # a worker wraps the dataset segment it attached for the kernel it compiled
    ("repro/freeride/procexec.py", "_bound_for"),
    # registering an op with a user inverse runs the algebra checker on it
    ("repro/chapel/reduce_op.py", "register_reduce_op"),
}


def _upward_imports(node, file, func=None):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    names = []
    if isinstance(node, ast.ImportFrom) and node.module:
        names = [f"{node.module}.{alias.name}" for alias in node.names]
    elif isinstance(node, ast.Import):
        names = [alias.name + "." for alias in node.names]
    for name in names:
        if name.startswith(tuple(up + "." for up in UPPER)) and (file, func) not in ALLOWED:
            yield f"{file}:{node.lineno} ({func or 'module level'}) imports {name.rstrip('.')}"
    for child in ast.iter_child_nodes(node):
        yield from _upward_imports(child, file, func)


def test_lower_layers_do_not_import_upper_layers():
    files = [p for pkg in LOWER for p in sorted((SRC / "repro" / pkg).rglob("*.py"))]
    assert len(files) > 40  # the scan found the tree
    found = []
    for path in files:
        found += _upward_imports(ast.parse(path.read_text()), str(path.relative_to(SRC)))
    assert not found, "\n".join(found)
