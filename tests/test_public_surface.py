"""Every public function and module constant of ``ces`` has a use inside the package."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ces").glob("*.py"))


def _traced_names() -> set[str]:
    """The function names in ``LAYERS`` of perfbench/tracing.py, read without running it."""
    for node in ast.parse((ROOT / "perfbench" / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return {name for names in ast.literal_eval(node.value).values() for name in names}
    raise AssertionError("perfbench/tracing.py defines no LAYERS")


def test_every_public_function_is_used_in_the_package():
    """Every public function or method defined in src/ces is referenced by
    name somewhere in src/ces, or is named in the benchmark's ``LAYERS``, or
    is ``cli.main``, the entry point.

    The match is by name only, so a function passes whenever anything in the
    package carries its name: a method ``trace`` would pass on ``np.trace``,
    and a function ``s_max`` on the report field of that name.
    """
    defined, used = [], set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.append((path.stem, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    allowed = used | _traced_names()
    unused = [
        f"{module}.{name}"
        for module, name in defined
        if name not in allowed and (module, name) != ("cli", "main")
    ]
    assert not unused, f"public functions nothing in src/ces uses: {unused}"


def test_every_public_module_constant_is_read_in_the_package():
    """Every public name assigned at module level in src/ces is read by name
    (loaded, or as an attribute) somewhere in src/ces: a constant that only
    tests or scripts read belongs with them."""
    assigned, read = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            assigned += [
                (path.stem, name.id)
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and not name.id.startswith("_")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert assigned
    unread = [f"{module}.{name}" for module, name in assigned if name not in read]
    assert not unread, f"public module constants nothing in src/ces reads: {unread}"
