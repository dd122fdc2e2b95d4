"""No module of the package imports a name it never uses.

No linter is a test dependency, so this walks each module's syntax tree:
a name bound by an import must be read somewhere in the module. The
``__init__`` modules are skipped, since they import names to re-export them.
"""

import ast
from pathlib import Path

import fsstgnn

PACKAGE = Path(fsstgnn.__file__).parent


def unused_imports(path: Path) -> list:
    """``module:line name`` for each imported name ``path`` never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {name}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py")
    assert len(modules) > 5
    assert [entry for path in modules for entry in unused_imports(path)] == []
