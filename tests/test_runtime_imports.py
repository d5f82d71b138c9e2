"""The runtime is stdlib-only: every module of the package imports only the
standard library and the package itself.  Read with ``ast``, so an import
inside a function or behind a condition counts too."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lexidis"


def _imported_roots(path: Path):
    """Top-level module name of each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_itself():
    allowed = set(sys.stdlib_module_names) | {"lexidis"}
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    foreign = [(p.name, root) for p in modules for root in _imported_roots(p)
               if root not in allowed]
    assert foreign == []
