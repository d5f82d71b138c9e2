"""No function of the package calls itself: every search is a loop, so its
depth is never bounded by the interpreter's stack.  Read with ``ast``: a
call ``f(...)`` inside ``def f`` or ``self.f(...)``/``cls.f(...)`` inside a
method ``f`` counts, wherever it sits in the body."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lexidis"


def _self_calls(path: Path):
    """(file name, line) of each call of a function to itself."""
    for fn in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == fn.name) or (
                    isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                yield path.name, node.lineno


def test_no_function_calls_itself():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    assert [hit for p in modules for hit in _self_calls(p)] == []
