"""The benchmark's tracer wraps named functions in each layer module; a
refactor that drops or moves one must fail here, not only in the tracer's
own self-test.  The tracer source is read, never imported or changed."""
import importlib
import inspect
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_wrap_target_resolves():
    expected = runpy.run_path(str(TRACING))["EXPECTED"]
    assert "Graph.__init__" in expected["graph"]
    assert "lex_product" in expected["lexprod"]
    assert "SearchStats" in expected["autosearch"]
    missing = []
    for layer, names in expected.items():
        mod = importlib.import_module(f"lexidis.{layer}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            obj = vars(vars(mod).get(owner, object) if owner else mod).get(attr)
            kind = inspect.isclass if name == "SearchStats" else inspect.isfunction
            # defined in the layer's own module, so its spans count for that layer
            if not (kind(obj) and obj.__module__ == mod.__name__):
                missing.append(f"lexidis.{layer}.{name}")
    assert missing == []
