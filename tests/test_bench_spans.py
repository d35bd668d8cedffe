"""The benchmark's per-layer spans wrap program functions by module and name.

bench/spans.py lists them in WRAPPED and skips a name the program no longer
defines, so a rename would silently drop that layer's metrics. This test
reads the list from the file without importing it and checks that every
name still resolves to a function.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def wrapped_bindings() -> list[tuple[str, str]]:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"), filename=str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no WRAPPED table in {SPANS}")


def test_every_timed_function_resolves():
    # the benchmark also counts speaker-set sizes through this function
    bindings = wrapped_bindings() + [("pcslpa.constrained", "constrained_speaker_set")]
    assert len(bindings) > 1
    missing = [f"{module}.{attr}" for module, attr in bindings
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
