"""The names the benchmark tracer wraps must exist in the program.

`bench/tracer.py` wraps the functions listed in its `TIMED` and `COUNTED`
tables, and its `_before_<name>` / `_after_<name>` hooks read arguments by
name.  A function that is renamed or loses such a parameter silently drops
a per-layer metric, so both are checked here, reading the tracer's source
by path without importing or changing it.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_tree():
    return ast.parse(TRACER.read_text(encoding="utf-8"))


def _wrapped_names():
    """(module, function) pairs of the tracer's TIMED and COUNTED tables."""
    tables = {}
    for node in _tracer_tree().body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TIMED", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    assert set(tables) == {"TIMED", "COUNTED"}
    return [(module, fname) for table in tables.values()
            for module, names in table.items() for fname in names]


def _hook_arguments():
    """Function name -> argument names its tracer hooks read as args[...]."""
    wanted = {}
    for node in ast.walk(_tracer_tree()):
        if not isinstance(node, ast.FunctionDef):
            continue
        for prefix in ("_before_", "_after_"):
            if node.name.startswith(prefix):
                fname = node.name[len(prefix):]
                wanted.setdefault(fname, set()).update(
                    sub.slice.value for sub in ast.walk(node)
                    if isinstance(sub, ast.Subscript)
                    and getattr(sub.value, "id", None) == "args"
                    and isinstance(sub.slice, ast.Constant))
    return wanted


def test_every_wrapped_name_exists():
    pairs = _wrapped_names()
    assert ("reps", "composite_generator") in pairs
    missing = [f"{module}.{fname}" for module, fname in pairs
               if not callable(getattr(importlib.import_module(
                   "qso_reps." + module), fname, None))]
    assert not missing


def test_hook_arguments_are_parameters():
    homes = dict((fname, module) for module, fname in _wrapped_names())
    wanted = _hook_arguments()
    assert {"k", "l"} <= wanted["composite_generator"]
    assert "label" in wanted["build_generator"]
    for fname, names in wanted.items():
        fn = getattr(importlib.import_module("qso_reps." + homes[fname]), fname)
        assert names <= set(inspect.signature(fn).parameters), fname
