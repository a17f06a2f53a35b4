import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qhenum

# Imports every module of the package, drops the package from sys.modules,
# imports it again and reports which classes of the first import are alive,
# and which of its classes are dataclasses.
REIMPORT = """
import gc, importlib, json, pkgutil, sys, weakref

def import_all():
    for name in [m for m in sys.modules if m == "qhenum" or m.startswith("qhenum.")]:
        del sys.modules[name]
    package = importlib.import_module("qhenum")
    return [importlib.import_module(f"qhenum.{m.name}") for m in pkgutil.iter_modules(package.__path__)]

first = [
    value
    for module in import_all()
    for value in vars(module).values()
    if isinstance(value, type) and value.__module__ == module.__name__
]
dataclasses = sorted(cls.__qualname__ for cls in first if "__dataclass_fields__" in vars(cls))
first = [weakref.ref(cls) for cls in first]
import_all()
gc.collect()
print(json.dumps({
    "classes": len(first),
    "alive": sorted(r().__qualname__ for r in first if r()),
    "dataclasses": dataclasses,
}))
"""

# The classes that stay dataclasses, each for a reason a ``Record`` lacks:
# built or copied with keywords, mutable, or checked in ``__post_init__``.
KEPT_DATACLASSES = [
    "FArray",  # built with keywords in tests
    "FiniteInstance",  # mutable, a factory default, __post_init__
    "Obligation",  # built with keywords
    "QhpProperty",  # built with keywords and copied with dataclasses.replace in tests
    "Query",  # built with keywords
    "ScriptResult",  # built with keywords
    "StatePredicate",  # __post_init__
    "TransitionSystem",  # copied with dataclasses.replace in tests
]


@pytest.fixture(scope="module")
def reimport():
    env = {**os.environ, "PYTHONPATH": str(Path(qhenum.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", REIMPORT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_reimport_frees_the_first_import(reimport):
    # a class of the package held by a cache of the standard library keeps
    # its module alive, so every re-import would keep the previous one
    assert reimport["classes"] > 50
    assert reimport["alive"] == []


def test_only_the_kept_classes_are_dataclasses(reimport):
    # creating a dataclass generates and compiles its methods, a cost every
    # import pays; a positional immutable record derives from terms.Record
    assert reimport["dataclasses"] == KEPT_DATACLASSES, (
        "a positional immutable record derives from qhenum.terms.Record, not @dataclass; "
        "a new dataclass needs its reason in KEPT_DATACLASSES"
    )
