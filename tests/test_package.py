import json
import os
import subprocess
import sys
from pathlib import Path

import qhenum

# Imports every module of the package, drops the package from sys.modules,
# imports it again and reports which classes of the first import are alive.
REIMPORT = """
import gc, importlib, json, pkgutil, sys, weakref

def import_all():
    for name in [m for m in sys.modules if m == "qhenum" or m.startswith("qhenum.")]:
        del sys.modules[name]
    package = importlib.import_module("qhenum")
    return [importlib.import_module(f"qhenum.{m.name}") for m in pkgutil.iter_modules(package.__path__)]

first = [
    weakref.ref(value)
    for module in import_all()
    for value in vars(module).values()
    if isinstance(value, type) and value.__module__ == module.__name__
]
import_all()
gc.collect()
print(json.dumps({"classes": len(first), "alive": sorted(r().__qualname__ for r in first if r())}))
"""


def test_reimport_frees_the_first_import():
    # a class of the package held by a cache of the standard library keeps
    # its module alive, so every re-import would keep the previous one
    env = {**os.environ, "PYTHONPATH": str(Path(qhenum.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", REIMPORT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["classes"] > 50
    assert result["alive"] == []
