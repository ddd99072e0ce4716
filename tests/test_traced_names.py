"""Every name the benchmark's traced run wraps still exists in contractlab.

``perfbench/recorder.py`` wraps library functions and methods by name; a
name deleted or renamed in ``src/`` would otherwise show only when a traced
run is made. The recorder is imported the way ``perfbench/test_checker.py``
imports the checker, and its tables are only read: nothing is wrapped.
"""
import importlib
import pkgutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import recorder  # noqa: E402
from run import MODULES  # noqa: E402


def test_every_traced_function_resolves():
    assert recorder.FUNCTIONS
    for span, (home, attrs, _) in recorder.FUNCTIONS.items():
        module = importlib.import_module(f"contractlab.{home}")
        for attr in attrs:
            assert callable(getattr(module, attr, None)), \
                f"{span}: contractlab.{home} has no function {attr}"


def test_every_traced_method_resolves():
    assert recorder.METHODS
    for span, (home, cls, method, _) in recorder.METHODS.items():
        owner = getattr(importlib.import_module(f"contractlab.{home}"), cls, None)
        assert callable(getattr(owner, method, None)), \
            f"{span}: contractlab.{home} has no method {cls}.{method}"


def test_unlisted_modules_bind_no_traced_function():
    """The recorder re-binds a wrapped function only in the modules that
    ``run.MODULES`` lists. A module outside that list (``claims``) that bound
    one by name would call it unwrapped, and its calls would drop out of the
    per-layer counts without any error; it calls them through their modules."""
    package = importlib.import_module("contractlab")
    unlisted = [name for _, name, _ in pkgutil.iter_modules(package.__path__)
                if name not in MODULES]
    assert "claims" in unlisted
    traced = [getattr(importlib.import_module(f"contractlab.{home}"), attr)
              for home, attrs, _ in recorder.FUNCTIONS.values() for attr in attrs]
    for short in unlisted:
        module = importlib.import_module(f"contractlab.{short}")
        bound = [key for key, value in vars(module).items()
                 if any(value is fn for fn in traced)]
        assert not bound, f"contractlab.{short} binds traced {bound} by name"
