"""Export lists: every name a module lists in ``__all__`` exists."""

import importlib
import pkgutil

import fracoepi


def test_every_exported_name_resolves():
    modules = [fracoepi] + [
        importlib.import_module(f"fracoepi.{info.name}")
        for info in pkgutil.iter_modules(fracoepi.__path__)
        if info.name != "__main__"  # importing it runs the command line
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"
