"""Import every module of ``dualstream`` before any test runs.

The package's ``__init__`` imports none of its modules.  A test that
snapshots the loaded modules (``test_bench_wiring.py``) must see all of
them, whichever tests are selected.
"""
import importlib
import pkgutil

import dualstream

for _module in pkgutil.iter_modules(dualstream.__path__):
    importlib.import_module(f"dualstream.{_module.name}")
