"""The public surface of the package: every module's `__all__`.

A name left in `__all__` after its definition is deleted breaks
`from ouexit.<module> import *` with an AttributeError, so each exported
name must resolve.
"""

import importlib
import pkgutil

import ouexit


def test_every_name_in_each_modules_all_exists():
    modules = [importlib.import_module(info.name)
               for info in pkgutil.iter_modules(ouexit.__path__, "ouexit.")]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) == 5
    for module in exporting:
        for name in module.__all__:
            getattr(module, name)
