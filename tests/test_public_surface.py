"""The public surface of the package: every module's `__all__`, and the
standard-library-only runtime.

A name left in `__all__` after its definition is deleted breaks
`from ouexit.<module> import *` with an AttributeError, so each exported
name must resolve.  `pyproject.toml` declares no runtime dependency, so
importing the package, and evaluating it, may load no module outside the
standard library.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import ouexit


def test_every_name_in_each_modules_all_exists():
    modules = [importlib.import_module(info.name)
               for info in pkgutil.iter_modules(ouexit.__path__, "ouexit.")]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) == 5
    for module in exporting:
        for name in module.__all__:
            getattr(module, name)


# imports every ouexit module in a fresh interpreter, evaluates survival
# and density past a mode's switch to its fit, and the MGF, so a lazy
# import on those paths shows too, and prints the top-level modules that
# appeared, minus those loaded before (the site hooks of the environment
# may load modules of their own)
_IMPORT_ALL = """
import importlib, pkgutil, sys
before = set(sys.modules)
import ouexit
for info in pkgutil.iter_modules(ouexit.__path__, "ouexit."):
    importlib.import_module(info.name)
from ouexit import _modefit, spectral
basis = spectral.build_basis("radial-interior", 5.0, 0.0, 2, 4)
starts = 2 * spectral._FIT_AFTER
for k in range(starts):
    spectral.survival(basis, k / starts, basis.t_min)
    spectral.fet_density(basis, k / starts, basis.t_min)
assert any(isinstance(fit, _modefit.ModeFit) for fit in basis._mode_fits)
for layout, d, z0 in (("interval", 1, 0.5), ("radial-interior", 3, 0.5),
                      ("radial-exterior", 3, 1.5)):
    spectral.mgf(layout, 2.0, 0.0, d, z0, 1.0)
print(" ".join(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""


def test_importing_every_module_loads_only_the_standard_library():
    src = os.path.dirname(os.path.dirname(ouexit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", _IMPORT_ALL], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout.split()
    assert "ouexit" in out
    foreign = {m for m in out
               if m != "ouexit" and m not in sys.stdlib_module_names}
    assert not foreign
