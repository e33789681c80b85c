"""scipy's compiled optimisation solvers, loaded without ``scipy.optimize``.

Importing ``scipy.optimize`` runs its package ``__init__``, which loads
``scipy.linalg`` and much more (about 49 MB and half a second).  The two
solvers this package uses are each one extension file under scipy's
``optimize`` directory: ``_lsap`` (the assignment matching in
``transport``) and ``_lbfgsb`` (L-BFGS-B, for ``model.empirical_minimizer``).
"""

from __future__ import annotations

import sys
from importlib import import_module
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path


def load_optimize(module: str, name: str, public: str, accept=None):
    """``(function, True)`` with ``function`` the attribute ``name`` of the
    compiled ``module`` (``scipy.optimize._lsap``, say), loaded from its file
    without running ``scipy.optimize/__init__``; or ``(scipy.optimize.<public>,
    False)`` where the file is missing (older scipy ships ``_lsap`` as
    Python), does not load, or holds a function that ``accept`` rejects.

    The extension registers itself in ``sys.modules`` while it loads, and
    that entry is removed: a later ``import scipy.optimize`` that found it
    would never bind the submodule as a package attribute, while
    unregistered it loads the submodule itself, with the same function.
    Where the module is already loaded it is reused.
    """
    found = sys.modules.get(module)
    if found is None:
        import scipy
        directory = Path(scipy.__file__).parent / "optimize"
        for suffix in EXTENSION_SUFFIXES:
            path = directory / f"{module.rpartition('.')[2]}{suffix}"
            if path.is_file():
                try:
                    loader = ExtensionFileLoader(module, str(path))
                    found = module_from_spec(
                        spec_from_file_location(module, path, loader=loader))
                    loader.exec_module(found)
                except ImportError:  # a broken or foreign build
                    found = None
                finally:
                    sys.modules.pop(module, None)
                break
    function = getattr(found, name, None)
    if function is not None and (accept is None or accept(function)):
        return function, True
    return getattr(import_module("scipy.optimize"), public), False
