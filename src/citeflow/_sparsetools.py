"""scipy's compiled CSR kernels, loaded without ``scipy.sparse``.

Importing ``scipy.sparse`` loads scipy's array-API layer and, through
it, ``numpy.f2py``, ``numpy.ma`` and ``numpy.testing``: it doubles the
start-up time and memory of a process that only needs the kernels. The
kernels live in one extension module, ``scipy/sparse/_sparsetools``,
which imports nothing of scipy, so it is loaded here by its file path
and registered under its own name; a later ``import scipy.sparse`` then
finds and reuses it (``from scipy.sparse import _sparsetools`` gives this
module, though the package then lacks the attribute of that name). When
the file is missing or will not load, the same module comes from
``scipy.sparse`` itself.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

NAME = "scipy.sparse._sparsetools"


def _load():
    if NAME in sys.modules:
        return sys.modules[NAME]
    scipy = importlib.util.find_spec("scipy")
    if scipy is not None and scipy.origin is not None:
        stem = os.path.join(os.path.dirname(scipy.origin), "sparse", "_sparsetools")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            if not os.path.isfile(stem + suffix):
                continue
            try:
                loader = importlib.machinery.ExtensionFileLoader(NAME, stem + suffix)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(NAME, loader)
                )
                loader.exec_module(module)
            except ImportError:
                break
            sys.modules[NAME] = module
            return module
    from scipy.sparse import _sparsetools

    return _sparsetools


module = _load()
csr_matvecs = module.csr_matvecs
csr_row_index = module.csr_row_index
csr_tocsc = module.csr_tocsc
csr_todense = module.csr_todense
