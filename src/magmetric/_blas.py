"""Pin the OpenBLAS that numpy and scipy bundle to one thread, at import,
and load the compiled scipy modules magmetric calls straight from the wheel.

At the sizes solved here its worker threads spin more than they help, and
for n >= 128 they change the bits of `dpotrf`, `dpotrs` and `gemv`.
"""
import ctypes
import glob
import importlib.machinery
import importlib.util
import os
import warnings

import numpy
import scipy


def bundled(package) -> tuple:
    """(ctypes library or None, symbol suffix) of a wheel's bundled OpenBLAS."""
    suffix = "64_" if package is numpy else ""
    libdir = os.path.join(os.path.dirname(package.__file__), os.pardir,
                          package.__name__ + ".libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*"))):
        try:
            return ctypes.CDLL(path), suffix
        except OSError:
            pass
    return None, suffix


def extension(package: str, name: str):
    """The compiled module `package.name`, loaded from its file without
    running `package`'s `__init__` (scipy.linalg's and scipy.spatial's pull
    in kd-trees, qhull and scipy.sparse). The module is the one scipy's own
    import would give, so its functions are the objects scipy's public API
    calls."""
    directory = importlib.util.find_spec(package).submodule_search_locations[0]
    fullname = f"{package}.{name}"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, name + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(fullname, path)
            spec = importlib.util.spec_from_file_location(fullname, path, loader=loader)
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            return module
    raise ImportError(f"no compiled module {fullname} in {directory}",
                      name=fullname, path=directory)


def pin(libraries: dict) -> dict:
    """Set each `{name: (library, suffix)}` to one thread; return
    `{name: threads read back, or None}`. What is missing warns once."""
    threads = {}
    for name, (lib, suffix) in libraries.items():
        try:
            set_threads = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
            get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
        except AttributeError:
            threads[name] = None
            continue
        set_threads(1)
        threads[name] = get_threads()
    missed = [name for name, count in threads.items() if count is None]
    if missed:
        warnings.warn(f"could not pin BLAS threads for {', '.join(missed)}; "
                      "results may depend on OPENBLAS_NUM_THREADS", RuntimeWarning)
    return threads


THREADS = pin({"numpy": bundled(numpy), "scipy": bundled(scipy)})
