"""Pin the OpenBLAS that numpy and scipy bundle to one thread, at import.

At the sizes solved here its worker threads spin more than they help, and
for n >= 128 they change the bits of `dpotrf`, `dpotrs` and `gemv`.
"""
import ctypes
import glob
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
