"""The import-time pin of numpy's and scipy's bundled OpenBLAS, and the
loader of scipy's compiled modules."""
import os
import subprocess
import sys
import types
import warnings

import pytest
import scipy

import magmetric
from magmetric import _blas


def fake_openblas(suffix, setter=True):
    """Stand-in for a ctypes library: a getter and, optionally, a setter."""
    state = {"threads": 4}

    def set_threads(n):
        state["threads"] = n

    def get_threads():
        return state["threads"]

    lib = types.SimpleNamespace(**{"scipy_openblas_get_num_threads" + suffix: get_threads})
    if setter:
        setattr(lib, "scipy_openblas_set_num_threads" + suffix, set_threads)
    return lib


def test_import_pins_both_bundled_copies():
    assert _blas.THREADS == {"numpy": 1, "scipy": 1}


def test_import_starts_no_blas_threads_and_restores_the_environment():
    # both copies load with OPENBLAS_NUM_THREADS=1, so neither starts worker
    # threads; then the caller's value, or its absence, is put back
    src = os.path.dirname(os.path.dirname(magmetric.__file__))
    probe = ("import os, magmetric.cli; task = '/proc/self/task'; "
             "print(os.environ.get('OPENBLAS_NUM_THREADS'), "
             "len(os.listdir(task)) if os.path.isdir(task) else 1)")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    for value in (None, "3"):
        env = {**base, "PYTHONPATH": src, **({"OPENBLAS_NUM_THREADS": value} if value else {})}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        assert out == [str(value), "1"]


def test_pin_warns_once_when_a_setter_is_missing():
    libraries = {"numpy": (fake_openblas("64_"), "64_"),
                 "scipy": (fake_openblas("", setter=False), ""),
                 "mkl": (None, "")}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        threads = _blas.pin(libraries)
    assert threads == {"numpy": 1, "scipy": None, "mkl": None}
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "scipy, mkl" in str(caught[0].message)


def test_extension_names_a_missing_module_and_where_it_looked():
    with pytest.raises(ImportError) as err:
        _blas.extension("scipy.spatial", "_no_such_module")
    directory = os.path.join(os.path.dirname(scipy.__file__), "spatial")
    assert "scipy.spatial._no_such_module" in str(err.value)
    assert directory in str(err.value)
    assert (err.value.name, err.value.path) == ("scipy.spatial._no_such_module", directory)
    with pytest.raises(ModuleNotFoundError, match="'no_such_package'") as err:
        _blas.extension("no_such_package", "_module")
    assert err.value.name == "no_such_package"
