import os
import subprocess
import sys
import types
import warnings

import pytest

import magmetric
from magmetric import _alloc

MiB = 1024 * 1024


def fake_libc(returns=1):
    """Stand-in for a ctypes library whose `mallopt` records its calls."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return returns

    return types.SimpleNamespace(mallopt=mallopt), calls


def test_retain_sets_both_thresholds():
    lib, calls = fake_libc()
    assert _alloc.retain(lib) is True
    assert calls == [(-3, 32 * MiB), (-1, 64 * MiB)]


@pytest.mark.parametrize("lib", [types.SimpleNamespace(), None,
                                 fake_libc(returns=0)[0]],
                         ids=["no-mallopt", "no-library", "refused"])
def test_retain_without_glibc_is_silent(lib):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _alloc.retain(lib) is False


@pytest.mark.skipif(not _alloc.RETAINED, reason="allocator policy not in force")
def test_repeated_study_pass_takes_no_page_faults():
    # Without the policy glibc trims the heap after nearly every distance
    # call, and each pass of this huber slice faulted about 3,800 pages in.
    probe = (
        "import resource\n"
        "from magmetric.experiments import config_from_dict, run_study\n"
        "cfg = config_from_dict('huber', {}, trials=1, epsilons=(0.05,),\n"
        "                       radii=(10.0, 50.0, 100.0))\n"
        "for _ in range(3):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    run_study('huber', cfg)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    src = os.path.dirname(os.path.dirname(magmetric.__file__))
    env = {**os.environ, "PYTHONPATH": src, "MAGMETRIC_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", probe], env=env, timeout=120,
                          capture_output=True, text=True, check=True)
    assert int(done.stdout) < 200
