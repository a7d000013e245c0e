"""Keep freed heap memory for reuse, at import (glibc only).

glibc returns the top of its heap to the kernel once more than twice the
largest mapped block freed so far lies unused there, so each distance call
maps its n² and projection temporaries again and faults them in page by
page. Fixing both thresholds at the ceilings where glibc's own dynamic rule
stops on 64-bit keeps that memory mapped. No result bit depends on it.
"""
import ctypes
import os

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 * 1024 * 1024  # glibc's DEFAULT_MMAP_THRESHOLD_MAX
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD  # what the dynamic rule pairs with it


def retain(lib) -> bool:
    """Set both thresholds through `lib.mallopt`; True if both calls took.
    A library without `mallopt` (macOS, musl, Windows) is left as it is."""
    mallopt = getattr(lib, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    taken = [mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD),
             mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)]
    return taken == [1, 1]


RETAINED = retain(ctypes.CDLL(None) if os.name == "posix" else None)
"""Whether the import-time policy is in force in this process."""
