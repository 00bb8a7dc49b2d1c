"""Where the measured gfgm comes from, and on what it ran.

Only the standard library is imported at module level, so the set-up probe
can load this module before it starts timing ``import gfgm``.
"""

from __future__ import annotations

import glob
import importlib
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class ProvenanceError(SystemExit):
    def __init__(self, message: str):
        super().__init__(f"perfbench: {message}")


def import_checked_gfgm():
    """Import gfgm from this checkout's ``src/`` tree, or exit non-zero.

    gfgm is not installed, so ``src/`` goes first on ``sys.path``; the check
    catches a stale installed copy (or a missing tree) shadowing it.
    """
    expected = os.path.join(SRC, "gfgm", "__init__.py")
    if not os.path.isfile(expected):
        raise ProvenanceError(f"no gfgm source tree at {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    gfgm = importlib.import_module("gfgm")
    found = os.path.realpath(getattr(gfgm, "__file__", "") or "")
    if found != os.path.realpath(expected):
        raise ProvenanceError(f"gfgm resolves to {found}, not to {expected}")
    return gfgm


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when not found."""
    import ctypes

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def describe(gfgm) -> dict:
    import numpy
    import scipy

    return {
        "gfgm_file": gfgm.__file__,
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
