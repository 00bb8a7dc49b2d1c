"""Shared randomized-construction helpers for the test suite."""

import os
import subprocess
import sys

import numpy as np
import pytest

import gfgm
from gfgm import BernoulliPmf, ExchangeableCountPmf, GfgmCopula


def child_peak_kib(code: str, *args: str) -> int:
    """Peak resident size (VmHWM, KiB) of a fresh interpreter that runs ``code``.

    The child imports gfgm from this source tree.  VmHWM, not ru_maxrss:
    Linux carries ru_maxrss across exec, so a child of a large test process
    would report the parent's size.
    """
    code += (
        "\nwith open('/proc/self/status') as fh:\n"
        "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(gfgm.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True)
    return int(run.stdout)


def random_dense_pmf(rng, d, margin_band=(0.05, 0.95), concentration=1.0):
    """Dirichlet-weighted pmf over all 2^d outcomes with margins in a band."""
    for _ in range(200):
        probs = rng.dirichlet(np.full(1 << d, concentration))
        pmf = BernoulliPmf(d, np.arange(1 << d, dtype=np.int64), probs)
        from gfgm import marginals

        m = marginals(pmf)
        if np.all((m > margin_band[0]) & (m < margin_band[1])):
            return pmf
    raise RuntimeError("could not draw a pmf inside the margin band")


def random_sparse_pmf(rng, d, n_atoms=None, margin_band=(0.05, 0.95)):
    """Pmf supported on a few random masks, margins kept inside a band."""
    n_atoms = n_atoms or int(rng.integers(3, min(2**d, 12) + 1))
    for _ in range(500):
        masks = rng.choice(1 << d, size=n_atoms, replace=False).astype(np.int64)
        probs = rng.dirichlet(np.ones(n_atoms))
        try:
            pmf = BernoulliPmf(d, masks, probs)
        except Exception:
            continue
        from gfgm import marginals

        m = marginals(pmf)
        if np.all((m > margin_band[0]) & (m < margin_band[1])):
            return pmf
    raise RuntimeError("could not draw a sparse pmf inside the margin band")


def random_copula(rng, d, sparse=False):
    pmf = random_sparse_pmf(rng, d) if sparse else random_dense_pmf(rng, d)
    return GfgmCopula.from_pmf(pmf)


def random_exchangeable_count(rng, d, margin_band=(0.05, 0.95)):
    for _ in range(200):
        q = rng.dirichlet(np.ones(d + 1))
        cp = ExchangeableCountPmf(d, q)
        if margin_band[0] < cp.p < margin_band[1]:
            return cp
    raise RuntimeError("could not draw an exchangeable count pmf")


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
