"""Seeded sampling and Monte Carlo estimation.

Sampling follows the stochastic representation directly: per replicate draw
an outcome of the Bernoulli vector I, two rows of independent uniforms U_0
and U_1, and set U_m = U_{0,m}^{1-p_m} U_{1,m}^{I_m}.  No conditional
(Rosenblatt) inversion is involved, so the cost is linear in n*d and the
procedure scales to high dimensions.

The three ingredient draws come from disjoint sub-streams of one seeded
counter-based generator (Philox keyed through SeedSequence.spawn), so they
are independent by construction and the whole batch is reproducible
bit-for-bit from (seed, n, copula).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import AssociationReport, _prefactor
from .bernoulli import BernoulliPmf, _integral
from .copula import GfgmCopula

GENERATOR_ID = "philox4x64-ss3-v1"

__all__ = [
    "GENERATOR_ID",
    "SampleBatch",
    "sample",
    "sample_bernoulli",
    "empirical_measures",
    "uniform_ks_statistic",
]


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """n x d matrix of copula samples plus the seed that produced it."""

    n: int
    d: int
    values: np.ndarray
    seed: int
    generator_id: str = GENERATOR_ID

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.n, self.d):
            raise ValueError(f"values must have shape ({self.n}, {self.d})")
        if not np.all((v > 0.0) & (v < 1.0)):
            raise ValueError("sample entries must lie strictly in (0, 1)")
        object.__setattr__(self, "values", v)


def _draw_args(n, seed) -> tuple[int, int]:
    """(n, seed) as ints, each integral as a dimension is; n >= 1 and seed >= 0."""
    n, seed = _integral(n, "n"), _integral(seed, "seed")
    if n < 1:
        raise ValueError("n must be positive")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return n, seed


def _spawn_generators(seed: int, count: int = 3) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def _open_uniform(gen: np.random.Generator, shape) -> np.ndarray:
    """Uniform draws (k + 1/2) / 2^53 on integer 0 <= k < 2^53, rounded to float64.

    For k >= 2^52 the sum k + 1/2 is not a float64 and rounds half to even,
    so k = 2^53 - 1 gives exactly 1.0 (probability 2^-53 per draw).  Every
    other k gives a value strictly inside (0, 1); the largest is 1 - 2^-52.
    The draws are returned unclamped: the categorical draw reads them as
    they are, and :func:`sample` clamps its values below 1.0 instead.
    """
    k = gen.integers(0, 1 << 53, size=shape)
    return (k.astype(np.float64) + 0.5) / float(1 << 53)


def _categorical_masks(pmf: BernoulliPmf, n: int, gen: np.random.Generator) -> np.ndarray:
    cum = np.cumsum(pmf.probs)
    u = _open_uniform(gen, n)
    idx = np.minimum(np.searchsorted(cum, u), pmf.n_atoms - 1)
    return pmf.masks[idx]


def sample_bernoulli(pmf: BernoulliPmf, n: int, seed: int) -> np.ndarray:
    """n outcome masks drawn by cumulative-probability inversion.

    Uses the same sub-stream as the Bernoulli draws inside :func:`sample`,
    so the two agree for equal seeds.
    """
    n, seed = _draw_args(n, seed)
    gen = _spawn_generators(seed)[0]
    return _categorical_masks(pmf, n, gen)


def sample(c: GfgmCopula, n: int, seed: int) -> SampleBatch:
    """Draw n replicates of the copula into an (n, d) batch.

    Every law is sampled through its atom form, with the margins the atom
    copula has: the given ``p``, else those of the atoms.  So a count-law or
    independence copula draws the same stream as its expansion (d <= 20).
    """
    n, seed = _draw_args(n, seed)
    pmf = c.bernoulli
    p = c.p if c._p_given else pmf.margins
    gen_i, gen_u0, gen_u1 = _spawn_generators(seed)
    masks = _categorical_masks(pmf, n, gen_i)
    u0 = _open_uniform(gen_u0, (n, c.d))
    u1 = _open_uniform(gen_u1, (n, c.d))
    bits = ((masks[:, None] >> np.arange(c.d)[None, :]) & 1).astype(bool)
    values = u0 ** (1.0 - p)[None, :] * np.where(bits, u1, 1.0)
    # a U_0 draw of 1.0, or of 1 - 2^-52 raised to 1 - p <= 0.1, gives a value
    # of 1.0; clamping to the largest float below 1 leaves all others unchanged
    np.minimum(values, np.nextafter(1.0, 0.0), out=values)
    return SampleBatch(n, c.d, values, seed)


def uniform_ks_statistic(x: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample from the uniform cdf on (0,1)."""
    xs = np.sort(np.asarray(x, dtype=float))
    n = xs.size
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - xs), np.max(xs - (grid - 1.0 / n))))


def _pseudo_observations(values: np.ndarray) -> np.ndarray:
    """Rank transform to (0,1): rank / (n + 1), columnwise."""
    n = values.shape[0]
    ranks = np.empty_like(values)
    for j in range(values.shape[1]):
        order = np.argsort(values[:, j], kind="stable")
        ranks[order, j] = np.arange(1, n + 1)
    return ranks / (n + 1.0)


def _estimates(values: np.ndarray) -> tuple[float, float, float]:
    """(rho_cL, rho_cU, tau) plug-in estimates from one block of samples."""
    n, d = values.shape
    pseudo = _pseudo_observations(values)
    pref = _prefactor(d)
    two_d = 2.0**d
    est_lo = pref * (two_d * float(np.mean(np.prod(1.0 - pseudo, axis=1))) - 1.0)
    est_up = pref * (two_d * float(np.mean(np.prod(pseudo, axis=1))) - 1.0)
    # concordance of disjoint sample pairs estimates int C dC without an
    # O(n^2) empirical-copula scan
    m = n - n % 2
    first, second = values[0:m:2], values[1:m:2]
    conc = float(np.mean(np.all(first <= second, axis=1)))
    est_tau = (two_d * conc - 1.0) / (2.0 ** (d - 1) - 1.0)
    return est_lo, est_up, est_tau


def empirical_measures(batch: SampleBatch, n_blocks: int = 10) -> AssociationReport:
    """Rank-based estimates of the four measures, with batch-means errors.

    Point estimates use all rows; standard errors come from re-estimating on
    ``n_blocks`` contiguous sub-batches (each ranked on its own) and scaling
    the spread.
    """
    if batch.n < 1000:
        raise ValueError("need at least 1000 samples for stable estimates")
    est_lo, est_up, est_tau = _estimates(batch.values)
    blocks = np.array_split(np.arange(batch.n), n_blocks)
    per_block = np.array([_estimates(batch.values[idx]) for idx in blocks])
    rc_blocks = 0.5 * (per_block[:, 0] + per_block[:, 1])
    se = per_block.std(axis=0, ddof=1) / np.sqrt(n_blocks)
    stderr = {
        "rho_cL": float(se[0]),
        "rho_cU": float(se[1]),
        "rho_c": float(rc_blocks.std(ddof=1) / np.sqrt(n_blocks)),
        "tau": float(se[2]),
    }
    return AssociationReport(
        est_lo,
        est_up,
        0.5 * (est_lo + est_up),
        est_tau,
        batch.d,
        "monte_carlo",
        stderr=stderr,
    )
