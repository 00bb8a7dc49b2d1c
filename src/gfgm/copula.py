"""Copula family built from multivariate Bernoulli and Coxian-2 ingredients.

A copula in this family is the joint law of the random vector

    U_m = U_{0,m}^{1 - p_m} * U_{1,m}^{I_m},   m = 1, ..., d,

where U_0, U_1 are vectors of independent standard uniforms and I is a
d-variate Bernoulli vector with margins p in (0,1)^d, independent of them.
Each margin of U is uniform: U_{0,m}^{1-p_m} is the survival transform of an
exponential with mean 1-p_m, adding an independent standard exponential when
I_m = 1 completes a Coxian-2 recipe whose total is standard exponential.

Conditionally on I the components are independent, which gives the whole
family closed-form cdfs, densities and survival functions as expectations,
under the law of I, of products of per-margin pieces.  A copula holds that
law in any of three forms (see :mod:`gfgm.bernoulli`): atoms, the law of the
count of an exchangeable vector, or independent margins.  The cdf admits two
algebraically equal expressions:

* the stochastic form, E[prod_m of per-margin conditional cdfs] contracted
  by the law: O(#atoms * d / 4) multiplications per point through the
  blocked contraction of :meth:`BernoulliPmf.expect_products` (fewer when
  dense supports are grouped, O(d + #atoms) on a comonotone chain), O(d^2)
  through the weight-class sums of a count law, O(d) for independent
  margins.  The factor tables are computed
  one contraction chunk of points at a time, so transient memory does not
  grow with the number of points;
* the natural (polynomial) form with centered coefficients
  nu_S = E[prod_{j in S}(I_j - p_j)/p_j] multiplying
  prod_{j in S}(1 - u_j^{p_j/(1-p_j)}) (an exponential-size verification
  oracle, gated to d <= 16).

For d = 2 the family coincides with the Huang-Kotz extension of the
Farlie-Gumbel-Morgenstern copula, uv(1 + a(1-u^b)(1-v^b)), via a = theta and
b = p/(1-p); when all p_m = 1/2 it reduces to the classical FGM family.
Those closed forms, the extreme-positive-dependence cdf and the Coxian-2
collapse of each margin are test oracles, kept in :mod:`gfgm.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bernoulli import (
    CHUNK_ELEMENTS,
    BernoulliPmf,
    IndependenceLaw,
    InvalidDistributionError,
    _subset_products,
    comonotonic,
    from_theta_bivariate,
    nu_all,
    validate_margins,
)

NATURAL_FORM_MAX_D = 16
#: Most a given shape vector may differ from the law's margins, componentwise.
SHAPE_ATOL = 1e-10

__all__ = [
    "GfgmCopula",
    "cdf",
    "cdf_natural",
    "pdf",
    "survival",
    "survival_by_cdf",
]


def _as_points(u, d: int) -> tuple[np.ndarray, bool]:
    """Coerce to an (n, d) float array; report whether input was a single point."""
    pts = np.asarray(u, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"expected points of dimension {d}, got shape {pts.shape}")
    # min and max propagate NaN, which fails both comparisons
    if pts.size and not (pts.min() >= 0.0 and pts.max() <= 1.0):
        raise ValueError("points must lie inside the unit cube [0,1]^d")
    return pts, single


def _pow_log(u: np.ndarray, expo) -> np.ndarray:
    """u**expo for u in [0,1] and expo > 0, evaluated in log space.

    u = 0 short-circuits to 0 through exp(-inf); u = 1 maps to exactly 1.
    """
    with np.errstate(divide="ignore"):
        return np.exp(expo * np.log(u))


@dataclass(frozen=True, eq=False)
class GfgmCopula:
    """Copula defined by a law of the Bernoulli vector and its margin (shape) vector.

    ``law`` is a :class:`BernoulliPmf`, an :class:`IndependenceLaw` or an
    ``ExchangeableCountPmf``.  ``p`` defaults to the law's margins; if given
    explicitly it must match them to within ``SHAPE_ATOL`` = 1e-10 componentwise.
    """

    law: object
    p: np.ndarray = None
    _p_given: bool = field(init=False, repr=False)

    def __post_init__(self):
        derived = self.law.margins
        object.__setattr__(self, "_p_given", self.p is not None)
        if self.p is None:
            p = derived
        else:
            p = validate_margins(self.p)
            if p.size != self.law.d:
                raise InvalidDistributionError("shape vector length must equal pmf dimension")
            if np.max(np.abs(p - derived)) > SHAPE_ATOL:
                raise InvalidDistributionError(
                    f"shape vector disagrees with pmf margins beyond {SHAPE_ATOL:g}"
                )
        object.__setattr__(self, "p", p)

    @property
    def d(self) -> int:
        return self.law.d

    @cached_property
    def bernoulli(self) -> BernoulliPmf:
        """The law as atoms, which only sampling reads; the rest reads the law itself.

        An atom law is its own; count and independence laws are expanded on
        first use, which needs d <= 20.
        """
        return self.law.as_atoms()

    @classmethod
    def from_pmf(cls, pmf: BernoulliPmf) -> "GfgmCopula":
        return cls(pmf)

    @classmethod
    def independence(cls, p) -> "GfgmCopula":
        return cls(IndependenceLaw(p))

    @classmethod
    def comonotone(cls, p) -> "GfgmCopula":
        return cls(comonotonic(p))

    @classmethod
    def bivariate(cls, p1: float, p2: float, theta: float) -> "GfgmCopula":
        return cls(from_theta_bivariate(p1, p2, theta))

    @cached_property
    def _inv1mp(self) -> np.ndarray:
        return 1.0 / (1.0 - self.p)

    def cdf(self, u):
        return cdf(self, u)

    def pdf(self, u):
        return pdf(self, u)

    def survival(self, u):
        return survival(self, u)


def _expect(c: GfgmCopula, u, factors):
    """E under the law of I of prod_m of the factor pairs ``factors(c, block)``.

    The factor pairs are computed one contraction chunk of points at a time,
    so no (n, d) temporary is made and transient memory does not grow with
    the number of points; the values are those of one call over all points.
    """
    pts, single = _as_points(u, c.d)
    out = c.law._expect_chunks(pts.shape[0], lambda s, e: factors(c, pts[s:e]))
    return float(out[0]) if single else out


def _cdf_factors(c: GfgmCopula, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a0 = _pow_log(pts, c._inv1mp[None, :])  # u^{1/(1-p)}
    a1 = (pts - (1.0 - c.p)[None, :] * a0) / c.p[None, :]
    return a0, a1


def _pdf_factors(c: GfgmCopula, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    upow = _pow_log(pts, (c.p / (1.0 - c.p))[None, :])  # u^{p/(1-p)}
    return upow / (1.0 - c.p), (1.0 - upow) / c.p


def _survival_factors(c: GfgmCopula, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a0, a1 = _cdf_factors(c, pts)
    return 1.0 - a0, 1.0 - a1


def cdf(c: GfgmCopula, u):
    """Joint cdf C(u), an expectation under the law of I (stochastic form)."""
    return _expect(c, u, _cdf_factors)


def cdf_natural(c: GfgmCopula, u):
    """Joint cdf through the polynomial (natural) representation.

    Sums all 2^d centered coefficients; intended as a cross-check of
    :func:`cdf`, so it is gated to d <= 16.  The (points, 2^d) table of
    subset products is formed one block of points at a time, at most
    max(4, CHUNK_ELEMENTS / 2^d) points per block, so memory does not grow
    with the number of points.
    """
    if c.d > NATURAL_FORM_MAX_D:
        raise InvalidDistributionError(
            f"natural form is exponential in d; d <= {NATURAL_FORM_MAX_D} required"
        )
    pts, single = _as_points(u, c.d)
    nu = nu_all(c.law)
    out = np.empty(pts.shape[0])
    # points per block of (points, 2^d) terms; a multiple of 4 points, the rows
    # OpenBLAS's gemv takes at a time, gives each point the sums of one call
    step = max(4, CHUNK_ELEMENTS >> c.d)
    for s in range(0, pts.shape[0], step):
        block = pts[s : s + step]
        w = 1.0 - _pow_log(block, (c.p / (1.0 - c.p))[None, :])  # 1 - u^{p/(1-p)}
        # subset products of w, one (1, w_j) factor pair per margin
        terms = _subset_products(np.stack([np.ones_like(w), w], axis=-1)[..., None])[..., 0]
        out[s : s + step] = block.prod(axis=1) * (terms @ nu)
    return float(out[0]) if single else out


def pdf(c: GfgmCopula, u):
    """Copula density; boundary points evaluate the continuous extension."""
    return _expect(c, u, _pdf_factors)


def survival(c: GfgmCopula, u):
    """Survival function Pr(U > u componentwise).

    Uses conditional independence given the Bernoulli vector, so it costs the
    same as one cdf evaluation.
    """
    return _expect(c, u, _survival_factors)


def survival_by_cdf(c: GfgmCopula, u):
    """Survival function by inclusion-exclusion over cdf evaluations.

    Exponential in d (2^d cdf calls); kept only as the independent oracle
    that cross-checks :func:`survival`.
    """
    if c.d > NATURAL_FORM_MAX_D:
        raise InvalidDistributionError(f"inclusion-exclusion survival needs d <= {NATURAL_FORM_MAX_D}")
    pts, single = _as_points(u, c.d)
    out = np.zeros(pts.shape[0])
    for mask in range(1 << c.d):
        v = pts.copy()
        sign = 1.0
        for j in range(c.d):
            if (mask >> j) & 1:
                sign = -sign
            else:
                v[:, j] = 1.0
        out += sign * cdf(c, v)
    return float(out[0]) if single else out
