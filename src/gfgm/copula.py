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
  dense supports are grouped), O(d^2) through the weight-class sums of a
  count law, O(d) for independent margins.  The factor tables are computed
  one contraction chunk of points at a time, so transient memory does not
  grow with the number of points;
* the natural (polynomial) form with centered coefficients
  nu_S = E[prod_{j in S}(I_j - p_j)/p_j] multiplying
  prod_{j in S}(1 - u_j^{p_j/(1-p_j)}) (an exponential-size verification
  oracle, gated to d <= 16).

For d = 2 the family coincides with the Huang-Kotz extension of the
Farlie-Gumbel-Morgenstern copula, uv(1 + a(1-u^b)(1-v^b)), via a = theta and
b = p/(1-p); when all p_m = 1/2 it reduces to the classical FGM family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bernoulli import (
    BernoulliPmf,
    IndependenceLaw,
    InvalidDistributionError,
    _popcount,
    _subset_products,
    _subset_sums,
    comonotonic,
    from_theta_bivariate,
    marginals,
    nu_all,
    pmf_to_moments,
    theta_bounds,
    theta_of,
    validate_margins,
)

NATURAL_FORM_MAX_D = 16

__all__ = [
    "GfgmCopula",
    "BivariateGfgm",
    "Coxian2Params",
    "cdf",
    "cdf_natural",
    "pdf",
    "survival",
    "survival_by_cdf",
    "cdf_epd",
    "coxian2_lst",
    "marginal_cdf_representation",
    "fgm_thetas",
    "fgm_natural_cdf",
    "huang_kotz_cdf",
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
    explicitly it must match them to within 1e-10 componentwise.
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
            if np.max(np.abs(p - derived)) > 1e-10:
                raise InvalidDistributionError(
                    "shape vector disagrees with pmf margins beyond 1e-10"
                )
        object.__setattr__(self, "p", p)

    @property
    def d(self) -> int:
        return self.law.d

    @cached_property
    def bernoulli(self) -> BernoulliPmf:
        """The law as atoms, which sampling and the exponential oracles read.

        An atom law is its own; count and independence laws are expanded on
        first use, which needs d <= 20.  Evaluation, the measures and the
        d = 2 quadrature oracle contract the law itself.
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
    :func:`cdf`, so it is gated to d <= 16.
    """
    if c.d > NATURAL_FORM_MAX_D:
        raise InvalidDistributionError(
            f"natural form is exponential in d; d <= {NATURAL_FORM_MAX_D} required"
        )
    pts, single = _as_points(u, c.d)
    nu = nu_all(c.bernoulli)
    w = 1.0 - _pow_log(pts, (c.p / (1.0 - c.p))[None, :])  # 1 - u^{p/(1-p)}
    # (n, 2^d) subset products of w, one (1, w_j) factor pair per margin
    terms = _subset_products(np.stack([np.ones_like(w), w], axis=-1)[..., None])[..., 0]
    out = pts.prod(axis=1) * (terms @ nu)
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
        raise InvalidDistributionError("inclusion-exclusion survival needs d <= 16")
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


# ---------------------------------------------------------------------------
# Bivariate closed form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BivariateGfgm:
    """Two-dimensional member in closed form: parameters (p1, p2, theta).

    C(u, v) = uv (1 + theta (1 - u^{p1/(1-p1)}) (1 - v^{p2/(1-p2)})), with
    theta confined to the interval where the underlying 2x2 Bernoulli pmf
    stays nonnegative.  Equivalent to the atom-based form through
    :meth:`to_copula`.
    """

    p1: float
    p2: float
    theta: float

    def __post_init__(self):
        lo, hi = theta_bounds(self.p1, self.p2)
        if not lo - 1e-12 <= self.theta <= hi + 1e-12:
            raise InvalidDistributionError(
                f"theta={self.theta} outside admissible interval [{lo}, {hi}]"
            )

    @classmethod
    def from_pmf(cls, pmf: BernoulliPmf) -> "BivariateGfgm":
        p1, p2 = marginals(pmf)
        return cls(float(p1), float(p2), theta_of(pmf))

    def to_copula(self) -> GfgmCopula:
        return GfgmCopula.bivariate(self.p1, self.p2, self.theta)

    def cdf(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        gu = 1.0 - _pow_log(u, self.p1 / (1.0 - self.p1))
        gv = 1.0 - _pow_log(v, self.p2 / (1.0 - self.p2))
        return u * v * (1.0 + self.theta * gu * gv)

    def pdf(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        b1 = self.p1 / (1.0 - self.p1)
        b2 = self.p2 / (1.0 - self.p2)
        hu = 1.0 - (1.0 + b1) * _pow_log(u, b1)
        hv = 1.0 - (1.0 + b2) * _pow_log(v, b2)
        return 1.0 + self.theta * hu * hv


def huang_kotz_cdf(a: float, b: float, u, v):
    """Reference form uv(1 + a(1-u^b)(1-v^b)) with b > 0."""
    if not b > 0:  # also rejects NaN
        raise ValueError("b must be positive")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u * v * (1.0 + a * (1.0 - _pow_log(u, b)) * (1.0 - _pow_log(v, b)))


# ---------------------------------------------------------------------------
# Equal-margin extreme positive dependence copula
# ---------------------------------------------------------------------------

def cdf_epd(p: float, d: int, u):
    """Cdf of the most positively dependent equal-margin member.

    Evaluates the two-atom mixture obtained by plugging the comonotone
    Bernoulli vector (all zeros w.p. 1-p, all ones w.p. p) into the general
    mixture form:

        C(u) = (1-p) prod_m u_m^{1/(1-p)}
             + p prod_m (u_m - (1-p) u_m^{1/(1-p)}) / p.

    The sign inside the second product matters: each factor must be
    (u_m - (1-p) u_m^{1/(1-p)})/p, the conditional cdf piece given I_m = 1,
    or the result stops matching the atom-based cdf (that identity is
    pinned by the tests).
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise InvalidDistributionError("p must lie in (0, 1)")
    pts, single = _as_points(u, int(d))
    x = _pow_log(pts, 1.0 / (1.0 - p))
    lower = np.prod(x, axis=1)
    upper = np.prod((pts - (1.0 - p) * x) / p, axis=1)
    out = (1.0 - p) * lower + p * upper
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# Univariate Coxian-2 representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Coxian2Params:
    """Coxian-2 rates tied to a mixing probability p: beta1 = 1/(1-p), beta2 = 1.

    With these rates the two-phase distribution collapses to a standard
    exponential, which is what makes the uniform representation
    U0^{1-p} U1^I exact.
    """

    p: float
    beta1: float = None
    beta2: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise InvalidDistributionError("p must lie in (0, 1)")
        if self.beta1 is None:
            object.__setattr__(self, "beta1", 1.0 / (1.0 - self.p))
        elif not abs(self.beta1 * (1.0 - self.p) - 1.0) <= 1e-12:
            raise InvalidDistributionError("beta1 must equal 1/(1-p)")
        if self.beta2 != 1.0:
            raise InvalidDistributionError("beta2 is fixed at 1")
        # beta1 = 1/(1-p) > 1 = beta2 whenever p > 0, so the rates differ


def coxian2_lst(params: Coxian2Params, t):
    """Laplace-Stieltjes transform of the Coxian-2 distribution at t >= 0."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):  # also rejects NaN
        raise ValueError("t must be nonnegative")
    b1, b2, p = params.beta1, params.beta2, params.p
    stage1 = b1 / (t + b1)
    out = (1.0 - p) * stage1 + p * stage1 * b2 / (t + b2)
    return float(out) if out.ndim == 0 else out


def marginal_cdf_representation(p: float, i_weight, u):
    """Cdf of U0^{1-p} U1^I for I with Pr(I=1) = i_weight[1].

    When Pr(I=1) equals p the mixture collapses to the identity (uniform U);
    other weights give the conditional pieces used by the joint cdf.
    """
    w0, w1 = float(i_weight[0]), float(i_weight[1])
    if not (w0 >= 0 and w1 >= 0 and abs(w0 + w1 - 1.0) <= 1e-12):  # also rejects NaN
        raise InvalidDistributionError("weights must be nonnegative and sum to 1")
    if not 0.0 < p < 1.0:
        raise InvalidDistributionError("p must lie in (0, 1)")
    u = np.asarray(u, dtype=float)
    if not np.all((u >= 0.0) & (u <= 1.0)):  # also rejects NaN
        raise ValueError("u must lie in [0, 1]")
    upow = _pow_log(u, 1.0 / (1.0 - p))
    out = w0 * upow + w1 * (u / p - (1.0 - p) / p * upow)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Classical FGM reference form (the p = 1/2 reduction target)
# ---------------------------------------------------------------------------

def fgm_thetas(pmf: BernoulliPmf) -> np.ndarray:
    """Alternating-sign coefficients theta_S = E[prod_{j in S} (1 - 2 I_j)].

    Returned dense over subset masks.  For symmetric margins these are the
    classical FGM parameters of the exponential-mixture construction whose
    *survival* transform this family generalizes; note the orientation flip:
    theta_S(pmf of 1-I) equals nu_S(pmf of I) when all p_j = 1/2.
    """
    mu = pmf_to_moments(pmf)
    weights = (-2.0) ** _popcount(np.arange(mu.size))
    # subset zeta: theta_S = sum over T subseteq S of (-2)^{|T|} mu_T
    return _subset_sums(mu * weights, pmf.d, superset=False, sign=1.0)


def fgm_natural_cdf(thetas: np.ndarray, u):
    """Classical FGM copula prod u_m (1 + sum_S theta_S prod_{j in S}(1-u_j))."""
    thetas = np.asarray(thetas, dtype=float)
    d = thetas.size.bit_length() - 1
    if 1 << d != thetas.size:
        raise ValueError("theta array length must be a power of two")
    pts, single = _as_points(u, d)
    w = 1.0 - pts
    terms = _subset_products(np.stack([np.ones_like(w), w], axis=-1)[..., None])[..., 0]
    coeffs = thetas.copy()
    coeffs[0] = 1.0
    # singletons do not belong to the copula parameterization
    singles = np.int64(1) << np.arange(d)
    coeffs[singles] = 0.0
    out = pts.prod(axis=1) * (terms @ coeffs)
    return float(out[0]) if single else out
