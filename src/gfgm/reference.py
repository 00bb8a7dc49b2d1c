"""Reference closed forms of the paper's special cases.

These are oracles: the tests check the production path of
:mod:`gfgm.copula` against them.  ``gfgm`` re-exports every name, and no
other module of the package imports this one.

* ``BivariateGfgm`` and ``huang_kotz_cdf`` - the d = 2 member
  uv(1 + theta (1 - u^{p1/(1-p1)}) (1 - v^{p2/(1-p2)})), the asymmetric
  Huang-Kotz extension of the FGM copula;
* ``cdf_epd`` - the most positively dependent equal-margin member, a
  two-atom mixture;
* ``mixture_copula_cdf`` - an exchangeable de Finetti mixture, through the
  moments of its mixing law rather than its count law;
* ``Coxian2Params``, ``coxian2_lst`` and ``marginal_cdf_representation`` -
  the Coxian-2 law of each margin, which collapses to a standard
  exponential, so U0^{1-p} U1^I is uniform;
* ``fgm_thetas`` and ``fgm_natural_cdf`` - the classical FGM form that the
  family reduces to when every p_j = 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bernoulli import (
    BernoulliPmf,
    InvalidDistributionError,
    _popcount,
    _subset_products,
    _subset_sums,
    check_theta,
    pmf_to_moments,
    theta_of,
    validate_dimension,
    validate_margin,
)
from .copula import GfgmCopula, _as_points, _pow_log
from .exchangeable import MixtureSpec, _outcome_masses

__all__ = [
    "BivariateGfgm",
    "Coxian2Params",
    "cdf_epd",
    "coxian2_lst",
    "fgm_natural_cdf",
    "fgm_thetas",
    "huang_kotz_cdf",
    "marginal_cdf_representation",
    "mixture_copula_cdf",
]


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
        check_theta(self.p1, self.p2, self.theta)

    @classmethod
    def from_pmf(cls, pmf: BernoulliPmf) -> "BivariateGfgm":
        p1, p2 = pmf.margins
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
    p = validate_margin(p)
    pts, single = _as_points(u, validate_dimension(d))
    x = _pow_log(pts, 1.0 / (1.0 - p))
    lower = np.prod(x, axis=1)
    upper = np.prod((pts - (1.0 - p) * x) / p, axis=1)
    out = (1.0 - p) * lower + p * upper
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# Exchangeable de Finetti mixture, through the moments of its mixing law
# ---------------------------------------------------------------------------

def mixture_copula_cdf(spec: MixtureSpec, d: int, u):
    """Mixture-copula cdf evaluated through the moments of the mixing law.

    Expands prod_m (x_m + Lambda (u_m - x_m)/p), x_m = u_m^{1/(1-p)}, as a
    polynomial in Lambda (its weight-class sums, one margin at a time) and
    contracts it with E[Lambda^k]; equals the cdf of the copula of
    ``mixture_count_pmf(spec, d)``.  Both factors are >= 0 on [0, 1], so
    nothing cancels at any d.  Moments that no law on [0, 1] has are
    rejected first, by the rule of ``mixture_count_pmf``'s moment route
    (``exchangeable._outcome_masses``).
    """
    d = validate_dimension(d)
    p = validate_margin(spec.moment(1))  # the mixture mean E[Lambda]
    pts, single = _as_points(u, d)
    x = _pow_log(pts, 1.0 / (1.0 - p))
    mom = np.array([spec.moment(k) for k in range(d + 1)])
    if spec.moments is not None:
        _outcome_masses(mom.tolist())
    f0, f1 = x, (pts - x) / p
    sums = np.zeros((pts.shape[0], d + 1))  # coefficients of Lambda^k
    sums[:, 0] = 1.0
    for m in range(d):
        upper = sums[:, : m + 1].copy()
        sums[:, : m + 1] *= f0[:, m : m + 1]
        sums[:, 1 : m + 2] += upper * f1[:, m : m + 1]
    out = sums @ mom
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
        validate_margin(self.p)
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
    validate_margin(p)
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
