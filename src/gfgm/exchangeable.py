"""Exchangeable dependence structures and their copulas.

An exchangeable Bernoulli vector is determined by the law of its count
N = I_1 + ... + I_d: every outcome of weight k carries mass q_k / C(d, k).
That O(d) representation is the primary object here, and a law a copula
evaluates through directly: the weight-class sums of its contraction give
the cdf, density, survival function and association measures without
touching 2^d outcomes.  Expansion to atom form is gated to d <= 20 and is
needed only for sampling and the exponential oracles.

The module also covers the geometry of the exchangeable class for a fixed
margin p: its extremal count pmfs (two-point laws straddling pd, plus the
degenerate law when pd is an integer), the extreme negative dependence
member that minimizes the orthant association measures, and de Finetti
mixtures f(i) = int lambda^{|i|} (1-lambda)^{d-|i|} dF(lambda) driven by a
mixing variable on [0, 1] (given by moments or by a quadrature rule), with
the Beta family worked out explicitly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .association import AssociationReport, measures
from .bernoulli import (
    CHUNK_ELEMENTS,
    PROB_ATOL,
    SUM_SLACK,
    BernoulliPmf,
    InvalidDistributionError,
    _check_atom_form,
    _check_dense_dim,
    _Law,
    _popcount,
    validate_margin,
)
from .copula import GfgmCopula, _as_points, _pow_log

__all__ = [
    "ExchangeableCountPmf",
    "expand",
    "count_pmf_of",
    "comonotone_count_pmf",
    "extremal_count_pmfs",
    "end_count_pmf",
    "end_pmf",
    "MixtureSpec",
    "mixture_count_pmf",
    "mixture_copula_cdf",
    "beta_moments",
    "beta_mixture_copula",
    "measures_exchangeable",
    "parse_exchangeable_spec",
]


@dataclass(frozen=True, eq=False)
class ExchangeableCountPmf(_Law):
    """Law of the count N = I_1 + ... + I_d of an exchangeable vector.

    ``q[k] = Pr(N = k)`` for k = 0..d.  The common margin is p = E[N]/d and
    must lie in the margin domain (1e-12, 1 - 1e-12).
    """

    d: int
    q: np.ndarray

    def __post_init__(self):
        if self.d < 2:
            raise InvalidDistributionError("dimension must be >= 2")
        q = np.asarray(self.q, dtype=float)
        if q.shape != (self.d + 1,):
            raise InvalidDistributionError(f"count pmf needs d+1 = {self.d + 1} entries")
        if not np.all(q >= -PROB_ATOL):  # also rejects NaN
            raise InvalidDistributionError("count masses must be nonnegative numbers")
        total = float(q.sum())
        if not abs(total - 1.0) <= SUM_SLACK:
            raise InvalidDistributionError(f"count masses sum to {total}, not 1")
        q = np.clip(q, 0.0, None) / total
        object.__setattr__(self, "q", q)
        validate_margin(self.p)

    @property
    def p(self) -> float:
        return self.mean / self.d

    @property
    def mean(self) -> float:
        return float(np.arange(self.d + 1) @ self.q)

    @cached_property
    def _outcome_mass(self) -> np.ndarray:
        """q_k / C(d, k): the mass of each single outcome of weight k."""
        if self.d > 1029:  # C(1030, 515) overflows a float
            raise InvalidDistributionError(
                f"count-law evaluation needs d <= 1029, where C(d, k) fits a float; got d={self.d}"
            )
        return self.q / np.array([math.comb(self.d, k) for k in range(self.d + 1)], dtype=float)

    margins = property(lambda self: np.full(self.d, self.p))

    @property
    def outcomes(self) -> tuple[np.ndarray, np.ndarray]:
        """The outcome with its first k components on stands for weight class k.

        Tau's inner expectation depends on an outcome only through its weight.
        """
        support = np.flatnonzero(self.q)
        return (np.arange(self.d) < support[:, None]).astype(float), self.q[support]

    def as_atoms(self) -> BernoulliPmf:
        _check_atom_form(self.d)
        return expand(self)

    _chunk = property(lambda self: max(1, CHUNK_ELEMENTS // (4 * (self.d + 1))))

    def _contract(self, f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
        """Weight class k weighs its sum of products by q_k / C(d, k), O(n d^2)."""
        # exact power-of-two scaling to |f0| + |f1| in [1, 2): sums stay finite to d ~ 1000
        shift = np.frexp(np.abs(f0) + np.abs(f1))[1] - 1
        sums = _weight_class_sums(np.ldexp(f0, -shift), np.ldexp(f1, -shift))
        return np.ldexp(sums @ self._outcome_mass, shift.sum(axis=1))


def _weight_class_sums(f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """(n, d+1) coefficients of t^k in prod_j (f0[:, j] + t f1[:, j]), j in order."""
    n, d = f0.shape
    out = np.zeros((n, d + 1))
    out[:, 0] = 1.0
    for m in range(d):
        upper = out[:, : m + 1].copy()
        out[:, : m + 1] *= f0[:, m : m + 1]
        out[:, 1 : m + 2] += upper * f1[:, m : m + 1]
    return out


def expand(cp: ExchangeableCountPmf) -> BernoulliPmf:
    """Atom-form pmf: every weight-k mask gets q_k / C(d, k)."""
    _check_dense_dim(cp.d)
    all_masks = np.arange(1 << cp.d, dtype=np.int64)
    probs = cp._outcome_mass[_popcount(all_masks)]
    keep = probs > 0.0
    return BernoulliPmf(cp.d, all_masks[keep], probs[keep])


def count_pmf_of(pmf: BernoulliPmf, tol: float = 1e-12) -> ExchangeableCountPmf:
    """Recover the count pmf of an exchangeable atom-form pmf.

    Rejects pmfs whose mass is not constant across each weight class, i.e.
    pmfs that are not exchangeable.
    """
    weights = _popcount(pmf.masks)
    q = np.zeros(pmf.d + 1)
    for k in range(pmf.d + 1):
        sel = weights == k
        cnt = math.comb(pmf.d, k)
        if not np.any(sel):
            continue
        probs = pmf.probs[sel]
        if sel.sum() != cnt or probs.max() - probs.min() > tol:
            raise InvalidDistributionError("pmf is not exchangeable")
        q[k] = probs.sum()
    return ExchangeableCountPmf(pmf.d, q)


def comonotone_count_pmf(p: float, d: int) -> ExchangeableCountPmf:
    """Count pmf of the comonotone vector: all-zeros w.p. 1-p, all-ones w.p. p."""
    q = np.zeros(d + 1)
    q[0], q[d] = 1.0 - p, p
    return ExchangeableCountPmf(d, q)


def _split_pd(p: float, d: int) -> tuple[float, int | None]:
    """(pd, k) where k is the integer value of pd, or None when fractional."""
    pd = p * d
    k = round(pd)
    return pd, (k if abs(pd - k) <= 1e-9 else None)


def _extremal_rows(p: float, d: int):
    """(j1, j2, w1, w2) of each extremal count law, in the order of :func:`extremal_count_pmfs`.

    Two-point laws give their unnormalised masses (j2 - pd)/(j2 - j1) and
    (pd - j1)/(j2 - j1); the degenerate law at an integer pd gives
    (pd, pd, 1.0, 0.0).  The arguments are checked at the call and the rows
    are then made one at a time, so a caller that writes them needs O(d)
    memory, not the O(d^3) of all the laws.
    """
    p = validate_margin(p)
    if d < 2:
        raise InvalidDistributionError("dimension must be >= 2")
    pd, k = _split_pd(p, d)
    if k is not None:
        j1_max, j2_min, mean = k - 1, k + 1, float(k)
    else:
        j1_max = int(np.floor(pd))
        j2_min, mean = j1_max + 1, pd
    pairs = ((j1, j2) for j1 in range(j1_max + 1) for j2 in range(j2_min, d + 1))
    rows = ((j1, j2, (j2 - mean) / (j2 - j1), (mean - j1) / (j2 - j1)) for j1, j2 in pairs)
    return itertools.chain(rows, [] if k is None else [(k, k, 1.0, 0.0)])


def extremal_count_pmfs(p: float, d: int) -> list[ExchangeableCountPmf]:
    """Extremal points of the exchangeable class with margin p.

    Two-point laws on {j1, j2} with j1 < pd < j2 and masses
    (j2 - pd)/(j2 - j1) and (pd - j1)/(j2 - j1); when pd is an integer the
    degenerate law at pd joins the list.  Every count pmf with mean pd is a
    convex combination of these.
    """
    d = int(d)
    out: list[ExchangeableCountPmf] = []
    for j1, j2, w1, w2 in _extremal_rows(p, d):
        q = np.zeros(d + 1)
        q[j1] += w1
        q[j2] += w2
        out.append(ExchangeableCountPmf(d, q))
    return out


def end_count_pmf(p: float, d: int) -> ExchangeableCountPmf:
    """Count pmf of the extreme negative dependence member.

    Concentrates the count on floor(pd) and ceil(pd) (degenerate at pd when
    integer): the least-spread count law with mean pd, and the supermodular
    lower bound of the exchangeable class.
    """
    p = validate_margin(p)
    d = int(d)
    pd, k = _split_pd(p, d)
    q = np.zeros(d + 1)
    if k is not None:
        q[k] = 1.0
    else:
        j1 = int(np.floor(pd))
        q[j1] = j1 + 1 - pd
        q[j1 + 1] = pd - j1
    return ExchangeableCountPmf(d, q)


def end_pmf(p: float, d: int) -> BernoulliPmf:
    """Atom form of :func:`end_count_pmf` (uniform within each weight class)."""
    return expand(end_count_pmf(p, d))


# ---------------------------------------------------------------------------
# de Finetti mixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MixtureSpec:
    """Mixing law on [0, 1], given by moments E[Lambda^k] or a quadrature rule."""

    moments: np.ndarray | None = None
    nodes: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if (self.moments is None) == (self.nodes is None):
            raise InvalidDistributionError("give either moments or a quadrature rule")
        if self.moments is not None:
            m = np.asarray(self.moments, dtype=float)
            if m.ndim != 1 or m.size < 2:
                raise InvalidDistributionError("need moments E[L^k] for k = 0..K, K >= 1")
            if not abs(m[0] - 1.0) <= PROB_ATOL:
                raise InvalidDistributionError("zeroth moment must be 1")
            if not np.all((m >= -PROB_ATOL) & (m <= 1.0 + PROB_ATOL)):  # also rejects NaN
                raise InvalidDistributionError("moments of a [0,1] variable lie in [0,1]")
            object.__setattr__(self, "moments", m)
        else:
            nodes = np.asarray(self.nodes, dtype=float)
            weights = np.asarray(self.weights, dtype=float)
            if nodes.shape != weights.shape or nodes.ndim != 1:
                raise InvalidDistributionError("nodes and weights must be congruent 1-D")
            if not np.all((nodes >= 0.0) & (nodes <= 1.0)):  # also rejects NaN
                raise InvalidDistributionError("nodes must lie in [0, 1]")
            if not (np.all(weights >= 0.0) and abs(weights.sum() - 1.0) <= SUM_SLACK):
                raise InvalidDistributionError("weights must be a probability vector")
            object.__setattr__(self, "nodes", nodes)
            object.__setattr__(self, "weights", weights / weights.sum())

    @classmethod
    def from_moments(cls, moments) -> "MixtureSpec":
        return cls(moments=np.asarray(moments, dtype=float))

    @classmethod
    def from_quadrature(cls, nodes, weights) -> "MixtureSpec":
        return cls(nodes=np.asarray(nodes, float), weights=np.asarray(weights, float))

    @classmethod
    def degenerate(cls, lam: float, order: int) -> "MixtureSpec":
        return cls.from_moments([float(lam) ** k for k in range(order + 1)])

    @classmethod
    def beta(cls, alpha: float, beta: float, order: int) -> "MixtureSpec":
        return cls.from_moments(beta_moments(alpha, beta, order))

    def moment(self, k: int) -> float:
        if self.moments is not None:
            if k >= self.moments.size:
                raise InvalidDistributionError(f"moment of order {k} not supplied")
            return float(self.moments[k])
        return float(self.weights @ self.nodes**k)


def beta_moments(alpha: float, beta: float, order: int) -> np.ndarray:
    """E[Lambda^k] for Lambda ~ Beta(alpha, beta), k = 0..order."""
    if not (0.0 < alpha < np.inf and 0.0 < beta < np.inf):  # also rejects NaN
        raise InvalidDistributionError("Beta parameters must be positive and finite")
    m = np.ones(order + 1)
    for k in range(1, order + 1):
        m[k] = m[k - 1] * (alpha + k - 1) / (alpha + beta + k - 1)
    return m


def mixture_count_pmf(spec: MixtureSpec, d: int) -> ExchangeableCountPmf:
    """Count pmf q_k = C(d,k) int lambda^k (1-lambda)^{d-k} dF(lambda).

    The moment route expands the (1-lambda) power binomially; an invalid
    (non-Hausdorff) moment sequence shows up as genuinely negative mass and
    is rejected, while round-off-level negatives are clipped.
    """
    d = int(d)
    q = np.zeros(d + 1)
    if spec.nodes is not None:
        for k in range(d + 1):
            q[k] = math.comb(d, k) * float(
                spec.weights @ (spec.nodes**k * (1.0 - spec.nodes) ** (d - k))
            )
    else:
        for k in range(d + 1):
            terms = [
                (-1.0) ** r * math.comb(d - k, r) * spec.moment(k + r)
                for r in range(d - k + 1)
            ]
            q[k] = math.comb(d, k) * math.fsum(terms)
    if np.any(q < -PROB_ATOL):
        raise InvalidDistributionError("moment sequence yields negative count mass")
    total = float(q.sum())
    if spec.moments is not None and not abs(total - 1.0) <= SUM_SLACK:
        raise InvalidDistributionError(
            f"count masses sum to {total}, not 1: the alternating moment sum cancelled "
            f"at d={d}; a quadrature MixtureSpec (MixtureSpec.from_quadrature) avoids it, "
            "and so does the Beta-binomial route for a Beta mixing law "
            "(spec 'beta:alpha,beta' or beta_mixture_copula)"
        )
    return ExchangeableCountPmf(d, q)


def mixture_copula_cdf(spec: MixtureSpec, d: int, u):
    """Mixture-copula cdf evaluated through the moments of the mixing law.

    Expands prod_m (x_m + Lambda (u_m - x_m)/p), x_m = u_m^{1/(1-p)}, as a
    polynomial in Lambda (the weight-class sums) and contracts it with
    E[Lambda^k]; equals the cdf of the expanded exchangeable copula.
    """
    d = int(d)
    p = validate_margin(spec.moment(1))  # the mixture mean E[Lambda]
    pts, single = _as_points(u, d)
    x = _pow_log(pts, 1.0 / (1.0 - p))
    mom = np.array([spec.moment(k) for k in range(d + 1)])
    out = _weight_class_sums(x, (pts - x) / p) @ mom
    return float(out[0]) if single else out


def _beta_binomial_count_pmf(alpha: float, beta: float, d: int) -> ExchangeableCountPmf:
    """Beta-binomial count pmf: q_0 = E[(1 - Lambda)^d], then q_{k+1}/q_k.

    Every factor is positive, so nothing cancels (the moment route's
    alternating sum does from d ~ 20).  When q_0 is below the normal range
    or a running product of the ratios overflows (a concentrated mixing law
    at high d, such as Beta(500, 1) at d = 1000), the products are carried
    as mantissa and power-of-two exponent, scaled so the largest mass is
    in [0.5, 1), and normalised instead.
    """
    q0 = beta_moments(beta, alpha, d)[-1]  # 1 - Lambda ~ Beta(beta, alpha)
    k = np.arange(d)
    ratios = (d - k) * (alpha + k) / ((k + 1) * (beta + d - 1 - k))
    with np.errstate(over="ignore"):
        products = np.cumprod(ratios)
    if q0 >= np.finfo(float).tiny and np.all(products < np.inf):
        return ExchangeableCountPmf(d, q0 * np.concatenate(([1.0], products)))
    mantissas, exponents, m, e = [1.0], [0], 1.0, 0
    for r in ratios.tolist():  # the same roundings as np.cumprod; frexp is exact
        m, step = math.frexp(m * r)
        e += step
        mantissas.append(m)
        exponents.append(e)
    q = np.ldexp(mantissas, np.subtract(exponents, max(exponents)))
    return ExchangeableCountPmf(d, q / q.sum())


def beta_mixture_copula(alpha: float, beta: float, d: int) -> GfgmCopula:
    """Exchangeable copula mixed by Beta(alpha, beta); margin alpha/(alpha+beta)."""
    return GfgmCopula(_beta_binomial_count_pmf(alpha, beta, int(d)))


def measures_exchangeable(cp: ExchangeableCountPmf) -> AssociationReport:
    """Closed-form measures of the count law's copula, O(s d^2) for s support points."""
    return measures(GfgmCopula(cp))


# ---------------------------------------------------------------------------
# Spec strings used by the command-line front end
# ---------------------------------------------------------------------------

# kind -> (expected form, number of values; None for any)
_SPEC_FORMS = {
    "counts": ("counts:q0,q1,...,qd", None),
    "end": ("end:p", 1),
    "comonotone": ("comonotone:p", 1),
    "beta": ("beta:alpha,beta", 2),
}


def parse_exchangeable_spec(text: str, d: int | None = None) -> ExchangeableCountPmf:
    """Build a count pmf from a compact string.

    Forms: ``counts:q0,q1,...,qd`` | ``end:p`` | ``comonotone:p`` |
    ``beta:alpha,beta``.  All but ``counts`` require the dimension.
    """
    kind, _, arg = text.partition(":")
    kind = kind.strip().lower()
    if kind not in _SPEC_FORMS:
        raise InvalidDistributionError(f"unknown exchangeable spec kind {kind!r}")
    form, arity = _SPEC_FORMS[kind]
    try:
        args = [float(s) for s in arg.split(",")]
    except ValueError:
        args = None
    if args is None or arity not in (None, len(args)):
        raise InvalidDistributionError(f"malformed exchangeable spec {text!r}: expected {form}")
    if kind == "counts":
        cp = ExchangeableCountPmf(len(args) - 1, np.array(args))
        if d is not None and cp.d != d:
            raise InvalidDistributionError(f"counts imply d={cp.d}, but d={d} given")
        return cp
    if d is None:
        raise InvalidDistributionError(f"exchangeable spec {kind!r} needs the dimension d")
    if kind == "beta":
        return _beta_binomial_count_pmf(*args, d)
    return {"end": end_count_pmf, "comonotone": comonotone_count_pmf}[kind](*args, d)
