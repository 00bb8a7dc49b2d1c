"""Exchangeable dependence structures and their copulas.

An exchangeable Bernoulli vector is determined by the law of its count
N = I_1 + ... + I_d: every outcome of weight k carries mass q_k / C(d, k).
That O(d) representation is the primary object here, and a law a copula
evaluates through directly: the weight-class sums of its contraction give
the cdf, density and survival function, and sums over its support the
association measures, without touching 2^d outcomes.  Expansion to atom
form is gated to d <= 20 and is needed only for sampling.

The module also covers the geometry of the exchangeable class for a fixed
margin p: its extremal count pmfs (two-point laws straddling pd, plus the
degenerate law when pd is an integer), the extreme negative dependence
member that minimizes the orthant association measures, and de Finetti
mixtures f(i) = int lambda^{|i|} (1-lambda)^{d-|i|} dF(lambda) driven by a
mixing variable on [0, 1] (given by moments or by a quadrature rule), with
the Beta family worked out explicitly.  A mixture is its count law
(:func:`mixture_count_pmf`), and a copula evaluates it like any other; the
moment form of its cdf is the oracle ``gfgm.reference.mixture_copula_cdf``.
"""

from __future__ import annotations

import itertools
import math
import sys
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
    _end_support,
    _kernel_table,
    _Law,
    _law_masses,
    _normalised,
    _popcount,
    validate_dimension,
    validate_margin,
)
from .copula import GfgmCopula

#: Largest d of a count law's evaluation: C(1030, 515) overflows a float.
COUNT_LAW_MAX_D = 1029

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
        object.__setattr__(self, "d", validate_dimension(self.d))
        if self.d < 2:
            raise InvalidDistributionError("dimension must be >= 2")
        q = np.asarray(self.q, dtype=float)
        if q.shape != (self.d + 1,):
            raise InvalidDistributionError(f"count pmf needs d+1 = {self.d + 1} entries")
        object.__setattr__(self, "q", _normalised(q, "count masses"))
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
        return self.q / np.array(_binomials(self.d), dtype=float)

    margins = property(lambda self: np.full(self.d, self.p))

    @property
    def outcomes(self) -> tuple[np.ndarray, np.ndarray]:
        """The outcome with its first k components on stands for weight class k.

        Tau's inner expectation depends on an outcome only through its weight.
        """
        support = np.flatnonzero(self.q)
        return (np.arange(self.d) < support[:, None]).astype(float), self.q[support]

    @cached_property
    def size_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """(mu, lambda) of each size |S| = k = 0..d, as both the largest and the smallest.

        mu_k = sum_j q_j C(j, k) / C(d, k) (lambda_k over d - j), each ratio a
        running product prod_{i<k} (j-i)/(d-i) in [0, 1]: O(d^2), no C(d, k).
        """
        d = self.d
        counts = np.stack([np.arange(d + 1.0), d - np.arange(d + 1.0)])
        ratio, out = np.ones_like(counts), np.ones((2, d + 1))
        for k in range(1, d + 1):
            ratio *= (counts - (k - 1)) / (d - (k - 1))
            out[:, k] = ratio @ self.q
        return out, out

    def moments(self, flipped: bool = False) -> np.ndarray:
        """mu_S, or lambda_S when ``flipped``: the size rows broadcast by popcount."""
        _check_dense_dim(self.d)
        return self.size_moments[0][int(flipped)][_popcount(np.arange(1 << self.d))]

    def as_atoms(self) -> BernoulliPmf:
        _check_atom_form(self.d)
        return expand(self)

    _chunk = property(lambda self: max(1, CHUNK_ELEMENTS // (4 * (self.d + 1))))

    def _contract(self, f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
        """Weight class k weighs its sum of products by q_k / C(d, k), O(n d^2).

        A chunk whose rows each carry one factor pair (g0, g1) on every margin
        takes sum_k q_k g1^k g0^(d-k) over the support instead, O(n s), each
        power formed on the mantissas and its binary exponent added after.
        """
        mass = self._outcome_mass  # also the check d <= COUNT_LAW_MAX_D
        if np.all(f0 == f0[:, :1]) and np.all(f1 == f1[:, :1]):
            k = np.flatnonzero(self.q)
            (m0, e0), (m1, e1) = np.frexp(f0[:, :1]), np.frexp(f1[:, :1])
            return np.ldexp(m1**k * m0 ** (self.d - k), e1 * k + e0 * (self.d - k)) @ self.q[k]
        # exact power-of-two scaling to |f0| + |f1| in [1, 2): sums stay finite to d ~ 1000
        shift = np.frexp(np.abs(f0) + np.abs(f1))[1] - 1
        sums = _weight_class_sums(np.ldexp(f0, -shift), np.ldexp(f1, -shift))
        return np.ldexp(sums @ mass, shift.sum(axis=1))

    def pair_sum(self, kernel) -> float:
        """E[prod_m K(I_m, I'_m)] as a sum over the support, when K is one kernel for all margins.

        Given I' with l ones, the weight-class sums of prod_m K(I_m, I'_m) are
        the coefficients of (K01 + t K11)^l (K00 + t K10)^(d-l), the product
        of two binomial rows, each pair scaled to a sum in [1, 2) as in
        ``_contract``.  Contracted with w_k = q_k / C(d, k) that is the
        bilinear form A_l^T H B_l, H[a, b] = w_(a+b), and all supported l
        together are a few array operations: O(s d^2) flops for s supported
        counts, no loop over the margins.  The rows are taken a chunk of
        counts at a time within CHUNK_ELEMENTS; H holds (d + 1)^2 values.
        A kernel that varies by margin, or has a zero value, takes the
        outcome rows, O(s d^2).
        """
        table = _kernel_table(kernel, self.d)
        if np.any(table != table[:, :1]) or not np.all(table):
            return super().pair_sum(kernel)
        d, ls = self.d, np.flatnonzero(self.q)
        padded = np.zeros(2 * d + 1)
        padded[: d + 1] = self._outcome_mass
        hankel = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(padded, d + 1))
        # per count l, the row of (K01 + t K11)^l and that of (K00 + t K10)^(d-l)
        pairs = table[[1, 3, 0, 2], :1].reshape(2, 2)
        shift = np.frexp(np.abs(pairs).sum(axis=1))[1] - 1
        x, y = np.ldexp(pairs, -shift[:, None]).T
        sums = np.empty(ls.size)
        step = max(1, CHUNK_ELEMENTS // (2 * (d + 1)))
        for s in range(0, ls.size, step):
            l = ls[s : s + step]
            on, off = np.split(_binomial_rows(np.repeat(x, l.size), np.repeat(y, l.size),
                                              np.concatenate([l, d - l]), d + 1), 2)
            sums[s : s + step] = np.sum((on @ hankel) * off, axis=1)
        return float(self.q[ls] @ np.ldexp(sums, ls * shift[0] + (d - ls) * shift[1]))


def _binomials(d: int) -> list[int]:
    """C(d, k), k = 0..d, for d <= COUNT_LAW_MAX_D: ``math.comb``'s integers, in O(d) small steps."""
    if d > COUNT_LAW_MAX_D:
        raise InvalidDistributionError(
            f"count laws need d <= {COUNT_LAW_MAX_D}, where C(d, k) fits a float; got d={d}"
        )
    binom = [1]
    for k in range(d):
        binom.append(binom[-1] * (d - k) // (k + 1))
    return binom


def _binomial_rows(x: np.ndarray, y: np.ndarray, n: np.ndarray, width: int) -> np.ndarray:
    """(n.size, width) coefficients of t^a in (x_i + t y_i)^(n_i), one row per i; x nonzero.

    Each row is one running product from x^(n_i), with ratios
    (n_i - a + 1) / a * y / x, taken on the mantissas of x and y; their binary
    exponents are added last, so no term leaves the float range for n <= 1023.
    """
    (mx, ex), (my, ey) = np.frexp(x[:, None]), np.frexp(y[:, None])
    a, n = np.arange(width), n[:, None]
    rows = np.empty((n.size, width))
    rows[:, :1] = mx**n
    rows[:, 1:] = np.maximum(n + 1 - a[1:], 0) / a[1:] * (my / mx)
    np.cumprod(rows, axis=1, out=rows)
    return np.ldexp(rows, ex * (n - a) + ey * a)


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
    p = validate_margin(p)
    d = validate_dimension(d)
    q = np.zeros(d + 1)
    q[0], q[d] = 1.0 - p, p
    return ExchangeableCountPmf(d, q)


def _extremal_rows(p: float, d: int):
    """(j1, j2, w1, w2) of each extremal count law, in the order of :func:`extremal_count_pmfs`.

    Two-point laws give their unnormalised masses (j2 - pd)/(j2 - j1) and
    (pd - j1)/(j2 - j1); the degenerate law at an integer pd gives
    (pd, pd, 1.0, 0.0).  The arguments are checked at the call and the rows
    are then made one at a time, so a caller that writes them needs O(d)
    memory, not the O(d^3) of all the laws.
    """
    p = validate_margin(p)
    d = validate_dimension(d)
    if d < 2:
        raise InvalidDistributionError("dimension must be >= 2")
    support = _end_support(p, d)
    lo, hi = support[0][0], support[-1][0]
    mean = p * d if lo < hi else float(lo)
    # j1 runs over the counts below the mean, j2 over those above it
    pairs = ((j1, j2) for j1 in range(hi) for j2 in range(lo + 1, d + 1))
    rows = ((j1, j2, (j2 - mean) / (j2 - j1), (mean - j1) / (j2 - j1)) for j1, j2 in pairs)
    return itertools.chain(rows, [(lo, hi, 1.0, 0.0)] if lo == hi else [])


def extremal_count_pmfs(p: float, d: int) -> list[ExchangeableCountPmf]:
    """Extremal points of the exchangeable class with margin p.

    Two-point laws on {j1, j2} with j1 < pd < j2 and masses
    (j2 - pd)/(j2 - j1) and (pd - j1)/(j2 - j1); when pd is an integer the
    degenerate law at pd joins the list.  Every count pmf with mean pd is a
    convex combination of these.
    """
    d = validate_dimension(d)
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
    d = validate_dimension(d)
    q = np.zeros(d + 1)
    for k, w in _end_support(p, d):
        q[k] = w
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
            if not np.all((m >= 0.0) & (m <= 1.0)):  # exact, as the count route's rule; rejects NaN
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
        m[k] = m[k - 1] * (alpha + (k - 1)) / ((alpha + beta) + (k - 1))
    return m


def mixture_count_pmf(spec: MixtureSpec, d: int) -> ExchangeableCountPmf:
    """Count pmf q_k = C(d,k) int lambda^k (1-lambda)^{d-k} dF(lambda), for d <= 1029.

    The moment route expands the (1-lambda) power binomially and judges each
    mass by the rule of :func:`_law_masses`: a negative one raises, one within
    rounding is 0, and masses that then miss a sum of 1 name the cancellation.
    """
    d = validate_dimension(d)
    binom = np.array(_binomials(d), dtype=float)  # also the check d <= COUNT_LAW_MAX_D
    if spec.nodes is not None:
        x, w = spec.nodes, spec.weights
        q = binom * [float(w @ (x**k * (1.0 - x) ** (d - k))) for k in range(d + 1)]
        return ExchangeableCountPmf(d, q)
    mom = [spec.moment(k) for k in range(d + 1)]
    q = binom * _outcome_masses(mom)
    total = float(q.sum())
    if not abs(total - 1.0) <= SUM_SLACK:
        raise InvalidDistributionError(
            f"count masses sum to {total}, not 1: the alternating moment sum cancelled "
            f"at d={d}; a quadrature MixtureSpec (MixtureSpec.from_quadrature) avoids it, "
            "and so does the Beta-binomial route for a Beta mixing law "
            "(spec 'beta:alpha,beta' or beta_mixture_copula)"
        )
    return ExchangeableCountPmf(d, q)


def _outcome_masses(mom: list[float]) -> np.ndarray:
    """q_k / C(d, k) from moments m_0..m_d, each judged by :func:`_law_masses`.

    Each is an fsum of (-1)^r C(d-k, r) m_(k+r), from one exact Pascal row per
    d - k.  Past d - k = 1000 every term is divided by 2^(d-k-1000), so the sum
    of |terms| (at most 2^1000) stays finite, and the sum is multiplied back
    exactly; rows up to 1000 are scaled by nothing.  O(d^2).  A moment below
    2^-1022 is rounded absolutely, not relatively, which the rule's bound does
    not cover: a negative mass then names that, not the absence of a law.
    """
    d = len(mom) - 1
    sums, abs_sums, shifts, row = [], [], [], [1]
    for n in range(d + 1):  # n = d - k
        shifts.append(max(0, n - 1000))
        scale = 1 << shifts[-1]
        terms = [(-1) ** r * (c / scale) * m for r, (c, m) in enumerate(zip(row, mom[d - n :]))]
        sums.append(math.fsum(terms))
        abs_sums.append(math.fsum(map(abs, terms)))
        row = [1, *(a + b for a, b in zip(row, row[1:])), 1]
    noun = "count mass q_{}: no law on [0, 1] has these moments"
    if min(mom) < sys.float_info.min:  # 2^-1022; moments lie in [0, 1]
        noun = "count mass q_{}, from moments below 2^-1022 whose rounding the check cannot bound; "
        noun += "a quadrature MixtureSpec (MixtureSpec.from_quadrature) avoids it"
    return np.ldexp(_law_masses(sums[::-1], abs_sums[::-1], noun), shifts[::-1])


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
    ratios = (d - k) * (alpha + k) / ((k + 1) * (beta + (d - 1 - k)))
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
    return GfgmCopula(_beta_binomial_count_pmf(alpha, beta, validate_dimension(d)))


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
        if d is not None and len(args) - 1 != d:
            raise InvalidDistributionError(f"counts imply d={len(args) - 1}, but d={d} given")
        return ExchangeableCountPmf(len(args) - 1, np.array(args))
    if d is None:
        raise InvalidDistributionError(f"exchangeable spec {kind!r} needs the dimension d")
    if kind == "beta":
        return _beta_binomial_count_pmf(*args, d)
    return {"end": end_count_pmf, "comonotone": comonotone_count_pmf}[kind](*args, d)
