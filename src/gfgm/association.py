"""Multivariate association measures and concordance-order checks.

Four measures are computed in closed form for any copula of the family:

* rho_cL - Spearman's rho from average lower orthant dependence,
  (d+1)/(2^d-d-1) * (2^d int C dC_indep - 1);
* rho_cU - the upper orthant counterpart with the roles of C and the
  independence copula exchanged;
* rho_c  - their average;
* tau    - multivariate Kendall's tau, (2^d int C dC - 1)/(2^{d-1}-1).

Because the copula is an expectation, under the law of the Bernoulli vector
I, of products of per-margin pieces, each defining integral factorizes: the
orthant integrals reduce to one contraction through the law and tau to a
double expectation over two independent copies I, I' of the Bernoulli
vector (the law's ``pair_sum``), with the per-margin kernel

    G(i, j) = 1/2 - (i + j)/(2 p) + (j (1-p) + i)/(p (2-p)),

whose four values were re-derived here by integrating the conditional cdf
piece against the conditional density piece (G(0,0) = G(1,1) = 1/2,
G(1,0) = (3-p)/(2(2-p)), G(0,1) = (1-p)/(2(2-p))).

A tensor-product Gauss-Legendre quadrature of the defining integrals is
provided as an independent oracle for d = 2; it reads the law's 2x2 table
T = Pr(I_1 = i, I_2 = j) from one contraction and evaluates the cdf and the
density on its tensor grid as F_1 @ T @ F_2^T.  Its rule needs numpy only:
Newton's iteration on the three-term Legendre recurrence (O(n^2) time, O(n)
memory), cached per (nodes, grading), with at most ``_MAX_NODES`` = 2048
nodes per axis (see :func:`gauss_legendre_unit`).  Concordance ordering
between two copulas sharing a shape vector is decided exactly, on all of
[0, 1]^d, by comparing the moments mu_S = E[prod_{j in S} I_j] and
lambda_S = E[prod_{j in S} (1 - I_j)] of their Bernoulli laws (see
:func:`check_concordance`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bernoulli import (
    BernoulliPmf,
    IndependenceLaw,
    InvalidDistributionError,
    _end_support,
    validate_dimension,
    validate_margin,
)
from .copula import SHAPE_ATOL, GfgmCopula, _cdf_factors, _pdf_factors

#: Largest d of the association measures: 2.0**d overflows a float from d = 1024.
MEASURES_MAX_D = 1023

__all__ = [
    "AssociationReport",
    "rho_cL",
    "rho_cU",
    "rho_c",
    "tau",
    "measures",
    "max_measures_gfgm_p",
    "min_measures_exchangeable",
    "gauss_legendre_unit",
    "measures_by_quadrature",
    "ConcordanceResult",
    "check_concordance",
]


def _prefactor(d: int) -> float:
    """(d+1)/(2^d-d-1); each closed form calls it before any other 2^d."""
    if d < 2:
        raise InvalidDistributionError("association measures need d >= 2")
    if d > MEASURES_MAX_D:
        raise InvalidDistributionError(f"association measures need d <= {MEASURES_MAX_D}")
    return (d + 1) / (2.0**d - d - 1.0)


@dataclass(frozen=True)
class AssociationReport:
    """The four association measures of one copula, plus provenance."""

    rho_cL: float
    rho_cU: float
    rho_c: float
    tau: float
    d: int
    method: str  # closed_form | quadrature | monte_carlo
    stderr: dict | None = None

    def __post_init__(self):
        if abs(self.rho_c - 0.5 * (self.rho_cL + self.rho_cU)) > 1e-12:
            raise ValueError("rho_c must average rho_cL and rho_cU")
        if self.method not in ("closed_form", "quadrature", "monte_carlo"):
            raise ValueError(f"unknown method {self.method!r}")


def rho_cL(c: GfgmCopula) -> float:
    """Lower-orthant Spearman's rho."""
    return float(_rhos(c)[0])


def rho_cU(c: GfgmCopula) -> float:
    """Upper-orthant Spearman's rho."""
    return float(_rhos(c)[1])


def rho_c(c: GfgmCopula) -> float:
    lo, up = _rhos(c).tolist()
    return 0.5 * (lo + up)


def _rhos(c: GfgmCopula) -> np.ndarray:
    """(rho_cL, rho_cU) from one two-row orthant contraction through the law."""
    pref = _prefactor(c.d)
    orthant = np.reshape(_orthant_kernels(c.p), (2, 2, -1)) * np.ones(c.d)  # (kernel, side, m)
    return pref * (c.law.expect_products(orthant[:, 0], orthant[:, 1]) - 1.0)


def _orthant_kernels(p):
    """Per-margin factor pairs (g0, g1) of rho_cL and of rho_cU at margin(s) p."""
    q = 2.0 - p
    return (2.0 * (1.0 - p) / q, (3.0 - 2.0 * p) / q), (2.0 / q, 1.0 / q)


def _tau_kernel(p):
    """Per-margin kernel values (G(0,0), G(0,1), G(1,0), G(1,1)) at margin(s) p."""
    q = 2.0 * (2.0 - p)
    return 0.5, (1.0 - p) / q, (3.0 - p) / q, 0.5


def tau(c: GfgmCopula) -> float:
    """Multivariate Kendall's tau, from the pair sum of :func:`measures`."""
    return measures(c).tau


def measures(c: GfgmCopula) -> AssociationReport:
    """All four measures from two primitives of the law.

    The orthant rhos are one two-row contraction (:func:`_rhos`); tau is the
    law's ``pair_sum`` of the kernel G, E[prod_m G_m(I_m, I'_m)] over two
    independent copies of I.  Cost per law:

    * atoms: the rhos O(n_atoms d / 4); tau O(d 2^d) on the dense table when
      2^d < n_atoms^2 / 4 and d <= 20, else O(n_atoms^2 d / 4) over the
      outcome rows;
    * count law with s supported counts: the rhos O(d + s), as power sums
      over the support; tau O(s d^2) flops in one bilinear form, with no
      loop over the margins (O(s d^2) in a loop over them when a given
      shape vector is not constant);
    * independent margins: O(d) each.
    """
    d = c.d
    lo, up = _rhos(c).tolist()
    pair = c.law.pair_sum(_tau_kernel(c.p))
    t = (2.0**d * pair - 1.0) / (2.0 ** (d - 1) - 1.0)
    return AssociationReport(lo, up, 0.5 * (lo + up), t, d, "closed_form")


def _orthant_rhos(p: float, d: int, support) -> tuple[float, float]:
    """(rho_cL, rho_cU) of a count law with margin p on ``support``, (count, mass) pairs.

    Every margin carries the pair (g0, g1) of :func:`_orthant_kernels`, so
    k ones add w g1^k g0^(d-k), in count order, in Python floats (each power
    is libm's ``pow``).  ``p`` is a checked margin; ``_prefactor`` checks d
    before any 2^d.  The kernel of both extreme closed forms and of
    ``gfgm tables``.
    """
    pref = _prefactor(d)
    (l0, l1), (u0, u1) = _orthant_kernels(p)
    lo = up = 0.0
    for k, w in support:
        m = d - k
        lo += w * l1**k * l0**m
        up += w * u1**k * u0**m
    return pref * (lo - 1.0), pref * (up - 1.0)


def _comonotone_rhos(p: float, d: int) -> tuple[float, float]:
    """(rho_cL, rho_cU) of the comonotone count law on {0, d}, the maximal ones."""
    return _orthant_rhos(p, d, ((0, 1.0 - p), (d, p)))


def _end_rhos(p: float, d: int) -> tuple[float, float]:
    """(rho_cL, rho_cU) of the END count law, the minimal exchangeable ones."""
    return _orthant_rhos(p, d, _end_support(p, d))


def _comonotone_tau(p: float, d: int) -> float:
    """Kendall's tau of the comonotone count law, the maximal one, at a checked p and d.

    p (1-p) ((2 G(1,0))^d - 2 + (2 G(0,1))^d) / (2^(d-1) - 1), in Python floats.
    """
    _, g01, g10, _ = _tau_kernel(p)
    return p * (1.0 - p) / (2.0 ** (d - 1) - 1.0) * ((2.0 * g10) ** d - 2.0 + (2.0 * g01) ** d)


def max_measures_gfgm_p(p: float, d: int) -> AssociationReport:
    """Measures of the most positively dependent equal-margin copula.

    The comonotone count law on {0, d}, through the per-margin kernels as
    powers, so that d in the hundreds stays in floating range
    (:func:`_comonotone_rhos`, :func:`_comonotone_tau`).  Must agree with the
    generic formulas applied to the comonotone law.
    """
    p = validate_margin(p)
    d = validate_dimension(d)
    lo, up = _comonotone_rhos(p, d)
    return AssociationReport(lo, up, 0.5 * (lo + up), _comonotone_tau(p, d), d, "closed_form")


def min_measures_exchangeable(p: float, d: int) -> tuple[float, float]:
    """Minimal (rho_cL, rho_cU) over exchangeable members with margin p.

    Attained by the extreme negative dependence law, whose count sits on
    floor(pd) and ceil(pd) (or at pd when integer, see ``_end_support``).
    The prefactor is (d+1)/(2^d-d-1), identical to the generic formulas';
    the cross-check tests pin it against the count-law contraction and the
    atom-level computation on the expanded pmf.
    """
    p = validate_margin(p)
    d = validate_dimension(d)
    return _end_rhos(p, d)


# ---------------------------------------------------------------------------
# Quadrature oracle (d = 2)
# ---------------------------------------------------------------------------

#: Most quadrature nodes per axis.  The oracle holds three nodes^2 float64
#: grids, 101 MB at the cap; the check comes before anything is allocated.
_MAX_NODES = 2048

#: A graded rule must integrate the constant 1 this closely, two orders
#: below the oracle's 1e-6 agreement with the closed forms.
_WEIGHT_SUM_TOL = 1e-8


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, O(n) per point."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))


@functools.lru_cache(maxsize=16)
def _graded_rule(n: int, grading: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only graded nodes and weights on (0, 1); see :func:`gauss_legendre_unit`."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))  # ascending guesses
    for _ in range(8):  # quadratic from these guesses: at most 5 steps up to the cap
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:  # the next step is below an ulp, so the
            break  # weights from this dp are as accurate as from the final x
    t, wt = 0.5 * (x + 1.0), 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    t, wt = t**grading, wt * grading * t ** (grading - 1)
    total = float(wt.sum())
    if not abs(total - 1.0) <= _WEIGHT_SUM_TOL:
        raise ValueError(
            f"grading must be positive and small enough for {n} nodes per axis: "
            f"the graded weights sum to {total!r}, not 1"
        )
    t.setflags(write=False)
    wt.setflags(write=False)
    return t, wt


def gauss_legendre_unit(n: int, grading: float = 3) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on (0, 1), optionally power-graded.

    ``grading=k`` substitutes u = t^k, clustering nodes toward 0.  The
    integrands here contain fractional powers u^alpha with alpha close to 0
    for extreme margins; grading restores fast convergence that plain
    Gauss-Legendre loses on such endpoint behaviour.

    The nodes are the roots of P_n, found by Newton's iteration on the
    three-term recurrence from x_k = cos(pi (k - 1/4) / (n + 1/2)); the
    weights are 2 / ((1 - x^2) P_n'(x)^2), halved for the unit interval.
    O(n^2) time and O(n) memory.  The graded rule is cached per
    (n, grading) as read-only arrays.  ``n`` is an integer in
    [1, ``_MAX_NODES``] = [1, 2048]; a grading that is not positive and
    finite, or whose graded weights miss 1 by more than
    ``_WEIGHT_SUM_TOL``, raises ValueError.
    """
    if not 1 <= n <= _MAX_NODES or n != int(n):
        raise ValueError(f"quadrature nodes per axis must be an integer from 1 to {_MAX_NODES}")
    if not 0 < grading < np.inf:  # also rejects NaN
        raise ValueError("grading must be positive and finite")
    return _graded_rule(int(n), float(grading))


def measures_by_quadrature(c: GfgmCopula, nodes: int = 96, grading: float = 3) -> AssociationReport:
    """Direct numeric evaluation of the defining integrals (d = 2 only).

    Tensor-product Gauss-Legendre with 64 to 2048 nodes per axis; serves as
    the independent oracle for the closed forms.  One contraction through
    the law gives its 2x2 table T[i, j] = Pr(I_1 = i, I_2 = j); the cdf C
    and the density D on the nodes^2 grid are then each F_1 @ T @ F_2^T,
    with F_m the (nodes, 2) factor pairs of margin m on the axis values,
    and each integral is a bilinear form w @ G @ w in the axis weights.
    """
    if c.d != 2:
        raise InvalidDistributionError("quadrature oracle is bivariate only")
    if nodes < 64:
        raise ValueError("use at least 64 nodes per axis")
    x, w = gauss_legendre_unit(nodes, grading)
    # factor rows of the indicators of (i_1, i_2) = 00, 01, 10, 11
    cells = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    table = c.law.expect_products(cells, 1.0 - cells).reshape(2, 2)

    def grid(factors):  # F_1 @ T @ F_2^T, first margin along rows
        f = np.stack(factors(c, np.repeat(x[:, None], 2, axis=1)), axis=2)  # (node, margin, side)
        return f[:, 0] @ table @ f[:, 1].T

    cvals, dens = grid(_cdf_factors), grid(_pdf_factors)
    xw = x * w
    int_c_dperp = float(w @ cvals @ w)
    int_perp_dc = float(xw @ dens @ xw)
    int_c_dc = float(w @ (cvals * dens) @ w)
    pref = _prefactor(2)
    lo = pref * (4.0 * int_c_dperp - 1.0)
    up = pref * (4.0 * int_perp_dc - 1.0)
    t = 4.0 * int_c_dc - 1.0
    return AssociationReport(lo, up, 0.5 * (lo + up), t, 2, "quadrature")


# ---------------------------------------------------------------------------
# Concordance order from the moments of the Bernoulli law
# ---------------------------------------------------------------------------

#: Moments are probabilities in [0, 1] with round-off near 1e-15; a slack eps
#: on every moment bounds any cdf or survival excess by eps.
_MOMENT_SLACK = 1e-12


@dataclass(frozen=True)
class ConcordanceResult:
    """Which pointwise dominances hold on all of [0, 1]^d.

    ``*_forward`` means the first copula is dominated by the second
    (smaller cdf for cL, smaller survival for cU); ``*_backward`` the
    reverse.  Equality sets both directions.  :func:`check_concordance`
    decides each flag exactly from the moments of the two Bernoulli laws.
    """

    cl_forward: bool
    cl_backward: bool
    cu_forward: bool
    cu_backward: bool

    @property
    def verdict(self) -> str:
        if (self.cl_forward and self.cu_forward) or (self.cl_backward and self.cu_backward):
            return "c_ordered"
        if self.cl_forward or self.cl_backward:
            return "cL_ordered"
        if self.cu_forward or self.cu_backward:
            return "cU_ordered"
        return "incomparable"


def check_concordance(
    c1: GfgmCopula, c2: GfgmCopula, grid_points_per_axis=None
) -> ConcordanceResult:
    """Decide the concordance order of two copulas with a common shape vector, exactly.

    Write mu_S = E[prod_{j in S} I_j] and lambda_S = E[prod_{j in S} (1 - I_j)]
    for the law of I.  Then C1 <= C2 on [0, 1]^d if and only if
    mu1_S <= mu2_S for every subset S, and the survival functions are
    ordered the same way if and only if lambda1_S <= lambda2_S for every S
    (the upper and lower orthant orders of Mueller & Stoyan, 2002, carried
    to the copulas as for FGM copulas by Blier-Wong, Cossette & Marceau,
    2022).

    Proof.  The cdf factor pair of margin j is (a0, a0 + delta), with
    a0 = u^{1/(1-p)} and delta = (u - a0)/p >= 0, so

        C(u) = sum_S mu_S prod_{j in S} delta_j prod_{j not in S} a0_j,

    and every coefficient is nonnegative: ordered moments order the cdfs
    (sufficiency).  Set u_j = 1 off S (a0 = 1, delta = 0) and u_j = t on S.
    As t -> 0, a0 = o(delta), so C1(u) - C2(u) is (mu1_S - mu2_S) (t/p)^|S|
    plus terms of higher order: a violated moment gives a violated cdf
    (necessity).  The survival factor pair is (1 - a1 + delta, 1 - a1),
    with a1 = a0 + delta <= 1, so the survival function is the same sum
    over lambda_S with factors (delta, 1 - a1); the probe is u_j = 0 off S
    and u_j -> 1 on S, where 1 - a1 = o(delta).  A slack eps on every
    moment bounds the excess of C1 over C2 by eps * prod_j a1_j <= eps, and
    likewise on the survival side; the slack is ``_MOMENT_SLACK``.

    Two product laws (``IndependenceLaw``) are ordered exactly when their
    margins are: mu_S = prod_{j in S} p_j, singletons make the condition
    necessary, and products of ordered nonnegative factors make it
    sufficient; lambda_S works the same way with 1 - p.  Such a pair
    compares the rows (p, 1 - p), O(d) at any d.  A pair of laws without
    atoms, at least one of them a count law, compares per subset size,
    O(d^2) at any d: a count law's mu_S depends on |S| only, and over
    |S| = k a product law's largest and smallest mu_S are the products of
    its k largest and k smallest margins (lambda_S likewise with 1 - p), so
    mu1_S <= mu2_S for every S exactly when the largest mu1 of each size is
    at most the smallest mu2 of that size.  A pair with atoms compares
    dense moments over the 2^d subsets, which needs d <= 20.
    ``grid_points_per_axis`` is accepted and ignored: no grid is built, but
    perfbench still passes the argument (and its counters read it), so it
    goes with the next change to perfbench.  Copulas with different shape
    vectors are not dependence-comparable and are rejected.
    """
    if c1.d != c2.d:
        raise InvalidDistributionError("copulas must share the dimension")
    if np.max(np.abs(c1.p - c2.p)) > SHAPE_ATOL:
        raise InvalidDistributionError(
            "copulas with different shape vectors are not dependence-comparable"
        )
    # per law, the largest and the smallest rows (mu, lambda) it can compare
    laws = (c1.law, c2.law)
    if all(isinstance(law, IndependenceLaw) for law in laws):
        bounds = [2 * (np.stack([law.p, 1.0 - law.p]),) for law in laws]
    elif any(isinstance(law, BernoulliPmf) for law in laws):
        bounds = [2 * (np.stack([law.moments(), law.moments(flipped=True)]),) for law in laws]
    else:
        bounds = [law.size_moments for law in laws]
    (hi1, lo1), (hi2, lo2) = bounds
    forward, backward = (np.all(a <= b + _MOMENT_SLACK, axis=1) for a, b in ((hi1, lo2), (hi2, lo1)))
    return ConcordanceResult(*map(bool, (forward[0], backward[0], forward[1], backward[1])))
