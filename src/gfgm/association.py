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
double expectation, over the law's density-side outcome rows and then
through the law, with the per-margin kernel

    G(i, j) = 1/2 - (i + j)/(2 p) + (j (1-p) + i)/(p (2-p)),

whose four values were re-derived here by integrating the conditional cdf
piece against the conditional density piece (G(0,0) = G(1,1) = 1/2,
G(1,0) = (3-p)/(2(2-p)), G(0,1) = (1-p)/(2(2-p))).

A tensor-product Gauss-Legendre quadrature of the defining integrals is
provided as an independent oracle for d = 2, and lattice grid checks decide
pointwise concordance ordering between two copulas sharing a shape vector.
Both evaluate on tensor grids, where the copula is a rank-n_atoms tensor:
with the per-margin factors of each atom computed on the g * d axis values,
the g^d grid values are one matrix product of (g^(d//2), n_atoms) by
(n_atoms, g^(d - d//2)) factors, n_atoms * g^d multiply-adds
(``copula._grid``).  The concordance check multiplies one block of rows at
a time, so its memory stays bounded and no (g^d, d) point array is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bernoulli import InvalidDistributionError
from .copula import GfgmCopula, _cdf_factors, _grid, _pdf_factors, _survival_factors

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
    if d > 1023:  # 2.0**d overflows a float from d = 1024
        raise InvalidDistributionError("association measures need d <= 1023")
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


def _orthant_rows(c: GfgmCopula) -> np.ndarray:
    """(kernel, side, m) factor rows of rho_cL (kernel 0) and rho_cU (kernel 1)."""
    return np.reshape(_orthant_kernels(c.p), (2, 2, -1)) * np.ones(c.d)


def _rhos(c: GfgmCopula) -> np.ndarray:
    """(rho_cL, rho_cU) from one two-row orthant contraction through the law."""
    pref = _prefactor(c.d)
    orthant = _orthant_rows(c)
    return pref * (c.law.expect_products(orthant[:, 0], orthant[:, 1]) - 1.0)


def _orthant_kernels(p):
    """Per-margin factor pairs (g0, g1) of rho_cL and of rho_cU at margin(s) p."""
    lower = (2.0 * (1.0 - p) / (2.0 - p), (3.0 - 2.0 * p) / (2.0 - p))
    return lower, (2.0 / (2.0 - p), 1.0 / (2.0 - p))


def _tau_kernel(p):
    """Per-margin kernel values (G(0,0), G(0,1), G(1,0), G(1,1)) at margin(s) p."""
    return 0.5, (1.0 - p) / (2.0 * (2.0 - p)), (3.0 - p) / (2.0 * (2.0 - p)), 0.5


def tau(c: GfgmCopula) -> float:
    """Multivariate Kendall's tau, from the one contraction of :func:`measures`."""
    return measures(c).tau


def measures(c: GfgmCopula) -> AssociationReport:
    """All four measures from one contraction through the law.

    Two orthant rows, then one tau row per density-side outcome row r of the
    law (with its mass) holding (1 - r_m) G_m(i, 0) + r_m G_m(i, 1) on side
    i; for a 0/1 row that is exactly G_m(i, r_m).  On atoms this costs
    O(n_atoms^2 d / 4) multiplications, on a count law O(s d^2) for s
    supported counts, on independent margins O(d).
    """
    d = c.d
    pref = _prefactor(d)
    rows, weights = c.law.outcomes
    orthant = _orthant_rows(c)
    g00, g01, g10, g11 = _tau_kernel(c.p)
    f0 = np.vstack([orthant[:, 0], (1.0 - rows) * g00 + rows * g01])
    f1 = np.vstack([orthant[:, 1], (1.0 - rows) * g10 + rows * g11])
    e = c.law.expect_products(f0, f1)
    lo, up = (pref * (e[:2] - 1.0)).tolist()
    t = (2.0**d * float(weights @ e[2:]) - 1.0) / (2.0 ** (d - 1) - 1.0)
    return AssociationReport(lo, up, 0.5 * (lo + up), t, d, "closed_form")


def max_measures_gfgm_p(p: float, d: int) -> AssociationReport:
    """Measures of the most positively dependent equal-margin copula.

    Closed forms in (p, d) only; factored as powers of per-margin ratios so
    that d in the hundreds stays in floating range.  Must agree with the
    generic atom formulas applied to the comonotone pmf.
    """
    p = float(p)
    d = int(d)
    if not 0.0 < p < 1.0:
        raise InvalidDistributionError("p must lie in (0, 1)")
    pref = _prefactor(d)
    r_lo = (1.0 - p) * (2.0 * (1.0 - p) / (2.0 - p)) ** d + p * ((3.0 - 2.0 * p) / (2.0 - p)) ** d
    r_up = (1.0 - p) * (2.0 / (2.0 - p)) ** d + p * (1.0 / (2.0 - p)) ** d
    lo = pref * (r_lo - 1.0)
    up = pref * (r_up - 1.0)
    t = (
        p
        * (1.0 - p)
        / (2.0 ** (d - 1) - 1.0)
        * (((3.0 - p) / (2.0 - p)) ** d - 2.0 + ((1.0 - p) / (2.0 - p)) ** d)
    )
    return AssociationReport(lo, up, 0.5 * (lo + up), t, d, "closed_form")


def min_measures_exchangeable(p: float, d: int) -> tuple[float, float]:
    """Minimal (rho_cL, rho_cU) over exchangeable members with margin p.

    Attained by the extreme negative dependence pmf whose count variable
    sits on floor(pd) and ceil(pd) (or degenerates at pd when integer).
    The prefactor is (d+1)/(2^d-d-1), identical to the generic formulas';
    the cross-check tests pin it against the atom-level computation on the
    expanded pmf.
    """
    p = float(p)
    d = int(d)
    if not 0.0 < p < 1.0:
        raise InvalidDistributionError("p must lie in (0, 1)")
    pref = _prefactor(d)
    pd = p * d
    k = round(pd)
    a_lo = (3.0 - 2.0 * p) / (2.0 - p)
    b_lo = (2.0 - 2.0 * p) / (2.0 - p)
    a_up = 1.0 / (2.0 - p)
    b_up = 2.0 / (2.0 - p)
    if abs(pd - k) <= 1e-9:
        m_lo = a_lo**k * b_lo ** (d - k)
        m_up = a_up**k * b_up ** (d - k)
    else:
        j1 = int(np.floor(pd))
        j2 = j1 + 1
        w1, w2 = j2 - pd, pd - j1
        m_lo = w1 * a_lo**j1 * b_lo ** (d - j1) + w2 * a_lo**j2 * b_lo ** (d - j2)
        m_up = w1 * a_up**j1 * b_up ** (d - j1) + w2 * a_up**j2 * b_up ** (d - j2)
    return pref * (m_lo - 1.0), pref * (m_up - 1.0)


# ---------------------------------------------------------------------------
# Quadrature oracle (d = 2)
# ---------------------------------------------------------------------------

def gauss_legendre_unit(n: int, grading: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on (0, 1), optionally power-graded.

    ``grading=k`` substitutes u = t^k, clustering nodes toward 0.  The
    integrands here contain fractional powers u^alpha with alpha close to 0
    for extreme margins; grading restores fast convergence that plain
    Gauss-Legendre loses on such endpoint behaviour.
    """
    if not grading > 0:  # also rejects NaN
        raise ValueError("grading must be positive")
    from scipy.special import roots_legendre

    x, w = roots_legendre(n)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * w
    if grading == 1:
        return t, wt
    return t**grading, wt * grading * t ** (grading - 1)


def measures_by_quadrature(c: GfgmCopula, nodes: int = 96, grading: int = 3) -> AssociationReport:
    """Direct numeric evaluation of the defining integrals (d = 2 only).

    Tensor-product Gauss-Legendre with at least 64 nodes per axis; serves as
    the independent oracle for the closed forms.  The cdf and the density
    on the nodes^2 grid are each one rank-n_atoms matrix product
    (``copula._grid``), with the factor pairs computed on the 2 * nodes axis
    values only.
    """
    if c.d != 2:
        raise InvalidDistributionError("quadrature oracle is bivariate only")
    if nodes < 64:
        raise ValueError("use at least 64 nodes per axis")
    x, w = gauss_legendre_unit(nodes, grading)
    weights = np.outer(w, w).ravel()
    cvals = np.dot(*_grid(c, x, _cdf_factors)).ravel()
    dens = np.dot(*_grid(c, x, _pdf_factors)).ravel()
    int_c_dperp = float(weights @ cvals)
    int_perp_dc = float(weights @ (np.outer(x, x).ravel() * dens))
    int_c_dc = float(weights @ (cvals * dens))
    pref = _prefactor(2)
    lo = pref * (4.0 * int_c_dperp - 1.0)
    up = pref * (4.0 * int_perp_dc - 1.0)
    t = 4.0 * int_c_dc - 1.0
    return AssociationReport(lo, up, 0.5 * (lo + up), t, 2, "quadrature")


# ---------------------------------------------------------------------------
# Concordance-order grid checks
# ---------------------------------------------------------------------------

CONCORDANCE_SLACK = 1e-10
_GRID_DEFAULT = {2: 21, 3: 21, 4: 21, 5: 9, 6: 9}
#: grid values compared per block, per copula and side
_GRID_BLOCK = 1 << 16


@dataclass(frozen=True)
class ConcordanceResult:
    """Which pointwise dominances held on the grid.

    ``*_forward`` means the first copula is dominated by the second
    (smaller cdf for cL, smaller survival for cU); ``*_backward`` the
    reverse.  Equality sets both directions.
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
    c1: GfgmCopula, c2: GfgmCopula, grid_points_per_axis: int | None = None
) -> ConcordanceResult:
    """Compare two copulas with a common shape vector on a lattice grid.

    Evaluates both cdfs and both survival functions on the uniform interior
    grid {1, ..., g}^d / (g + 1) and reports the dominances that hold up to
    a -1e-10 slack; g must be a positive integer.  The survival side uses
    the conditional-independence form, like the cdf (property-tested against
    inclusion-exclusion).  Each of the four grids is a rank-n_atoms product
    of the atom form's factors (at most 64 atoms at d <= 6), computed on the
    g * d axis values and multiplied out one block of about 2^16 grid values
    at a time: n_atoms * g^d multiply-adds per grid, and memory that does
    not grow with g^d.  Copulas with different shape vectors are not
    dependence-comparable and are rejected.
    """
    if c1.d != c2.d:
        raise InvalidDistributionError("copulas must share the dimension")
    if np.max(np.abs(c1.p - c2.p)) > 1e-10:
        raise InvalidDistributionError(
            "copulas with different shape vectors are not dependence-comparable"
        )
    d = c1.d
    if d > 6:
        raise InvalidDistributionError("grid concordance checks support d <= 6")
    g = _GRID_DEFAULT[d] if grid_points_per_axis is None else grid_points_per_axis
    if not isinstance(g, (int, np.integer)):
        raise InvalidDistributionError("grid_points_per_axis must be an integer")
    if g < 1:
        raise InvalidDistributionError("grid_points_per_axis must be at least 1")
    axis = np.arange(1, g + 1) / (g + 1.0)
    # (cdf or survival side) x (c1, c2): the rank-n_atoms factors of each grid
    sides = [[_grid(c, axis, f) for c in (c1, c2)] for f in (_cdf_factors, _survival_factors)]
    step = max(1, _GRID_BLOCK // g ** (d - d // 2))
    holds = [True] * 4  # cl_forward, cl_backward, cu_forward, cu_backward
    for s in range(0, g ** (d // 2), step):
        for k, ((left1, right1), (left2, right2)) in enumerate(sides):
            v1 = left1[s : s + step] @ right1
            v2 = left2[s : s + step] @ right2
            holds[2 * k] &= bool(np.all(v1 <= v2 + CONCORDANCE_SLACK))
            holds[2 * k + 1] &= bool(np.all(v2 <= v1 + CONCORDANCE_SLACK))
    return ConcordanceResult(*holds)
