"""Association measures: closed forms, oracles, ordering consequences."""

import tracemalloc

import numpy as np
import pytest

from gfgm import (
    AssociationReport,
    BernoulliPmf,
    ConcordanceResult,
    GfgmCopula,
    InvalidDistributionError,
    cdf,
    check_concordance,
    comonotone_count_pmf,
    end_count_pmf,
    end_pmf,
    max_measures_gfgm_p,
    measures,
    measures_by_quadrature,
    measures_exchangeable,
    min_measures_exchangeable,
    pdf,
    rho_c,
    rho_cL,
    rho_cU,
    survival,
    tau,
    theta_bounds,
)

from conftest import (
    random_copula,
    random_dense_pmf,
    random_exchangeable_count,
    random_sparse_pmf,
)
from gfgm.association import gauss_legendre_unit
from gfgm.copula import _cdf_factors, _grid, _pdf_factors, _survival_factors
from gfgm.exchangeable import expand


def _mesh(axis, d):
    """The points of meshgrid(*[axis] * d, indexing="ij"), one row each."""
    return np.stack([m.ravel() for m in np.meshgrid(*[axis] * d, indexing="ij")], axis=1)


class TestGenericMeasures:
    @pytest.mark.parametrize("d", [2, 3, 5, 8, 10])
    def test_independence_vanishes(self, rng, d):
        p = rng.uniform(0.15, 0.85, size=d)
        c = GfgmCopula.independence(p)
        r = measures(c)
        for value in (r.rho_cL, r.rho_cU, r.rho_c, r.tau):
            assert abs(value) < 1e-12

    def test_rho_c_is_average(self, rng):
        for d in (2, 4, 6):
            c = random_copula(rng, d, sparse=bool(rng.integers(2)))
            assert rho_c(c) == 0.5 * (rho_cL(c) + rho_cU(c))

    def test_bivariate_measures_coincide(self, rng):
        # rho_cL = rho_cU = rho_c when d = 2
        for _ in range(10):
            c = random_copula(rng, 2)
            assert rho_cL(c) == pytest.approx(rho_cU(c), abs=1e-13)

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError):
            AssociationReport(0.1, 0.2, 0.3, 0.0, 2, "closed_form")
        with pytest.raises(ValueError):
            AssociationReport(0.1, 0.2, 0.15, 0.0, 2, "bogus")


class TestMaximalClosedForms:
    # spot anchors from the published 4-decimal grids
    @pytest.mark.parametrize(
        "p,d,attr,expected",
        [
            (0.5, 2, "rho_cL", 0.3333),
            (0.3, 5, "rho_cL", 0.2187),
            (0.9, 10, "rho_cU", 0.4216),
            (0.1, 2, "rho_cU", 0.0748),
            (0.7, 8, "rho_c", 0.2038),
            (0.3, 2, "rho_c", 0.2180),
            (0.5, 2, "tau", 0.2222),
            (0.8, 15, "tau", 0.0867),
            (0.6, 5, "tau", 0.2049),
            (0.5, 3, "rho_cL", 0.3333),
        ],
    )
    def test_grid_anchors(self, p, d, attr, expected):
        assert getattr(max_measures_gfgm_p(p, d), attr) == pytest.approx(
            expected, abs=5e-5
        )

    @pytest.mark.parametrize("p", [k / 10 for k in range(1, 10)])
    @pytest.mark.parametrize("d", list(range(2, 16)))
    def test_matches_generic_on_comonotone(self, p, d):
        c = GfgmCopula.comonotone([p] * d)
        closed = max_measures_gfgm_p(p, d)
        assert rho_cL(c) == pytest.approx(closed.rho_cL, abs=1e-10)
        assert rho_cU(c) == pytest.approx(closed.rho_cU, abs=1e-10)
        assert tau(c) == pytest.approx(closed.tau, abs=1e-10)

    def test_large_d_stays_finite(self):
        r = max_measures_gfgm_p(0.9, 100)
        assert np.isfinite([r.rho_cL, r.rho_cU, r.rho_c, r.tau]).all()
        assert r.tau == pytest.approx(0.0017, abs=5e-5)


class TestMinimalClosedForms:
    @pytest.mark.parametrize(
        "p,d,idx,expected",
        [
            (0.5, 2, 0, -0.3333),
            (0.3, 4, 0, -0.0449),
            (0.4, 3, 1, -0.1211),
            (0.8, 4, 1, -0.0600),
            (0.5, 4, 0, -0.0954),  # integer pd branch
            (0.5, 4, 1, -0.0954),
        ],
    )
    def test_grid_anchors(self, p, d, idx, expected):
        assert min_measures_exchangeable(p, d)[idx] == pytest.approx(expected, abs=5e-5)

    @pytest.mark.parametrize("p", [0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 10, 15])
    def test_matches_generic_on_end_pmf(self, p, d):
        lo, up = min_measures_exchangeable(p, d)
        c = GfgmCopula.from_pmf(end_pmf(p, d))
        assert rho_cL(c) == pytest.approx(lo, abs=1e-10)
        assert rho_cU(c) == pytest.approx(up, abs=1e-10)


class TestQuadratureOracle:
    def test_independence_near_zero(self):
        r = measures_by_quadrature(GfgmCopula.independence([0.4, 0.7]))
        for value in (r.rho_cL, r.rho_cU, r.rho_c, r.tau):
            assert abs(value) < 1e-8

    def test_fgm_tau(self):
        r = measures_by_quadrature(GfgmCopula.comonotone([0.5, 0.5]))
        assert r.tau == pytest.approx(0.2222, abs=1e-4)
        assert r.tau == pytest.approx(2.0 / 9.0, abs=1e-6)

    def test_agrees_with_closed_forms(self, rng):
        for _ in range(30):
            p1, p2 = rng.uniform(0.05, 0.95, 2)
            lo, hi = theta_bounds(p1, p2)
            c = GfgmCopula.bivariate(p1, p2, rng.uniform(lo, hi))
            closed = measures(c)
            quad = measures_by_quadrature(c)
            assert quad.rho_cL == pytest.approx(closed.rho_cL, abs=1e-6)
            assert quad.rho_cU == pytest.approx(closed.rho_cU, abs=1e-6)
            assert quad.tau == pytest.approx(closed.tau, abs=1e-6)

    def test_rejects_higher_dimensions(self):
        with pytest.raises(InvalidDistributionError):
            measures_by_quadrature(GfgmCopula.comonotone([0.5] * 3))

    def test_matches_point_route_integrals(self, rng):
        # the same sums as the grid route, formed from cdf and pdf at the points
        x, w = gauss_legendre_unit(96)
        pts = _mesh(x, 2)
        weights = np.outer(w, w).ravel()
        copulas = [GfgmCopula.independence([0.4, 0.7]), GfgmCopula.comonotone([0.2, 0.9])]
        copulas.append(GfgmCopula(random_exchangeable_count(rng, 2)))
        for _ in range(10):
            p1, p2 = rng.uniform(0.05, 0.95, 2)
            lo, hi = theta_bounds(p1, p2)
            copulas.append(GfgmCopula.bivariate(p1, p2, rng.uniform(lo, hi)))
        for c in copulas:
            cv, dv = cdf(c, pts), pdf(c, pts)
            want = (
                3.0 * (4.0 * float(weights @ cv) - 1.0),
                3.0 * (4.0 * float(weights @ (pts.prod(axis=1) * dv)) - 1.0),
                4.0 * float(weights @ (cv * dv)) - 1.0,
            )
            got = measures_by_quadrature(c)
            assert (got.rho_cL, got.rho_cU, got.tau) == pytest.approx(want, rel=0, abs=1e-13)

    @pytest.mark.parametrize("grading", [0, -1, np.nan])
    def test_rejects_nonpositive_grading(self, grading):
        # grading=0 puts every node at 1 and returned rho_cL = -3, tau = -1
        with pytest.raises(ValueError, match="grading must be positive"):
            gauss_legendre_unit(96, grading)
        with pytest.raises(ValueError, match="grading must be positive"):
            measures_by_quadrature(GfgmCopula.bivariate(0.4, 0.6, 0.5), 96, grading)


def _grid_laws(rng, d):
    """Atom pmfs (random sparse, comonotone, END), a count law and an independence law."""
    p = rng.uniform(0.1, 0.9, size=d)
    q = float(rng.uniform(0.1, 0.9))
    return {
        "sparse": GfgmCopula(random_sparse_pmf(rng, d)),
        "comonotone": GfgmCopula.comonotone(p),
        "end": GfgmCopula(end_pmf(q, d)),
        "count": GfgmCopula(random_exchangeable_count(rng, d)),
        "independence": GfgmCopula.independence(p),
    }


class TestGridEvaluator:
    """``copula._grid``: the rank-n_atoms grid product against the point route."""

    FACTORS = {"cdf": (_cdf_factors, cdf), "survival": (_survival_factors, survival),
               "pdf": (_pdf_factors, pdf)}

    @pytest.mark.parametrize("side", sorted(FACTORS))
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_points_in_meshgrid_order(self, side, d):
        rng = np.random.default_rng(100 + d)
        factors, route = self.FACTORS[side]
        g = {2: 9, 3: 7, 4: 6, 5: 5, 6: 4}[d]
        # unsorted axis with both boundary values: order and edges both count
        axis = np.r_[0.0, rng.uniform(size=g - 2), 1.0][rng.permutation(g)]
        pts = _mesh(axis, d)
        for name, c in _grid_laws(rng, d).items():
            left, right = _grid(c, axis, factors)
            assert left.shape == (g ** (d // 2), c.bernoulli.n_atoms)
            assert right.shape == (c.bernoulli.n_atoms, g ** (d - d // 2))
            np.testing.assert_allclose(
                (left @ right).ravel(), route(c, pts), rtol=1e-12, atol=1e-15, err_msg=name
            )

    def test_row_blocks_are_point_blocks(self, rng):
        c = GfgmCopula(random_sparse_pmf(rng, 5))
        axis = rng.uniform(size=6)
        left, right = _grid(c, axis, _cdf_factors)
        full = (left @ right).ravel()
        block = 6**3
        np.testing.assert_array_equal((left[7:11] @ right).ravel(), full[7 * block : 11 * block])


class TestExchangeableMeasures:
    def test_matches_generic_atom_form(self, rng):
        for _ in range(10):
            d = int(rng.integers(3, 9))
            cp = random_exchangeable_count(rng, d)
            r1 = measures_exchangeable(cp)
            r2 = measures(GfgmCopula.from_pmf(expand(cp)))
            assert r1.rho_cL == pytest.approx(r2.rho_cL, abs=1e-11)
            assert r1.rho_cU == pytest.approx(r2.rho_cU, abs=1e-11)
            assert r1.tau == pytest.approx(r2.tau, abs=1e-11)

    @pytest.mark.parametrize("d", [40, 120, 200])
    def test_tau_overlap_law_matches_scipy_hypergeom(self, rng, d):
        from scipy.stats import hypergeom

        from gfgm import ExchangeableCountPmf, comonotone_count_pmf, end_count_pmf
        from gfgm.association import _tau_kernel

        q = np.zeros(d + 1)
        q[rng.choice(d + 1, size=12, replace=False)] = rng.dirichlet(np.ones(12))
        cps = [end_count_pmf(0.37, d), comonotone_count_pmf(0.6, d), ExchangeableCountPmf(d, q)]
        for cp in cps:
            g00, g01, g10, g11 = _tau_kernel(cp.p)
            total = 0.0
            support = np.flatnonzero(cp.q > 0.0)
            for k in support:
                for length in support:
                    t = np.arange(max(0, k + length - d), min(k, length) + 1)
                    free = d - k - length + t
                    vals = g11**t * g10 ** (k - t) * g01 ** (length - t) * g00**free
                    total += cp.q[k] * cp.q[length] * (hypergeom.pmf(t, d, k, length) @ vals)
            want = (2.0**d * total - 1.0) / (2.0 ** (d - 1) - 1.0)
            assert measures_exchangeable(cp).tau == pytest.approx(want, rel=1e-10, abs=1e-15)

    def test_comonotone_counts_match_maximal_closed_form(self):
        from gfgm import comonotone_count_pmf

        for p, d in ((0.3, 50), (0.7, 100)):
            r = measures_exchangeable(comonotone_count_pmf(p, d))
            m = max_measures_gfgm_p(p, d)
            assert r.tau == pytest.approx(m.tau, rel=1e-10)
            assert r.rho_cL == pytest.approx(m.rho_cL, rel=1e-10)

    def test_large_dimension_is_cheap(self):
        from gfgm import end_count_pmf

        r = measures_exchangeable(end_count_pmf(0.37, 200))
        assert np.isfinite([r.rho_cL, r.rho_cU, r.tau]).all()


class TestThetaMonotonicity:
    def test_all_measures_nondecreasing_in_theta(self, rng):
        for p1, p2 in ((0.5, 0.5), (0.3, 0.7), (0.2, 0.4)):
            lo, hi = theta_bounds(p1, p2)
            grid = np.linspace(lo, hi, 50)
            prev = None
            for theta in grid:
                r = measures(GfgmCopula.bivariate(p1, p2, theta))
                cur = np.array([r.rho_cL, r.rho_cU, r.rho_c, r.tau])
                if prev is not None:
                    assert np.all(cur >= prev - 1e-10)
                prev = cur


class TestSignPatterns:
    @pytest.mark.parametrize("d", list(range(2, 21)))
    def test_orthant_asymmetry_of_comonotone(self, d):
        low = max_measures_gfgm_p(0.3, d)
        mid = max_measures_gfgm_p(0.5, d)
        high = max_measures_gfgm_p(0.7, d)
        if d == 2:
            assert low.rho_cL == pytest.approx(low.rho_cU, abs=1e-12)
        else:
            assert low.rho_cL > low.rho_cU
            assert high.rho_cL < high.rho_cU
        assert mid.rho_cL == pytest.approx(mid.rho_cU, abs=1e-12)


class TestConcordanceChecks:
    def test_independence_below_comonotone(self):
        p = [0.4, 0.6, 0.5]
        res = check_concordance(GfgmCopula.independence(p), GfgmCopula.comonotone(p))
        assert res.verdict == "c_ordered"
        assert res.cl_forward and res.cu_forward
        assert not res.cl_backward and not res.cu_backward

    def test_equal_copulas_ordered_both_ways(self, rng):
        c = random_copula(rng, 3)
        res = check_concordance(c, c)
        assert res.verdict == "c_ordered"
        assert res.cl_forward and res.cl_backward and res.cu_forward and res.cu_backward

    def test_theta_ordering_bivariate(self):
        c1 = GfgmCopula.bivariate(0.4, 0.6, -0.5)
        c2 = GfgmCopula.bivariate(0.4, 0.6, 0.5)
        res = check_concordance(c1, c2)
        assert res.verdict == "c_ordered"
        assert res.cl_forward and not res.cl_backward

    def test_end_below_comonotone_d5(self):
        p = 0.45
        res = check_concordance(
            GfgmCopula.from_pmf(end_pmf(p, 5)), GfgmCopula.comonotone([p] * 5)
        )
        assert res.verdict == "c_ordered"
        assert res.cl_forward and res.cu_forward

    def test_largest_supported_dimension(self):
        p = 0.45
        res = check_concordance(
            GfgmCopula.from_pmf(end_pmf(p, 6)), GfgmCopula.comonotone([p] * 6)
        )
        assert res.verdict == "c_ordered"
        assert res.cl_forward and res.cu_forward and not res.cl_backward

    def test_rejects_mismatched_shape_vectors(self):
        with pytest.raises(InvalidDistributionError, match="shape"):
            check_concordance(
                GfgmCopula.independence([0.4, 0.6]), GfgmCopula.independence([0.5, 0.5])
            )

    def test_rejects_large_dimension(self):
        p = [0.5] * 7
        with pytest.raises(InvalidDistributionError):
            check_concordance(GfgmCopula.independence(p), GfgmCopula.comonotone(p))

    @pytest.mark.parametrize("g", [0, -1])
    def test_rejects_empty_grid(self, g):
        # an empty grid would report dominance both ways, a vacuous c_ordered
        c1 = GfgmCopula.bivariate(0.4, 0.6, 0.6)
        c2 = GfgmCopula.bivariate(0.4, 0.6, -0.9)
        with pytest.raises(InvalidDistributionError, match="at least 1"):
            check_concordance(c1, c2, g)

    def test_one_point_grid(self):
        c1 = GfgmCopula.bivariate(0.4, 0.6, 0.6)
        c2 = GfgmCopula.bivariate(0.4, 0.6, -0.9)
        res = check_concordance(c1, c2, 1)
        assert res.verdict == "c_ordered" and res.cl_backward and not res.cl_forward

    @pytest.mark.parametrize("g", [2.5, 1.5])
    def test_rejects_fractional_grid(self, g):
        # 2.5 used to build arange(1, 3.5) / 3.5, not a uniform interior grid
        c1 = GfgmCopula.bivariate(0.4, 0.6, 0.6)
        c2 = GfgmCopula.bivariate(0.4, 0.6, -0.9)
        with pytest.raises(InvalidDistributionError, match="integer"):
            check_concordance(c1, c2, g)

    def test_accepts_numpy_integer_grid(self):
        c1 = GfgmCopula.bivariate(0.4, 0.6, 0.6)
        c2 = GfgmCopula.bivariate(0.4, 0.6, -0.9)
        assert check_concordance(c1, c2, np.int64(5)) == check_concordance(c1, c2, 5)

    @staticmethod
    def _pointwise(c1, c2, g):
        """The flags from cdf and survival evaluated at every grid point."""
        pts = _mesh(np.arange(1, g + 1) / (g + 1.0), c1.d)
        f1, f2, s1, s2 = cdf(c1, pts), cdf(c2, pts), survival(c1, pts), survival(c2, pts)
        slack = 1e-10
        return ConcordanceResult(
            bool(np.all(f1 <= f2 + slack)), bool(np.all(f2 <= f1 + slack)),
            bool(np.all(s1 <= s2 + slack)), bool(np.all(s2 <= s1 + slack)),
        )

    @staticmethod
    def _same_margin_laws(rng, d):
        """Copulas sharing one shape vector, up to ulps."""
        p = rng.uniform(0.15, 0.85, size=d)
        ind, com = GfgmCopula.independence(p).bernoulli, GfgmCopula.comonotone(p).bernoulli
        lam = float(rng.uniform(0.1, 0.9))
        mix = {**{m: lam * q for m, q in ind.as_dict().items()}}
        for m, q in com.as_dict().items():
            mix[m] = mix.get(m, 0.0) + (1.0 - lam) * q
        mixed = BernoulliPmf.from_dict(d, mix)
        # a margin-preserving move, more concordant on margins (0, 1) and less
        # on (1, 2): mostly incomparable with where it started
        dense = random_dense_pmf(rng, d)
        moved = dense.probs.copy()
        if d > 2:
            x = dense.bits[:, :3]
            lower = dense.masks < 8  # every other component 0
            sign = np.where(x[:, 0] == x[:, 1], 1.0, -1.0) - np.where(x[:, 1] == x[:, 2], 1.0, -1.0)
            moved += np.where(lower, 0.4 * dense.probs.min() * sign, 0.0)
        q = float(rng.uniform(0.15, 0.85))
        cp = random_exchangeable_count(rng, d)
        return [
            [GfgmCopula(ind), GfgmCopula(com), GfgmCopula(mixed),
             GfgmCopula(mixed, np.nextafter(mixed.margins, 1.0))],
            [GfgmCopula(dense), GfgmCopula(BernoulliPmf(d, dense.masks, moved), dense.margins)],
            [GfgmCopula(end_pmf(q, d)), GfgmCopula(comonotone_count_pmf(q, d)),
             GfgmCopula.independence([q] * d)],
            [GfgmCopula(cp), GfgmCopula(end_count_pmf(cp.p, d)),
             GfgmCopula(expand(cp), np.nextafter(np.full(d, cp.p), 0.0))],
        ]

    def test_flags_match_pointwise_reference(self):
        rng = np.random.default_rng(4040)
        verdicts, checked = set(), 0
        for d in (2, 3, 4, 5, 6, 3, 4):
            for group in self._same_margin_laws(rng, d):
                for c1 in group:
                    for c2 in group:
                        g = int(rng.integers(1, 9 if d < 5 else 5))
                        if c1 is group[0] and c2 is group[0]:
                            g = 1
                        res = check_concordance(c1, c2, g)
                        assert res == self._pointwise(c1, c2, g), (d, g)
                        verdicts.add(res.verdict)
                        checked += 1
        assert checked >= 40
        assert {"c_ordered", "incomparable"} <= verdicts

    @pytest.mark.parametrize("d,g", [(6, None), (3, 101)])
    def test_memory_is_bounded(self, d, g):
        # the point route held the (g^d, d) points and four g^d-value grids
        p = 0.45
        c1, c2 = GfgmCopula(end_pmf(p, d)), GfgmCopula.comonotone([p] * d)
        tracemalloc.start()
        try:
            res = check_concordance(c1, c2, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.verdict == "c_ordered"
        assert peak <= 8_000_000


class TestDimensionLimit:
    """2^d overflows a float from d = 1024; every closed form stops before it."""

    ROUTES = {
        "exchangeable": lambda d: measures_exchangeable(end_count_pmf(0.4, d)),
        "max": lambda d: max_measures_gfgm_p(0.4, d),
        "min": lambda d: min_measures_exchangeable(0.4, d),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_rejects_d_1024(self, route):
        with pytest.raises(InvalidDistributionError, match="d <= 1023"):
            self.ROUTES[route](1024)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_finite_at_d_1023(self, route):
        r = self.ROUTES[route](1023)
        values = r[:2] if isinstance(r, tuple) else (r.rho_cL, r.rho_cU, r.rho_c, r.tau)
        assert np.isfinite(values).all()
