"""Association measures: closed forms, oracles, ordering consequences."""

import numpy as np
import pytest

from gfgm import (
    AssociationReport,
    GfgmCopula,
    InvalidDistributionError,
    check_concordance,
    end_count_pmf,
    end_pmf,
    max_measures_gfgm_p,
    measures,
    measures_by_quadrature,
    measures_exchangeable,
    min_measures_exchangeable,
    rho_c,
    rho_cL,
    rho_cU,
    tau,
    theta_bounds,
)

from conftest import random_copula, random_exchangeable_count
from gfgm.exchangeable import expand


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
