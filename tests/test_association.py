"""Association measures: closed forms, oracles, ordering consequences."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from gfgm import (
    AssociationReport,
    BernoulliPmf,
    ConcordanceResult,
    ExchangeableCountPmf,
    GfgmCopula,
    InvalidDistributionError,
    MixtureSpec,
    beta_mixture_copula,
    cdf,
    check_concordance,
    comonotone_count_pmf,
    comonotonic,
    complemented,
    end_count_pmf,
    end_pmf,
    independent,
    max_measures_gfgm_p,
    measures,
    measures_by_quadrature,
    measures_exchangeable,
    min_measures_exchangeable,
    mixture_count_pmf,
    moments_to_pmf,
    pdf,
    pmf_to_moments,
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
)
from gfgm import cli
from gfgm.association import _MAX_NODES, gauss_legendre_unit
from gfgm.bernoulli import IndependenceLaw, _popcount
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

    def test_small_margin_evaluates_the_two_point_law(self):
        # pd = 1e-10: the law on counts 0 and 1 has rhos near -1.2e-23, while
        # the point mass at 0 would give -5.4e-13 and +5.4e-13
        lo, up = min_measures_exchangeable(1e-11, 10)
        assert abs(lo) < 1e-15 and abs(up) < 1e-15
        end = measures_exchangeable(end_count_pmf(1e-11, 10))
        assert (lo, up) == pytest.approx((end.rho_cL, end.rho_cU), abs=1e-15)


#: Dimensions of the extreme closed-form digest and of the count-law checks.
_EXTREME_DS = (2, 3, 7, 10, 50, 100, 333, 1000, 1023)


class TestExtremeClosedForms:
    def test_digest(self):
        # SHA-256 of the float64 bytes of both extreme closed forms over
        # p = k/1000, recorded before they were rewritten as power sums over
        # a count support; any change in their order of operations shows.
        # Layer: libm through Python floats (each power is libm's pow).
        values = []
        for d in _EXTREME_DS:
            for k in range(1, 1000):
                m = max_measures_gfgm_p(k / 1000, d)
                values += [m.rho_cL, m.rho_cU, m.rho_c, m.tau, *min_measures_exchangeable(k / 1000, d)]
        assert hashlib.sha256(np.array(values).tobytes()).hexdigest() == (
            "4a5c0bfdd2dc6fc59c541ba121f09a988528d57f38b04b5e1d5c3f80ee1545d6"
        )

    def test_tables_cells_equal_the_closed_forms(self):
        # ``gfgm tables`` calls the kernels of the closed forms, not the forms
        public = {
            "rhoL-max": lambda p, d: max_measures_gfgm_p(p, d).rho_cL,
            "rhoU-max": lambda p, d: max_measures_gfgm_p(p, d).rho_cU,
            "rhoC-max": lambda p, d: max_measures_gfgm_p(p, d).rho_c,
            "tau-max": lambda p, d: max_measures_gfgm_p(p, d).tau,
            "rhoL-min": lambda p, d: min_measures_exchangeable(p, d)[0],
            "rhoU-min": lambda p, d: min_measures_exchangeable(p, d)[1],
        }
        assert list(cli._TABLES) == list(public)
        grid = [(k / 1000, d) for d in _EXTREME_DS for k in range(1, 1000)]
        for which, (ds, cell) in cli._TABLES.items():
            cells = [(p, d) for p in cli.TABLE_PS for d in ds] + grid
            assert [cell(p, d) for p, d in cells] == [public[which](p, d) for p, d in cells]

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.37, 0.5, 0.8, 0.95])
    @pytest.mark.parametrize("d", [50, 200, 1000, 1023])
    def test_match_count_law_contraction(self, p, d):
        lo, up = min_measures_exchangeable(p, d)
        end = measures_exchangeable(end_count_pmf(p, d))
        assert (lo, up) == pytest.approx((end.rho_cL, end.rho_cU), rel=1e-12, abs=0.0)
        m = max_measures_gfgm_p(p, d)
        co = measures_exchangeable(comonotone_count_pmf(p, d))
        assert (m.rho_cL, m.rho_cU, m.rho_c, m.tau) == pytest.approx(
            (co.rho_cL, co.rho_cU, co.rho_c, co.tau), rel=1e-12, abs=0.0
        )


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

    @pytest.mark.parametrize("grading", [0, -1, np.nan, np.inf, 1e6])
    def test_rejects_nonpositive_grading(self, grading):
        # grading=0 puts every node at 1 and returned rho_cL = -3, tau = -1;
        # inf gave NaN measures, and 1e6 the same garbage as 0
        with pytest.raises(ValueError, match="grading must be positive"):
            gauss_legendre_unit(96, grading)
        with pytest.raises(ValueError, match="grading must be positive"):
            measures_by_quadrature(GfgmCopula.bivariate(0.4, 0.6, 0.5), 96, grading)

    def test_rejects_grading_too_strong_for_the_nodes(self):
        # one node at grading 3 integrates the constant 1 to 0.75
        with pytest.raises(ValueError, match=r"graded weights sum to 0\.7(5|49)"):
            gauss_legendre_unit(1, 3)

    @pytest.mark.parametrize("nodes", [0, -1, 2.5, 96.5, np.nan, np.inf, _MAX_NODES + 1, 10**5, 10**12])
    def test_rejects_bad_node_counts_before_allocating(self, nodes):
        c = GfgmCopula.bivariate(0.4, 0.6, 0.5)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="nodes per axis must be an integer from 1 to 2048"):
                gauss_legendre_unit(nodes)
            if nodes >= 64:
                with pytest.raises(ValueError, match="nodes per axis must be an integer from 1 to 2048"):
                    measures_by_quadrature(c, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_largest_node_count(self):
        c = GfgmCopula.bivariate(0.4, 0.6, 0.5)
        got, want = measures_by_quadrature(c, _MAX_NODES), measures(c)
        assert (got.rho_cL, got.rho_cU, got.tau) == pytest.approx(
            (want.rho_cL, want.rho_cU, want.tau), rel=0, abs=1e-12
        )


class TestGaussLegendreRule:
    """The Newton rule behind the quadrature oracle, against scipy and exact moments."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 96, 128, 400, _MAX_NODES])
    def test_matches_scipy(self, n):
        from scipy.special import roots_legendre

        x, w = roots_legendre(n)
        t, wt = gauss_legendre_unit(n, 1)
        assert np.max(np.abs(t - 0.5 * (x + 1.0))) <= 1e-15
        # scipy's endpoint weights are the less accurate ones at large n
        np.testing.assert_allclose(wt, 0.5 * w, rtol=1e-6, atol=0)

    @pytest.mark.parametrize(
        "n, grading",
        # a 1-node rule at grading 3 is rejected (test_rejects_grading_too_strong_for_the_nodes)
        [(n, g) for n in (1, 2, 64, 96, 128, 400, _MAX_NODES) for g in (1, 3) if (n, g) != (1, 3)],
    )
    def test_integrates_monomials_exactly(self, n, grading):
        # the graded rule integrates u^k as g t^(g (k + 1) - 1) over t, a
        # polynomial of degree < 2n exactly when g (k + 1) <= 2n
        u, w = gauss_legendre_unit(n, grading)
        k = np.arange(min(2 * n // grading, 60))
        got = np.power.outer(u, k).T @ w
        np.testing.assert_allclose(got, 1.0 / (k + 1), rtol=0, atol=1e-13)

    def test_cached_read_only(self):
        x, w = gauss_legendre_unit(96)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0.5
        again = gauss_legendre_unit(96.0, 3.0)
        assert again[0] is x and again[1] is w
        plain = gauss_legendre_unit(96, 1)
        assert not np.array_equal(plain[0], x)


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

    @pytest.mark.parametrize("d", [40, 120, 200, 1000])
    def test_tau_overlap_law_matches_scipy_hypergeom(self, rng, d):
        from scipy.stats import hypergeom

        from gfgm import ExchangeableCountPmf, comonotone_count_pmf, end_count_pmf
        from gfgm.association import _tau_kernel

        q = np.zeros(d + 1)
        q[rng.choice(d + 1, size=12, replace=False)] = rng.dirichlet(np.ones(12))
        cps = [end_count_pmf(0.37, d), comonotone_count_pmf(0.6, d), ExchangeableCountPmf(d, q)]
        cps += [law(p, d) for p in (0.02, 0.98) for law in (end_count_pmf, comonotone_count_pmf)]
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
            assert r.tau == pytest.approx(m.tau, rel=1e-10, abs=0)
            assert r.rho_cL == pytest.approx(m.rho_cL, rel=1e-10, abs=0)

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

    def test_atom_pair_dense_limit(self):
        # a pair with atoms compares dense moments over 2^d subsets: d <= 20
        p = 0.45
        res = check_concordance(
            GfgmCopula.from_pmf(end_pmf(p, 20)), GfgmCopula.comonotone([p] * 20)
        )
        assert res.verdict == "c_ordered"
        assert res.cl_forward and res.cu_forward and not res.cl_backward
        with pytest.raises(InvalidDistributionError, match="d <= 20"):
            check_concordance(GfgmCopula.comonotone([p] * 21), GfgmCopula.comonotone([p] * 21))

    @pytest.mark.parametrize("d", [21, 200])
    def test_independence_against_count_law_ulp_apart(self, d):
        # unequal product margins against a count law compare per size, at any d
        cp = end_count_pmf(0.4, d)
        p = cp.margins.copy()
        want = check_concordance(GfgmCopula.independence(p), GfgmCopula(cp))
        p[d // 2] = np.nextafter(p[d // 2], 1.0)
        assert check_concordance(GfgmCopula.independence(p), GfgmCopula(cp)) == want
        assert check_concordance(GfgmCopula(cp), GfgmCopula.independence(p)) == ConcordanceResult(
            want.cl_backward, want.cl_forward, want.cu_backward, want.cu_forward
        )
        assert want.verdict == "c_ordered" and want.cl_backward and not want.cl_forward

    def test_independence_against_count_law_matches_dense(self):
        # per size against the dense moments of the count law's atoms, with
        # some product margins moved off the count law's by up to 1e-11
        rng = np.random.default_rng(2121)
        verdicts = set()
        for d in (2, 3, 4, 5, 6, 7, 8):
            for _ in range(6):
                cp = random_exchangeable_count(rng, d)
                moved = rng.uniform(-1e-11, 1e-11, size=d) * rng.integers(0, 2, size=d)
                ind = GfgmCopula.independence(cp.margins + moved)
                for law in (cp, end_count_pmf(cp.p, d), comonotone_count_pmf(cp.p, d)):
                    count, atoms = GfgmCopula(law), GfgmCopula(expand(law))
                    res = check_concordance(ind, count)
                    assert res == check_concordance(ind, atoms), d
                    assert check_concordance(count, ind) == check_concordance(atoms, ind), d
                    verdicts.add(res.verdict)
        assert {"c_ordered", "incomparable"} <= verdicts

    def test_rejects_mismatched_shape_vectors(self):
        with pytest.raises(InvalidDistributionError, match="shape"):
            check_concordance(
                GfgmCopula.independence([0.4, 0.6]), GfgmCopula.independence([0.5, 0.5])
            )

    def test_rejects_large_dimension(self):
        # d = 7 was over the grid's cap; atoms now compare dense moments, d <= 20
        p = [0.5] * 7
        res = check_concordance(GfgmCopula.independence(p), GfgmCopula.comonotone(p))
        assert res.verdict == "c_ordered" and res.cl_forward and not res.cl_backward
        p = [0.5] * 21
        with pytest.raises(InvalidDistributionError, match="d <= 20"):
            check_concordance(GfgmCopula.independence(p), GfgmCopula.comonotone(p))

    def test_ignored_grid_argument_one_point(self):
        c1 = GfgmCopula.bivariate(0.4, 0.6, 0.6)
        c2 = GfgmCopula.bivariate(0.4, 0.6, -0.9)
        res = check_concordance(c1, c2, 1)
        assert res.verdict == "c_ordered" and res.cl_backward and not res.cl_forward

    def test_ignored_grid_argument_numpy_integer(self):
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
    def test_ignored_grid_argument_memory_is_bounded(self, d, g):
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


def _perturbed_pair(rng, d):
    """Two atom laws with one shape vector, near independence.

    The moments of |S| >= 2 of ``independent(p)`` are moved by N(0, 0.03),
    with p ~ U(0.15, 0.85)^d; a draw that gives a negative mass is drawn
    again.  In 30% of pairs the second law is the first.
    """
    p = rng.uniform(0.15, 0.85, size=d)
    base = pmf_to_moments(independent(p))
    moved = _popcount(np.arange(1 << d)) >= 2
    laws = []
    while len(laws) < 2:
        try:
            laws.append(moments_to_pmf(base + np.where(moved, rng.normal(0, 0.03, base.size), 0.0)))
        except InvalidDistributionError:
            pass
    if rng.uniform() < 0.3:
        laws[1] = laws[0]
    return GfgmCopula(laws[0], p), GfgmCopula(laws[1], p)


#: (cdf or survival, the atom moments that decide it, the probe's u off S and on S at t)
_SIDES = (
    (cdf, pmf_to_moments, 1.0, lambda t: t),
    (survival, lambda law: pmf_to_moments(complemented(law)), 0.0, lambda t: 1.0 - t),
)


def _probe_gap(side, c1, c2, subset):
    """Largest excess of c1 over c2 on the boundary probe of S, t = 1e-1 .. 1e-12.

    u_j is fixed off S (1 for the cdf, 0 for the survival function) and
    moves to the face on S; a violated moment of S shows as a positive gap
    once t is small enough.
    """
    func, _, off, on = _SIDES[side]
    inside = (subset >> np.arange(c1.d)) & 1 == 1
    u = np.array([np.where(inside, on(10.0**-e), off) for e in range(1, 13)])
    return float(np.max(func(c1, u) - func(c2, u)))


def _check_against_functions(c1, c2, res, axis):
    """Each flag of ``res`` against the functions: no violation on a grid with the
    faces where it holds, a positive probe gap where it does not."""
    pts = _mesh(axis, c1.d)
    flags = (res.cl_forward, res.cl_backward, res.cu_forward, res.cu_backward)
    for k, (a, b) in enumerate([(c1, c2), (c2, c1)] * 2):
        side = k // 2
        func, moments = _SIDES[side][:2]
        if flags[k]:
            assert np.max(func(a, pts) - func(b, pts)) <= 2e-12, k
        else:
            excess = moments(a.bernoulli) - moments(b.bernoulli)
            violated = np.flatnonzero(excess > 1e-12)
            # an S of fewest margins: no proper subset of it is violated
            subset = int(violated[np.argmin(_popcount(violated))])
            assert _probe_gap(side, a, b, subset) > 0.0, (k, subset)


class TestExactOrder:
    """``check_concordance`` decides the order of the functions on all of [0, 1]^d."""

    AXIS = np.array([0.0, 0.05, 0.3, 0.7, 0.95, 1.0])

    def test_random_pairs_sufficient_and_necessary(self):
        rng = np.random.default_rng(5151)
        verdicts = set()
        for d in [2] * 20 + [3] * 30 + [4] * 6:
            c1, c2 = _perturbed_pair(rng, d)
            res = check_concordance(c1, c2)
            _check_against_functions(c1, c2, res, self.AXIS)
            verdicts.add(res.verdict)
        assert verdicts == {"c_ordered", "cL_ordered", "cU_ordered", "incomparable"}

    # seeds of _perturbed_pair at d = 2 + seed % 3 on which the interior grid
    # (21 points per axis) reported an order that does not hold
    @pytest.mark.parametrize(
        "seed,grid_verdict",
        [(112, "cL_ordered"), (157, "c_ordered"), (253, "cU_ordered"),
         (137, "cU_ordered"), (197, "cL_ordered")],
    )
    def test_false_grid_verdicts(self, seed, grid_verdict):
        c1, c2 = _perturbed_pair(np.random.default_rng(seed), 2 + seed % 3)
        res = check_concordance(c1, c2)
        assert res.verdict == "incomparable" != grid_verdict
        _check_against_functions(c1, c2, res, self.AXIS)

    def test_violation_below_the_interior_grid(self):
        # independence with mu_{12} raised by 0.05 and mu_{123} lowered by
        # 0.001: C2 - C1 = d1 d2 (0.05 a0_3 - 0.001 d3) changes sign at
        # u_3 ~ 0.04 < 1/22, so the 21-per-axis interior grid saw c_ordered
        moved = BernoulliPmf.from_bitstrings({
            "000": 0.176, "100": 0.074, "010": 0.074, "110": 0.176,
            "001": 0.124, "101": 0.126, "011": 0.126, "111": 0.124,
        })
        c1, c2 = GfgmCopula.independence([0.5] * 3), GfgmCopula(moved, [0.5] * 3)
        interior = _mesh(np.arange(1, 22) / 22.0, 3)
        assert np.max(cdf(c1, interior) - cdf(c2, interior)) < 0.0
        res = check_concordance(c1, c2)
        assert res == ConcordanceResult(False, False, True, False)
        assert cdf(c1, [0.5, 0.5, 0.0192]) - cdf(c2, [0.5, 0.5, 0.0192]) > 4e-6
        _check_against_functions(c1, c2, res, self.AXIS)

    @staticmethod
    def _forms_agree(pairs):
        """The flags of every pair are those of the first."""
        results = [check_concordance(GfgmCopula(a), GfgmCopula(b)) for a, b in pairs]
        assert all(r == results[0] for r in results), results
        return results[0]

    @pytest.mark.parametrize("d", range(2, 9))
    def test_count_law_matches_its_expansion(self, d):
        rng = np.random.default_rng(700 + d)
        cp = random_exchangeable_count(rng, d)
        lam = float(rng.uniform(0.2, 0.8))
        others = [
            end_count_pmf(cp.p, d),
            comonotone_count_pmf(cp.p, d),
            IndependenceLaw([cp.p] * d),
            cp,
            ExchangeableCountPmf(d, lam * cp.q + (1.0 - lam) * end_count_pmf(cp.p, d).q),
        ]
        verdicts = set()
        for other in others:
            res = self._forms_agree(
                [(cp, other), (expand(cp), other), (cp, other.as_atoms()),
                 (expand(cp), other.as_atoms())]
            )
            verdicts.add(res.verdict)
        assert "c_ordered" in verdicts

    @pytest.mark.parametrize("d", range(2, 9))
    def test_independence_law_matches_its_expansion(self, d):
        rng = np.random.default_rng(800 + d)
        p = rng.uniform(0.15, 0.85, size=d)
        law = IndependenceLaw(p)
        mixed = {m: 0.5 * q for m, q in independent(p).as_dict().items()}
        for m, q in comonotonic(p).as_dict().items():
            mixed[m] += 0.5 * q
        others = [comonotonic(p), BernoulliPmf.from_dict(d, mixed), law, independent(p)]
        for other in others:
            self._forms_agree([(law, other), (independent(p), other)])
        # equal margins take the per-size route against a count law
        q = float(p[0])
        binomial = mixture_count_pmf(MixtureSpec.degenerate(q, d), d)
        for other in (binomial, end_count_pmf(q, d)):
            self._forms_agree(
                [(IndependenceLaw([q] * d), other), (independent([q] * d), other),
                 (IndependenceLaw([q] * d), other.as_atoms())]
            )

    @pytest.mark.parametrize("d", range(2, 9))
    def test_independence_pair_matches_dense_route(self, d):
        # margins equal or at least 1e-11 apart, within the 1e-10 shape tolerance
        rng = np.random.default_rng(900 + d)
        p = rng.uniform(0.15, 0.85, size=d)
        mixed = [rng.permutation(np.r_[-1, 1, rng.choice([-1, 0, 1], d - 2)]) for _ in range(6)]
        verdicts = []
        for signs in [np.zeros(d), np.ones(d), -np.ones(d), rng.choice([0, 1], d)] + mixed:
            p2 = p + signs * rng.uniform(1e-11, 5e-11, size=d)
            res = check_concordance(GfgmCopula.independence(p), GfgmCopula.independence(p2))
            assert res == check_concordance(GfgmCopula(independent(p)), GfgmCopula(independent(p2)))
            verdicts.append(res.verdict)
        # higher margins raise mu and lower lambda: cdfs ordered one way, survivals the other
        assert verdicts[:3] == ["c_ordered", "cL_ordered", "cL_ordered"]
        assert verdicts[4:] == ["incomparable"] * 6

    def test_count_laws_at_d200(self):
        d = 200
        end, com = end_count_pmf(0.4, d), comonotone_count_pmf(0.4, d)
        beta = beta_mixture_copula(2.0, 3.0, d)
        assert check_concordance(GfgmCopula(end), beta) == ConcordanceResult(True, False, True, False)
        res = check_concordance(GfgmCopula(com), GfgmCopula(end))
        assert res == ConcordanceResult(False, True, False, True)
        # the smallest violated subset size is 2: probe two margins
        c_end, c_com = GfgmCopula(end), GfgmCopula(com)
        assert _probe_gap(0, c_com, c_end, 0b11) > 0.0
        assert _probe_gap(1, c_com, c_end, 0b11) > 0.0
        # sufficiency on random points with faces mixed in
        rng = np.random.default_rng(9)
        pts = np.where(rng.uniform(size=(40, d)) < 0.95, 1.0, rng.uniform(size=(40, d)))
        pts[:5, :3] = 0.0
        assert np.all(cdf(c_end, pts) <= cdf(c_com, pts) + 1e-12)
        assert np.all(survival(c_end, 1.0 - pts) <= survival(c_com, 1.0 - pts) + 1e-12)


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
