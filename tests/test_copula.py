"""Copula cdf/pdf forms, reductions, and the univariate representation."""

import os

import numpy as np
import pytest

from gfgm import (
    BivariateGfgm,
    Coxian2Params,
    GfgmCopula,
    InvalidDistributionError,
    cdf,
    cdf_epd,
    cdf_natural,
    complemented,
    coxian2_lst,
    fgm_natural_cdf,
    fgm_thetas,
    from_theta_bivariate,
    huang_kotz_cdf,
    marginal_cdf_representation,
    pdf,
    survival,
    survival_by_cdf,
    theta_bounds,
)
from gfgm.association import gauss_legendre_unit
from gfgm.bernoulli import _subset_products, nu_all
from gfgm.copula import _pow_log

from conftest import child_peak_kib, random_copula, random_dense_pmf


def _symmetric_pmf(rng, d):
    """Random pmf with all margins exactly 1/2 (complement-symmetrized)."""
    full = (1 << d) - 1
    probs = rng.dirichlet(np.ones(1 << d))
    sym = np.zeros(1 << d)
    for mask in range(1 << d):
        sym[mask] = 0.5 * (probs[mask] + probs[full ^ mask])
    from gfgm import BernoulliPmf

    return BernoulliPmf(d, np.arange(1 << d, dtype=np.int64), sym)


class TestCdf:
    def test_grounding(self, rng):
        for d in (2, 3, 5, 8):
            c = random_copula(rng, min(d, 6)) if d <= 6 else random_copula(rng, d, sparse=True)
            u = rng.uniform(0.2, 0.9, size=c.d)
            u[int(rng.integers(c.d))] = 0.0
            assert cdf(c, u) == 0.0

    def test_uniform_margins_boundary(self, rng):
        for d in (2, 4, 6, 8):
            c = random_copula(rng, d, sparse=d > 5)
            for _ in range(5):
                j = int(rng.integers(d))
                v = rng.uniform()
                u = np.ones(d)
                u[j] = v
                assert cdf(c, u) == pytest.approx(v, abs=1e-12)
        assert cdf(c, np.ones(c.d)) == pytest.approx(1.0, abs=1e-14)

    def test_independence_is_product(self, rng):
        c = GfgmCopula.independence([0.3, 0.6, 0.8])
        pts = rng.uniform(0, 1, size=(20, 3))
        assert cdf(c, pts) == pytest.approx(pts.prod(axis=1), abs=1e-13)

    def test_comonotone_half_matches_fgm_value(self):
        c = GfgmCopula.comonotone([0.5, 0.5])
        # classical FGM form uv(1 + theta(1-u)(1-v)) at theta = 1
        assert cdf(c, [0.5, 0.5]) == pytest.approx(0.3125, abs=1e-15)

    def test_rejects_points_outside_cube(self):
        c = GfgmCopula.independence([0.5, 0.5])
        with pytest.raises(ValueError):
            cdf(c, [0.5, 1.2])
        with pytest.raises(ValueError):
            cdf(c, [-0.1, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn", [cdf, pdf, survival], ids=["cdf", "pdf", "survival"])
    def test_rejects_non_finite_points(self, fn, bad):
        c = GfgmCopula.independence([0.5, 0.5])
        with pytest.raises(ValueError, match="unit cube"):
            fn(c, [bad, 0.5])
        with pytest.raises(ValueError, match="unit cube"):
            fn(c, [[0.2, 0.3], [0.5, bad]])

    def test_monotone_in_each_argument(self, rng):
        c = random_copula(rng, 3)
        base = rng.uniform(0.1, 0.8, size=3)
        for j in range(3):
            lo = base.copy()
            hi = base.copy()
            hi[j] += 0.15
            assert cdf(c, hi) >= cdf(c, lo) - 1e-14


class TestNaturalForm:
    @pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
    def test_matches_stochastic_form(self, rng, d):
        for _ in range(4):
            c = random_copula(rng, d, sparse=bool(rng.integers(2)))
            pts = rng.uniform(0, 1, size=(40, d))
            assert np.max(np.abs(cdf(c, pts) - cdf_natural(c, pts))) < 1e-12

    def test_independence_product(self, rng):
        c = GfgmCopula.independence([0.25, 0.5, 0.75])
        pts = rng.uniform(0, 1, size=(10, 3))
        assert cdf_natural(c, pts) == pytest.approx(pts.prod(axis=1), abs=1e-12)

    def test_matches_at_d10(self, rng):
        c = random_copula(rng, 10, sparse=True)
        pts = rng.uniform(0, 1, size=(20, 10))
        assert np.max(np.abs(cdf(c, pts) - cdf_natural(c, pts))) < 1e-12

    def test_uniform_margin_boundary(self, rng):
        c = random_copula(rng, 3)
        u = np.array([1.0, 0.37, 1.0])
        assert cdf_natural(c, u) == pytest.approx(0.37, abs=1e-12)

    def test_dimension_gate(self):
        c = GfgmCopula.comonotone([0.5] * 17)
        with pytest.raises(InvalidDistributionError):
            cdf_natural(c, np.full(17, 0.5))

    @pytest.mark.parametrize("d, n", [(6, 9000), (12, 203), (16, 37)])
    def test_blocks_match_one_table(self, rng, d, n):
        # the form one block of points at a time against the whole (n, 2^d)
        # table of subset products at once
        c = random_copula(rng, d)
        pts = rng.uniform(0, 1, size=(n, d))
        w = 1.0 - _pow_log(pts, c.p / (1.0 - c.p))
        terms = _subset_products(np.stack([np.ones_like(w), w], axis=-1)[..., None])[..., 0]
        want = pts.prod(axis=1) * (terms @ nu_all(c.law))
        np.testing.assert_allclose(cdf_natural(c, pts), want, rtol=1e-14, atol=0)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_peak_memory_does_not_grow_with_points(self):
        # the whole (200, 2^16) table at once peaked at 186 MB resident;
        # a block of points at a time stays near the interpreter's own size
        code = (
            "import numpy as np\n"
            "from gfgm import GfgmCopula, cdf_natural, end_count_pmf\n"
            "pts = np.random.default_rng(7).uniform(size=(200, 16))\n"
            "assert np.all(np.isfinite(cdf_natural(GfgmCopula(end_count_pmf(0.4, 16)), pts)))"
        )
        assert child_peak_kib(code) <= 64 * 1024


class TestPdf:
    def test_independence_flat(self, rng):
        c = GfgmCopula.independence([0.3, 0.7])
        pts = rng.uniform(0, 1, size=(30, 2))
        assert pdf(c, pts) == pytest.approx(np.ones(30), abs=1e-12)

    def test_fgm_density_value(self):
        c = GfgmCopula.comonotone([0.5, 0.5])
        # 1 + theta (1-2u)(1-2v) at theta = 1, u = v = 1/2
        assert pdf(c, [0.5, 0.5]) == pytest.approx(1.0, abs=1e-14)

    def test_nonnegative_and_integrates_to_one(self, rng):
        x, w = gauss_legendre_unit(96)
        uu, vv = np.meshgrid(x, x, indexing="ij")
        pts = np.column_stack([uu.ravel(), vv.ravel()])
        weights = np.outer(w, w).ravel()
        for _ in range(5):
            p1, p2 = rng.uniform(0.1, 0.9, 2)
            lo, hi = theta_bounds(p1, p2)
            c = GfgmCopula.bivariate(p1, p2, rng.uniform(lo, hi))
            dens = pdf(c, pts)
            assert np.min(dens) > -1e-12
            assert weights @ dens == pytest.approx(1.0, abs=1e-8)

    def test_boundary_is_finite(self, rng):
        c = random_copula(rng, 2)
        vals = pdf(c, np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        assert np.all(np.isfinite(vals))


class TestDIncreasing:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_box_sums_nonnegative(self, rng, d):
        c = random_copula(rng, d)
        n_boxes = 300
        lo = rng.uniform(0, 1, size=(n_boxes, d))
        hi = lo + rng.uniform(0, 1, size=(n_boxes, d)) * (1 - lo)
        total = np.zeros(n_boxes)
        for corner in range(1 << d):
            pick = np.array([(corner >> j) & 1 for j in range(d)], dtype=bool)
            pts = np.where(pick[None, :], hi, lo)
            sign = (-1.0) ** (d - int(pick.sum()))
            total += sign * cdf(c, pts)
        assert np.min(total) > -1e-12


class TestSurvival:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_dual_routes_agree(self, rng, d):
        c = random_copula(rng, d, sparse=d > 4)
        pts = rng.uniform(0, 1, size=(30, d))
        assert survival(c, pts) == pytest.approx(survival_by_cdf(c, pts), abs=1e-12)

    def test_copula_methods_are_the_module_functions(self, rng):
        c = random_copula(rng, 4)
        pts = rng.uniform(0, 1, size=(20, 4))
        for method, function in ((c.cdf, cdf), (c.pdf, pdf), (c.survival, survival)):
            assert np.array_equal(method(pts), function(c, pts))

    def test_survival_at_origin_is_one(self, rng):
        c = random_copula(rng, 3)
        assert survival(c, np.zeros(3)) == pytest.approx(1.0, abs=1e-14)


class TestBivariateClosedForm:
    def test_theta_zero_is_product(self, rng):
        b = BivariateGfgm(0.4, 0.6, 0.0)
        u, v = rng.uniform(0, 1, size=(2, 25))
        assert b.cdf(u, v) == pytest.approx(u * v)

    def test_fgm_corner_value(self):
        assert BivariateGfgm(0.5, 0.5, 1.0).cdf(0.5, 0.5) == pytest.approx(0.3125)

    def test_matches_atom_form(self, rng):
        for _ in range(25):
            p1, p2 = rng.uniform(0.1, 0.9, 2)
            lo, hi = theta_bounds(p1, p2)
            b = BivariateGfgm(p1, p2, rng.uniform(lo, hi))
            c = b.to_copula()
            pts = rng.uniform(0, 1, size=(20, 2))
            assert b.cdf(pts[:, 0], pts[:, 1]) == pytest.approx(
                cdf(c, pts), abs=1e-12
            )
            assert b.pdf(pts[:, 0], pts[:, 1]) == pytest.approx(
                pdf(c, pts), abs=1e-12
            )

    def test_huang_kotz_reduction(self, rng):
        # equal margins: a = theta, b = p/(1-p)
        for _ in range(25):
            p = rng.uniform(0.1, 0.9)
            lo, hi = theta_bounds(p, p)
            theta = rng.uniform(lo, hi)
            biv = BivariateGfgm(p, p, theta)
            u, v = rng.uniform(0, 1, size=(2, 20))
            assert biv.cdf(u, v) == pytest.approx(
                huang_kotz_cdf(theta, p / (1 - p), u, v), abs=1e-14
            )
        assert BivariateGfgm(0.3, 0.3, 0.5).cdf(0.3, 0.6) == pytest.approx(
            huang_kotz_cdf(0.5, 0.3 / 0.7, 0.3, 0.6), abs=1e-15
        )

    @pytest.mark.parametrize("b", [0.0, np.nan])
    def test_huang_kotz_rejects_bad_exponent(self, b):
        with pytest.raises(ValueError, match="positive"):
            huang_kotz_cdf(0.5, b, 0.3, 0.6)

    def test_round_trip_from_pmf(self, rng):
        p1, p2 = 0.35, 0.65
        pmf = from_theta_bivariate(p1, p2, 0.3)
        b = BivariateGfgm.from_pmf(pmf)
        assert (b.p1, b.p2) == pytest.approx((p1, p2))
        assert b.theta == pytest.approx(0.3)

    def test_theta_validation(self):
        with pytest.raises(InvalidDistributionError):
            BivariateGfgm(0.5, 0.5, 1.4)


class TestEpd:
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_matches_comonotone_copula(self, rng, d):
        for p in (0.2, 0.5, 0.8):
            c = GfgmCopula.comonotone([p] * d)
            pts = rng.uniform(0, 1, size=(25, d))
            assert cdf_epd(p, d, pts) == pytest.approx(cdf(c, pts), abs=1e-12)

    def test_fgm_value(self):
        assert cdf_epd(0.5, 2, [0.5, 0.5]) == pytest.approx(0.3125)

    def test_grounding_and_normalization(self):
        assert cdf_epd(0.3, 3, [0.4, 0.0, 0.9]) == 0.0
        assert cdf_epd(0.3, 3, [1.0, 1.0, 1.0]) == pytest.approx(1.0)


class TestFgmReduction:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_symmetric_margin_copulas_are_fgm(self, rng, d):
        # the alternating sign-sum of the *complemented* vector supplies the
        # classical parameters; using the vector itself flips odd orders
        for _ in range(5):
            pmf = _symmetric_pmf(rng, d)
            c = GfgmCopula.from_pmf(pmf)
            thetas = fgm_thetas(complemented(pmf))
            pts = rng.uniform(0, 1, size=(30, d))
            assert np.max(np.abs(cdf(c, pts) - fgm_natural_cdf(thetas, pts))) < 1e-12

    def test_direct_orientation_fails_when_odd_orders_present(self, rng):
        from gfgm import BernoulliPmf

        pmf = BernoulliPmf.from_bitstrings(
            {"100": 0.25, "010": 0.25, "001": 0.25, "111": 0.25}
        )
        c = GfgmCopula.from_pmf(pmf)
        pts = rng.uniform(0.1, 0.9, size=(40, 3))
        assert np.max(np.abs(cdf(c, pts) - fgm_natural_cdf(fgm_thetas(pmf), pts))) > 1e-3


class TestCoxian:
    def test_lst_at_zero(self):
        assert coxian2_lst(Coxian2Params(0.4), 0.0) == pytest.approx(1.0)

    def test_collapses_to_standard_exponential(self):
        # with beta1 = 1/(1-p), beta2 = 1 the LST is exactly 1/(1+t)
        assert coxian2_lst(Coxian2Params(0.3), 1.0) == pytest.approx(0.5, abs=1e-14)
        assert coxian2_lst(Coxian2Params(0.9), 2.5) == pytest.approx(1 / 3.5, abs=1e-14)
        t = np.linspace(0, 30, 301)
        for p in (0.05, 0.5, 0.95):
            vals = coxian2_lst(Coxian2Params(p), t)
            assert vals == pytest.approx(1.0 / (1.0 + t), abs=1e-14)

    def test_defaults_and_validation(self):
        params = Coxian2Params(0.25)
        assert params.beta1 == pytest.approx(1 / 0.75)
        assert params.beta2 == 1.0
        with pytest.raises(InvalidDistributionError):
            Coxian2Params(1.0)
        with pytest.raises(InvalidDistributionError):
            Coxian2Params(0.25, beta1=2.0)
        with pytest.raises(InvalidDistributionError):
            Coxian2Params(0.25, beta1=np.nan)
        with pytest.raises(InvalidDistributionError):
            Coxian2Params(0.25, beta2=3.0)
        with pytest.raises(ValueError):
            coxian2_lst(Coxian2Params(0.5), -1.0)

    def test_lst_rejects_nan(self):
        with pytest.raises(ValueError, match="nonnegative"):
            coxian2_lst(Coxian2Params(0.3), np.nan)
        with pytest.raises(ValueError, match="nonnegative"):
            coxian2_lst(Coxian2Params(0.3), [1.0, np.nan])


class TestMarginalRepresentation:
    def test_collapses_to_uniform(self):
        p = 0.4
        assert marginal_cdf_representation(p, (1 - p, p), 0.7) == pytest.approx(0.7, abs=1e-14)
        u = np.linspace(0, 1, 51)
        assert marginal_cdf_representation(p, (1 - p, p), u) == pytest.approx(u, abs=1e-14)

    def test_endpoints(self):
        assert marginal_cdf_representation(0.3, (0.2, 0.8), 0.0) == 0.0
        assert marginal_cdf_representation(0.3, (0.2, 0.8), 1.0) == pytest.approx(1.0)

    def test_conditional_branch(self):
        # I identically 1 at p = 1/2: cdf is 2u - u^2
        assert marginal_cdf_representation(0.5, (0.0, 1.0), 0.25) == pytest.approx(0.4375)

    def test_weight_validation(self):
        with pytest.raises(InvalidDistributionError):
            marginal_cdf_representation(0.5, (0.6, 0.6), 0.5)
        with pytest.raises(InvalidDistributionError):
            marginal_cdf_representation(0.5, (np.nan, 0.5), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
    def test_rejects_points_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            marginal_cdf_representation(0.5, (0.5, 0.5), [0.2, bad])


class TestShapeVectorValidation:
    def test_mismatched_p_rejected(self, rng):
        pmf = random_dense_pmf(rng, 3)
        from gfgm import marginals

        good = marginals(pmf)
        GfgmCopula(pmf, good)  # exact margins pass
        bad = good.copy()
        bad[0] += 1e-6
        with pytest.raises(InvalidDistributionError):
            GfgmCopula(pmf, bad)
