"""Exchangeable machinery: expansion, extremal points, END, mixtures."""

import hashlib
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from gfgm import (
    BernoulliPmf,
    ExchangeableCountPmf,
    GfgmCopula,
    InvalidDistributionError,
    MixtureSpec,
    beta_mixture_copula,
    beta_moments,
    cdf,
    comonotone_count_pmf,
    count_pmf_of,
    countermonotonic_bivariate,
    end_count_pmf,
    end_pmf,
    expand,
    extremal_count_pmfs,
    marginals,
    mixture_copula_cdf,
    mixture_count_pmf,
    nu_coefficient,
    parse_exchangeable_spec,
    rho_cL,
    rho_cU,
)

from conftest import random_exchangeable_count


def _permute_mask(mask, perm):
    out = 0
    for j, pj in enumerate(perm):
        if (mask >> j) & 1:
            out |= 1 << pj
    return out


class TestCountPmf:
    def test_margin_is_scaled_mean(self):
        cp = ExchangeableCountPmf(4, np.array([0.1, 0.2, 0.3, 0.2, 0.2]))
        assert cp.p == pytest.approx(cp.mean / 4)

    def test_rejects_degenerate_margins(self):
        with pytest.raises(InvalidDistributionError):
            ExchangeableCountPmf(3, np.array([1.0, 0.0, 0.0, 0.0]))

    def test_rejects_bad_length(self):
        with pytest.raises(InvalidDistributionError):
            ExchangeableCountPmf(3, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_mass(self, bad):
        with pytest.raises(InvalidDistributionError, match="nonnegative numbers|sum to"):
            ExchangeableCountPmf(3, np.array([0.25, bad, 0.25, 0.5]))


class TestExpand:
    def test_comonotone_d2(self):
        pmf = expand(ExchangeableCountPmf(2, np.array([0.5, 0.0, 0.5])))
        assert pmf.as_dict() == pytest.approx({0b00: 0.5, 0b11: 0.5})

    def test_countermonotone_d2(self):
        pmf = expand(ExchangeableCountPmf(2, np.array([0.0, 1.0, 0.0])))
        assert pmf.as_dict() == pytest.approx({0b01: 0.5, 0b10: 0.5})

    def test_uniform_counts_d3(self):
        pmf = expand(ExchangeableCountPmf(3, np.full(4, 0.25)))
        for mask in range(8):
            k = bin(mask).count("1")
            assert pmf.prob(mask) == pytest.approx(0.25 / math.comb(3, k))
        assert marginals(pmf) == pytest.approx([0.5, 0.5, 0.5])

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_invariant_under_all_permutations(self, rng, d):
        pmf = expand(random_exchangeable_count(rng, d))
        table = pmf.as_dict()
        for perm in itertools.permutations(range(d)):
            permuted = {_permute_mask(m, perm): q for m, q in table.items()}
            assert permuted == pytest.approx(table)

    def test_invariant_under_random_permutations_d10(self, rng):
        d = 10
        pmf = expand(random_exchangeable_count(rng, d))
        table = pmf.as_dict()
        for _ in range(20):
            perm = rng.permutation(d)
            permuted = {_permute_mask(m, perm): q for m, q in table.items()}
            assert permuted == pytest.approx(table)

    def test_round_trip_with_count_pmf_of(self, rng):
        cp = random_exchangeable_count(rng, 5)
        assert count_pmf_of(expand(cp)).q == pytest.approx(cp.q, abs=1e-14)

    def test_count_pmf_of_rejects_asymmetric(self):
        pmf = BernoulliPmf.from_bitstrings({"00": 0.4, "01": 0.35, "10": 0.15, "11": 0.1})
        with pytest.raises(InvalidDistributionError):
            count_pmf_of(pmf)


class TestExtremalPoints:
    def test_integer_mean_d2(self):
        pts = extremal_count_pmfs(0.5, 2)
        assert len(pts) == 2
        two_point, degenerate = pts
        assert two_point.q == pytest.approx([0.5, 0.0, 0.5])
        assert degenerate.q == pytest.approx([0.0, 1.0, 0.0])

    def test_fractional_mean_d3(self):
        pts = extremal_count_pmfs(0.5, 3)
        assert len(pts) == 4  # (j1, j2) in {0,1} x {2,3}
        supports = {tuple(np.nonzero(cp.q)[0]) for cp in pts}
        assert supports == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_means_are_exact(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 9))
            p = rng.uniform(0.1, 0.9)
            for cp in extremal_count_pmfs(p, d):
                assert cp.mean == pytest.approx(p * d, abs=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_convex_reconstruction(self, rng, d):
        # every exchangeable count pmf is a mixture of the extremal points
        for _ in range(5):
            target = random_exchangeable_count(rng, d)
            extremals = extremal_count_pmfs(target.p, d)
            basis = np.stack([cp.q for cp in extremals], axis=1)
            n = basis.shape[1]
            res = linprog(
                c=np.zeros(n),
                A_eq=np.vstack([basis, np.ones((1, n))]),
                b_eq=np.concatenate([target.q, [1.0]]),
                bounds=[(0, None)] * n,
                method="highs",
            )
            assert res.success
            assert np.max(np.abs(basis @ res.x - target.q)) < 1e-10


class TestEnd:
    def test_d2_half_is_countermonotone(self):
        assert end_pmf(0.5, 2).as_dict() == pytest.approx({0b01: 0.5, 0b10: 0.5})

    def test_integer_branch_uniform_weight_class(self):
        pmf = end_pmf(0.5, 4)
        assert pmf.n_atoms == 6
        assert pmf.probs == pytest.approx(np.full(6, 1 / 6))

    def test_fractional_branch_matches_frechet_pair(self):
        assert end_pmf(0.3, 2).as_dict() == pytest.approx(
            countermonotonic_bivariate(0.3, 0.3).as_dict()
        )

    def test_margins(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 10))
            p = rng.uniform(0.1, 0.9)
            assert marginals(end_pmf(p, d)) == pytest.approx(np.full(d, p), abs=1e-12)

    def test_minimality_among_random_exchangeables(self, rng):
        for _ in range(15):
            d = int(rng.integers(3, 8))
            cp = random_exchangeable_count(rng, d)
            c_rand = GfgmCopula.from_pmf(expand(cp))
            c_end = GfgmCopula.from_pmf(end_pmf(cp.p, d))
            assert rho_cL(c_end) <= rho_cL(c_rand) + 1e-10
            assert rho_cU(c_end) <= rho_cU(c_rand) + 1e-10


class TestMixtures:
    def test_degenerate_is_binomial(self):
        cp = mixture_count_pmf(MixtureSpec.degenerate(0.5, 2), 2)
        assert cp.q == pytest.approx([0.25, 0.5, 0.25])

    def test_beta_uniform_counts(self):
        cp = mixture_count_pmf(MixtureSpec.beta(1.0, 1.0, 2), 2)
        assert cp.q == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_mean_identity(self, rng):
        for _ in range(10):
            alpha, beta = rng.uniform(0.5, 4.0, 2)
            d = int(rng.integers(2, 9))
            spec = MixtureSpec.beta(alpha, beta, d)
            cp = mixture_count_pmf(spec, d)
            assert cp.mean == pytest.approx(d * spec.moment(1), abs=1e-10)

    def test_moment_and_quadrature_routes_agree(self):
        # 64-node Gauss-Jacobi is the exact quadrature representation of a
        # Beta mixing law; both routes must then coincide
        from scipy.special import roots_jacobi

        for alpha, beta in ((1.0, 1.0), (2.0, 3.0), (5.0, 1.5)):
            d = 6
            x, w = roots_jacobi(64, beta - 1.0, alpha - 1.0)
            nodes = 0.5 * (x + 1.0)
            weights = w / w.sum()
            by_quad = mixture_count_pmf(MixtureSpec.from_quadrature(nodes, weights), d)
            by_mom = mixture_count_pmf(MixtureSpec.beta(alpha, beta, d), d)
            assert by_quad.q == pytest.approx(by_mom.q, abs=1e-10)

    def test_invalid_moment_sequence_rejected(self):
        # not a valid [0,1] moment sequence: E[L^2] > E[L]
        spec = MixtureSpec.from_moments([1.0, 0.3, 0.9])
        with pytest.raises(InvalidDistributionError):
            mixture_count_pmf(spec, 2)

    def test_non_finite_moments_rejected(self):
        with pytest.raises(InvalidDistributionError, match=r"lie in \[0,1\]"):
            mixture_copula_cdf(MixtureSpec.from_moments([1.0, 0.5, np.nan]), 2, [0.5, 0.5])
        with pytest.raises(InvalidDistributionError, match="zeroth moment"):
            MixtureSpec.from_moments([np.nan, 0.5, 0.3])

    def test_non_finite_quadrature_rejected(self):
        with pytest.raises(InvalidDistributionError, match="nodes"):
            MixtureSpec.from_quadrature([np.nan, 0.5], [0.5, 0.5])
        with pytest.raises(InvalidDistributionError, match="probability vector"):
            MixtureSpec.from_quadrature([0.2, 0.5], [np.nan, 0.5])

    @pytest.mark.parametrize("alpha, beta", [(np.nan, 2.0), (2.0, np.nan), (np.inf, 2.0)])
    def test_non_finite_beta_parameters_rejected(self, alpha, beta):
        with pytest.raises(InvalidDistributionError, match="Beta parameters"):
            beta_moments(alpha, beta, 4)

    def test_two_path_cdf_equality(self, rng):
        for d in (2, 3, 4, 6):
            alpha, beta = rng.uniform(0.5, 4.0, 2)
            spec = MixtureSpec.beta(alpha, beta, d)
            c = GfgmCopula.from_pmf(expand(mixture_count_pmf(spec, d)))
            pts = rng.uniform(0, 1, size=(30, d))
            assert mixture_copula_cdf(spec, d, pts) == pytest.approx(
                cdf(c, pts), abs=1e-10
            )

    def test_uniform_mixing_closed_value(self):
        # Beta(1,1): nu_12 = Var(L)/p^2 = (1/12)/(1/4) = 1/3, so at p = 1/2
        # C(1/2,1/2) = 1/4 (1 + 1/3 * 1/4)
        spec = MixtureSpec.beta(1.0, 1.0, 2)
        assert mixture_copula_cdf(spec, 2, [0.5, 0.5]) == pytest.approx(
            13 / 48, abs=1e-14
        )

    def test_cdf_digest(self, monkeypatch):
        # recorded before the weight-class sums moved into _weight_class_sums;
        # at p = 1/3, u^(1/(1-p)) = u^1.5 is taken as u * sqrt(u), which is
        # correctly rounded, so the platform's libm does not enter
        monkeypatch.setattr("gfgm.exchangeable._pow_log", lambda u, expo: u * np.sqrt(u))
        pts = (np.arange(60).reshape(10, 6) % 17) / 16.0
        out = mixture_copula_cdf(MixtureSpec.beta(1.0, 2.0, 6), 6, pts)
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "15184d37e000bacf9e25ecd33cdc0b3fab3a94fd370a0165bf1cb721dfef3678"
        )

    def test_degenerate_mixture_normalization(self):
        spec = MixtureSpec.degenerate(0.4, 3)
        assert mixture_copula_cdf(spec, 3, [1.0, 1.0, 1.0]) == pytest.approx(1.0)
        # conditionally-iid with a point mass is exactly independence
        pts = np.array([[0.2, 0.5, 0.8], [0.9, 0.1, 0.6]])
        assert mixture_copula_cdf(spec, 3, pts) == pytest.approx(
            pts.prod(axis=1), abs=1e-14
        )


    @pytest.mark.parametrize("alpha,beta,d", [(2.0, 3.0, 22), (5.0, 1.5, 19), (1.0, 1.0, 20)])
    def test_cancellation_is_named(self, alpha, beta, d):
        # the moment route's alternating sum cancels; the error says so and
        # names the two routes that avoid it
        with pytest.raises(InvalidDistributionError) as exc:
            mixture_count_pmf(MixtureSpec.beta(alpha, beta, d), d)
        text = str(exc.value)
        assert "count masses sum to" in text and f"cancelled at d={d}" in text
        assert "quadrature MixtureSpec" in text and "beta:alpha,beta" in text
        assert "beta_mixture_copula" in text

    def test_last_clean_moment_route_keeps_its_bytes(self):
        q = mixture_count_pmf(MixtureSpec.beta(2.0, 3.0, 21), 21).q
        assert hashlib.sha256(q.tobytes()).hexdigest() == (
            "37bdfb4a7aba29ac08096fcb9306237398b5044015d5f33e9a33ba5d318b3f8f"
        )

class TestBetaMixture:
    def test_pairwise_coefficient_uniform_mixing(self):
        c = beta_mixture_copula(1.0, 1.0, 2)
        assert nu_coefficient(c.bernoulli, [0, 1]) == pytest.approx(1 / 3, abs=1e-12)

    def test_concentration_limit_is_independence(self):
        c = beta_mixture_copula(1e4, 1e4, 2)
        assert abs(nu_coefficient(c.bernoulli, [0, 1])) < 1e-4

    def test_margins(self, rng):
        alpha, beta = 2.5, 1.5
        c = beta_mixture_copula(alpha, beta, 5)
        assert marginals(c.bernoulli) == pytest.approx(
            np.full(5, alpha / (alpha + beta)), abs=1e-12
        )

    @pytest.mark.parametrize("d", [10, 22, 30, 100])
    def test_beta_spec_is_beta_binomial(self, d):
        # the moment route cancels from d ~ 20 (it rejects Beta(2,3) at d = 22)
        from scipy.stats import betabinom

        for alpha, beta in ((2.0, 3.0), (0.5, 0.5), (5.0, 1.5)):
            cp = parse_exchangeable_spec(f"beta:{alpha},{beta}", d=d)
            want = betabinom.pmf(np.arange(d + 1), d, alpha, beta)
            np.testing.assert_allclose(cp.q, want, rtol=1e-12, atol=0)
            if d <= 20:
                c = beta_mixture_copula(alpha, beta, d)
                np.testing.assert_allclose(count_pmf_of(c.bernoulli).q, want, rtol=1e-12)

    def test_beta_spec_concentrated_mixing_at_high_d(self):
        # q_0 = E[(1 - Lambda)^d] underflows and the ratio products overflow;
        # the reference is the exact rational pmf, rounded once
        from scipy.stats import betabinom

        alpha, beta, d = 500, 1, 1000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cp = parse_exchangeable_spec(f"beta:{alpha},{beta}", d=d)
        q = [Fraction(1)]
        for k in range(d):
            q.append(q[-1] * (d - k) * (alpha + k) / ((k + 1) * (beta + d - 1 - k)))
        total = sum(q)
        exact = np.array([float(x / total) for x in q])
        # below the normal range the masses round twice
        tiny = np.finfo(float).tiny
        np.testing.assert_allclose(cp.q, exact, rtol=1e-13, atol=tiny)
        # scipy's own masses are off the exact ones by up to 4.2e-12 here
        want = betabinom.pmf(np.arange(d + 1), d, alpha, beta)
        np.testing.assert_allclose(cp.q, want, rtol=1e-11, atol=tiny)

    def test_moments_recursion(self):
        m = beta_moments(1.0, 1.0, 4)
        assert m == pytest.approx([1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5])


class TestSpecStrings:
    def test_counts(self):
        cp = parse_exchangeable_spec("counts:0.5,0,0.5")
        assert cp.d == 2 and cp.q == pytest.approx([0.5, 0.0, 0.5])

    def test_end_and_comonotone(self):
        assert parse_exchangeable_spec("end:0.3", d=4).q == pytest.approx(
            end_count_pmf(0.3, 4).q
        )
        assert parse_exchangeable_spec("comonotone:0.2", d=3).q == pytest.approx(
            comonotone_count_pmf(0.2, 3).q
        )

    def test_beta(self):
        cp = parse_exchangeable_spec("beta:1,1", d=2)
        assert cp.q == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_needs_dimension(self):
        with pytest.raises(InvalidDistributionError):
            parse_exchangeable_spec("end:0.3")

    def test_unknown_kind(self):
        with pytest.raises(InvalidDistributionError):
            parse_exchangeable_spec("bogus:1", d=3)

    def test_counts_dimension_conflict(self):
        with pytest.raises(InvalidDistributionError):
            parse_exchangeable_spec("counts:0.5,0,0.5", d=3)
