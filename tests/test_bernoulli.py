"""Multivariate Bernoulli pmfs: construction, extremes, moments."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gfgm import (
    BernoulliPmf,
    InvalidDistributionError,
    comonotonic,
    complemented,
    countermonotonic_bivariate,
    from_theta_bivariate,
    independent,
    load_pmf_file,
    marginals,
    moments_to_pmf,
    nu_coefficient,
    pmf_to_moments,
    save_pmf_file,
    theta_bounds,
    theta_of,
)
from gfgm.bernoulli import (
    IndependenceLaw,
    bitstring_to_mask,
    format_pmf_text,
    mask_to_bitstring,
    nu_all,
    parse_pmf_text,
)
from gfgm.reference import fgm_thetas
from gfgm.exchangeable import (
    ExchangeableCountPmf,
    comonotone_count_pmf,
    end_count_pmf,
    end_pmf,
    expand,
)
from gfgm.sampling import sample_bernoulli

from conftest import random_dense_pmf, random_sparse_pmf


class TestConstruction:
    def test_normalizes_small_sum_error(self):
        pmf = BernoulliPmf.from_bitstrings({"00": 0.5 + 3e-10, "11": 0.5})
        assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_sum_error(self):
        with pytest.raises(InvalidDistributionError):
            BernoulliPmf.from_bitstrings({"00": 0.6, "11": 0.5})

    def test_rejects_negative_mass(self):
        with pytest.raises(InvalidDistributionError):
            BernoulliPmf.from_bitstrings({"00": 1.1, "11": -0.1})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_mass(self, bad):
        with pytest.raises(InvalidDistributionError, match="nonnegative numbers|sum to"):
            BernoulliPmf(2, np.array([0, 1, 3]), np.array([0.5, bad, 0.5]))

    def test_rejects_duplicate_masks(self):
        with pytest.raises(InvalidDistributionError, match="duplicate"):
            BernoulliPmf(2, np.array([0, 0, 3]), np.array([0.25, 0.25, 0.5]))
        with pytest.raises(InvalidDistributionError, match="duplicate"):
            BernoulliPmf(2, np.array([3, 0, 3]), np.array([0.25, 0.25, 0.5]))

    def test_rejects_degenerate_margins(self):
        with pytest.raises(InvalidDistributionError):
            BernoulliPmf.from_bitstrings({"00": 0.5, "01": 0.5})  # margin 1 is 0

    def test_rejects_bad_dimension(self):
        with pytest.raises(InvalidDistributionError):
            BernoulliPmf(1, np.array([0]), np.array([1.0]))
        with pytest.raises(InvalidDistributionError):
            BernoulliPmf(64, np.array([0, 1]), np.array([0.5, 0.5]))

    def test_zero_atoms_dropped(self):
        pmf = BernoulliPmf.from_bitstrings({"00": 0.5, "01": 0.0, "10": 0.0, "11": 0.5})
        assert pmf.n_atoms == 2
        assert pmf.prob(bitstring_to_mask("01")) == 0.0

    @pytest.mark.parametrize("text", ["0_1", "+01", " 01", "01 ", "", "012"])
    def test_rejects_what_is_not_a_bit_string(self, text):
        # int(text[::-1], 2) alone would take "0_1", "+01", " 01" and "01 "
        with pytest.raises(InvalidDistributionError, match="not a bit string"):
            bitstring_to_mask(text)


class TestMarginals:
    def test_symmetric_independence(self):
        pmf = BernoulliPmf.from_bitstrings(
            {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}
        )
        assert marginals(pmf) == pytest.approx([0.5, 0.5])

    def test_two_atom_comonotone(self):
        pmf = BernoulliPmf.from_bitstrings({"00": 0.7, "11": 0.3})
        assert marginals(pmf) == pytest.approx([0.3, 0.3])

    def test_exchangeable_expansion_d3(self):
        cp = ExchangeableCountPmf(3, np.array([0.5, 0.0, 0.0, 0.5]))
        pmf = expand(cp)
        assert marginals(pmf) == pytest.approx([0.5, 0.5, 0.5])


class TestComonotonic:
    def test_equal_margins(self):
        pmf = comonotonic([0.5, 0.5])
        assert pmf.as_dict() == pytest.approx({0b00: 0.5, 0b11: 0.5})

    def test_threshold_construction(self):
        # V-intervals (0,0.3], (0.3,0.7], (0.7,1] switch on components 2 then 1
        pmf = comonotonic([0.3, 0.7])
        assert pmf.prob(bitstring_to_mask("00")) == pytest.approx(0.3)
        assert pmf.prob(bitstring_to_mask("01")) == pytest.approx(0.4)
        assert pmf.prob(bitstring_to_mask("11")) == pytest.approx(0.3)

    def test_equal_margins_d3(self):
        pmf = comonotonic([0.2, 0.2, 0.2])
        assert pmf.as_dict() == pytest.approx({0b000: 0.8, 0b111: 0.2})

    def test_maximizes_theta_over_grid(self, rng):
        # the comonotone pair attains the largest dependence parameter
        for _ in range(10):
            p1, p2 = rng.uniform(0.1, 0.9, size=2)
            t_max = theta_of(comonotonic([p1, p2]))
            lo, hi = theta_bounds(p1, p2)
            for theta in np.linspace(lo, hi, 41):
                assert theta_of(from_theta_bivariate(p1, p2, theta)) <= t_max + 1e-12


class TestCountermonotonic:
    def test_symmetric_half(self):
        pmf = countermonotonic_bivariate(0.5, 0.5)
        assert pmf.as_dict() == pytest.approx({0b01: 0.5, 0b10: 0.5})

    def test_low_margins(self):
        pmf = countermonotonic_bivariate(0.3, 0.3)
        assert pmf.prob(0b00) == pytest.approx(0.40)
        assert pmf.prob(bitstring_to_mask("01")) == pytest.approx(0.30)
        assert pmf.prob(bitstring_to_mask("10")) == pytest.approx(0.30)
        assert pmf.prob(0b11) == 0.0

    def test_high_margins(self):
        pmf = countermonotonic_bivariate(0.7, 0.7)
        assert pmf.prob(0b11) == pytest.approx(0.49 * (1 - 0.09 / 0.49))
        assert theta_of(pmf) == pytest.approx(-0.09 / 0.49)


class TestThetaParameterization:
    def test_independence(self):
        pmf = from_theta_bivariate(0.5, 0.5, 0.0)
        assert pmf.as_dict() == pytest.approx(
            {0b00: 0.25, 0b01: 0.25, 0b10: 0.25, 0b11: 0.25}
        )
        assert theta_of(pmf) == pytest.approx(0.0, abs=1e-15)

    def test_comonotone_limit(self):
        pmf = from_theta_bivariate(0.5, 0.5, 1.0)
        assert pmf.as_dict() == pytest.approx({0b00: 0.5, 0b11: 0.5})
        assert theta_of(pmf) == pytest.approx(1.0)

    def test_asymmetric_cells(self):
        pmf = from_theta_bivariate(0.3, 0.7, 0.2)
        assert pmf.prob(bitstring_to_mask("00")) == pytest.approx(0.252)
        assert pmf.prob(bitstring_to_mask("01")) == pytest.approx(0.448)
        assert pmf.prob(bitstring_to_mask("10")) == pytest.approx(0.048)
        assert pmf.prob(bitstring_to_mask("11")) == pytest.approx(0.252)
        assert theta_of(pmf) == pytest.approx(0.2)

    def test_round_trip_random(self, rng):
        for _ in range(200):
            p1, p2 = rng.uniform(0.1, 0.9, size=2)
            lo, hi = theta_bounds(p1, p2)
            theta = rng.uniform(lo, hi)
            assert theta_of(from_theta_bivariate(p1, p2, theta)) == pytest.approx(
                theta, abs=1e-14
            )

    def test_range_violation_reports_interval(self):
        with pytest.raises(InvalidDistributionError, match=r"admissible interval"):
            from_theta_bivariate(0.5, 0.5, 1.5)
        with pytest.raises(InvalidDistributionError):
            from_theta_bivariate(0.2, 0.8, -1.01 * min(1, 0.8 * 0.2 / 0.16))

    def test_theta_of_needs_bivariate(self):
        with pytest.raises(InvalidDistributionError):
            theta_of(comonotonic([0.5, 0.5, 0.5]))


class TestNuCoefficients:
    def test_singletons_vanish(self, rng):
        for _ in range(10):
            pmf = random_sparse_pmf(rng, int(rng.integers(2, 7)))
            for j in range(pmf.d):
                assert abs(nu_coefficient(pmf, [j])) < 1e-14

    def test_pair_equals_theta(self, rng):
        for _ in range(20):
            p1, p2 = rng.uniform(0.1, 0.9, size=2)
            lo, hi = theta_bounds(p1, p2)
            theta = rng.uniform(lo, hi)
            pmf = from_theta_bivariate(p1, p2, theta)
            assert nu_coefficient(pmf, [0, 1]) == pytest.approx(theta, abs=1e-13)

    def test_independence_all_orders_vanish(self, rng):
        pmf = independent(rng.uniform(0.2, 0.8, size=4))
        for subset in ([0, 1], [1, 3], [0, 1, 2], [0, 1, 2, 3]):
            assert abs(nu_coefficient(pmf, subset)) < 1e-13

    def test_bad_subset(self):
        pmf = comonotonic([0.4, 0.4])
        with pytest.raises(InvalidDistributionError):
            nu_coefficient(pmf, [])
        with pytest.raises(InvalidDistributionError):
            nu_coefficient(pmf, [2])


class TestMoments:
    def test_two_atom_support(self):
        pmf = BernoulliPmf.from_bitstrings({"00": 0.5, "11": 0.5})
        mu = pmf_to_moments(pmf)
        assert mu[0b01] == pytest.approx(0.5)
        assert mu[0b10] == pytest.approx(0.5)
        assert mu[0b11] == pytest.approx(0.5)

    def test_independence_product(self):
        pmf = independent([0.5, 0.5])
        mu = pmf_to_moments(pmf)
        assert mu[0b11] == pytest.approx(0.25)

    def test_round_trip_random_d4(self, rng):
        pmf = random_dense_pmf(rng, 4)
        back = moments_to_pmf(pmf_to_moments(pmf))
        assert back.masks.tolist() == pmf.masks.tolist()
        assert back.probs == pytest.approx(pmf.probs, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_round_trip_random_dims(self, rng, d):
        for _ in range(5):
            pmf = random_sparse_pmf(rng, d)
            back = moments_to_pmf(pmf_to_moments(pmf))
            dense_orig = np.zeros(1 << d)
            dense_orig[pmf.masks] = pmf.probs
            dense_back = np.zeros(1 << d)
            dense_back[back.masks] = back.probs
            assert dense_back == pytest.approx(dense_orig, abs=1e-12)

    def test_invalid_moment_sequence_rejected(self):
        mu = np.array([1.0, 0.9, 0.9, 0.4])  # mu_12 < mu_1 + mu_2 - 1 fails
        with pytest.raises(InvalidDistributionError, match="negative mass"):
            moments_to_pmf(mu)

    @pytest.mark.parametrize("d", [8, 12, 16, 20])
    def test_round_trips_keep_the_support(self, d):
        # rounding residue of the inversion is 0: END(0.37) at d = 8 comes
        # back with its 84 atoms, not 92, and at d = 20 with 203 490
        rng = np.random.default_rng(400 + d)
        atom_laws = [
            end_pmf(0.37, d),
            end_pmf(1 / d, d),
            comonotonic(rng.uniform(0.1, 0.9, d)),
            *(random_sparse_pmf(rng, d, n, margin_band=(0.0, 1.0)) for n in (12, 60, 200)),
        ]
        for pmf in atom_laws:
            back = moments_to_pmf(pmf_to_moments(pmf))
            assert back.masks.tolist() == pmf.masks.tolist()
            assert back.probs == pytest.approx(pmf.probs, rel=1e-9, abs=0.0)
        laws = [
            end_count_pmf(0.37, d),
            comonotone_count_pmf(0.3, d),
            ExchangeableCountPmf(d, rng.dirichlet(np.ones(d + 1))),
            IndependenceLaw(rng.uniform(0.1, 0.9, d)),
        ]
        for law in laws:
            back = moments_to_pmf(law.moments())
            assert back.masks.tolist() == law.as_atoms().masks.tolist()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_sparse_round_trip_property(self, d, n_atoms, seed):
        rng = np.random.default_rng(seed)
        masks = rng.choice(1 << d, size=min(n_atoms, 1 << d), replace=False)
        probs = rng.dirichlet(np.ones(masks.size))
        on = (masks[:, None] >> np.arange(d)) & 1
        assume(np.all(on.any(axis=0) & ~on.all(axis=0)))  # every margin inside (0, 1)
        pmf = BernoulliPmf(d, masks, probs)
        back = moments_to_pmf(pmf_to_moments(pmf))
        assert back.masks.tolist() == pmf.masks.tolist()
        np.testing.assert_allclose(back.probs, pmf.probs, rtol=0, atol=1e-15)


class TestComplement:
    def test_margins_flip(self, rng):
        pmf = random_sparse_pmf(rng, 3)
        assert marginals(complemented(pmf)) == pytest.approx(1.0 - marginals(pmf))
        assert complemented(complemented(pmf)).as_dict() == pytest.approx(pmf.as_dict())


class TestTextFormat:
    def test_round_trip(self, rng):
        pmf = random_sparse_pmf(rng, 3)
        again = parse_pmf_text(format_pmf_text(pmf))
        assert again.d == pmf.d
        assert again.as_dict() == pytest.approx(pmf.as_dict())

    def test_parse_with_comments(self):
        text = "# comment\nd=2\n00,0.5\n11,0.5\n"
        pmf = parse_pmf_text(text)
        assert pmf.prob(0b11) == pytest.approx(0.5)

    def test_missing_header(self):
        with pytest.raises(InvalidDistributionError):
            parse_pmf_text("00,0.5\n11,0.5\n")
        # a header after the atoms came too late to check their width: "0" was read as "00"
        with pytest.raises(InvalidDistributionError, match="before the atoms"):
            parse_pmf_text("11,0.5\n0,0.5\nd=2\n")

    def test_mismatched_width(self):
        with pytest.raises(InvalidDistributionError):
            parse_pmf_text("d=3\n00,0.5\n11,0.5\n")
        # a second header used to replace the first one silently
        with pytest.raises(InvalidDistributionError, match="duplicate"):
            parse_pmf_text("d=3\nd=2\n00,0.5\n11,0.5\n")

    def test_file_round_trip(self, rng, tmp_path):
        # the text holds every float exactly; loading builds the pmf from it anew
        pmf = random_sparse_pmf(rng, 30, n_atoms=256)
        path = tmp_path / "pmf.txt"
        save_pmf_file(pmf, path)
        again = load_pmf_file(path)
        rebuilt = BernoulliPmf(pmf.d, pmf.masks, pmf.probs)
        assert again.d == pmf.d == 30
        assert again.masks.tobytes() == pmf.masks.tobytes()
        assert again.probs.tobytes() == rebuilt.probs.tobytes()
        assert again.probs == pytest.approx(pmf.probs, rel=1e-15, abs=0.0)

    def test_repr_lists_the_atoms(self):
        pmf = BernoulliPmf.from_bitstrings({"100": 0.25, "011": 0.75})
        assert repr(pmf) == "BernoulliPmf(d=3, {100:0.25, 011:0.75})"

    def test_bitstring_round_trip(self):
        assert mask_to_bitstring(bitstring_to_mask("0110"), 4) == "0110"


class TestByteStability:
    """Subset-lattice outputs and sampler streams pinned bit for bit.

    The inputs are small rationals and the transforms use only + - * / and
    exact powers of -2, so the SHA-256 digests do not depend on the
    platform's libm.  A changed digest means a changed GENERATOR_ID stream
    or a changed summation order.
    Layer: numpy-ordered sums only (elementwise butterflies, cumsum), no BLAS or SIMD power.
    """

    DIGESTS = {
        "independent": "6baf1acef3cc190fccef2e0d5f6ca98aed248e64e4103e81b4c798357baf064a",
        "pmf_to_moments": "244af6ce5771d1cb77af0770d2b0dfa66819d6af115ad76beff787b20c4872cf",
        "moments_to_pmf": "46306b133b9bad17acdd88289e62b02101e2073694a3505cc78f2f3b272dcc60",
        "nu_all": "fb8789b1f9529d05b73c52606efa56d01a840e97facacc2ce3a94c6caeff2b68",
        "fgm_thetas": "8c115462c9c728e0cbf584f1d860f5d3aebf33b310306b1e2083b49f45f59975",
        "sample_bernoulli": "fe0135b557a152b69a1eff0a85147506f943d8106a654024d7308207bd7a579e",
        "sample_bernoulli_independent": "3b82de2a1c3e02abe40a2413653593a41cd1e7774aa1b341c1ada0fbd4b91784",
    }

    @staticmethod
    def _outputs():
        pmf = BernoulliPmf(6, np.arange(64), np.arange(1, 65) / 2080.0)
        ind = independent(np.arange(1, 7) / 8.0)
        return {
            "independent": ind.probs,
            "pmf_to_moments": pmf_to_moments(pmf),
            "moments_to_pmf": moments_to_pmf(pmf_to_moments(pmf)).probs,
            "nu_all": nu_all(pmf),
            "fgm_thetas": fgm_thetas(pmf),
            "sample_bernoulli": sample_bernoulli(pmf, 1000, seed=11),
            "sample_bernoulli_independent": sample_bernoulli(ind, 1000, seed=12),
        }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_digest(self, name):
        raw = np.ascontiguousarray(self._outputs()[name]).tobytes()
        assert hashlib.sha256(raw).hexdigest() == self.DIGESTS[name]
