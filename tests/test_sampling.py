"""Seeded sampling: determinism, distributional sanity, MC estimators."""

import numpy as np
import pytest

from gfgm import (
    GENERATOR_ID,
    BernoulliPmf,
    GfgmCopula,
    beta_mixture_copula,
    cdf,
    empirical_measures,
    end_pmf,
    max_measures_gfgm_p,
    sample,
    sample_bernoulli,
    uniform_ks_statistic,
)
from gfgm import sampling
from gfgm.sampling import _categorical_masks, _open_uniform, _spawn_generators

from conftest import random_copula

KS_1PCT = 1.63  # critical coefficient: D_n * sqrt(n) at the 1% level


class TestSampleBatch:
    def test_shape_and_open_range(self, rng):
        c = random_copula(rng, 4)
        batch = sample(c, 500, seed=11)
        assert batch.values.shape == (500, 4)
        assert batch.values.min() > 0.0 and batch.values.max() < 1.0
        assert batch.generator_id == GENERATOR_ID

    def test_seed_determinism(self, rng):
        c = random_copula(rng, 3)
        b1 = sample(c, 1000, seed=42)
        b2 = sample(c, 1000, seed=42)
        assert np.array_equal(b1.values, b2.values)
        b3 = sample(c, 1000, seed=43)
        assert not np.array_equal(b1.values, b3.values)

    def test_rejects_nonpositive_n(self, rng):
        with pytest.raises(ValueError):
            sample(random_copula(rng, 2), 0, seed=1)

    @pytest.mark.parametrize(
        "k,p",
        [
            ((1 << 53) - 1, 0.5),  # _open_uniform gives exactly 1.0
            ((1 << 53) - 2, 0.95),  # 1 - 2^-52, whose power 1 - p rounds up to 1.0
        ],
    )
    def test_values_below_one_when_u0_rounds_up(self, monkeypatch, k, p):
        class StubGenerator:  # every U_0 draw is k
            def integers(self, low, high, size):
                return np.full(size, k, dtype=np.int64)

        u0 = _open_uniform(StubGenerator(), (1, 2))
        assert np.all(u0 ** (1.0 - p) == 1.0)
        real = _spawn_generators
        monkeypatch.setattr(
            sampling, "_spawn_generators", lambda seed: [real(seed)[0], StubGenerator(), real(seed)[2]]
        )
        c = GfgmCopula.independence([p, p])
        batch = sample(c, 200, 1)
        bits = (sample_bernoulli(c.bernoulli, 200, 1)[:, None] >> np.arange(2)) & 1 == 1
        assert not bits.all()
        u1 = _open_uniform(real(1)[2], (200, 2))
        assert np.array_equal(batch.values, np.where(bits, u1, np.nextafter(1.0, 0.0)))


class TestBernoulliDraws:
    def test_draws_live_on_support(self):
        pmf = BernoulliPmf.from_bitstrings({"00": 0.5, "11": 0.5})
        masks = sample_bernoulli(pmf, 2000, seed=5)
        assert set(np.unique(masks)) <= {0b00, 0b11}

    def test_two_atom_frequencies(self):
        pmf = BernoulliPmf.from_bitstrings({"00": 0.5, "11": 0.5})
        n = 100_000
        masks = sample_bernoulli(pmf, n, seed=9)
        freq = np.mean(masks == 0b11)
        assert abs(freq - 0.5) < 4 * np.sqrt(0.25 / n)

    def test_sparse_frequencies(self):
        pmf = BernoulliPmf.from_bitstrings({"001": 0.2, "010": 0.3, "100": 0.1, "111": 0.4})
        n = 50_000
        masks = sample_bernoulli(pmf, n, seed=123)
        for mask, f in pmf.as_dict().items():
            freq = np.mean(masks == mask)
            assert abs(freq - f) < 4 * np.sqrt(f * (1 - f) / n)

    def test_determinism(self):
        pmf = BernoulliPmf.from_bitstrings({"01": 0.4, "10": 0.6})
        assert np.array_equal(
            sample_bernoulli(pmf, 100, seed=7), sample_bernoulli(pmf, 100, seed=7)
        )

    def test_matches_joint_sampler_stream(self, rng):
        # standalone Bernoulli draws reuse sub-stream 0 of the joint sampler
        c = random_copula(rng, 3)
        batch = sample(c, 50, seed=77)
        masks = sample_bernoulli(c.bernoulli, 50, seed=77)
        bits = ((masks[:, None] >> np.arange(3)[None, :]) & 1).astype(bool)
        # entries with I=0 involve only U0^{1-p}; recomputing them pins the draw
        gens = _spawn_generators(77)
        _categorical_masks(c.bernoulli, 50, gens[0])
        u0 = _open_uniform(gens[1], (50, 3))
        expected = u0 ** (1.0 - c.p)[None, :]
        assert np.allclose(batch.values[~bits], expected[~bits])


class TestMarginalUniformity:
    def test_ks_across_copula_types(self, rng):
        n = 100_000
        copulas = [
            GfgmCopula.independence([0.3, 0.8]),
            GfgmCopula.comonotone([0.2] * 5),
            GfgmCopula.from_pmf(end_pmf(0.45, 6)),
            beta_mixture_copula(2.0, 3.0, 4),
            random_copula(rng, 3),
        ]
        for k, c in enumerate(copulas):
            batch = sample(c, n, seed=1000 + k)
            for j in range(c.d):
                stat = uniform_ks_statistic(batch.values[:, j])
                assert stat < KS_1PCT / np.sqrt(n), (k, j, stat)

    def test_swapping_substreams_changes_samples_not_verdicts(self, rng):
        c = GfgmCopula.comonotone([0.35, 0.35, 0.35])
        n = 100_000
        batch = sample(c, n, seed=2024)
        # recompose with the U0/U1 sub-streams exchanged
        gens = _spawn_generators(2024)
        masks = _categorical_masks(c.bernoulli, n, gens[0])
        u1 = _open_uniform(gens[2], (n, c.d))
        u0 = _open_uniform(gens[1], (n, c.d))
        bits = ((masks[:, None] >> np.arange(c.d)[None, :]) & 1).astype(bool)
        swapped = u1 ** (1.0 - c.p)[None, :] * np.where(bits, u0, 1.0)
        assert not np.allclose(swapped, batch.values)
        for j in range(c.d):
            assert uniform_ks_statistic(swapped[:, j]) < KS_1PCT / np.sqrt(n)


class TestJointAgreement:
    def test_empirical_cdf_tracks_exact_cdf(self, rng):
        c = random_copula(rng, 3)
        n = 200_000
        batch = sample(c, n, seed=31)
        pts = rng.uniform(0.1, 0.9, size=(20, 3))
        exact = cdf(c, pts)
        for point, target in zip(pts, exact):
            hat = np.mean(np.all(batch.values <= point[None, :], axis=1))
            band = 3 * np.sqrt(target * (1 - target) / n)
            assert abs(hat - target) <= band + 1e-12


class TestEmpiricalMeasures:
    def test_requires_enough_samples(self, rng):
        batch = sample(random_copula(rng, 2), 999, seed=1)
        with pytest.raises(ValueError):
            empirical_measures(batch)

    def test_independence_nulls(self):
        c = GfgmCopula.independence([0.4, 0.6, 0.5])
        batch = sample(c, 100_000, seed=8)
        report = empirical_measures(batch)
        assert report.method == "monte_carlo"
        for name in ("rho_cL", "rho_cU", "rho_c", "tau"):
            est = getattr(report, name)
            se = report.stderr[name]
            assert abs(est) <= 3 * se + 5e-3, (name, est, se)

    def test_recovers_fgm_rho(self):
        c = GfgmCopula.comonotone([0.5, 0.5])
        batch = sample(c, 200_000, seed=99)
        report = empirical_measures(batch)
        target = max_measures_gfgm_p(0.5, 2).rho_c
        assert abs(report.rho_c - target) <= 3 * report.stderr["rho_c"]

    def test_recovers_high_dim_upper_rho(self):
        c = GfgmCopula.comonotone([0.7] * 5)
        batch = sample(c, 200_000, seed=7)
        report = empirical_measures(batch)
        target = max_measures_gfgm_p(0.7, 5).rho_cU
        assert abs(report.rho_cU - target) <= 3 * report.stderr["rho_cU"]
        assert target == pytest.approx(0.4094, abs=5e-5)

    def test_rho_c_is_average(self, rng):
        batch = sample(random_copula(rng, 2), 5_000, seed=3)
        report = empirical_measures(batch)
        assert report.rho_c == 0.5 * (report.rho_cL + report.rho_cU)
