"""The atom and count-law contractions E[prod_j f_j(I_j)] against direct sums."""

import tracemalloc

import numpy as np
import pytest

from gfgm import (
    BernoulliPmf,
    ExchangeableCountPmf,
    GfgmCopula,
    MixtureSpec,
    cdf,
    cdf_epd,
    comonotonic,
    end_count_pmf,
    expand,
    measures_exchangeable,
    mixture_count_pmf,
    pdf,
    survival,
    tau,
)
from gfgm.association import _orthant_kernels, _tau_kernel
from gfgm.bernoulli import CHUNK_ELEMENTS
from gfgm.copula import _cdf_factors, _pow_log


def _atom_loop(pmf, f0, f1):
    """sum_a probs[a] prod_j (f1[:, j] if bit j of atom a else f0[:, j])."""
    out = np.zeros(f0.shape[0])
    for mask, prob in zip(pmf.masks, pmf.probs):
        term = np.full(f0.shape[0], float(prob))
        for j in range(pmf.d):
            term = term * (f1[:, j] if (int(mask) >> j) & 1 else f0[:, j])
        out += term
    return out


def _tau_double_loop(c):
    """Kendall's tau through the explicit double sum over atom pairs."""
    pmf = c.bernoulli
    g00, g01, g10, g11 = _tau_kernel(c.p)
    bits = (pmf.masks[:, None] >> np.arange(c.d)) & 1 == 1
    total = 0.0
    for prob_i, row in zip(pmf.probs, bits):
        f0 = np.where(row, g10, g00)
        f1 = np.where(row, g11, g01)
        vals = np.where(bits, f1[None, :], f0[None, :]).prod(axis=1)
        total += float(prob_i) * float(pmf.probs @ vals)
    return (2.0**c.d * total - 1.0) / (2.0 ** (c.d - 1) - 1.0)


def _random_atoms(rng, d, n_atoms):
    """Pmf on random masks over all d bits with Dirichlet weights."""
    for _ in range(100):
        if d <= 16:
            masks = rng.choice(1 << d, size=min(n_atoms, 1 << d), replace=False)
        else:
            masks = np.unique(rng.integers(0, 1 << d, size=n_atoms, dtype=np.uint64))
        masks = masks.astype(np.int64)
        try:
            return BernoulliPmf(d, masks, rng.dirichlet(np.ones(masks.size)))
        except ValueError:
            continue
    raise RuntimeError("could not draw a pmf with margins inside (0, 1)")


def _atom_product(pmf, f0, f1):
    """Per-point sum over atoms of the vectorized product over all d margins."""
    bits = pmf.bits > 0.5
    return np.array(
        [float(pmf.probs @ np.where(bits, f1[i], f0[i]).prod(axis=1)) for i in range(len(f0))]
    )


@pytest.mark.parametrize("n", [1, 1200], ids=["single-point", "many-points"])
@pytest.mark.parametrize("d", [2, 3, 5, 17, 31, 63])
def test_sparse_pmfs_match_atom_loop(d, n):
    rng = np.random.default_rng(100 + d)
    pmf = _random_atoms(rng, d, 40)
    f0 = rng.uniform(0.5, 1.5, size=(n, d))
    f1 = rng.uniform(0.5, 1.5, size=(n, d))
    np.testing.assert_allclose(
        pmf.expect_products(f0, f1), _atom_loop(pmf, f0, f1), rtol=1e-14, atol=0
    )


def test_dense_pmf_across_several_chunks():
    rng = np.random.default_rng(12)
    d = 12
    pmf = BernoulliPmf(d, np.arange(1 << d), rng.dirichlet(np.ones(1 << d)))
    # 4096 atoms x 300 points is 1.2M products, several chunks for any cap <= 8 MB
    f0 = rng.uniform(0.0, 1.0, size=(300, d))
    f1 = rng.uniform(0.0, 2.0, size=(300, d))
    want = _atom_product(pmf, f0, f1)
    np.testing.assert_allclose(pmf.expect_products(f0, f1), want, rtol=1e-13, atol=0)


def test_large_sparse_pmf_stays_within_chunk_cap():
    rng = np.random.default_rng(40)
    d, n_atoms = 40, CHUNK_ELEMENTS  # more atoms than one slice holds
    pmf = _random_atoms(rng, d, n_atoms)
    assert pmf.n_atoms > CHUNK_ELEMENTS // 2
    f0 = rng.uniform(0.5, 1.5, size=(3, d))
    f1 = rng.uniform(0.5, 1.5, size=(3, d))
    pmf._block_rows  # per-pmf index table, built once and cached
    tracemalloc.start()
    try:
        got = pmf.expect_products(f0, f1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * CHUNK_ELEMENTS
    np.testing.assert_allclose(got, _atom_product(pmf, f0, f1), rtol=1e-12, atol=0)


def test_single_point_matches_expectation_of_products():
    rng = np.random.default_rng(3)
    pmf = _random_atoms(rng, 9, 30)
    g0, g1 = rng.uniform(size=9), rng.uniform(size=9)
    want = _atom_loop(pmf, g0[None, :], g1[None, :])[0]
    assert pmf.expectation_of_products(g0, g1) == pytest.approx(want, rel=1e-14)


def test_zero_factors_give_exact_zeros():
    rng = np.random.default_rng(4)
    pmf = _random_atoms(rng, 7, 50)
    f0 = rng.uniform(size=(3, 7))
    f1 = rng.uniform(size=(3, 7))
    f0[0, 5] = f1[0, 5] = 0.0
    f0[1, :] = 0.0
    out = pmf.expect_products(f0, f1)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(_atom_loop(pmf, f0, f1)[1], rel=1e-14)
    assert out[2] > 0.0


@pytest.mark.parametrize("d", [3, 6, 13])
def test_boundary_points(d):
    rng = np.random.default_rng(d)
    c = GfgmCopula(_random_atoms(rng, d, 25))
    u = rng.uniform(0.1, 0.9, size=(4, d))
    u[0, 1] = 0.0
    u[1, :] = 1.0
    u[1, 2] = 0.4
    u[2, :] = 0.0
    u[3, 0] = 1.0
    vals = cdf(c, u)
    assert vals[0] == 0.0 and vals[2] == 0.0
    assert vals[1] == pytest.approx(0.4, rel=1e-14)
    assert survival(c, u)[3] == pytest.approx(0.0, abs=1e-15)
    assert survival(c, np.zeros(d)) == pytest.approx(1.0, rel=1e-14)
    a0, a1 = _cdf_factors(c, u)
    np.testing.assert_allclose(vals, _atom_loop(c.bernoulli, a0, a1), rtol=1e-14, atol=0)
    upow = _pow_log(u, c.p / (1.0 - c.p))
    b0, b1 = upow / (1.0 - c.p), (1.0 - upow) / c.p
    np.testing.assert_allclose(pdf(c, u), _atom_loop(c.bernoulli, b0, b1), rtol=1e-14, atol=0)


def test_d63_comonotone_cdf_near_underflow():
    p = 1.0 / 3.0
    c = GfgmCopula(comonotonic(np.full(63, p)))
    u = np.full(63, 1e-3)
    val = cdf(c, u)
    assert 1e-170 < val < 1e-150
    assert val == pytest.approx(cdf_epd(p, 63, u), rel=1e-13)

    rng = np.random.default_rng(63)
    c = GfgmCopula(comonotonic(rng.uniform(0.2, 0.5, size=63)))
    a0, a1 = _cdf_factors(c, u[None, :])
    want = _atom_loop(c.bernoulli, a0, a1)[0]
    assert 0.0 < want < 1e-100
    assert cdf(c, u) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("d, n_atoms", [(2, 4), (3, 8), (5, 20), (17, 30), (40, 25)])
def test_tau_matches_double_loop(d, n_atoms):
    c = GfgmCopula(_random_atoms(np.random.default_rng(d), d, n_atoms))
    assert tau(c) == pytest.approx(_tau_double_loop(c), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize(
    "cp",
    [
        end_count_pmf(0.35, 9),
        mixture_count_pmf(MixtureSpec.beta(2.0, 3.0, 8), 8),
        end_count_pmf(0.5, 10),
    ],
    ids=["end9", "beta8", "end10"],
)
def test_tau_matches_weight_class_sum(cp):
    c = GfgmCopula(expand(cp))
    assert tau(c) == pytest.approx(measures_exchangeable(cp).tau, rel=1e-10, abs=1e-13)


def _factor_tables(rng, n, d):
    """Random (n, d) factor pairs in [0, 2), about a fifth of them exactly 0 or 1."""
    f0, f1 = rng.uniform(0.0, 2.0, size=(2, n, d))
    for f in (f0, f1):
        f[rng.random((n, d)) < 0.1] = 0.0
        f[rng.random((n, d)) < 0.1] = 1.0
    return f0, f1


@pytest.mark.parametrize("d", [2, 3, 5, 8, 12])
def test_count_law_matches_expanded_atoms(d):
    rng = np.random.default_rng(500 + d)
    q = rng.dirichlet(np.ones(d + 1))
    q[1] = 0.0  # an empty weight class
    cp = ExchangeableCountPmf(d, q / q.sum())
    f0, f1 = _factor_tables(rng, 60, d)
    f0[0, d - 1] = f1[0, d - 1] = 0.0
    got = cp.expect_products(f0, f1)
    assert got[0] == 0.0
    np.testing.assert_allclose(got, expand(cp).expect_products(f0, f1), rtol=1e-13, atol=0)


@pytest.mark.parametrize("d, extra", [(200, [(0.5, 1.5), (1.0, 1.0)]), (800, [])])
def test_count_law_matches_power_sums(d, extra):
    # constant factor pairs: E = sum_k q_k g1^k g0^(d-k), the orthant power
    # sum; at d = 800 the unscaled class sums of the orthant pairs overflow
    rng = np.random.default_rng(d)
    q = np.zeros(d + 1)
    q[rng.choice(d + 1, size=12, replace=False)] = rng.dirichlet(np.ones(12))
    for cp in (ExchangeableCountPmf(d, q), end_count_pmf(0.05, d), end_count_pmf(0.95, d)):
        g00, g01, g10, g11 = _tau_kernel(cp.p)
        pairs = np.array([*_orthant_kernels(cp.p), (g00, g10), (g01, g11), *extra])
        k = np.arange(d + 1)
        want = np.array([cp.q @ (g1**k * g0 ** (d - k)) for g0, g1 in pairs])
        f0, f1 = (np.repeat(pairs[:, side : side + 1], d, axis=1) for side in (0, 1))
        got = cp.expect_products(f0, f1)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
