"""The atom and count-law contractions E[prod_j f_j(I_j)] against direct sums."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    from_theta_bivariate,
    independent,
    measures_exchangeable,
    mixture_count_pmf,
    pdf,
    survival,
    tau,
    theta_bounds,
)
from gfgm.association import _orthant_kernels, _tau_kernel
from gfgm.bernoulli import _FOLD_ROWS, CHUNK_ELEMENTS, IndependenceLaw, _chain_products
from gfgm.copula import _cdf_factors, _pdf_factors, _pow_log, _survival_factors


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


def _full_support(rng, d):
    return BernoulliPmf(d, np.arange(1 << d), rng.dirichlet(np.ones(1 << d)))


def _per_high_prefix(rng, d, k):
    """Pmf with k atoms on each of 60 random prefixes above the lowest 4-bit block."""
    high = rng.choice(1 << (d - 4), size=60, replace=False).astype(np.int64)
    low = np.array([rng.choice(16, size=k, replace=False) for _ in high])
    masks = ((high[:, None] << 4) | low).ravel()
    return BernoulliPmf(d, masks, rng.dirichlet(np.ones(masks.size)))


def _expanded(rng, d):
    """Exchangeable member with a full-support count pmf, as the benchmarks build it."""
    return expand(ExchangeableCountPmf(d, rng.dirichlet(np.ones(d + 1))))


def _comonotone(d, ties=1):
    """Comonotone pmf at dimension d with random margins, ``ties`` margins to a threshold."""
    return lambda rng: comonotonic(np.repeat(rng.uniform(0.2, 0.8, size=-(-d // ties)), ties)[:d])


def _random_chain(rng, d, n_atoms):
    """Pmf on a random nested chain of n_atoms masks from 0 to all ones, Dirichlet masses."""
    order = rng.permutation(d)
    cuts = np.r_[0, np.sort(rng.choice(np.arange(1, d), size=n_atoms - 2, replace=False)), d]
    masks = [sum(1 << int(j) for j in order[:c]) for c in cuts]
    return BernoulliPmf(d, masks, rng.dirichlet(np.ones(n_atoms)))


# (name, pmf builder, the schedule the plan picks); the benchmark shapes are
# full-d9, full-d10, sparse-d30, comonotone-d63, bivariate and independence-d3/d4
SCHEDULES = [
    ("full-d5", lambda rng: _full_support(rng, 5), "grouped"),
    ("full-d9", lambda rng: _expanded(rng, 9), "grouped"),
    ("full-d10", lambda rng: _expanded(rng, 10), "grouped"),
    ("full-d12", lambda rng: _full_support(rng, 12), "grouped"),
    ("end-d14", lambda rng: expand(end_count_pmf(6.5 / 14, 14)), "grouped"),
    ("triples-d31", lambda rng: _per_high_prefix(rng, 31, 3), "grouped"),
    ("pairs-d63", lambda rng: _per_high_prefix(rng, 63, 2), "grouped"),
    ("sparse-d17", lambda rng: _random_atoms(rng, 17, 40), "per-atom"),
    ("sparse-d30", lambda rng: _random_atoms(rng, 30, 256), "per-atom"),
    ("sparse-d31", lambda rng: _random_atoms(rng, 31, 40), "per-atom"),
    ("sparse-d63", lambda rng: _random_atoms(rng, 63, 40), "per-atom"),
    ("comonotone-d3", _comonotone(3), "chain"),
    ("comonotone-d10", _comonotone(10), "chain"),
    ("comonotone-equal-d5", lambda rng: comonotonic(np.full(5, 0.4)), "chain"),  # 2 atoms
    ("comonotone-equal-d63", lambda rng: comonotonic(np.full(63, 0.3)), "chain"),  # 2 atoms
    ("comonotone-d16", _comonotone(16), "chain"),
    ("comonotone-d30", _comonotone(30), "chain"),
    ("comonotone-d63", _comonotone(63), "chain"),
    ("comonotone-ties-d30", _comonotone(30, ties=2), "chain"),  # atoms switch 2 margins on
    ("chain-d40", lambda rng: _random_chain(rng, 40, 21), "chain"),
    ("bivariate", lambda rng: from_theta_bivariate(0.3, 0.6, 0.4), "per-atom"),
    # 00, 10 and 11: the atom 01 has mass (1 - 0.5) 0.25 - 0.25 0.5 = 0 exactly
    ("bivariate-upper", lambda rng: from_theta_bivariate(0.25, 0.5, theta_bounds(0.25, 0.5)[1]), "chain"),
    ("independence-d3", lambda rng: independent(rng.uniform(0.2, 0.8, size=3)), "per-atom"),
    ("independence-d4", lambda rng: independent(rng.uniform(0.2, 0.8, size=4)), "per-atom"),
]


# (the name predates the chain schedule; every schedule is checked here)
@pytest.mark.parametrize("name, build, schedule", SCHEDULES, ids=[s[0] for s in SCHEDULES])
def test_both_schedules_match_atom_loop(name, build, schedule):
    rng = np.random.default_rng(sum(map(ord, name)))
    pmf = build(rng)
    plan = pmf._block_rows
    assert plan.schedule == schedule
    d, n = pmf.d, 3 * plan.chunk + 5  # three whole chunks and a short one
    f0, f1 = rng.uniform(0.5, 1.5, size=(2, n, d))
    f0[::5, 0] = 0.0
    f1[::7, d - 1] = 0.0
    f0[::11, d - 1] = f1[::11, d - 1] = 0.0  # every atom's product is 0
    got = pmf.expect_products(f0, f1)
    assert np.all(got[::11] == 0.0)
    np.testing.assert_allclose(got, _atom_loop(pmf, f0, f1), rtol=1e-13, atol=0)


@pytest.mark.parametrize("d", [2, 4, 10, 16, 30, 63])
def test_chain_at_the_margin_domain_ends(d):
    # margins of 1e-11 and 1 - 1e-11 give the chain's end atoms masses of
    # 1e-11 and factor pairs with exact zeros; points near 0 take the cdf down
    # to about 1e-140, normal floats well above underflow.  cdf, pdf and
    # survival keep the per-atom sum's digits and its zeros
    rng = np.random.default_rng(1100 + d)
    p = rng.uniform(0.2, 0.8, size=d)
    p[0], p[d - 1] = 1e-11, 1.0 - 1e-11
    c = GfgmCopula(comonotonic(p))
    assert c.law._block_rows.schedule == "chain"
    pts = rng.uniform(size=(300, d))
    pts[::3] = 10.0 ** -rng.uniform(2, 200 / d, size=(100, d))
    pts[::5, 1] = 0.0
    pts[::7, 0] = 1.0
    for evaluate, factors in ((cdf, _cdf_factors), (pdf, _pdf_factors), (survival, _survival_factors)):
        got, want = evaluate(c, pts), _atom_loop(c.law, *factors(c, pts))
        assert np.isfinite(got).all()
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        assert np.min(want[want > 0.0]) > 1e-300
    low = cdf(c, pts)
    assert np.any(low == 0.0) and np.min(low[low > 0.0]) < 1e-100


def _chain_with_runs(rng, d, run):
    """Pmf on a random chain whose atoms' counts c, and so d - c, step by ``run`` + 1 from each end."""
    half = np.arange(0, d // 2 + 1, run + 1)
    counts = np.union1d(half, d - half)
    order = rng.permutation(d)
    masks = [sum(1 << int(j) for j in order[:c]) for c in counts]
    weights = rng.uniform(0.1, 1.0, size=counts.size)
    return BernoulliPmf(d, masks, weights / weights.sum())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    d=st.integers(2, 63),
    run=st.sampled_from([1, 2, _FOLD_ROWS, None]),  # None: d - 1, the 2-atom chain
    chunks=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_chains_keep_their_bits_where_runs_are_folded(d, run, chunks, seed):
    # rows that atoms read are formed by a left fold over the margins, one
    # reduce per long run of rows that no atom reads; either way bit for bit
    rng = np.random.default_rng(seed)
    pmf = _chain_with_runs(rng, d, d - 1 if run is None else run)
    plan, counts = pmf._block_rows, pmf.bits.sum(axis=1).astype(int)
    assert plan.schedule == "chain"
    gaps = np.diff(np.union1d(counts, d - counts)) - 1  # rows no atom reads between two it reads
    assert any(c - a > 1 for a, c in plan.scan) == any(gaps >= _FOLD_ROWS)
    n = (chunks - 1) * plan.chunk + 5
    f0, f1 = rng.uniform(0.5, 1.5, size=(2, n, d))
    f0[::5, 0] = 0.0
    f1[::7, d - 1] = 0.0
    f0[::11, d - 1] = f1[::11, d - 1] = 0.0  # every atom's product is 0
    got, want = pmf.expect_products(f0, f1), _atom_loop(pmf, f0, f1)
    assert np.all(got[::11] == 0.0)
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    table = _chain_products(f0, f1, plan.order, plan.scan).reshape(d + 1, 2, n)
    on, off = np.ones((d + 1, n)), np.ones((d + 1, n))
    for c in range(1, d + 1):
        on[c] = on[c - 1] * f1[:, plan.order[c - 1]]
        off[c] = off[c - 1] * f0[:, plan.order[d - c]]
    assert np.array_equal(table[counts, 0], on[counts])
    assert np.array_equal(table[d - counts, 1], off[d - counts])


# (law builder, points): about 1.3M point values each, 10 MB allocated
# before tracing; an unchunked count law would hold several (n, d+1) tables
MEMORY_LAWS = {
    "comonotone-d63": (lambda rng: comonotonic(rng.uniform(0.2, 0.8, size=63)), 20000),
    "count-d300": (lambda rng: ExchangeableCountPmf(300, rng.dirichlet(np.ones(301))), 4200),
    "independence-d300": (lambda rng: IndependenceLaw(rng.uniform(0.2, 0.8, size=300)), 4200),
}
MEMORY_CASES = [
    pytest.param(f, law, id=f.__name__ if law == "comonotone-d63" else f"{f.__name__}-{law}")
    for law in MEMORY_LAWS
    for f in (cdf, pdf, survival)
]


@pytest.mark.parametrize("evaluate, law", MEMORY_CASES)
def test_evaluation_memory_does_not_grow_with_points(evaluate, law):
    rng = np.random.default_rng(20000)
    build, n = MEMORY_LAWS[law]
    c = GfgmCopula(build(rng))
    pts = rng.uniform(size=(n, c.d))
    evaluate(c, pts[:1])  # builds the contraction plan
    tracemalloc.start()
    try:
        evaluate(c, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000


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
    assert out[1] == pytest.approx(_atom_loop(pmf, f0, f1)[1], rel=1e-14, abs=0)
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
    assert val == pytest.approx(cdf_epd(p, 63, u), rel=1e-13, abs=0)

    rng = np.random.default_rng(63)
    c = GfgmCopula(comonotonic(rng.uniform(0.2, 0.5, size=63)))
    a0, a1 = _cdf_factors(c, u[None, :])
    want = _atom_loop(c.bernoulli, a0, a1)[0]
    assert 0.0 < want < 1e-100
    assert cdf(c, u) == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize(
    "d, n_atoms", [(2, 4), (3, 8), (5, 20), (17, 30), (40, 25), (8, 256), (10, 1024)]
)
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


@pytest.mark.parametrize("d, extra", [(200, [(0.5, 1.5), (1.0, 1.0)]), (800, []), (800, [(0.5, 1.5)])])
def test_count_law_matches_power_sums(d, extra):
    # constant factor pairs: E = sum_k q_k g1^k g0^(d-k), the orthant power
    # sum; at d = 800 the unscaled class sums of the orthant pairs overflow,
    # and scaled ones lost (0.5, 1.5) on END(0.05), 1e-362 below the largest class
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


def _rational_pmfs():
    """Random sparse d=30, comonotone d=63 and bivariate pmfs, all with rational masses."""
    rng = np.random.default_rng(830)
    masks = np.unique(rng.integers(0, 1 << 30, size=200))
    weights = rng.integers(1, 64, size=masks.size).astype(float)
    return {
        "sparse-d30": BernoulliPmf(30, masks, weights / weights.sum()),
        "comonotone-d63": comonotonic(np.arange(1, 64) / 64.0),
        "bivariate": from_theta_bivariate(0.25, 0.625, 0.5),
    }


# SHA-256 of float64 bytes.  sparse-d30 and bivariate stay on the per-atom
# schedule, and their digests were recorded before the contraction was split
# into schedules and cdf/pdf/survival began to compute factors one chunk at a
# time.  comonotone-d63, 64 nested atoms, takes the chain schedule; its digests
# were re-recorded when that schedule was added.  Every input is a multiple of
# 1/64 and _pow_log is replaced by u * sqrt(u) (correctly rounded), so the
# platform's libm does not enter.  n spans several contraction chunks.
# Layer: the BLAS kernel (the per-atom weights @ acc; the chain's last sum,
# probs @ prod, one gemv); _pow_log is replaced, so no SIMD exp/log.
UNGROUPED_DIGESTS = {
    ("sparse-d30", 1000): (
        "228d067040556df5e7ad5938dc5b996b71a7c073c59b760a3982d1ba365e2c30",
        "7fc6513ffef0116e9d8b396dc93c4e9b5e4469f709dec8754bfd0fd43dc1f5a6",
        "d34e353af337d4751dec35285191518cdd1ca34aa366325624f6c6988ef9a25f",
        "2604aeebdcf8de2691a23c3af5559358b44b9befa0778e927e604cde33425d0b",
    ),
    ("comonotone-d63", 1000): (
        "8659070a7c2038e0005168e2961a1cc2b4f38ba3c1c5627b7c68f675c5cb2cae",
        "509ae090f2554e4468845bb7454098109fb9b09338ed385cbd8c961a39eb66a2",
        "758a1b03484116564d706e8d20cc4946d445a21e857fc631cd302b14ec14ae5c",
        "64f49ae09649e533717630ce079ac91090da70162ac72ed43fdb63776deb988b",
    ),
    ("bivariate", 9000): (
        "e9bc8d83521a62b0016ae68445aa800f031072d9eb0f2d72d2f1ccd1a684f613",
        "5785a54619ed5f6077d5abadf52f0f4895e9ba31be21d02b1005c94eba021b4e",
        "b39db68702f5f641a38abbe9f9243e5d49589797a57756ef4dcbbc83139e3d3d",
        "9425fdfa25a4f843fbe4e09bf8b2ea531286edfc6de4b5d326b1970e2789a491",
    ),
}


@pytest.mark.parametrize("name, n", sorted(UNGROUPED_DIGESTS))
def test_ungrouped_values_keep_their_bits(monkeypatch, name, n):
    monkeypatch.setattr("gfgm.copula._pow_log", lambda u, expo: u * np.sqrt(u))
    pmf = _rational_pmfs()[name]
    d = pmf.d
    k = np.arange(n * d).reshape(n, d)
    f0, f1 = (k * 37 % 129) / 64.0, (k * 53 % 129) / 64.0  # in [0, 2], exact zeros
    pts = (k * 7 % 64 + 1) / 64.0
    pts[::7, 1] = 0.0  # some rows on the boundary
    c = GfgmCopula(pmf)
    values = [pmf.expect_products(f0, f1), cdf(c, pts), pdf(c, pts), survival(c, pts)]
    got = tuple(hashlib.sha256(v.tobytes()).hexdigest() for v in values)
    assert got == UNGROUPED_DIGESTS[name, n]
