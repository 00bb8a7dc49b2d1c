"""One copula over three laws of I: atoms, the count law and independent margins.

The count and independence laws must agree with their atom expansions on
every evaluated quantity, reach dimensions the expansion cannot, and leave
every sampling stream byte for byte that of the expansion.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfgm.bernoulli
import gfgm.exchangeable
from gfgm import (
    ExchangeableCountPmf,
    GfgmCopula,
    InvalidDistributionError,
    MixtureSpec,
    beta_mixture_copula,
    build_copula,
    cdf,
    cdf_epd,
    cdf_natural,
    comonotone_count_pmf,
    complemented,
    end_count_pmf,
    expand,
    independent,
    measures,
    measures_by_quadrature,
    mixture_copula_cdf,
    mixture_count_pmf,
    pdf,
    pmf_to_moments,
    sample,
    survival,
)
from gfgm.association import _tau_kernel
from gfgm.bernoulli import BernoulliPmf, IndependenceLaw, _Law

from conftest import random_exchangeable_count, random_sparse_pmf

MEASURES = ("rho_cL", "rho_cU", "rho_c", "tau")


def _assert_same_copula(c, atoms, pts):
    # the absolute floors cover values that are 0 up to round-off: survival
    # at u_m = 1, and the measures of (near-)independent laws, where the
    # atom route leaves about 3 * 4e-16 at d = 2
    for f in (cdf, pdf, survival):
        np.testing.assert_allclose(f(c, pts), f(atoms, pts), rtol=1e-12, atol=1e-15)
    got, want = measures(c), measures(atoms)
    for name in MEASURES:
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=1e-14)


_margin = st.floats(0.05, 0.95)
_points = st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed))


@st.composite
def _count_laws(draw):
    d = draw(st.integers(2, 10))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=d + 1, max_size=d + 1))
    q = np.asarray(weights) + 1e-3 * np.arange(1, d + 2) % 3  # some mass off both ends
    return ExchangeableCountPmf(d, q / q.sum())


class TestAgreesWithAtoms:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(_count_laws(), _points)
    def test_count_law(self, cp, rng):
        pts = rng.uniform(size=(50, cp.d))
        pts[0, 0], pts[1, -1] = 0.0, 1.0
        _assert_same_copula(GfgmCopula(cp), GfgmCopula(expand(cp)), pts)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.lists(_margin, min_size=2, max_size=10), _points)
    def test_independence_law(self, p, rng):
        pts = rng.uniform(size=(50, len(p)))
        pts[0, 0], pts[1, -1] = 0.0, 1.0
        _assert_same_copula(GfgmCopula.independence(p), GfgmCopula(independent(p)), pts)


class TestBeyondTheAtoms:
    def test_comonotone_count_law_is_epd(self):
        rng = np.random.default_rng(200)
        pts = rng.uniform(0.9, 1.0, size=(40, 200))
        c = GfgmCopula(comonotone_count_pmf(0.3, 200))
        np.testing.assert_allclose(cdf(c, pts), cdf_epd(0.3, 200, pts), rtol=1e-12, atol=0)

    def test_mixture_count_law_is_mixture_cdf(self):
        rng = np.random.default_rng(201)
        spec = MixtureSpec.from_quadrature(np.sort(rng.uniform(0.05, 0.95, 8)), rng.dirichlet(np.ones(8)))
        pts = rng.uniform(0.9, 1.0, size=(40, 200))
        c = GfgmCopula(mixture_count_pmf(spec, 200))
        np.testing.assert_allclose(cdf(c, pts), mixture_copula_cdf(spec, 200, pts), rtol=1e-10, atol=0)

    @pytest.mark.parametrize("d", [40, 100, 300])
    def test_beta_count_law_is_mixture_cdf(self, d):
        # the beta: count law against the moment oracle, whose sums are all >= 0;
        # Beta(2, 3) cancels in the count law's moment route from d ~ 20
        rng = np.random.default_rng(203 + d)
        pts = rng.uniform(0.9, 1.0, size=(20, d))
        for alpha, beta in ((2.0, 3.0), (5.0, 1.5), (0.5, 0.5)):
            want = mixture_copula_cdf(MixtureSpec.beta(alpha, beta, d), d, pts)
            got = cdf(beta_mixture_copula(alpha, beta, d), pts)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_independence_law_is_product(self):
        rng = np.random.default_rng(202)
        c = GfgmCopula.independence(rng.uniform(0.05, 0.95, size=200))
        pts = rng.uniform(0.9, 1.0, size=(40, 200))
        np.testing.assert_allclose(cdf(c, pts), pts.prod(axis=1), rtol=1e-12, atol=0)
        report = measures(c)
        for name in MEASURES:
            assert abs(getattr(report, name)) < 1e-12

    def test_sampling_above_the_atom_range_is_refused(self):
        for c in (GfgmCopula(end_count_pmf(0.4, 25)), GfgmCopula.independence([0.4] * 25)):
            with pytest.raises(InvalidDistributionError, match="sampled through atoms"):
                sample(c, 5, seed=1)

    def test_atom_laws_keep_their_cap(self):
        with pytest.raises(InvalidDistributionError, match="dimension"):
            GfgmCopula.comonotone([0.5] * 64)


class TestSamplingStreams:
    def test_count_law_draws_the_expansion_stream(self):
        rng = np.random.default_rng(300)
        for _ in range(20):
            cp = end_count_pmf(float(rng.uniform(0.05, 0.95)), int(rng.integers(2, 11)))
            for p in (None, np.full(cp.d, cp.p)):
                got = sample(GfgmCopula(cp, p), 200, seed=7).values
                want = sample(GfgmCopula(expand(cp), p), 200, seed=7).values
                assert got.tobytes() == want.tobytes()

    def test_independence_law_draws_the_expansion_stream(self):
        rng = np.random.default_rng(301)
        for d in (2, 5, 9):
            p = rng.uniform(0.05, 0.95, size=d)
            got = sample(GfgmCopula.independence(p), 200, seed=8).values
            want = sample(GfgmCopula(independent(p)), 200, seed=8).values
            assert got.tobytes() == want.tobytes()


def test_specs_evaluate_without_expanding(monkeypatch):
    def refuse(*args):
        raise AssertionError("expanded to atoms")

    monkeypatch.setattr(gfgm.exchangeable, "expand", refuse)
    monkeypatch.setattr(gfgm.bernoulli, "independent", refuse)
    pts = np.full((3, 8), 0.5)
    for c in (
        build_copula(d=8, exchangeable="end:0.4"),
        build_copula(d=8, exchangeable="beta:2,3"),
        build_copula(exchangeable="counts:" + ",".join(["0.1"] * 8) + ",0.2"),
        build_copula(p=np.linspace(0.2, 0.8, 8)),
    ):
        assert np.all(np.isfinite(cdf(c, pts)))
        assert np.isfinite(measures(c).tau)
        with pytest.raises(AssertionError, match="expanded"):
            c.bernoulli
    # the d = 2 quadrature oracle reads the law's 2x2 table, not its atoms
    for c in (build_copula(exchangeable="counts:0.3,0.25,0.45"), build_copula(p=[0.3, 0.8])):
        assert measures_by_quadrature(c).tau == pytest.approx(measures(c).tau, abs=1e-6)


def test_measures_take_the_laws_structure(monkeypatch):
    # a count law with one kernel on every margin: power sums and a sum over
    # its support, never the weight-class sums and their loop over the margins;
    # a dense table: one 2x2 pass per margin, never its n_atoms outcome rows
    def refuse(*args):
        raise AssertionError("generic route")

    rng = np.random.default_rng(1919)
    count = GfgmCopula(ExchangeableCountPmf(300, rng.dirichlet(np.ones(301))))
    dense = GfgmCopula(BernoulliPmf(12, np.arange(1 << 12), rng.dirichlet(np.ones(1 << 12))))
    sparse = GfgmCopula(random_sparse_pmf(rng, 12))
    # a given shape vector that is not constant keeps the count law's outcome rows
    shaped = GfgmCopula(count.law, count.p + np.linspace(0.0, 1e-11, 300))
    want = {c: _Law.pair_sum(c.law, _tau_kernel(c.p)) for c in (count, dense)}
    monkeypatch.setattr(gfgm.exchangeable, "_weight_class_sums", refuse)
    monkeypatch.setattr(BernoulliPmf, "outcomes", property(refuse))
    for c in (count, dense):
        got = measures(c)
        assert np.isfinite([got.rho_cL, got.rho_cU, got.tau]).all()
        assert c.law.pair_sum(_tau_kernel(c.p)) == pytest.approx(want[c], rel=1e-12, abs=0)
    for c in (sparse, shaped):
        with pytest.raises(AssertionError, match="generic route"):
            measures(c)


def test_count_law_outcome_rows_agree_with_the_atoms(monkeypatch):
    # a shape vector that is not exactly constant, or a kernel with a zero
    # value, takes the count law's outcome rows instead of its support sum
    law = beta_mixture_copula(2, 3, 12).law
    p = np.full(12, law.p)
    p[3] += 5e-11
    rows = []
    generic = _Law.pair_sum
    monkeypatch.setattr(_Law, "pair_sum", lambda self, kernel: rows.append(self) or generic(self, kernel))
    got, want = measures(GfgmCopula(law, p)), measures(GfgmCopula(expand(law), p))
    assert rows == [law]
    for name in ("rho_cL", "rho_cU", "tau"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12)
    kernel = (0.0, 0.3, -0.7, 1.1)
    assert law.pair_sum(kernel) == pytest.approx(expand(law).pair_sum(kernel), rel=1e-12)
    assert rows == [law, law]


LAWS = {
    "atoms": lambda rng: gfgm.bernoulli.comonotonic(rng.uniform(0.2, 0.8, size=40)),
    "count": lambda rng: ExchangeableCountPmf(300, rng.dirichlet(np.ones(301))),
    "independence": lambda rng: IndependenceLaw(rng.uniform(0.2, 0.8, size=300)),
}


@pytest.mark.parametrize("name", sorted(LAWS))
def test_chunk_seams_keep_their_bits(name):
    # the shared chunk loop: one call equals its per-chunk calls concatenated
    rng = np.random.default_rng(sum(map(ord, name)))
    law = LAWS[name](rng)
    n = 2 * law._chunk + 1
    f0, f1 = rng.uniform(0.5, 1.5, size=(2, n, law.d))
    pieces = [law.expect_products(f0[s : s + law._chunk], f1[s : s + law._chunk])
              for s in range(0, n, law._chunk)]
    assert len(pieces) == 3
    assert law.expect_products(f0, f1).tobytes() == np.concatenate(pieces).tobytes()


@pytest.mark.parametrize("law", [BernoulliPmf, IndependenceLaw, ExchangeableCountPmf])
def test_laws_share_one_chunk_loop(law):
    # a law supplies its chunk size and one chunk's contraction; the loop is _Law's
    for name in ("_chunk", "_contract", "margins", "outcomes", "moments", "as_atoms"):
        assert name in vars(law), name
    # count and product laws also bound their moments per subset size; atoms go dense
    assert ("size_moments" in vars(law)) == (law is not BernoulliPmf)
    for name in ("_expect_chunks", "expect_products"):
        assert name not in vars(law) and getattr(law, name) is getattr(_Law, name), name


def _moment_laws(rng, d):
    for _ in range(3):
        yield random_exchangeable_count(rng, d)
        yield IndependenceLaw(rng.uniform(0.05, 0.95, size=d))
        yield random_sparse_pmf(rng, d)


@pytest.mark.parametrize("d", [2, 5, 10, 14])
def test_moments_match_the_atom_route(d):
    # mu and lambda of each law against the superset sums of its atoms and of
    # their complement; the per-size bounds against the dense rows by |S|
    rng = np.random.default_rng(1800 + d)
    sizes = gfgm.bernoulli._popcount(np.arange(1 << d))
    for law in _moment_laws(rng, d):
        atoms = law.as_atoms()
        dense = np.stack([law.moments(), law.moments(flipped=True)])
        np.testing.assert_allclose(dense[0], pmf_to_moments(atoms), rtol=0, atol=1e-15)
        np.testing.assert_allclose(dense[1], pmf_to_moments(complemented(atoms)), rtol=0, atol=1e-15)
        if isinstance(law, BernoulliPmf):
            continue
        largest, smallest = law.size_moments
        for k in range(d + 1):
            np.testing.assert_allclose(largest[:, k], dense[:, sizes == k].max(axis=1), rtol=0, atol=1e-15)
            np.testing.assert_allclose(smallest[:, k], dense[:, sizes == k].min(axis=1), rtol=0, atol=1e-15)


@pytest.mark.parametrize("d", [2, 8, 16])
@pytest.mark.parametrize("kind", ["count", "independence"])
def test_natural_form_reads_the_law(monkeypatch, kind, d):
    # nu comes from the law's own moments: no 2^d atom expansion
    rng = np.random.default_rng(1900 + d)
    if kind == "count":
        law = random_exchangeable_count(rng, d)
    else:
        law = IndependenceLaw(rng.uniform(0.05, 0.95, size=d))
    pts = rng.uniform(0.3, 1.0, size=(6, d))
    pts[0, 0], pts[1, -1] = 0.0, 1.0
    want = cdf_natural(GfgmCopula(law.as_atoms()), pts)

    def refuse(self):
        raise AssertionError("expanded to atoms")

    monkeypatch.setattr(type(law), "as_atoms", refuse)
    c = GfgmCopula(law)
    got = cdf_natural(c, pts)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    np.testing.assert_allclose(got, cdf(c, pts), rtol=0, atol=1e-12)
