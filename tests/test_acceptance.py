"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion (a failed assertion marks the criterion FAIL).  Runtime budgets
are asserted where the criterion pins one.
"""

import time

import numpy as np
import pytest
from scipy.optimize import linprog

import golden_tables as golden
from conftest import random_copula, random_exchangeable_count
from gfgm import (
    GfgmCopula,
    beta_mixture_copula,
    cdf,
    cdf_natural,
    check_concordance,
    comonotone_count_pmf,
    empirical_measures,
    end_count_pmf,
    end_pmf,
    expand,
    extremal_count_pmfs,
    fgm_natural_cdf,
    fgm_thetas,
    complemented,
    huang_kotz_cdf,
    max_measures_gfgm_p,
    measures,
    measures_by_quadrature,
    measures_exchangeable,
    min_measures_exchangeable,
    mixture_copula_cdf,
    mixture_count_pmf,
    nu_coefficient,
    pdf,
    sample,
    theta_bounds,
    uniform_ks_statistic,
)
from gfgm.association import gauss_legendre_unit
from gfgm.cli import main
from gfgm.exchangeable import MixtureSpec


def _report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def _table_from_cli(tmp_path, which):
    out = tmp_path / f"{which}.csv"
    assert main(["tables", "--which", which, "--out", str(out)]) == 0
    rows = [
        line.split(",")
        for line in out.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    header = rows[0]
    ds = tuple(int(x) for x in header[1:])
    ps = tuple(float(r[0]) for r in rows[1:])
    grid = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
    return ps, ds, grid


def test_criterion_1_maximal_tables(tmp_path):
    """Tables of maximal rho_cL, rho_cU, rho_c, tau match cell-for-cell."""
    start = time.perf_counter()
    targets = {
        "rhoL-max": golden.RHO_CL_MAX,
        "rhoU-max": golden.RHO_CU_MAX,
        "rhoC-max": golden.RHO_C_MAX,
        "tau-max": golden.TAU_MAX,
    }
    for which, expected in targets.items():
        ps, ds, grid = _table_from_cli(tmp_path, which)
        assert ps == pytest.approx(golden.P_VALUES)
        assert ds == golden.MAX_DS
        assert np.max(np.abs(grid - expected)) <= 5e-5, which
    # spot anchors
    assert max_measures_gfgm_p(0.5, 5).rho_cL == pytest.approx(0.2707, abs=5e-5)
    assert max_measures_gfgm_p(0.9, 10).rho_cU == pytest.approx(0.4216, abs=5e-5)
    assert max_measures_gfgm_p(0.7, 8).rho_c == pytest.approx(0.2038, abs=5e-5)
    assert max_measures_gfgm_p(0.5, 2).tau == pytest.approx(0.2222, abs=5e-5)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"(4 tables, {elapsed:.2f}s)")


def test_criterion_2_minimal_tables(tmp_path):
    """Minimal rho_cL / rho_cU tables, prefactor resolved by the atom oracle."""
    targets = {"rhoL-min": golden.RHO_CL_MIN, "rhoU-min": golden.RHO_CU_MIN}
    for which, expected in targets.items():
        ps, ds, grid = _table_from_cli(tmp_path, which)
        assert ds == golden.MIN_DS
        assert np.max(np.abs(grid - expected)) <= 5e-5, which
    # the closed forms must equal the generic atom-sum oracle on the grid
    from gfgm import rho_cL, rho_cU

    worst = 0.0
    for p in golden.P_VALUES:
        for d in golden.MIN_DS:
            lo, up = min_measures_exchangeable(p, d)
            c = GfgmCopula.from_pmf(end_pmf(p, d))
            worst = max(worst, abs(lo - rho_cL(c)), abs(up - rho_cU(c)))
    assert worst <= 1e-10
    assert min_measures_exchangeable(0.5, 2)[0] == pytest.approx(-0.3333, abs=5e-5)
    assert min_measures_exchangeable(0.4, 3)[1] == pytest.approx(-0.1211, abs=5e-5)
    _report(2, f"(oracle gap {worst:.1e})")


def test_criterion_3_cross_form_equality():
    """|cdf - cdf_natural| <= 1e-12 on 1000 random pairs per dimension."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for d in range(2, 9):
        pairs = 0
        while pairs < 1000:
            c = random_copula(rng, d, sparse=bool(rng.integers(2)))
            pts = rng.uniform(0.0, 1.0, size=(50, d))
            gap = float(np.max(np.abs(cdf(c, pts) - cdf_natural(c, pts))))
            worst = max(worst, gap)
            assert gap <= 1e-12
            pairs += 50
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(3, f"(worst gap {worst:.1e}, {elapsed:.2f}s)")


def test_criterion_4_special_case_reductions():
    """p = 1/2 copulas are classical FGM; equal-margin bivariate is Huang-Kotz."""
    rng = np.random.default_rng(202)
    # FGM reduction, random symmetric-margin pmfs
    worst_fgm = 0.0
    for _ in range(60):
        d = int(rng.integers(2, 6))
        full = (1 << d) - 1
        raw = rng.dirichlet(np.ones(1 << d))
        sym = 0.5 * (raw + raw[[full ^ m for m in range(1 << d)]])
        from gfgm import BernoulliPmf

        pmf = BernoulliPmf(d, np.arange(1 << d, dtype=np.int64), sym)
        c = GfgmCopula.from_pmf(pmf)
        thetas = fgm_thetas(complemented(pmf))
        pts = rng.uniform(0, 1, size=(25, d))
        gap = float(np.max(np.abs(cdf(c, pts) - fgm_natural_cdf(thetas, pts))))
        worst_fgm = max(worst_fgm, gap)
        assert gap <= 1e-12
    # Huang-Kotz reduction over 500 random parameterizations
    worst_hk = 0.0
    for _ in range(500):
        p = rng.uniform(0.1, 0.9)
        lo, hi = theta_bounds(p, p)
        theta = rng.uniform(lo, hi)
        c = GfgmCopula.bivariate(p, p, theta)
        u, v = rng.uniform(0, 1, size=(2, 5))
        gap = float(
            np.max(np.abs(cdf(c, np.column_stack([u, v])) - huang_kotz_cdf(theta, p / (1 - p), u, v)))
        )
        worst_hk = max(worst_hk, gap)
        assert gap <= 1e-14
    _report(4, f"(fgm gap {worst_fgm:.1e}, huang-kotz gap {worst_hk:.1e})")


def test_criterion_5_quadrature_oracle():
    """Closed forms vs direct integral evaluation, 200 random bivariates."""
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(200):
        p1, p2 = rng.uniform(0.05, 0.95, size=2)
        lo, hi = theta_bounds(p1, p2)
        c = GfgmCopula.bivariate(p1, p2, rng.uniform(lo, hi))
        closed = measures(c)
        quad = measures_by_quadrature(c)
        gap = max(
            abs(closed.rho_cL - quad.rho_cL),
            abs(closed.rho_cU - quad.rho_cU),
            abs(closed.tau - quad.tau),
        )
        worst = max(worst, gap)
        assert gap <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(5, f"(worst gap {worst:.1e}, {elapsed:.1f}s)")


def test_criterion_6_copula_validity():
    """Box sums, boundary identities, and unit pdf mass."""
    rng = np.random.default_rng(404)
    # d-increasing box sums
    for d in (2, 3, 4):
        for _ in range(3):
            c = random_copula(rng, d, sparse=bool(rng.integers(2)))
            n_boxes = 10_000
            lo = rng.uniform(0, 1, size=(n_boxes, d))
            hi = lo + rng.uniform(0, 1, size=(n_boxes, d)) * (1 - lo)
            total = np.zeros(n_boxes)
            for corner in range(1 << d):
                pick = np.array([(corner >> j) & 1 for j in range(d)], dtype=bool)
                pts = np.where(pick[None, :], hi, lo)
                total += (-1.0) ** (d - int(pick.sum())) * cdf(c, pts)
            assert float(np.min(total)) >= -1e-12
    # grounding and uniform-margin boundaries
    for d in (2, 4, 6):
        c = random_copula(rng, d, sparse=d > 4)
        for _ in range(20):
            u = rng.uniform(0, 1, size=d)
            u[int(rng.integers(d))] = 0.0
            assert abs(cdf(c, u)) <= 1e-12
            j = int(rng.integers(d))
            v = rng.uniform()
            w = np.ones(d)
            w[j] = v
            assert abs(cdf(c, w) - v) <= 1e-12
    # 2-D pdf integrates to one
    x, w2 = gauss_legendre_unit(96)
    uu, vv = np.meshgrid(x, x, indexing="ij")
    pts = np.column_stack([uu.ravel(), vv.ravel()])
    weights = np.outer(w2, w2).ravel()
    for _ in range(10):
        c = random_copula(rng, 2)
        mass = float(weights @ pdf(c, pts))
        assert abs(mass - 1.0) <= 1e-8
    _report(6)


def test_criterion_7_sampler_correctness():
    """Monte Carlo recovery of rho_c and marginal uniformity at the 1% level."""
    start = time.perf_counter()
    c = GfgmCopula.comonotone([0.5, 0.5])
    batch = sample(c, 200_000, seed=20240917)
    report = empirical_measures(batch)
    target = max_measures_gfgm_p(0.5, 2).rho_c
    assert target == pytest.approx(0.3333, abs=5e-5)
    gap = abs(report.rho_c - target)
    assert gap <= 3 * report.stderr["rho_c"]
    # marginal KS below the 1% critical value for 10 copulas up to d = 10
    rng = np.random.default_rng(505)
    copulas = [
        GfgmCopula.independence([0.3, 0.8]),
        GfgmCopula.comonotone([0.2] * 4),
        GfgmCopula.comonotone([0.9] * 10),
        GfgmCopula.from_pmf(end_pmf(0.45, 6)),
        GfgmCopula.from_pmf(end_pmf(0.5, 8)),
        beta_mixture_copula(2.0, 3.0, 5),
        beta_mixture_copula(0.5, 0.5, 3),
        GfgmCopula.bivariate(0.15, 0.85, 0.1),
        random_copula(rng, 7, sparse=True),
        GfgmCopula.from_pmf(expand(random_exchangeable_count(rng, 10))),
    ]
    n = 100_000
    crit = 1.63 / np.sqrt(n)
    for k, cop in enumerate(copulas):
        b = sample(cop, n, seed=600 + k)
        for j in range(cop.d):
            assert uniform_ks_statistic(b.values[:, j]) < crit
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(7, f"(rho_c gap {gap:.2e} <= 3se={3 * report.stderr['rho_c']:.2e}, {elapsed:.1f}s)")


def test_criterion_8_ordering_consequences():
    """Monotone theta sweeps, orthant sign patterns, END <= random <= EPD."""
    from gfgm import rho_cL, rho_cU

    # theta sweep: all four measures nondecreasing (d = 2)
    for p1, p2 in ((0.5, 0.5), (0.25, 0.7), (0.8, 0.6)):
        lo, hi = theta_bounds(p1, p2)
        prev = None
        for theta in np.linspace(lo, hi, 50):
            r = measures(GfgmCopula.bivariate(p1, p2, theta))
            cur = np.array([r.rho_cL, r.rho_cU, r.rho_c, r.tau])
            if prev is not None:
                assert np.all(cur >= prev - 1e-10)
            prev = cur
    # orthant asymmetry of the comonotone member
    for d in range(2, 21):
        low, mid, high = (max_measures_gfgm_p(p, d) for p in (0.3, 0.5, 0.7))
        assert abs(mid.rho_cL - mid.rho_cU) <= 1e-10
        if d > 2:
            assert low.rho_cL > low.rho_cU - 1e-10
            assert high.rho_cL < high.rho_cU + 1e-10
    # measure sandwich over 50 random exchangeable pmfs
    rng = np.random.default_rng(606)
    for _ in range(50):
        d = int(rng.integers(3, 9))
        cp = random_exchangeable_count(rng, d)
        c_mid = GfgmCopula.from_pmf(expand(cp))
        c_low = GfgmCopula.from_pmf(end_pmf(cp.p, d))
        c_high = GfgmCopula.from_pmf(expand(comonotone_count_pmf(cp.p, d)))
        assert rho_cL(c_low) <= rho_cL(c_mid) + 1e-10 <= rho_cL(c_high) + 2e-10
        assert rho_cU(c_low) <= rho_cU(c_mid) + 1e-10 <= rho_cU(c_high) + 2e-10
    # grid-level concordance agrees for one spot pair
    res = check_concordance(
        GfgmCopula.independence([0.4] * 3), GfgmCopula.comonotone([0.4] * 3)
    )
    assert res.verdict == "c_ordered" and res.cl_forward
    _report(8)


def test_criterion_9_exchangeable_machinery():
    """Extremal reconstruction, Beta mixture coefficient, two-path cdf."""
    rng = np.random.default_rng(707)
    # convex reconstruction for 50 random targets, d <= 6
    worst_resid = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 7))
        target = random_exchangeable_count(rng, d)
        basis = np.stack([cp.q for cp in extremal_count_pmfs(target.p, d)], axis=1)
        res = linprog(
            c=np.zeros(basis.shape[1]),
            A_eq=np.vstack([basis, np.ones((1, basis.shape[1]))]),
            b_eq=np.concatenate([target.q, [1.0]]),
            bounds=[(0, None)] * basis.shape[1],
            method="highs",
        )
        assert res.success
        resid = float(np.max(np.abs(basis @ res.x - target.q)))
        worst_resid = max(worst_resid, resid)
        assert resid <= 1e-10
    # Beta(1,1) pairwise coefficient
    c_beta = beta_mixture_copula(1.0, 1.0, 2)
    assert nu_coefficient(c_beta.bernoulli, [0, 1]) == pytest.approx(1 / 3, abs=1e-12)
    # two-path cdf equality
    worst_gap = 0.0
    for d in (2, 3, 5):
        alpha, beta = rng.uniform(0.5, 5.0, size=2)
        spec = MixtureSpec.beta(alpha, beta, d)
        c = GfgmCopula.from_pmf(expand(mixture_count_pmf(spec, d)))
        pts = rng.uniform(0, 1, size=(40, d))
        gap = float(np.max(np.abs(mixture_copula_cdf(spec, d, pts) - cdf(c, pts))))
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-10
    _report(9, f"(reconstruction resid {worst_resid:.1e}, two-path gap {worst_gap:.1e})")


def test_criterion_10_count_and_independence_laws_at_scale(tmp_path):
    """Exchangeable and independence specs evaluate without 2^d atoms, each under 2 s."""
    runs = {
        "end-d20": ["--d", "20", "--exchangeable", "end:0.4"],
        "beta-d300": ["--d", "300", "--exchangeable", "beta:2,3"],
        "independence-d40": ["--p", ",".join(["0.3"] * 40)],
    }
    worst = 0.0
    for name, args in runs.items():
        out = tmp_path / f"{name}.csv"
        start = time.perf_counter()
        assert main(["measures", *args, "--out", str(out)]) == 0
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert elapsed < 2.0, name
        rows = {r.split(",")[0]: float(r.split(",")[4]) for r in out.read_text().splitlines()[1:]}
        if name == "end-d20":
            want = measures_exchangeable(end_count_pmf(0.4, 20))
            assert rows == {k: float(f"{getattr(want, k):.12g}") for k in rows}
        if name == "independence-d40":
            assert all(abs(v) < 1e-12 for v in rows.values())
    _report(10, f"(slowest {worst:.3f}s)")


def test_criterion_11_order_check_at_d6(tmp_path):
    """`gfgm order-check` at the largest supported d, END below comonotone, under 0.2 s."""
    specs = {}
    for name in ("end", "comonotone"):
        specs[name] = tmp_path / f"{name}.spec"
        specs[name].write_text(f"d=6\nexchangeable={name}:0.45\n")
    out = tmp_path / "order.csv"
    start = time.perf_counter()
    assert main(["order-check", "--spec1", str(specs["end"]), "--spec2",
                 str(specs["comonotone"]), "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    assert out.read_text().splitlines()[1] == "1,0,1,0,c_ordered"
    assert elapsed < 0.2
    _report(11, f"({elapsed:.3f}s)")


def test_criterion_12_order_check_at_d200(tmp_path):
    """`gfgm order-check` of count laws at d = 200, END below comonotone, under 0.1 s."""
    specs = {}
    for name in ("end", "comonotone"):
        specs[name] = tmp_path / f"{name}.spec"
        specs[name].write_text(f"d=200\nexchangeable={name}:0.4\n")
    out = tmp_path / "order.csv"
    start = time.perf_counter()
    assert main(["order-check", "--spec1", str(specs["end"]), "--spec2",
                 str(specs["comonotone"]), "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    assert out.read_text().splitlines()[1] == "1,0,1,0,c_ordered"
    assert elapsed < 0.1
    _report(12, f"({elapsed:.3f}s)")
