"""Seeded inputs, timed operations and output checks of the workloads.

A workload is one cycle of operations (``Op``).  ``build`` makes every input
from the workload seed, writes the generated pmf files and points to a
temporary directory, and returns the cycle.  Each op's ``run`` is the timed
call into gfgm; it looks the gfgm function up through its module at call
time, so that the traced run sees the wrappers installed by ``spans.py``.
Each op's ``check`` runs outside the timed region and raises ``CheckFailed``
when the output is wrong.  Oracles are computed once per run, on the first
check, and reused by every later op of the same kind.

The oracles written here (``atom_sum``, ``atom_measures``,
``mixing_law_measures``, ``model_stderr``) follow from the stochastic
representation U_m = U0_m^(1-p_m) U1_m^(I_m) alone and share no code with
gfgm's contractions.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import gfgm
import gfgm.association
import gfgm.cli
import gfgm.copula
import gfgm.exchangeable
import gfgm.sampling


class CheckFailed(Exception):
    """An op's output disagreed with its oracle."""


@dataclass
class Op:
    name: str
    items: int
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass(frozen=True)
class Workload:
    item: str
    sizes: tuple[str, ...]
    build: Callable[[np.random.Generator, str], list]


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(got, want, atol: float, rtol: float = 0.0) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= atol + rtol * np.abs(want))
    )


def _once(make: Callable[[], Any]) -> Callable[[], Any]:
    """Memoise a zero-argument oracle for the life of one run."""
    box: list = []

    def get():
        if not box:
            box.append(make())
        return box[0]

    return get


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def sparse_pmf(rng: np.random.Generator, d: int, n_atoms: int) -> gfgm.BernoulliPmf:
    """Random pmf on ``n_atoms`` distinct outcome masks of dimension d."""
    masks = rng.choice(1 << d, size=n_atoms, replace=False)
    return gfgm.BernoulliPmf(d, masks, rng.dirichlet(np.ones(n_atoms)))


def expanded_exchangeable(rng: np.random.Generator, d: int) -> gfgm.GfgmCopula:
    """Exchangeable member with a full-support count pmf, expanded to 2^d atoms."""
    cp = gfgm.ExchangeableCountPmf(d, rng.dirichlet(np.ones(d + 1)))
    return gfgm.GfgmCopula(gfgm.expand(cp))


def bivariate_params(rng: np.random.Generator) -> tuple[float, float, float]:
    p1, p2 = rng.uniform(0.2, 0.8, size=2)
    lo, hi = gfgm.theta_bounds(p1, p2)
    return float(p1), float(p2), float(rng.uniform(0.9 * lo, 0.9 * hi))


def _save_points(tmp: str, name: str, pts: np.ndarray) -> np.ndarray:
    path = os.path.join(tmp, name + ".npy")
    np.save(path, pts)
    return np.load(path)


# ---------------------------------------------------------------------------
# Oracles from the stochastic representation
# ---------------------------------------------------------------------------

def atom_sum(pmf: gfgm.BernoulliPmf, f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """E over atoms of prod_m (f1 if I_m else f0), one atom at a time."""
    out = np.zeros(f0.shape[0])
    for mask, prob in zip(pmf.masks.tolist(), pmf.probs.tolist()):
        on = np.array([(mask >> m) & 1 for m in range(pmf.d)], dtype=bool)
        out += prob * np.prod(np.where(on, f1, f0), axis=1)
    return out


def cdf_factors(p: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pr(U_m <= u | I_m = 0) and Pr(U_m <= u | I_m = 1)."""
    a0 = u ** (1.0 / (1.0 - p))
    return a0, (u - (1.0 - p) * a0) / p


def pdf_factors(p: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conditional densities of U_m given I_m = 0 and I_m = 1."""
    up = u ** (p / (1.0 - p))
    return up / (1.0 - p), (1.0 - up) / p


def conditional_moments(p):
    """E[U | I] and E[U^2 | I] for I = 0, 1 (from U0^(1-p) U1^I)."""
    m1 = (1.0 / (2.0 - p), 1.0 / (2.0 * (2.0 - p)))
    m2 = (1.0 / (3.0 - 2.0 * p), 1.0 / (3.0 * (3.0 - 2.0 * p)))
    return m1, m2


def concordance_kernel(p) -> np.ndarray:
    """G[i, j] = Pr(U'_m <= U_m | I'_m = i, I_m = j) for independent copies.

    With X = -log U = (1-p) E0 + I E1 for standard exponentials E0, E1, each
    entry is an exponential-race probability; e.g. G[0, 1] = (1-p)/(2(2-p)).
    """
    p = np.asarray(p, dtype=float)
    half = np.full(p.shape, 0.5)
    g10 = (3.0 - p) / (2.0 * (2.0 - p))
    g01 = (1.0 - p) / (2.0 * (2.0 - p))
    return np.array([[half, g01], [g10, half]])


def _prefactor(d: int) -> float:
    return (d + 1) / (2.0**d - d - 1.0)


def _from_expectations(d: int, e_lo: float, e_up: float, e_cc: float) -> dict:
    """The four measures from 2^d E[prod(1-U)], 2^d E[prod U] and 2^d int C dC."""
    lo = _prefactor(d) * (e_lo - 1.0)
    up = _prefactor(d) * (e_up - 1.0)
    tau = (e_cc - 1.0) / (2.0 ** (d - 1) - 1.0)
    return {"rho_cL": lo, "rho_cU": up, "rho_c": 0.5 * (lo + up), "tau": tau}


def atom_measures(c: gfgm.GfgmCopula) -> dict:
    """Measures by plain sums over atoms and atom pairs."""
    pmf, p = c.bernoulli, c.p
    (e0, e1), _ = conditional_moments(p)
    on = ((pmf.masks[:, None] >> np.arange(c.d)[None, :]) & 1).astype(bool)
    lo = pmf.probs @ np.prod(np.where(on, 2.0 * (1.0 - e1), 2.0 * (1.0 - e0)), axis=1)
    up = pmf.probs @ np.prod(np.where(on, 2.0 * e1, 2.0 * e0), axis=1)
    g2 = 2.0 * concordance_kernel(p)
    bits, margins = on.astype(int), np.arange(c.d)
    # one atom pair row at a time, so the oracle adds little to peak memory
    cc = sum(
        prob * (pmf.probs @ np.prod(g2[row, bits, margins], axis=1))
        for prob, row in zip(pmf.probs, bits)
    )
    return _from_expectations(c.d, float(lo), float(up), float(cc))


def mixing_law_measures(nodes: np.ndarray, weights: np.ndarray, d: int) -> dict:
    """Measures of a de Finetti mixture: given Lambda, the I_m are iid Bernoulli."""
    p = float(weights @ nodes)
    (e0, e1), _ = conditional_moments(p)
    lo = weights @ (2.0 * ((1.0 - nodes) * (1.0 - e0) + nodes * (1.0 - e1))) ** d
    up = weights @ (2.0 * ((1.0 - nodes) * e0 + nodes * e1)) ** d
    g = concordance_kernel(p)
    law = np.stack([1.0 - nodes, nodes], axis=1)  # Pr(I = i | Lambda = node)
    per_margin = 2.0 * np.einsum("ai,ij,bj->ab", law, g, law)
    cc = weights @ per_margin**d @ weights
    return _from_expectations(d, float(lo), float(up), float(cc))


def model_stderr(c: gfgm.GfgmCopula, tau: float, n: int) -> dict:
    """Standard errors the closed form implies for the plug-in estimators.

    ``empirical_measures`` estimates the orthant rhos from means of
    prod(1-U) and prod U over n rows, and tau from the share of m = n//2
    disjoint row pairs that are concordant.  At large d these are rare-event
    means: the batch-means stderr can be far below the true one, and is 0
    for tau when no block holds a concordant pair.
    """
    d, pmf = c.d, c.bernoulli
    (e0, e1), (s0, s1) = conditional_moments(c.p)

    def mean_se(g0, g1, h0, h1):
        mean = pmf.expectation_of_products(g0, g1)
        second = pmf.expectation_of_products(h0, h1)
        return _prefactor(d) * 2.0**d * math.sqrt(max(second - mean * mean, 0.0) / n)

    se_up = mean_se(e0, e1, s0, s1)
    se_lo = mean_se(1.0 - e0, 1.0 - e1, 1.0 - 2.0 * e0 + s0, 1.0 - 2.0 * e1 + s1)
    share = (tau * (2.0 ** (d - 1) - 1.0) + 1.0) / 2.0**d
    se_tau = 2.0**d / (2.0 ** (d - 1) - 1.0) * math.sqrt(share * (1.0 - share) / (n // 2))
    return {"rho_cL": se_lo, "rho_cU": se_up, "rho_c": 0.5 * (se_lo + se_up), "tau": se_tau}


def _report_dict(report) -> dict:
    return {k: float(getattr(report, k)) for k in ("rho_cL", "rho_cU", "rho_c", "tau")}


# ---------------------------------------------------------------------------
# cli_csv
# ---------------------------------------------------------------------------

CLI_N = 4000
GRID_RESOLUTION = 101


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        head = [fh.readline().rstrip("\n"), fh.readline().rstrip("\n")]
        rows = [[float(x) for x in row] for row in csv.reader(fh)]
    return head, np.array(rows)


def _cli_op(name: str, argv: list, out: str, items: int, verify: Callable) -> Op:
    """One ``gfgm.cli.main`` call; later outputs must equal the first verified one."""
    verified: list[bytes] = []

    def check(code):
        _expect(code == 0, f"{name}: exit code {code}")
        with open(out, "rb") as fh:
            data = fh.read()
        if not verified:
            verify()
            verified.append(data)
        _expect(data == verified[0], f"{name}: output differs from the verified run")

    return Op(name, items, lambda: gfgm.cli.main(argv), check)


def _sample_op(name, copula_args, c: gfgm.GfgmCopula, seed: int, out: str) -> Op:
    argv = ["sample", *copula_args, "--n", str(CLI_N), "--seed", str(seed), "--out", out]

    def verify():
        head, values = _read_csv(out)
        want = gfgm.sample(c, CLI_N, seed)
        _expect(head[0] == f"# seed={seed} generator={want.generator_id}", f"{name}: header")
        _expect(head[1] == ",".join(f"u{j + 1}" for j in range(c.d)), f"{name}: columns")
        _expect(
            values.shape == want.values.shape and np.array_equal(values, want.values),
            f"{name}: CSV does not parse back bit-for-bit to gfgm.sample",
        )

    return _cli_op(name, argv, out, CLI_N * c.d, verify)


def build_cli_csv(rng: np.random.Generator, tmp: str) -> list:
    p_end = float(rng.uniform(0.2, 0.8))
    pmf30 = sparse_pmf(rng, 30, 256)
    pmf_path = os.path.join(tmp, "pmf30.txt")
    gfgm.save_pmf_file(pmf30, pmf_path)
    p1, p2, theta = bivariate_params(rng)
    seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]
    out = os.path.join(tmp, "out.csv")
    biv_args = ["--p", f"{p1!r},{p2!r}", "--theta", repr(theta)]
    c_biv = gfgm.GfgmCopula.bivariate(p1, p2, theta)

    def verify_grid():
        head, values = _read_csv(out)
        axis = (np.arange(GRID_RESOLUTION) + 0.5) / GRID_RESOLUTION
        uu, vv = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([uu.ravel(), vv.ravel()])
        _expect(head[0].startswith(f"# pdf-grid resolution={GRID_RESOLUTION} "), "pdf-grid: header")
        _expect(head[1] == "u,v,density", "pdf-grid: columns")
        _expect(values.shape == (pts.shape[0], 3), "pdf-grid: shape")
        _expect(_close(values[:, :2], pts, 1e-10), "pdf-grid: grid coordinates")
        want = atom_sum(c_biv.bernoulli, *pdf_factors(c_biv.p, pts))
        _expect(_close(values[:, 2], want, 0.0, 1e-11), "pdf-grid: density values")

    grid_argv = ["pdf-grid", *biv_args, "--resolution", str(GRID_RESOLUTION), "--out", out]
    return [
        _sample_op(
            "sample/end-d10",
            ["--d", "10", "--exchangeable", f"end:{p_end!r}"],
            gfgm.GfgmCopula(gfgm.expand(gfgm.end_count_pmf(p_end, 10))),
            seeds[0],
            out,
        ),
        _sample_op(
            "sample/pmf-d30",
            ["--pmf-file", pmf_path],
            gfgm.GfgmCopula(gfgm.load_pmf_file(pmf_path)),
            seeds[1],
            out,
        ),
        _sample_op("sample/theta-d2", biv_args, c_biv, seeds[2], out),
        _cli_op("pdf-grid/r101", grid_argv, out, 3 * GRID_RESOLUTION**2, verify_grid),
    ]


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

EVAL_POINTS = 2000
CHECKED_ROWS = slice(0, 64)
NATURAL_MAX_D = 16
INCLUSION_EXCLUSION_MAX_D = 4


def _eval_ops(label: str, c: gfgm.GfgmCopula, pts: np.ndarray) -> list:
    sub = pts[CHECKED_ROWS]
    pmf, p = c.bernoulli, c.p

    def oracle_cdf():
        if c.d <= NATURAL_MAX_D:
            return gfgm.cdf_natural(c, sub)
        return atom_sum(pmf, *cdf_factors(p, sub))

    def oracle_survival():
        if c.d <= INCLUSION_EXCLUSION_MAX_D:
            return gfgm.survival_by_cdf(c, sub)
        a0, a1 = cdf_factors(p, sub)
        return atom_sum(pmf, 1.0 - a0, 1.0 - a1)

    oracles = {
        "cdf": (_once(oracle_cdf), 1e-12, 0.0),
        "pdf": (_once(lambda: atom_sum(pmf, *pdf_factors(p, sub))), 1e-12, 1e-12),
        "survival": (_once(oracle_survival), 1e-12, 0.0),
    }
    ops = []
    for fname, (oracle, atol, rtol) in oracles.items():

        def run(fname=fname):
            return getattr(gfgm.copula, fname)(c, pts)

        def check(values, fname=fname, oracle=oracle, atol=atol, rtol=rtol):
            _expect(
                np.shape(values) == (pts.shape[0],) and _close(values[CHECKED_ROWS], oracle(), atol, rtol),
                f"{fname}/{label}: disagrees with its oracle",
            )

        ops.append(Op(f"{fname}/{label}", pts.shape[0], run, check))
    return ops


def _concordance_op(label: str, lower: gfgm.GfgmCopula, upper: gfgm.GfgmCopula, grid: int) -> Op:
    def check(res):
        # lower <= upper in supermodular order of the Bernoulli vectors, and
        # both cdf and survival are expectations of supermodular products
        _expect(
            res.cl_forward and res.cu_forward and not res.cl_backward and res.verdict == "c_ordered",
            f"concordance/{label}: expected the first copula below the second, got {res}",
        )

    run = lambda: gfgm.association.check_concordance(lower, upper, grid)
    return Op(f"concordance/{label}", grid**lower.d, run, check)


def build_evaluate(rng: np.random.Generator, tmp: str) -> list:
    members = [
        ("d10-expanded", expanded_exchangeable(rng, 10)),
        ("d30-sparse", gfgm.GfgmCopula(sparse_pmf(rng, 30, 256))),
        ("d63-comonotone", gfgm.GfgmCopula.comonotone(rng.uniform(0.2, 0.8, size=63))),
        ("d2-theta", gfgm.GfgmCopula.bivariate(*bivariate_params(rng))),
    ]
    ops = []
    for label, c in members:
        pts = _save_points(tmp, label, rng.random((EVAL_POINTS, c.d)))
        ops += _eval_ops(label, c, pts)
    p3, p4 = rng.uniform(0.2, 0.8, size=3), rng.uniform(0.2, 0.8, size=4)
    p_end = float(rng.uniform(0.2, 0.8))
    independence = gfgm.GfgmCopula.independence
    # 21 points per axis is the library's default grid at d = 3
    ops += [
        _concordance_op("d3-independence-comonotone", independence(p3),
                        gfgm.GfgmCopula.comonotone(p3), 21),
        _concordance_op("d3-end-independence", gfgm.GfgmCopula(gfgm.end_pmf(p_end, 3)),
                        independence([p_end] * 3), 21),
        _concordance_op("d4-independence-comonotone", independence(p4),
                        gfgm.GfgmCopula.comonotone(p4), 11),
    ]
    return ops


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

MEASURES_ATOL = 1e-9
QUADRATURE_ATOL = 1e-6
TABLE_ATOL = 0.5e-4 + 1e-9


def _measures_op(name: str, run: Callable, oracle: Callable, atol: float, keys=None) -> Op:
    oracle = _once(oracle)

    def check(report):
        got = _report_dict(report)
        want = oracle()
        names = keys or want.keys()
        _expect(
            all(math.isfinite(got[k]) for k in got)
            and all(abs(got[k] - want[k]) <= atol for k in names),
            f"{name}: {got} disagrees with {want}",
        )

    return Op(name, 1, run, check)


def _table_op(which: str, out: str) -> Op:
    argv = ["tables", "--which", which, "--out", out]

    def second_route(p: float, d: int) -> float:
        if which.endswith("-max"):
            cp = gfgm.comonotone_count_pmf(p, d)
        else:
            cp = gfgm.end_count_pmf(p, d)
        key = {"rhoL": "rho_cL", "rhoU": "rho_cU", "rhoC": "rho_c", "tau": "tau"}[which[:-4]]
        return getattr(gfgm.measures_exchangeable(cp), key)

    def verify():
        with open(out, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
        _expect(lines[0] == f"# table {which}", f"tables/{which}: header")
        ds = [int(s) for s in lines[1].split(",")[1:]]
        for line in lines[2:]:
            cells = [float(s) for s in line.split(",")]
            for d, value in zip(ds, cells[1:]):
                want = second_route(cells[0], d)
                _expect(abs(value - want) <= TABLE_ATOL, f"tables/{which}: p={cells[0]} d={d}")
        _expect(len(lines) == 11, f"tables/{which}: expected 9 rows of p")

    return _cli_op(f"tables/{which}", argv, out, 1, verify)


def build_measures(rng: np.random.Generator, tmp: str) -> list:
    cp9 = gfgm.ExchangeableCountPmf(9, rng.dirichlet(np.ones(10)))
    cp10 = gfgm.ExchangeableCountPmf(10, rng.dirichlet(np.ones(11)))
    c9, c10 = gfgm.GfgmCopula(gfgm.expand(cp9)), gfgm.GfgmCopula(gfgm.expand(cp10))
    c30 = gfgm.GfgmCopula(sparse_pmf(rng, 30, 256))
    p63 = float(rng.uniform(0.2, 0.8))
    c63 = gfgm.GfgmCopula.comonotone([p63] * 63)
    c2 = gfgm.GfgmCopula.bivariate(*bivariate_params(rng))
    nodes = np.sort(rng.uniform(0.05, 0.95, size=8))
    weights = rng.dirichlet(np.ones(8))
    spec = gfgm.MixtureSpec.from_quadrature(nodes, weights)
    cp30 = gfgm.mixture_count_pmf(spec, 30)
    p200 = float(rng.uniform(0.2, 0.8))
    cp200 = gfgm.end_count_pmf(p200, 200)
    out = os.path.join(tmp, "table.csv")

    def measures(c):
        return lambda: gfgm.association.measures(c)

    def exchangeable(cp):
        return lambda: gfgm.exchangeable.measures_exchangeable(cp)

    def end200_orthant():
        lo, up = gfgm.min_measures_exchangeable(p200, 200)
        return {"rho_cL": lo, "rho_cU": up}

    ops = [
        _measures_op("measures/d9-expanded", measures(c9),
                     lambda: _report_dict(gfgm.measures_exchangeable(cp9)), MEASURES_ATOL),
        _measures_op("measures/d10-expanded", measures(c10),
                     lambda: _report_dict(gfgm.measures_exchangeable(cp10)), MEASURES_ATOL),
        _measures_op("measures/d30-sparse", measures(c30),
                     lambda: atom_measures(c30), MEASURES_ATOL),
        _measures_op("measures/d63-comonotone", measures(c63),
                     lambda: _report_dict(gfgm.max_measures_gfgm_p(p63, 63)), MEASURES_ATOL),
        _measures_op("measures/d2-theta", measures(c2),
                     lambda: _report_dict(gfgm.measures_by_quadrature(c2)), QUADRATURE_ATOL),
        _measures_op("exchangeable/d30-mixture", exchangeable(cp30),
                     lambda: mixing_law_measures(nodes, weights, 30), MEASURES_ATOL),
        _measures_op("exchangeable/d200-end", exchangeable(cp200), end200_orthant,
                     MEASURES_ATOL, keys=("rho_cL", "rho_cU")),
        _measures_op("quadrature/d2-theta", lambda: gfgm.association.measures_by_quadrature(c2),
                     lambda: _report_dict(gfgm.measures(c2)), QUADRATURE_ATOL),
    ]
    for which in ("rhoL-max", "rhoU-max", "rhoC-max", "tau-max", "rhoL-min", "rhoU-min"):
        ops.append(_table_op(which, out))
    return ops


# ---------------------------------------------------------------------------
# mc_measures
# ---------------------------------------------------------------------------

MC_N = 10000
MC_STDERRS = 5.0


def _mc_op(name: str, c: gfgm.GfgmCopula, closed: Callable, seed: int) -> Op:
    closed = _once(closed)

    def run():
        return gfgm.sampling.empirical_measures(gfgm.sampling.sample(c, MC_N, seed))

    def check(report):
        want = _report_dict(closed())
        floor = model_stderr(c, want["tau"], MC_N)
        for key, value in _report_dict(report).items():
            se = max(report.stderr[key], floor[key])
            _expect(
                abs(value - want[key]) <= MC_STDERRS * se,
                f"{name}: {key}={value} is more than {MC_STDERRS} stderr ({se}) "
                f"from the closed form {want[key]}",
            )

    return Op(name, MC_N * c.d, run, check)


def build_mc_measures(rng: np.random.Generator, tmp: str) -> list:
    p10, p20, p50 = (float(x) for x in rng.uniform(0.2, 0.8, size=3))
    seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]
    return [
        _mc_op("mc/d10-end", gfgm.GfgmCopula(gfgm.end_pmf(p10, 10)),
               lambda: gfgm.measures_exchangeable(gfgm.end_count_pmf(p10, 10)), seeds[0]),
        _mc_op("mc/d20-comonotone", gfgm.GfgmCopula.comonotone([p20] * 20),
               lambda: gfgm.max_measures_gfgm_p(p20, 20), seeds[1]),
        _mc_op("mc/d50-comonotone", gfgm.GfgmCopula.comonotone([p50] * 50),
               lambda: gfgm.max_measures_gfgm_p(p50, 50), seeds[2]),
    ]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

WORKLOADS = {
    "cli_csv": Workload(
        item="one CSV data value written",
        sizes=(
            "sample --d 10 --exchangeable end:p --n 4000 (40000 values)",
            "sample --pmf-file <sparse d=30, 256 atoms> --n 4000 (120000 values)",
            "sample --p a,b --theta t --n 4000 (8000 values)",
            "pdf-grid --resolution 101 (30603 values)",
        ),
        build=build_cli_csv,
    ),
    "evaluate": Workload(
        item="one point, or one grid point",
        sizes=(
            "cdf, pdf, survival on 2000 points: expanded exchangeable d=10 (1024 atoms)",
            "cdf, pdf, survival on 2000 points: random sparse d=30 (256 atoms)",
            "cdf, pdf, survival on 2000 points: comonotone d=63 (64 atoms, near underflow)",
            "cdf, pdf, survival on 2000 points: bivariate theta (4 atoms)",
            "check_concordance independence vs comonotone: d=3, 21 per axis (9261 points)",
            "check_concordance END vs independence: d=3, 21 per axis (9261 points)",
            "check_concordance independence vs comonotone: d=4, 11 per axis (14641 points)",
        ),
        build=build_evaluate,
    ),
    "measures": Workload(
        item="one op",
        sizes=(
            "association.measures: expanded d=9 (512 atoms), d=10 (1024 atoms)",
            "association.measures: sparse d=30 (256 atoms), comonotone d=63 (2 atoms), bivariate",
            "measures_exchangeable: quadrature mixture d=30 (31 counts), END d=200 (2 counts)",
            "measures_by_quadrature: bivariate, 96 nodes per axis",
            "gfgm tables --which for each of the six tables",
        ),
        build=build_measures,
    ),
    "mc_measures": Workload(
        item="one sampled value",
        sizes=(
            "sample(c, 10000) + empirical_measures: expanded END d=10 (100000 values)",
            "sample(c, 10000) + empirical_measures: comonotone d=20 (200000 values)",
            "sample(c, 10000) + empirical_measures: comonotone d=50 (500000 values)",
        ),
        build=build_mc_measures,
    ),
}


def build(name: str, seed: int, tmp: str) -> list:
    """The workload's op cycle, with every input drawn from ``seed``."""
    index = list(WORKLOADS).index(name)
    rng = np.random.default_rng([seed, index])
    return WORKLOADS[name].build(rng, tmp)
