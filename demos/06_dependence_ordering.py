"""Dependence ordering within a fixed shape vector.

Copulas of the family are dependence-comparable only when they share the
shape vector p; the underlying Bernoulli vectors then transfer their
concordance order to the copulas.  This script sweeps the bivariate
dependence parameter to show all four measures increase together, then
decides cdf/survival dominance exactly from the moments of the Bernoulli
laws: between members built from ordered laws, between count laws at
d = 200, and for one pair whose violation an interior lattice grid misses.

Run:  python demos/06_dependence_ordering.py
"""

import time

import numpy as np

from gfgm import (
    BernoulliPmf,
    GfgmCopula,
    cdf,
    check_concordance,
    comonotone_count_pmf,
    end_count_pmf,
    end_pmf,
    measures,
    theta_bounds,
)

P1, P2 = 0.35, 0.6


def main():
    lo, hi = theta_bounds(P1, P2)
    print(f"theta sweep for (p1, p2) = ({P1}, {P2}), admissible [{lo:.4f}, {hi:.4f}]:")
    print(f"{'theta':>8} {'rho_cL':>9} {'rho_cU':>9} {'rho_c':>9} {'tau':>9}")
    for theta in np.linspace(lo, hi, 9):
        r = measures(GfgmCopula.bivariate(P1, P2, theta))
        print(f"{theta:>8.3f} {r.rho_cL:>9.5f} {r.rho_cU:>9.5f} {r.rho_c:>9.5f} {r.tau:>9.5f}")
    print("every column is nondecreasing: theta is a genuine dependence parameter.")

    print("\nexact concordance checks (d = 3, common p = 0.45):")
    p = [0.45] * 3
    players = {
        "END": GfgmCopula.from_pmf(end_pmf(0.45, 3)),
        "independence": GfgmCopula.independence(p),
        "comonotone": GfgmCopula.comonotone(p),
    }
    names = list(players)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            res = check_concordance(players[a], players[b])
            arrow = "<=" if res.cl_forward and res.cu_forward else (
                ">=" if res.cl_backward and res.cu_backward else "??"
            )
            print(f"  {a:>13} {arrow} {b:<13}  verdict: {res.verdict}")

    print("\ncount laws at d = 200 compare per subset size, in O(d^2):")
    start = time.perf_counter()
    res = check_concordance(
        GfgmCopula(end_count_pmf(0.4, 200)), GfgmCopula(comonotone_count_pmf(0.4, 200))
    )
    elapsed = 1e3 * (time.perf_counter() - start)
    print(f"  END <= comonotone: verdict {res.verdict} ({elapsed:.1f} ms)")

    print("\na violation that an interior grid misses (d = 3, p = 1/2):")
    # independence with mu_{12} raised by 0.05 and mu_{123} lowered by 0.001
    moved = BernoulliPmf.from_bitstrings({
        "000": 0.176, "100": 0.074, "010": 0.074, "110": 0.176,
        "001": 0.124, "101": 0.126, "011": 0.126, "111": 0.124,
    })
    c1, c2 = GfgmCopula.independence([0.5] * 3), GfgmCopula(moved, [0.5] * 3)
    axis = np.arange(1, 22) / 22.0
    pts = np.stack([m.ravel() for m in np.meshgrid(axis, axis, axis, indexing="ij")], axis=1)
    grid_gap = float(np.max(cdf(c1, pts) - cdf(c2, pts)))
    probe = [0.5, 0.5, 0.0192]
    print(f"  on the 21-per-axis interior grid, max C1 - C2 = {grid_gap:.2e} (looks ordered)")
    print(f"  at u = {probe}, C1 - C2 = {cdf(c1, probe) - cdf(c2, probe):+.2e}")
    print(f"  the moments decide: verdict {check_concordance(c1, c2).verdict}")

    print("\ncopulas with different shape vectors are not comparable:")
    try:
        check_concordance(GfgmCopula.independence([0.3, 0.3]), GfgmCopula.independence([0.6, 0.6]))
    except Exception as exc:
        print(f"  rejected: {exc}")


if __name__ == "__main__":
    main()
