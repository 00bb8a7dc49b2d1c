"""Command-line front end.

Subcommands: ``eval`` (cdf at points), ``pdf-grid`` (density on a lattice,
d=2), ``measures`` (association report), ``tables`` (maximal/minimal measure
grids over p and d), ``sample`` (seeded batches as CSV), ``extremals``
(extremal exchangeable count pmfs), ``order-check`` (concordance grid
comparison).  All outputs are CSV with ``#``-prefixed metadata comments;
every numeric table goes through ``_write_rows``, one ``%`` format per chunk
of rows.

Exit codes: 0 success, 2 validation error, 3 numeric cross-check
disagreement (``--verify``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from . import association, exchangeable, sampling
from .bernoulli import InvalidDistributionError
from .copula import cdf, cdf_natural, pdf
from .specio import build_copula, load_copula_spec

MAX_TABLE_DS = (2, 3, 5, 8, 10, 15, 20, 50, 100)
MIN_TABLE_DS = (2, 3, 4, 5, 8, 10, 15)
TABLE_PS = tuple(k / 10 for k in range(1, 10))
_WRITE_CHUNK_VALUES = 1 << 16  # values formatted per write, bounds the transient text


class OracleDisagreement(Exception):
    """A --verify cross-check exceeded its tolerance."""


def _add_copula_args(parser):
    parser.add_argument("--spec", help="copula specification file")
    parser.add_argument("--d", type=int, help="dimension")
    parser.add_argument("--p", help="comma-separated shape vector")
    parser.add_argument("--theta", type=float, help="bivariate dependence parameter")
    parser.add_argument("--pmf-file", help="atom-form pmf file")
    parser.add_argument("--exchangeable", help="counts:/end:/comonotone:/beta: spec")


def _copula_from_args(args):
    if args.spec is not None:
        for name in ("d", "p", "theta", "pmf_file", "exchangeable"):
            if getattr(args, name) is not None:
                raise InvalidDistributionError(
                    "give either a spec file or inline copula flags, not both"
                )
        return load_copula_spec(args.spec)
    return build_copula(
        d=args.d,
        p=[float(s) for s in args.p.split(",")] if args.p is not None else None,
        pmf_file=args.pmf_file,
        exchangeable=args.exchangeable,
        theta=args.theta,
    )


@contextlib.contextmanager
def _output(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _write_rows(fh, row_fmt, values) -> None:
    """Write ``row_fmt % tuple(row)`` and a newline for each row of a 2-D array."""
    line = row_fmt + "\n"
    step = max(1, _WRITE_CHUNK_VALUES // values.shape[1])
    for start in range(0, values.shape[0], step):
        block = values[start : start + step]
        fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def _cmd_eval(args) -> int:
    c = _copula_from_args(args)
    pts = np.array([[float(s) for s in spec.split(",")] for spec in args.u])
    values = cdf_natural(c, pts) if args.natural else cdf(c, pts)
    if args.verify:
        gap = float(np.max(np.abs(cdf(c, pts) - cdf_natural(c, pts))))
        if not gap <= 1e-12:  # a NaN gap fails too
            raise OracleDisagreement(
                f"stochastic and natural cdf forms differ by {gap:.3e} (> 1e-12)"
            )
    with _output(args.out) as fh:
        _write_rows(fh, "%.12g", np.reshape(values, (-1, 1)))
    return 0


def _cmd_pdf_grid(args) -> int:
    c = _copula_from_args(args)
    if c.d != 2:
        raise InvalidDistributionError("pdf-grid needs a bivariate copula")
    res = args.resolution
    if res < 1:
        raise InvalidDistributionError("--resolution must be at least 1")
    axis = (np.arange(res) + 0.5) / res
    uu, vv = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([uu.ravel(), vv.ravel()])
    dens = pdf(c, pts)
    with _output(args.out) as fh:
        print(f"# pdf-grid resolution={res} p={_fmt_p(c.p)}", file=fh)
        print("u,v,density", file=fh)
        _write_rows(fh, "%.10g,%.10g,%.12g", np.column_stack([pts, dens]))
    return 0


def _fmt_p(p) -> str:
    vals = np.asarray(p, dtype=float)
    if np.all(vals == vals[0]):
        return f"{vals[0]:.10g}"
    return ";".join(f"{v:.10g}" for v in vals)


def _cmd_measures(args) -> int:
    c = _copula_from_args(args)
    if args.method == "closed_form":
        report = association.measures(c)
    elif args.method == "quadrature":
        report = association.measures_by_quadrature(c, nodes=args.nodes)
    else:
        batch = sampling.sample(c, args.n, args.seed)
        report = sampling.empirical_measures(batch)
    if args.verify:
        closed = association.measures(c)
        oracle = association.measures_by_quadrature(c, nodes=args.nodes)
        gap = max(
            abs(closed.rho_cL - oracle.rho_cL),
            abs(closed.rho_cU - oracle.rho_cU),
            abs(closed.tau - oracle.tau),
        )
        if not gap <= 1e-6:  # a NaN gap fails too
            raise OracleDisagreement(
                f"closed-form and quadrature measures differ by {gap:.3e} (> 1e-6)"
            )
    with _output(args.out) as fh:
        if report.stderr:
            for key, val in report.stderr.items():
                print(f"# stderr {key}={val:.6g}", file=fh)
        print("measure,method,d,p,value", file=fh)
        p_str = _fmt_p(c.p)
        for name in ("rho_cL", "rho_cU", "rho_c", "tau"):
            val = getattr(report, name)
            print(f"{name},{report.method},{c.d},{p_str},{val:.12g}", file=fh)
    return 0


def _cmd_tables(args) -> int:
    which = args.which
    if which.endswith("-max"):
        ds = MAX_TABLE_DS
        key = {"rhoL-max": "rho_cL", "rhoU-max": "rho_cU", "rhoC-max": "rho_c", "tau-max": "tau"}[which]
        cell = lambda p, d: getattr(association.max_measures_gfgm_p(p, d), key)
    else:
        ds = MIN_TABLE_DS
        idx = {"rhoL-min": 0, "rhoU-min": 1}[which]
        cell = lambda p, d: association.min_measures_exchangeable(p, d)[idx]
    if args.precision < 0:
        raise InvalidDistributionError("--precision must be non-negative")
    table = np.array([[p] + [cell(p, d) for d in ds] for p in TABLE_PS])
    with _output(args.out) as fh:
        print(f"# table {which}", file=fh)
        print("p," + ",".join(str(d) for d in ds), file=fh)
        _write_rows(fh, ",".join(["%.1f"] + [f"%.{args.precision}f"] * len(ds)), table)
    return 0


def _cmd_sample(args) -> int:
    c = _copula_from_args(args)
    batch = sampling.sample(c, args.n, args.seed)
    with _output(args.out) as fh:
        print(f"# seed={batch.seed} generator={batch.generator_id}", file=fh)
        print(",".join(f"u{j + 1}" for j in range(c.d)), file=fh)
        _write_rows(fh, ",".join(["%.17g"] * c.d), batch.values)
    return 0


def _cmd_extremals(args) -> int:
    pmfs = exchangeable.extremal_count_pmfs(args.p, args.d)
    with _output(args.out) as fh:
        print(f"# extremal exchangeable count pmfs p={args.p} d={args.d}", file=fh)
        print("type,j1,j2,w1,w2", file=fh)
        for cp in pmfs:
            support = np.nonzero(cp.q)[0]
            if support.size == 1:
                k = int(support[0])
                print(f"degenerate,{k},{k},1,0", file=fh)
            else:
                j1, j2 = (int(s) for s in support)
                print(f"two_point,{j1},{j2},{cp.q[j1]:.12g},{cp.q[j2]:.12g}", file=fh)
    return 0


def _cmd_order_check(args) -> int:
    c1 = load_copula_spec(args.spec1)
    c2 = load_copula_spec(args.spec2)
    res = association.check_concordance(c1, c2, args.grid)
    with _output(args.out) as fh:
        print("cl_forward,cl_backward,cu_forward,cu_backward,verdict", file=fh)
        print(
            f"{int(res.cl_forward)},{int(res.cl_backward)},"
            f"{int(res.cu_forward)},{int(res.cu_backward)},{res.verdict}",
            file=fh,
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfgm",
        description="Bernoulli-driven generalized FGM copulas: evaluation, "
        "sampling, association measures, ordering checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the copula cdf at points")
    _add_copula_args(p_eval)
    p_eval.add_argument("-u", action="append", required=True, help="point, e.g. 0.3,0.4")
    p_eval.add_argument("--natural", action="store_true", help="use the polynomial form")
    p_eval.add_argument("--verify", action="store_true", help="cross-check both forms")
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=_cmd_eval)

    p_grid = sub.add_parser("pdf-grid", help="density on a uniform grid (d=2)")
    _add_copula_args(p_grid)
    p_grid.add_argument("--resolution", type=int, default=64)
    p_grid.add_argument("--out")
    p_grid.set_defaults(func=_cmd_pdf_grid)

    p_meas = sub.add_parser("measures", help="association measures report")
    _add_copula_args(p_meas)
    p_meas.add_argument(
        "--method",
        choices=("closed_form", "quadrature", "monte_carlo"),
        default="closed_form",
    )
    p_meas.add_argument("--nodes", type=int, default=96, help="quadrature nodes per axis")
    p_meas.add_argument("--n", type=int, default=100000, help="Monte Carlo sample size")
    p_meas.add_argument("--seed", type=int, default=0)
    p_meas.add_argument("--verify", action="store_true", help="closed form vs quadrature")
    p_meas.add_argument("--out")
    p_meas.set_defaults(func=_cmd_measures)

    p_tab = sub.add_parser("tables", help="maximal/minimal measure grids")
    p_tab.add_argument(
        "--which",
        required=True,
        choices=("rhoL-max", "rhoU-max", "rhoC-max", "tau-max", "rhoL-min", "rhoU-min"),
    )
    p_tab.add_argument("--precision", type=int, default=4)
    p_tab.add_argument("--out")
    p_tab.set_defaults(func=_cmd_tables)

    p_samp = sub.add_parser("sample", help="draw seeded copula samples")
    _add_copula_args(p_samp)
    p_samp.add_argument("--n", type=int, required=True)
    p_samp.add_argument("--seed", type=int, required=True)
    p_samp.add_argument("--out")
    p_samp.set_defaults(func=_cmd_sample)

    p_ext = sub.add_parser("extremals", help="extremal exchangeable count pmfs")
    p_ext.add_argument("--p", type=float, required=True)
    p_ext.add_argument("--d", type=int, required=True)
    p_ext.add_argument("--out")
    p_ext.set_defaults(func=_cmd_extremals)

    p_ord = sub.add_parser("order-check", help="concordance comparison of two copulas")
    p_ord.add_argument("--spec1", required=True)
    p_ord.add_argument("--spec2", required=True)
    p_ord.add_argument("--grid", type=int, help="grid points per axis")
    p_ord.add_argument("--out")
    p_ord.set_defaults(func=_cmd_order_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleDisagreement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidDistributionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
