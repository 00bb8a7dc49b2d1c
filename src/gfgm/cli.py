"""Command-line front end.

Subcommands: ``eval`` (cdf at points), ``pdf-grid`` (density on a lattice,
d=2), ``measures`` (association report), ``tables`` (maximal/minimal measure
grids over p and d), ``sample`` (seeded batches as CSV), ``extremals``
(extremal exchangeable count pmfs, written one row at a time),
``order-check`` (concordance order, decided exactly from the moments of the
two Bernoulli laws).  All outputs are CSV with ``#``-prefixed metadata
comments.
The numeric tables of ``sample``, ``pdf-grid`` and ``eval`` go through
``_write_rows``, which writes long chunks of ``%.Ng`` text (N <= 17) by an
exact vectorised conversion, byte for byte what ``'%.Ng' % x`` writes, and
short or mostly out-of-range chunks with ``%`` itself.

Exit codes: 0 success, 2 validation error or a request too large for
memory, 3 numeric cross-check disagreement (``--verify``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

import numpy as np

from . import association, exchangeable, sampling
from .bernoulli import InvalidDistributionError
from .copula import cdf, cdf_natural, pdf
from .specio import build_copula, load_copula_spec

MAX_TABLE_DS = (2, 3, 5, 8, 10, 15, 20, 50, 100)
MIN_TABLE_DS = (2, 3, 4, 5, 8, 10, 15)
TABLE_PS = tuple(k / 10 for k in range(1, 10))
_WRITE_CHUNK_VALUES = 1 << 12  # values formatted per write, bounds the transient arrays
# A chunk goes through _format_g only when it is long enough and almost all in
# its fixed range: below 2^10 values the fixed numpy cost of a call (about
# 0.1 ms) outweighs the saving, and each value out of range costs the pass
# and its own ``%`` (with 20% zeros or 1e-30s the chunk was already slower).
_FAST_MIN_VALUES = 1 << 10
_FAST_MIN_SHARE = 0.9
_FIXED_LO, _FIXED_HI = 1e-5, 1e17  # the values _format_g can write in fixed notation
# A value's %.Ng text is at most 22 bytes ("0.000" and 17 digits); with its
# separator at byte 22 it fills a row of 24 bytes, three uint64 words.
_TEXT_BYTES = 22
#: Most ``pdf-grid`` points per axis; the check comes before anything is allocated.
MAX_RESOLUTION = 2048


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


def _times_pow10(x, ten):
    """x * ten as p + err with p = fl(x * ten), exactly (Dekker's TwoProduct)."""
    p = x * ten
    x_hi = 134217729.0 * x  # Veltkamp split into two 26-bit halves
    x_hi -= x_hi - x
    x_lo = x - x_hi
    t_hi = 134217729.0 * ten
    t_hi -= t_hi - ten
    t_lo = ten - t_hi
    err = x_hi * t_hi - p
    err += x_hi * t_lo
    err += x_lo * t_hi
    err += x_lo * t_lo
    return p, err


def _in_range(p, err, lo, hi):
    """lo <= p + err < hi, decided exactly."""
    return ((p > lo) | ((p == lo) & (err >= 0))) & ((p < hi) | ((p == hi) & (err < 0)))


@functools.cache
def _format_tables():
    """Read-only lookup tables of ``_format_g``, built on first use."""
    pow10 = np.array([10**q for q in range(23)], dtype=np.float64)  # all exact
    # ASCII of 0000..9999 as little-endian uint32, and a last entry of four NULs
    ascii_digits = np.arange(48, 58, dtype=np.uint8)
    digits4 = np.append(
        np.stack(np.meshgrid(*[ascii_digits] * 4, indexing="ij"), axis=-1).view("<u4"),
        np.zeros(1, "<u4"),
    )
    # one past the last nonzero digit of a 4-digit group; -100 for 0000, so max() skips it
    nonzero = digits4[:-1].view(np.uint8).reshape(-1, 4) > 48
    end4 = np.where(nonzero, np.arange(1, 5, dtype=np.int8), np.int8(-100)).max(axis=1)
    byte = np.arange(24)
    pos = np.arange(_TEXT_BYTES + 1)[:, None]
    # byte masks indexed by the position of the decimal point
    before = np.where(byte < pos[:-1], 255, 0).astype(np.uint8).view("<u8")
    after = np.where((byte > pos[:-1]) & (byte < _TEXT_BYTES), 255, 0).astype(np.uint8).view("<u8")
    dot = np.where(byte == pos[:-1], 46, 0).astype(np.uint8).view("<u8")
    # indexed by start * 23 + end: the bytes start..end-1 and the separator
    runs = ((byte >= pos[:, None]) & (byte < pos[None]) | (byte == _TEXT_BYTES)).reshape(-1, 24)
    tables = pow10, digits4, end4, before, after, dot, runs
    for table in tables:
        table.flags.writeable = False
    return tables


def _format_g(values, prec, sep) -> str:
    """``'%.*g' % (prec[i], values[i]) + chr(sep[i])`` for every i, joined.

    ``values`` is float64, ``prec`` int64 in 1..17 and ``sep`` the uint64
    ASCII codes, all of one length.  The fast path takes _FIXED_LO <= x < _FIXED_HI
    in fixed notation.  With k the decimal exponent of x, it forms
    y = x * 10^(N-1-k) exactly as p + err and rounds y half to even in
    int64, so the N digits are exactly those of ``%``.  A value whose y lies
    within 2^-30 of a tie, or that is zero, negative, not finite or written
    with an exponent, is written by one ``%`` over all such values of the
    chunk, spliced in where the fast text holds a NUL.
    """
    pow10, digits4, end4, before, after, dot, runs = _format_tables()
    ok = (values >= _FIXED_LO) & (values < _FIXED_HI)
    x = np.where(ok, values, 1.0)
    k = np.floor(np.log10(x)).astype(np.int64)
    lo, hi = pow10[prec - 1], pow10[prec]
    # k >= N (exponent form) makes the index negative; such values fail the test below
    p, err = _times_pow10(x, pow10[prec - 1 - k])
    off = np.flatnonzero(~_in_range(p, err, lo, hi))
    if off.size:  # log10 was one off next to a power of ten: step k and redo
        k[off] = np.minimum(k[off] + np.where(p[off] >= hi[off], 1, -1), prec[off] - 1)
        p[off], err[off] = _times_pow10(x[off], pow10[prec[off] - 1 - k[off]])
        ok[off] &= _in_range(p[off], err[off], lo[off], hi[off])
    whole = np.rint(p)
    p -= whole
    p += err  # y - whole, off by at most 2^-50
    step = np.rint(p)
    p -= step
    ok &= np.abs(np.abs(p) - 0.5) > 2.0**-30
    digits = whole.astype(np.int64)
    digits += step.astype(np.int64)  # in int64: float64 would lose the last digit above 2^53
    carry = digits == hi.astype(np.int64)
    k += carry
    digits[carry] //= 10
    ok &= (k >= -4) & (k < prec)
    k[~ok] = 0

    # The 20-digit field of ``digits`` in ASCII, four digits per table entry.
    n = values.size
    groups = np.empty((n, 6), np.intp)
    groups[:, 5] = 10000
    g = [groups[:, j] for j in range(5)]
    high, low = np.divmod(digits, 10**8)
    np.divmod(high, 10**8, out=(g[0], high))
    np.divmod(high, 10**4, out=(g[1], g[2]))
    np.divmod(low, 10**4, out=(g[3], g[4]))
    field = digits4.take(groups).view("<u8").ravel()
    # F is "0" then the field, S is F one byte later; the text is F before
    # the decimal point, "." at it and S after it.  A row's first word takes
    # the top bytes of the previous row's last word, which are NULs.
    point = _TEXT_BYTES - prec + k
    text = field << 8
    text[1:] |= field[:-1] >> 56
    text[::3] |= 0x30
    text &= before.take(point, axis=0).ravel()
    later = field << 16
    later[1:] |= field[:-1] >> 48
    later[::3] |= 0x3030
    later &= after.take(point, axis=0).ravel()
    text |= later
    text |= dot.take(point, axis=0).ravel()
    text[2::3] |= sep << 48

    start = np.minimum(point - 1, _TEXT_BYTES - 1 - prec)
    # one past the last nonzero digit: after the point, group j starts at text byte 2 + 4j
    end = end4.take(g[4]) + 18  # int8, within -82..22
    flat = np.flatnonzero(g[4] == 0)
    if flat.size:
        ends = end4.take(groups[flat, :5]) + np.arange(2, 22, 4)
        end[flat] = ends.max(axis=1)
    end = np.where(end > point + 1, end, point)  # drop "." when no digit follows
    bad = np.flatnonzero(~ok)
    text[3 * bad] = 0  # these rows keep a NUL and their separator
    start[bad] = 0
    end[bad] = 1
    keep = runs.take(start * (_TEXT_BYTES + 1) + end, axis=0)
    out = text.astype("<u8", copy=False).view(np.uint8)[keep.ravel()].tobytes().decode("ascii")
    if not bad.size:
        return out
    # Split and join rather than ``%`` over ``out``: that left the process's
    # resident size about 1 MB higher on perfbench ``cli_csv``.
    args = [0] * (2 * bad.size)
    args[::2] = prec[bad].tolist()
    args[1::2] = values[bad].tolist()
    pieces = [""] * (2 * bad.size + 1)
    pieces[::2] = out.split("\0")
    pieces[1::2] = ("%.*g\0" * bad.size % tuple(args)).split("\0")[:-1]
    return "".join(pieces)


def _write_rows(fh, precisions, values) -> None:
    """Write each row of a 2-D float array as a CSV line, column j as ``%.{precisions[j]}g``.

    Precisions run from 1 to 17; the text is that of ``%``, byte for byte.
    A chunk goes through ``_format_g`` when it holds at least
    ``_FAST_MIN_VALUES`` values and a share of at least ``_FAST_MIN_SHARE``
    lies in its fixed range; any other chunk (a short table, or mostly
    zeros or tiny values) is cheaper to write with one ``%`` over the chunk.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    cols = values.shape[1]
    step = max(1, _WRITE_CHUNK_VALUES // cols)
    line = ",".join(f"%.{n}g" for n in precisions) + "\n"
    prec = np.tile(np.asarray(precisions, dtype=np.int64), step)
    sep = np.tile(np.array([44] * (cols - 1) + [10], dtype=np.uint64), step)
    for start in range(0, values.shape[0], step):
        block = values[start : start + step].ravel()
        fixed = np.count_nonzero((block >= _FIXED_LO) & (block < _FIXED_HI))
        if block.size >= _FAST_MIN_VALUES and fixed >= _FAST_MIN_SHARE * block.size:
            fh.write(_format_g(block, prec[: block.size], sep[: block.size]))
        else:
            fh.write(line * (block.size // cols) % tuple(block.tolist()))


def _cmd_eval(args) -> int:
    c = _copula_from_args(args)
    rows = [[float(s) for s in spec.split(",")] for spec in args.u]
    for spec, row in zip(args.u, rows):
        if len(row) != c.d:
            raise ValueError(f"point -u {spec} has dimension {len(row)}, expected d={c.d}")
    pts = np.array(rows)
    forms = (cdf_natural, cdf) if args.natural else (cdf, cdf_natural)
    values = forms[0](c, pts)
    if args.verify:
        gap = float(np.max(np.abs(values - forms[1](c, pts))))
        if not gap <= 1e-12:  # a NaN gap fails too
            raise OracleDisagreement(
                f"stochastic and natural cdf forms differ by {gap:.3e} (> 1e-12)"
            )
    with _output(args.out) as fh:
        _write_rows(fh, [12], np.reshape(values, (-1, 1)))
    return 0


def _cmd_pdf_grid(args) -> int:
    c = _copula_from_args(args)
    if c.d != 2:
        raise InvalidDistributionError("pdf-grid needs a bivariate copula")
    res = args.resolution
    if not 1 <= res <= MAX_RESOLUTION:
        raise InvalidDistributionError(f"--resolution must be from 1 to {MAX_RESOLUTION}")
    axis = (np.arange(res) + 0.5) / res
    uu, vv = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([uu.ravel(), vv.ravel()])
    dens = pdf(c, pts)
    with _output(args.out) as fh:
        print(f"# pdf-grid resolution={res} p={_fmt_p(c.p)}", file=fh)
        print("u,v,density", file=fh)
        _write_rows(fh, [10, 10, 12], np.column_stack([pts, dens]))
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
        closed = report if args.method == "closed_form" else association.measures(c)
        oracle = report if args.method == "quadrature" else association.measures_by_quadrature(c, nodes=args.nodes)
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
        line = ",".join(["%.1f"] + [f"%.{args.precision}f"] * len(ds)) + "\n"
        fh.write(line * len(table) % tuple(table.ravel().tolist()))
    return 0


def _cmd_sample(args) -> int:
    c = _copula_from_args(args)
    batch = sampling.sample(c, args.n, args.seed)
    with _output(args.out) as fh:
        print(f"# seed={batch.seed} generator={batch.generator_id}", file=fh)
        print(",".join(f"u{j + 1}" for j in range(c.d)), file=fh)
        _write_rows(fh, [17] * c.d, batch.values)
    return 0


def _cmd_extremals(args) -> int:
    rows = exchangeable._extremal_rows(args.p, args.d)
    with _output(args.out) as fh:
        print(f"# extremal exchangeable count pmfs p={args.p} d={args.d}", file=fh)
        print("type,j1,j2,w1,w2", file=fh)
        for j1, j2, w1, w2 in rows:
            if j1 == j2:
                fh.write(f"degenerate,{j1},{j2},1,0\n")
            else:
                total = w1 + w2  # as ExchangeableCountPmf normalises its masses
                fh.write(f"two_point,{j1},{j2},{w1 / total:.12g},{w2 / total:.12g}\n")
    return 0


def _cmd_order_check(args) -> int:
    c1 = load_copula_spec(args.spec1)
    c2 = load_copula_spec(args.spec2)
    res = association.check_concordance(c1, c2)
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
    p_grid.add_argument(
        "--resolution", type=int, default=64,
        help=f"grid points per axis, 1 to {MAX_RESOLUTION}",
    )
    p_grid.add_argument("--out")
    p_grid.set_defaults(func=_cmd_pdf_grid)

    p_meas = sub.add_parser("measures", help="association measures report")
    _add_copula_args(p_meas)
    p_meas.add_argument(
        "--method",
        choices=("closed_form", "quadrature", "monte_carlo"),
        default="closed_form",
    )
    p_meas.add_argument(
        "--nodes", type=int, default=96,
        help=f"quadrature nodes per axis, 64 to {association._MAX_NODES}",
    )
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

    p_ord = sub.add_parser("order-check", help="exact concordance order of two copulas")
    p_ord.add_argument("--spec1", required=True)
    p_ord.add_argument("--spec2", required=True)
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
    except (InvalidDistributionError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
