"""Command-line front end.

Subcommands: ``eval`` (cdf at points), ``pdf-grid`` (density on a lattice,
d=2), ``measures`` (association report), ``tables`` (maximal/minimal measure
grids over p and d), ``sample`` (seeded batches as CSV), ``extremals``
(extremal exchangeable count pmfs, written one row at a time),
``order-check`` (concordance order, decided exactly from the moments of the
two Bernoulli laws).  All outputs are CSV with ``#``-prefixed metadata
comments.
A call that succeeds builds only its command's parser (``_COMMANDS`` holds
each command's help, arguments and handler), which parses the rest of argv
once.  Everything else (``-h``, an empty argv, an unknown command, arguments
the command leaves unrecognized) is parsed by the full top-level parser with
all seven subparsers; a missing or invalid value stops in the command's own
parser, which words it as the subparser would.  So help and error text are
unchanged, byte for byte.  ``tables``
checks each p once and forms each cell from the kernels that
``max_measures_gfgm_p`` and ``min_measures_exchangeable`` share (a rho cell
forms both orthant sums and prints one).
The numeric tables of ``sample``, ``pdf-grid`` and ``eval`` go through
``_write_rows``, which writes every chunk of ``%.Ng`` text (N <= 17) by an
exact vectorised conversion, byte for byte what ``'%.Ng' % x`` writes; the
values it cannot prove, out of its fixed range among them, it writes with
``%`` itself.

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
from .bernoulli import InvalidDistributionError, validate_margin
from .copula import cdf, cdf_natural, pdf
from .specio import _KEYS as _SPEC_KEYS, build_copula, load_copula_spec

MAX_TABLE_DS = (2, 3, 5, 8, 10, 15, 20, 50, 100)
MIN_TABLE_DS = (2, 3, 4, 5, 8, 10, 15)
TABLE_PS = tuple(k / 10 for k in range(1, 10))
_WRITE_CHUNK_VALUES = 1 << 12  # values formatted per write, bounds the transient arrays
_FIXED_LO, _FIXED_HI = 1e-5, 1e17  # the values _format_g can write in fixed notation
# A value's %.Ng text is at most 22 bytes ("0.000" and 17 digits); with its
# separator at byte 22 it fills a row of 24 bytes, three uint64 words.
_TEXT_BYTES = 22
#: Most ``pdf-grid`` points per axis; the check comes before anything is allocated.
MAX_RESOLUTION = 2048
#: Most ``tables`` decimal places: no double has more fractional digits than 2^-1074.
MAX_PRECISION = 1074
# ``pdf-grid`` evaluates and writes about this many grid points at a time,
# in whole grid rows: a table of about 1.5 MB at any resolution, and one
# block for grids of up to 256 points per axis.
_GRID_BLOCK_POINTS = 1 << 16


class OracleDisagreement(Exception):
    """A --verify cross-check exceeded its tolerance."""


def _add_copula_args(parser):
    parser.add_argument("--spec", help="copula specification file")
    parser.add_argument("--d", help="dimension")
    parser.add_argument("--p", help="comma-separated shape vector")
    parser.add_argument("--theta", help="bivariate dependence parameter")
    parser.add_argument("--pmf-file", help="atom-form pmf file")
    parser.add_argument("--exchangeable", help="counts:/end:/comonotone:/beta: spec")


def _copula_from_args(args):
    """The copula of ``--spec``, or of the inline flags' text, which ``build_copula`` reads."""
    fields = {key: getattr(args, key) for key in _SPEC_KEYS}
    if args.spec is None:
        return build_copula(**fields)
    if any(value is not None for value in fields.values()):
        raise InvalidDistributionError("give either a spec file or inline copula flags, not both")
    return load_copula_spec(args.spec)


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
    Every chunk of whole rows, up to ``_WRITE_CHUNK_VALUES`` values, goes
    through ``_format_g``, which writes the values it cannot prove (zero,
    negative, not finite, exponent form, near-ties) with ``%`` itself.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    cols = values.shape[1]
    step = max(1, _WRITE_CHUNK_VALUES // cols)
    prec = np.tile(np.asarray(precisions, dtype=np.int64), step)
    sep = np.tile(np.array([44] * (cols - 1) + [10], dtype=np.uint64), step)
    for start in range(0, values.shape[0], step):
        block = values[start : start + step].ravel()
        fh.write(_format_g(block, prec[: block.size], sep[: block.size]))


def _cmd_eval(args) -> int:
    c = _copula_from_args(args)
    rows = []
    for spec in args.u:
        try:
            rows.append([float(s) for s in spec.split(",")])
        except ValueError:
            raise ValueError(f"point -u {spec} is not comma-separated reals") from None
        if len(rows[-1]) != c.d:
            raise ValueError(f"point -u {spec} has dimension {len(rows[-1])}, expected d={c.d}")
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
    rows = max(1, _GRID_BLOCK_POINTS // res)
    with _output(args.out) as fh:
        print(f"# pdf-grid resolution={res} p={_fmt_p(c.p)}", file=fh)
        print("u,v,density", file=fh)
        for start in range(0, res, rows):
            u = axis[start : start + rows]
            table = np.empty((u.size * res, 3))
            table[:, 0] = np.repeat(u, res)
            table[:, 1] = np.tile(axis, u.size)
            table[:, 2] = pdf(c, table[:, :2])
            _write_rows(fh, [10, 10, 12], table)
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


def _max_rho_c(p, d):
    lo, up = association._comonotone_rhos(p, d)
    return 0.5 * (lo + up)


# --which -> (dimensions, the cell at a checked margin p and dimension d), each
# from the kernels of ``max_measures_gfgm_p`` and ``min_measures_exchangeable``
_TABLES = {
    "rhoL-max": (MAX_TABLE_DS, lambda p, d: association._comonotone_rhos(p, d)[0]),
    "rhoU-max": (MAX_TABLE_DS, lambda p, d: association._comonotone_rhos(p, d)[1]),
    "rhoC-max": (MAX_TABLE_DS, _max_rho_c),
    "tau-max": (MAX_TABLE_DS, association._comonotone_tau),
    "rhoL-min": (MIN_TABLE_DS, lambda p, d: association._end_rhos(p, d)[0]),
    "rhoU-min": (MIN_TABLE_DS, lambda p, d: association._end_rhos(p, d)[1]),
}


def _cmd_tables(args) -> int:
    which = args.which
    ds, cell = _TABLES[which]
    if not 0 <= args.precision <= MAX_PRECISION:
        raise InvalidDistributionError(f"--precision must be from 0 to {MAX_PRECISION}")
    values = []
    for p in map(validate_margin, TABLE_PS):
        values.append(p)
        values += [cell(p, d) for d in ds]
    with _output(args.out) as fh:
        print(f"# table {which}", file=fh)
        print("p," + ",".join(str(d) for d in ds), file=fh)
        line = ",".join(["%.1f"] + [f"%.{args.precision}f"] * len(ds)) + "\n"
        fh.write(line * len(TABLE_PS) % tuple(values))
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


def _eval_args(p):
    _add_copula_args(p)
    p.add_argument("-u", action="append", required=True, help="point, e.g. 0.3,0.4")
    p.add_argument("--natural", action="store_true", help="use the polynomial form")
    p.add_argument("--verify", action="store_true", help="cross-check both forms")


def _pdf_grid_args(p):
    _add_copula_args(p)
    p.add_argument(
        "--resolution", type=int, default=64,
        help=f"grid points per axis, 1 to {MAX_RESOLUTION}",
    )


def _measures_args(p):
    _add_copula_args(p)
    p.add_argument(
        "--method",
        choices=("closed_form", "quadrature", "monte_carlo"),
        default="closed_form",
    )
    p.add_argument(
        "--nodes", type=int, default=96,
        help=f"quadrature nodes per axis, 64 to {association._MAX_NODES}",
    )
    p.add_argument("--n", type=int, default=100000, help="Monte Carlo sample size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", action="store_true", help="closed form vs quadrature")


def _tables_args(p):
    p.add_argument(
        "--which",
        required=True,
        choices=tuple(_TABLES),
    )
    p.add_argument("--precision", type=int, default=4)


def _sample_args(p):
    _add_copula_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)


def _extremals_args(p):
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--d", type=int, required=True)


def _order_check_args(p):
    p.add_argument("--spec1", required=True)
    p.add_argument("--spec2", required=True)


# name -> (help, function adding the command's arguments but --out, handler),
# in the order ``gfgm -h`` lists them
_COMMANDS = {
    "eval": ("evaluate the copula cdf at points", _eval_args, _cmd_eval),
    "pdf-grid": ("density on a uniform grid (d=2)", _pdf_grid_args, _cmd_pdf_grid),
    "measures": ("association measures report", _measures_args, _cmd_measures),
    "tables": ("maximal/minimal measure grids", _tables_args, _cmd_tables),
    "sample": ("draw seeded copula samples", _sample_args, _cmd_sample),
    "extremals": ("extremal exchangeable count pmfs", _extremals_args, _cmd_extremals),
    "order-check": ("exact concordance order of two copulas", _order_check_args, _cmd_order_check),
}


def _with_command_args(parser, name) -> argparse.ArgumentParser:
    """``parser`` with command ``name``'s arguments, ``--out``, and its handler as ``func``."""
    add_args, handler = _COMMANDS[name][1:]
    add_args(parser)
    parser.add_argument("--out")
    parser.set_defaults(func=handler)
    return parser


def _parse(argv) -> argparse.Namespace:
    """The namespace of ``argv``, handler as ``func``; argparse exits 0 for help and 2 on errors.

    When ``argv[0]`` names a command, only that command's parser is built
    (``prog`` "gfgm <command>", as a subparser's would be); its help, or a
    missing or invalid value, ends the parse there, and when it takes all
    of ``argv[1:]`` that is the whole parse.  Anything else (``-h``, an
    empty argv, an unknown command, arguments the command left over) is
    parsed by the top-level parser with all seven subparsers, which writes
    the help or the error itself.
    """
    if argv and argv[0] in _COMMANDS:
        parser = _with_command_args(argparse.ArgumentParser(prog=f"gfgm {argv[0]}"), argv[0])
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    parser = argparse.ArgumentParser(
        prog="gfgm",
        description="Bernoulli-driven generalized FGM copulas: evaluation, "
        "sampling, association measures, ordering checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _with_command_args(sub.add_parser(name, help=help_text), name)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
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
