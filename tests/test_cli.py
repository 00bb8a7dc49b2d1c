"""Command-line surface: spec files, CSV outputs, exit codes."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from gfgm import association, cdf_epd, cli, sampling
from gfgm.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _read_csv(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append(line.split(","))
    return rows


@pytest.fixture
def spec_file(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestEval:
    @pytest.mark.parametrize("d", [1029, 1030])
    def test_count_law_dimension_limit(self, capsys, d):
        # C(d, k) fits a float up to d = 1029; above it the count law says so
        u = ",".join(["0.999"] * d)
        code, out, err = _run(capsys, ["eval", "--d", str(d), "--exchangeable", "comonotone:0.3", "-u", u])
        if d == 1029:
            assert code == 0 and out == "0.460609046516\n"
            assert out == "%.12g\n" % cdf_epd(0.3, d, [0.999] * d)
        else:
            assert code == 2 and out == ""
            assert "d <= 1029" in err and "Traceback" not in err

    @pytest.mark.parametrize("p", ["1e-13", "0.9999999999999"])
    def test_margin_outside_the_domain(self, capsys, p):
        # every route takes margins in (1e-12, 1 - 1e-12)
        code, out, err = _run(capsys, ["eval", "--p", f"{p},0.5", "-u", "0.5,0.5"])
        assert code == 2 and out == ""
        assert "(1e-12, 1 - 1e-12)" in err

    def test_independence_point(self, capsys):
        code, out, _ = _run(capsys, ["eval", "--p", "0.5,0.5", "-u", "0.3,0.4"])
        assert code == 0
        assert out.strip() == "0.12"

    def test_multiple_points_and_verify(self, capsys):
        code, out, _ = _run(
            capsys,
            ["eval", "--p", "0.5,0.5", "--theta", "1.0", "-u", "0.5,0.5", "-u", "1,1", "--verify"],
        )
        assert code == 0
        vals = [float(s) for s in out.split()]
        assert vals == pytest.approx([0.3125, 1.0])

    def test_natural_flag(self, capsys):
        code, out, _ = _run(
            capsys, ["eval", "--p", "0.3,0.7", "--theta", "0.2", "-u", "0.4,0.6", "--natural"]
        )
        assert code == 0
        code2, out2, _ = _run(
            capsys, ["eval", "--p", "0.3,0.7", "--theta", "0.2", "-u", "0.4,0.6"]
        )
        assert float(out) == pytest.approx(float(out2), abs=1e-12)

    def test_verify_rejects_nan_gap(self, capsys, monkeypatch):
        monkeypatch.setattr("gfgm.cli.cdf_natural", lambda c, pts: np.full(len(pts), np.nan))
        code, out, err = _run(
            capsys, ["eval", "--p", "0.5,0.5", "--theta", "1.0", "-u", "0.5,0.5", "--verify"]
        )
        assert code == 3
        assert out == ""
        assert "differ by nan" in err

    @pytest.mark.parametrize("natural", [[], ["--natural"]])
    def test_verify_evaluates_each_form_once(self, capsys, monkeypatch, natural):
        calls = []
        for name in ("cdf", "cdf_natural"):
            form = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda c, pts, form=form, name=name: calls.append(name) or form(c, pts)
            )
        argv = ["eval", "--p", "0.5,0.5", "--theta", "1.0", "-u", "0.5,0.5", "--verify", *natural]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert float(out) == pytest.approx(0.3125)
        assert sorted(calls) == ["cdf", "cdf_natural"]

    def test_spec_file_with_pmf(self, capsys, spec_file, tmp_path):
        (tmp_path / "pmf.txt").write_text("d=2\n00,0.5\n11,0.5\n")
        spec = spec_file("cop.spec", "d=2\npmf_file=pmf.txt\n")
        code, out, _ = _run(capsys, ["eval", "--spec", spec, "-u", "0.5,0.5"])
        assert code == 0
        assert float(out) == pytest.approx(0.3125)

    def test_exchangeable_spec_inline(self, capsys):
        code, out, _ = _run(
            capsys,
            ["eval", "--d", "3", "--exchangeable", "comonotone:0.5", "-u", "0.5,0.5,0.5"],
        )
        assert code == 0
        assert float(out) > 0.125  # above independence

    def test_validation_exit_code(self, capsys):
        code, _, err = _run(capsys, ["eval", "--p", "0.5,0.5", "--theta", "1.5", "-u", "0.5,0.5"])
        assert code == 2
        assert "admissible interval" in err

    def test_non_finite_point_exit_code(self, capsys):
        code, out, err = _run(capsys, ["eval", "--p", "0.5,0.5", "-u", "nan,0.5"])
        assert code == 2
        assert out == ""
        assert "unit cube" in err

    @pytest.mark.parametrize("points", [["0.3,0.4", "0.2"], ["0.3,0.4,0.5"]], ids=["ragged", "too-long"])
    def test_point_of_wrong_dimension_exit_code(self, capsys, points):
        argv = ["eval", "--p", "0.3,0.7", "--theta", "0.4"]
        for point in points:
            argv += ["-u", point]
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        bad = points[-1]
        assert err == f"error: point -u {bad} has dimension {bad.count(',') + 1}, expected d=2\n"

    def test_conflicting_sources_rejected(self, capsys):
        code, _, err = _run(
            capsys,
            ["eval", "--p", "0.5,0.5", "--theta", "0.5", "--exchangeable", "end:0.5", "-u", "0.5,0.5"],
        )
        assert code == 2

    def test_spec_plus_inline_rejected(self, capsys, spec_file):
        spec = spec_file("cop.spec", "d=2\np=0.5,0.5\n")
        code, _, err = _run(capsys, ["eval", "--spec", spec, "--d", "2", "-u", "0.5,0.5"])
        assert code == 2

    def test_oracle_disagreement_exit_code(self, capsys, monkeypatch):
        import gfgm.cli as cli_mod

        monkeypatch.setattr(cli_mod, "cdf_natural", lambda c, u: np.zeros(len(np.atleast_2d(u))))
        code, _, err = _run(
            capsys, ["eval", "--p", "0.5,0.5", "--theta", "1.0", "-u", "0.5,0.5", "--verify"]
        )
        assert code == 3
        assert "differ" in err


class TestTables:
    @pytest.mark.parametrize(
        "which,p,d,expected",
        [
            ("rhoL-max", 0.2, 8, 0.1130),
            ("rhoU-max", 0.9, 10, 0.4216),
            ("rhoC-max", 0.7, 8, 0.2038),
            ("tau-max", 0.9, 100, 0.0017),
            ("rhoL-min", 0.5, 2, -0.3333),
            ("rhoU-min", 0.8, 4, -0.0600),
        ],
    )
    def test_anchor_cells(self, tmp_path, which, p, d, expected):
        out = tmp_path / "table.csv"
        assert main(["tables", "--which", which, "--out", str(out)]) == 0
        rows = _read_csv(out)
        header = [s for s in rows[0]]
        col = header.index(str(d))
        row = next(r for r in rows[1:] if float(r[0]) == pytest.approx(p))
        assert float(row[col]) == pytest.approx(expected, abs=5e-5)

    def test_precision_flag(self, tmp_path):
        out = tmp_path / "table.csv"
        main(["tables", "--which", "tau-max", "--precision", "8", "--out", str(out)])
        rows = _read_csv(out)
        assert "." in rows[1][1] and len(rows[1][1].split(".")[1]) == 8

    def test_negative_precision_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        argv = ["tables", "--which", "tau-max", "--precision", "-1", "--out", str(out)]
        code, stdout, err = _run(capsys, argv)
        assert code == 2
        assert "precision" in err
        assert not out.exists() and stdout == ""


class TestMeasures:
    def test_closed_form_values(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(
            ["measures", "--p", "0.5,0.5", "--theta", "1.0", "--out", str(out)]
        )
        assert code == 0
        rows = {r[0]: r for r in _read_csv(out)[1:]}
        assert float(rows["rho_cL"][4]) == pytest.approx(0.3333, abs=5e-5)
        assert float(rows["tau"][4]) == pytest.approx(0.2222, abs=5e-5)
        assert rows["rho_c"][1] == "closed_form"

    def test_non_finite_beta_spec_exit_code(self, capsys):
        code, out, err = _run(capsys, ["measures", "--d", "3", "--exchangeable", "beta:nan,2"])
        assert code == 2
        assert out == ""
        assert "Beta parameters" in err

    @pytest.mark.parametrize(
        "spec, form",
        [("beta:2", "beta:alpha,beta"), ("end:", "end:p"), ("end:abc", "end:p"),
         ("end", "end:p"), ("counts:", "counts:q0,q1,...,qd")],
    )
    def test_malformed_exchangeable_spec(self, capsys, spec, form):
        code, out, err = _run(capsys, ["measures", "--d", "3", "--exchangeable", spec])
        assert code == 2
        assert out == ""
        assert err == f"error: malformed exchangeable spec {spec!r}: expected {form}\n"

    def test_verify_rejects_nan_gap(self, capsys, monkeypatch):
        nan = association.AssociationReport(np.nan, np.nan, np.nan, np.nan, 2, "quadrature")
        monkeypatch.setattr(association, "measures_by_quadrature", lambda c, nodes: nan)
        argv = ["measures", "--p", "0.5,0.5", "--theta", "1.0", "--verify"]
        code, out, err = _run(capsys, argv)
        assert code == 3
        assert out == ""
        assert "differ by nan" in err

    @pytest.mark.parametrize("method", ["closed_form", "quadrature"])
    def test_verify_reuses_the_report(self, capsys, monkeypatch, method):
        calls = []
        for name in ("measures", "measures_by_quadrature"):
            route = getattr(association, name)
            monkeypatch.setattr(
                association,
                name,
                lambda c, route=route, name=name, **kw: calls.append(name) or route(c, **kw),
            )
        argv = ["measures", "--p", "0.5,0.5", "--theta", "1.0", "--method", method, "--verify"]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert f"rho_cL,{method},2," in out
        assert sorted(calls) == ["measures", "measures_by_quadrature"]

    def test_verify_passes_for_honest_copula(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(
            ["measures", "--p", "0.3,0.8", "--theta", "0.2", "--verify", "--out", str(out)]
        )
        assert code == 0

    def test_verify_detects_disagreement(self, tmp_path, monkeypatch):
        bogus = association.AssociationReport(0.5, 0.5, 0.5, 0.5, 2, "quadrature")
        monkeypatch.setattr(
            "gfgm.cli.association.measures_by_quadrature",
            lambda c, nodes=96: bogus,
        )
        code = main(
            ["measures", "--p", "0.5,0.5", "--verify", "--out", "/dev/null"]
        )
        assert code == 3

    @pytest.mark.parametrize("nodes", ["2049", "100000"])
    def test_node_cap_exit_code(self, capsys, nodes):
        argv = ["measures", "--p", "0.4,0.6", "--theta", "0.5", "--method", "quadrature", "--nodes", nodes]
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: quadrature nodes per axis must be an integer from 1 to 2048\n"

    def test_monte_carlo_method(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = main(
            [
                "measures", "--p", "0.5,0.5", "--theta", "1.0",
                "--method", "monte_carlo", "--n", "20000", "--seed", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = {r[0]: r for r in _read_csv(out)[1:]}
        assert float(rows["rho_c"][4]) == pytest.approx(1 / 3, abs=0.02)
        text = out.read_text()
        assert "# stderr rho_c=" in text


class TestSample:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--p", "0.4,0.6", "--theta", "0.3", "--n", "3", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_header_and_shape(self, tmp_path):
        out = tmp_path / "s.csv"
        main(
            ["sample", "--d", "3", "--exchangeable", "end:0.4", "--n", "10", "--seed", "1",
             "--out", str(out)]
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# seed=1 generator=")
        assert lines[1] == "u1,u2,u3"
        data = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
        assert data.shape == (10, 3)
        assert data.min() > 0 and data.max() < 1

    @pytest.mark.parametrize(
        "text", ["11,0.5\n0,0.5\nd=2\n", "d=3\nd=2\n00,0.5\n11,0.5\n"],
        ids=["late-header", "repeated-header"],
    )
    def test_pmf_file_header_out_of_place(self, capsys, tmp_path, text):
        pmf = tmp_path / "pmf.txt"
        pmf.write_text(text)
        code, out, err = _run(capsys, ["sample", "--pmf-file", str(pmf), "--n", "3", "--seed", "1"])
        assert code == 2
        assert out == ""
        assert "header" in err and "Traceback" not in err

    def test_count_law_above_the_atom_range(self, capsys):
        argv = ["sample", "--d", "25", "--exchangeable", "end:0.4", "--n", "5", "--seed", "1"]
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "still sampled through atoms (d <= 20)" in err

    def test_memory_error_exit_code(self, capsys, monkeypatch):
        # --n 10000000000 asks numpy for 74.5 GiB of masks
        def sample(c, n, seed):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(sampling, "sample", sample)
        argv = ["sample", "--p", "0.4,0.6", "--n", "10000000000", "--seed", "1"]
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert "74.5 GiB" in err and "Traceback" not in err


class TestPdfGrid:
    def test_independence_flat(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["pdf-grid", "--p", "0.5,0.5", "--resolution", "8", "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert len(rows) - 1 == 64
        dens = np.array([float(r[2]) for r in rows[1:]])
        assert dens == pytest.approx(np.ones(64), abs=1e-12)

    @pytest.mark.parametrize("p,lower_heavy", [(0.3, True), (0.7, False)])
    def test_comonotone_tail_concentration(self, tmp_path, p, lower_heavy):
        # complementary half-quadrants carry identical mass for *every*
        # copula (both equal C(1/2,1/2)), so the tail asymmetry of the
        # maximal-dependence density shows up in the corner boxes
        out = tmp_path / "g.csv"
        theta = str((1 - p) / p)
        main(["pdf-grid", "--p", f"{p},{p}", "--theta", theta, "--resolution", "20",
              "--out", str(out)])
        rows = _read_csv(out)[1:]
        grid = np.array([[float(x) for x in r] for r in rows])
        u, v, dens = grid[:, 0], grid[:, 1], grid[:, 2]
        lower = dens[(u < 0.25) & (v < 0.25)].mean()
        upper = dens[(u > 0.75) & (v > 0.75)].mean()
        assert (lower > upper) == lower_heavy

    def test_needs_bivariate(self, capsys):
        code, _, err = _run(capsys, ["pdf-grid", "--p", "0.5,0.5,0.5"])
        assert code == 2

    @pytest.mark.parametrize("res", [cli.MAX_RESOLUTION + 1, 100000])
    def test_resolution_cap(self, tmp_path, capsys, res):
        # 100000 per axis was a 74.5 GiB grid; the check comes before any allocation
        out = tmp_path / "g.csv"
        argv = ["pdf-grid", "--p", "0.4,0.6", "--theta", "0.5", "--resolution", str(res)]
        tracemalloc.start()
        try:
            code = main(argv + ["--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert f"--resolution must be from 1 to {cli.MAX_RESOLUTION}" in err
        assert peak <= 1_000_000

    @pytest.mark.parametrize("res", ["0", "-2"])
    def test_rejects_empty_grid(self, capsys, res):
        code, out, err = _run(capsys, ["pdf-grid", "--p", "0.5,0.5", "--resolution", res])
        assert code == 2
        assert out == ""
        assert "--resolution" in err


class TestExtremals:
    def test_integer_case(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["extremals", "--p", "0.5", "--d", "2", "--out", str(out)]) == 0
        rows = _read_csv(out)[1:]
        kinds = sorted(r[0] for r in rows)
        assert kinds == ["degenerate", "two_point"]

    def test_fractional_case(self, tmp_path):
        out = tmp_path / "e.csv"
        main(["extremals", "--p", "0.5", "--d", "3", "--out", str(out)])
        rows = _read_csv(out)[1:]
        assert len(rows) == 4
        assert all(r[0] == "two_point" for r in rows)


# SHA-256 of ``extremals --p P --d D`` output, recorded while the command still
# built every ExchangeableCountPmf before writing
EXTREMAL_DIGESTS = {
    (0.37, 3): "92351ad627852aaccbfd5cf112e158834b1e3e355ef2249c8022173e72896c89",
    (0.5, 3): "b9d1468e51ef9a593447d94795714ff63f7c30bf5da486514cc8e63ff62719d5",
    (0.37, 10): "ec782263ff5cd48f73b2db75ffd1d9a720782e226c448a7bfc26f53666f92ada",
    (0.5, 10): "f410ed050e27e1e1cf548df399f57047223164d79869b443dfe06b329ea544c6",
    (0.37, 101): "c8c0f4136cf0995d48d1e9a30ed56d66045da033c57c5c8f937067bbc31f4d0e",
    (0.5, 101): "78d47c13c260a1da6fc86ea21ae97ec54ab167dc737565a9d622582ec51377cf",
}


class TestExtremalRows:
    @pytest.mark.parametrize("p,d", sorted(EXTREMAL_DIGESTS))
    def test_output_digest(self, tmp_path, p, d):
        out = tmp_path / "e.csv"
        assert main(["extremals", "--p", str(p), "--d", str(d), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == EXTREMAL_DIGESTS[p, d]

    def test_memory_at_d600(self, tmp_path):
        # all O(d^2) laws at once held about 430 MB at d = 600; rows need O(d)
        out = tmp_path / "e.csv"
        tracemalloc.start()
        try:
            assert main(["extremals", "--p", "0.4", "--d", "600", "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000
        with open(out) as fh:
            assert sum(1 for _ in fh) == 2 + 240 * 360 + 1  # pd = 240: j1 < 240 < j2, and degenerate

    def test_invalid_arguments_write_nothing(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["extremals", "--p", "1.5", "--d", "4", "--out", str(out)]) == 2
        assert main(["extremals", "--p", "0.5", "--d", "1", "--out", str(out)]) == 2
        assert not out.exists()


class TestOrderCheck:
    def test_independence_vs_comonotone(self, tmp_path, spec_file):
        s1 = spec_file("ind.spec", "d=3\np=0.4,0.4,0.4\n")
        s2 = spec_file("com.spec", "d=3\nexchangeable=comonotone:0.4\n")
        out = tmp_path / "o.csv"
        assert main(["order-check", "--spec1", s1, "--spec2", s2, "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert rows[1][4] == "c_ordered"
        assert rows[1][0] == "1" and rows[1][1] == "0"

    def test_grid_option_is_gone(self, capsys, spec_file):
        # the order is decided exactly from moments; no grid is left to size
        s1 = spec_file("a.spec", "d=2\np=0.4,0.6\ntheta=0.6\n")
        s2 = spec_file("b.spec", "d=2\np=0.4,0.6\ntheta=-0.9\n")
        with pytest.raises(SystemExit) as exc:
            main(["order-check", "--spec1", s1, "--spec2", s2, "--grid", "5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--grid" in captured.err

    @pytest.mark.parametrize("d", [21, 200])
    def test_independence_pair_beyond_the_dense_range(self, capsys, spec_file, d):
        # unequal margins: compared by margins, not by 2^d subset moments
        text = f"p={','.join(map(str, np.linspace(0.2, 0.8, d)))}\n"
        s1, s2 = spec_file("a.spec", text), spec_file("b.spec", text)
        code, out, _ = _run(capsys, ["order-check", "--spec1", s1, "--spec2", s2])
        assert code == 0
        assert out.splitlines()[1] == "1,1,1,1,c_ordered"

    def test_mismatched_p_exit_code(self, capsys, spec_file):
        s1 = spec_file("a.spec", "d=2\np=0.4,0.4\n")
        s2 = spec_file("b.spec", "d=2\np=0.5,0.5\n")
        code, _, err = _run(capsys, ["order-check", "--spec1", s1, "--spec2", s2])
        assert code == 2
        assert "shape" in err


class TestSpecParsing:
    def test_unknown_key_rejected(self, capsys, spec_file):
        spec = spec_file("bad.spec", "d=2\np=0.5,0.5\nfrobnicate=1\n")
        code, _, err = _run(capsys, ["eval", "--spec", spec, "-u", "0.5,0.5"])
        assert code == 2

    def test_counts_infer_dimension(self, capsys, spec_file):
        spec = spec_file("c.spec", "exchangeable=counts:0.25,0.5,0.25\n")
        code, out, _ = _run(capsys, ["eval", "--spec", spec, "-u", "0.5,0.5"])
        assert code == 0
        assert float(out) == pytest.approx(0.25)  # binomial counts = independence


def _pmf30_text():
    """A fixed d=30 atom pmf: four hashed masks and their complements."""
    base = [(a + 1) * 0x9E3779B1 % 2**30 for a in range(4)]
    masks = base + [m ^ (2**30 - 1) for m in base]
    probs = ["0.04", "0.08", "0.12", "0.16", "0.2", "0.18", "0.14", "0.08"]
    return "d=30\n" + "".join(f"{m:030b},{q}\n" for m, q in zip(masks, probs))


# SHA-256 of the bytes each command writes, recorded before the CSV writer was
# rewritten; any change to number formatting, row order or line endings shows.
# The d=10, d=30 and n=70000 samples and the r=257 grid span several write chunks.
CLI_DIGESTS = {
    "sample-end-d10": (
        ["sample", "--d", "10", "--exchangeable", "end:0.35", "--n", "7001", "--seed", "11"],
        "d074e9d0a06bce509c1850da326fac70147738be301132314b7db941d1120d9f",
    ),
    "sample-pmf-d30": (
        ["sample", "--pmf-file", "{pmf30}", "--n", "2500", "--seed", "12"],
        "a7829eab7848cb01e3f5ad7de3e80c62a784448702091b3ddd0fa7b0719abae0",
    ),
    "sample-theta-d2-n1": (
        ["sample", "--p", "0.3,0.8", "--theta", "-0.4", "--n", "1", "--seed", "13"],
        "e32660db91d854e3e87929ccd3883a5e01ef8155bc7af132b5600c3200a3eae6",
    ),
    "sample-theta-d2-n70000": (
        ["sample", "--p", "0.3,0.8", "--theta", "-0.4", "--n", "70000", "--seed", "14"],
        "674669cd8a1f857633ad867a4305e299a1f9ef3c7f5164cb2a77c48e5d78b000",
    ),
    "pdf-grid-r257": (
        ["pdf-grid", "--p", "0.3,0.7", "--theta", "0.4", "--resolution", "257"],
        "e239438f243cd546fc32744dda44f0590a4e894ff643aecf526eab8f3814605b",
    ),
    "pdf-grid-r1": (
        ["pdf-grid", "--p", "0.3,0.7", "--theta", "0.4", "--resolution", "1"],
        "52c6239b40bb709366e782938f2d14d33c2af61cfb6c33b5c6ddd39577e8613c",
    ),
    "eval-edges": (
        ["eval", "--p", "0.3,0.7", "--theta", "0.4",
         "-u", "0,0.5", "-u", "1e-300,0.7", "-u", "1,1", "-u", "0.25,1e-300", "-u", "0.3,0.4"],
        "cc2f699644f38c1c6cbbf634f2ad2b88c46a582f7fed718d4afb3e57c3533dc8",
    ),
    "tables-tau-max-p0": (
        ["tables", "--which", "tau-max", "--precision", "0"],
        "08fce6c7a09be20d36e56e5845846d3373b15f4819fbc0d9b9ca54b7340cf8c0",
    ),
    "tables-rhoL-min-p17": (
        ["tables", "--which", "rhoL-min", "--precision", "17"],
        "7f7b3a303dd27e9c85fa21baa705ba80f0b5d7d22367734c476c227b5969db68",
    ),
}


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
    def test_output_digest(self, tmp_path, name):
        argv, digest = CLI_DIGESTS[name]
        (tmp_path / "pmf30.txt").write_text(_pmf30_text())
        out = tmp_path / "out.csv"
        argv = [a.format(pmf30=tmp_path / "pmf30.txt") for a in argv]
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_repeat_in_one_process(self, tmp_path):
        # a failed parse or a failed validation in between must leave the
        # next run in the same process unchanged
        argv = ["sample", "--d", "4", "--exchangeable", "end:0.4", "--n", "50", "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--d", "4", "--n", "many", "--seed", "3"])
        assert exc.value.code == 2
        bad = ["sample", "--p", "0.5,0.5", "--theta", "1.5", "--n", "5", "--seed", "3"]
        assert main(bad + ["--out", str(tmp_path / "bad.csv")]) == 2
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
