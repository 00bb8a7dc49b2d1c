"""Every input check raises its documented error; from the CLI, exit 2 with the message."""

import numpy as np
import pytest

from gfgm import (
    BernoulliPmf,
    GfgmCopula,
    InvalidDistributionError,
    MixtureSpec,
    SampleBatch,
    cdf,
    fgm_natural_cdf,
    max_measures_gfgm_p,
    min_measures_exchangeable,
    moments_to_pmf,
    sample,
    sample_bernoulli,
    survival_by_cdf,
)
from gfgm.bernoulli import independent, validate_margins
from gfgm.cli import main
from gfgm.copula import NATURAL_FORM_MAX_D

PMF_D2 = "d=2\n00,0.25\n01,0.25\n10,0.25\n11,0.25\n"


def _file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _order_check_argv(tmp_path):
    spec1 = _file(tmp_path, "a", "p=0.5,0.5\n")
    return ["order-check", "--spec1", spec1, "--spec2", _file(tmp_path, "b", "p=0.5,0.5,0.5\n")]


# name -> (argv from the files it writes under tmp_path, message)
CLI_CASES = {
    "duplicate-spec-key": (
        lambda t: ["measures", "--spec", _file(t, "s", "d=2\nd=2\np=0.5,0.5\n")],
        "duplicate spec key 'd'",
    ),
    "pmf-file-d-mismatch": (
        lambda t: ["measures", "--pmf-file", _file(t, "f", PMF_D2), "--d", "3"],
        "pmf has d=2, spec says d=3",
    ),
    "theta-p-length": (
        lambda t: ["measures", "--theta", "0.1", "--p", "0.5,0.5,0.5"],
        "theta form needs p with exactly 2 entries",
    ),
    "theta-d": (
        lambda t: ["measures", "--theta", "0.1", "--p", "0.5,0.5", "--d", "3"],
        "theta form is bivariate (d=2)",
    ),
    "p-length-d": (
        lambda t: ["measures", "--p", "0.5,0.5", "--d", "3"],
        "p has 2 entries, spec says d=3",
    ),
    "pmf-malformed-line": (
        lambda t: ["measures", "--pmf-file", _file(t, "f", "d=2\n00,0.5,1\n11,0.5\n")],
        "malformed pmf line: '00,0.5,1'",
    ),
    "pmf-duplicate-outcome": (
        lambda t: ["measures", "--pmf-file", _file(t, "f", "d=2\n00,0.5\n00,0.5\n")],
        "duplicate outcome '00'",
    ),
    "pmf-missing-header": (
        lambda t: ["measures", "--pmf-file", _file(t, "f", "# no atoms\n")],
        "missing 'd=<dim>' header line",
    ),
    "counts-without-d": (
        lambda t: ["measures", "--exchangeable", "counts:0.5,0.5"],
        "dimension must be >= 2",
    ),
    "quadrature-nodes": (
        lambda t: ["measures", "--p", "0.5,0.5", "--theta", "0.1", "--method", "quadrature", "--nodes", "32"],
        "use at least 64 nodes per axis",
    ),
    "order-check-d": (_order_check_argv, "copulas must share the dimension"),
    "shape-vector-length": (
        lambda t: ["measures", "--pmf-file", _file(t, "f", PMF_D2), "--p", "0.5,0.5,0.5"],
        "shape vector length must equal pmf dimension",
    ),
    # a spec field's text is read by build_copula alone, from a spec file and from the flags
    "spec-d-text": (
        lambda t: ["measures", "--spec", _file(t, "s", "d=3.5\np=0.5,0.5\n")],
        "d must be an integer, got '3.5'",
    ),
    "flag-d-text": (
        lambda t: ["measures", "--d", "3.5", "--p", "0.5,0.5"],
        "d must be an integer, got '3.5'",
    ),
    "spec-theta-text": (
        lambda t: ["measures", "--spec", _file(t, "s", "p=0.5,0.5\ntheta=abc\n")],
        "theta must be a real number, got 'abc'",
    ),
    "flag-theta-text": (
        lambda t: ["measures", "--p", "0.5,0.5", "--theta", "abc"],
        "theta must be a real number, got 'abc'",
    ),
    "spec-p-text": (
        lambda t: ["measures", "--spec", _file(t, "s", "p=0.4,x\n")],
        "p must be comma-separated reals, got '0.4,x'",
    ),
    "flag-p-text": (
        lambda t: ["measures", "--p", "0.4,x"],
        "p must be comma-separated reals, got '0.4,x'",
    ),
    "pmf-header-text": (
        lambda t: ["measures", "--pmf-file", _file(t, "f", "d=2.5\n00,1\n")],
        "malformed pmf header line: 'd=2.5'",
    ),
    "pmf-probability-text": (
        lambda t: ["measures", "--pmf-file", _file(t, "f", "d=2\n00,0.5x\n11,0.5\n")],
        "malformed pmf line: '00,0.5x'",
    ),
    "eval-point-text": (
        lambda t: ["eval", "--p", "0.5,0.5", "-u", "0.4,x"],
        "point -u 0.4,x is not comma-separated reals",
    ),
    "sample-seed-negative": (
        lambda t: ["sample", "--p", "0.5,0.5", "--n", "3", "--seed", "-1"],
        "seed must be nonnegative, got -1",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_rejects_with_exit_2(capsys, tmp_path, name):
    argv_of, message = CLI_CASES[name]
    assert main(argv_of(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


# name -> (call, error type, message)
API_CASES = {
    "margins-1d": (lambda: validate_margins([0.5]), InvalidDistributionError, "1-D with d >= 2"),
    "margins-2d": (lambda: validate_margins([[0.5, 0.5]]), InvalidDistributionError, "1-D with d >= 2"),
    "pmf-congruent": (lambda: BernoulliPmf(2, [0, 1], [1.0]), InvalidDistributionError, "congruent"),
    "pmf-no-atom": (lambda: BernoulliPmf(2, [], []), InvalidDistributionError, "at least one atom"),
    "pmf-mask-range": (lambda: BernoulliPmf(2, [4], [1.0]), InvalidDistributionError, "out of range"),
    "bitstring-lengths": (
        lambda: BernoulliPmf.from_bitstrings({"01": 0.5, "011": 0.5}),
        InvalidDistributionError,
        "share one length",
    ),
    "moments-length": (lambda: moments_to_pmf(np.ones(6)), InvalidDistributionError, r"2\^d with d >= 2"),
    "moments-d1": (lambda: moments_to_pmf([1.0, 0.5]), InvalidDistributionError, r"2\^d with d >= 2"),
    "moments-non-finite": (
        lambda: moments_to_pmf([1.0, np.inf, 0.5, 0.3]),
        InvalidDistributionError,
        "moments must be finite",
    ),
    "moments-empty-subset": (
        lambda: moments_to_pmf([0.5, 0.25, 0.25, 0.1]),
        InvalidDistributionError,
        "empty-subset moment must be 1",
    ),
    "max-measures-d1": (lambda: max_measures_gfgm_p(0.4, 1), InvalidDistributionError, "need d >= 2"),
    "min-measures-d1": (lambda: min_measures_exchangeable(0.4, 1), InvalidDistributionError, "need d >= 2"),
    "point-dimension": (
        lambda: cdf(GfgmCopula.bivariate(0.4, 0.6, 0.5), [[0.5, 0.5, 0.5]]),
        ValueError,
        r"expected points of dimension 2, got shape \(1, 3\)",
    ),
    "survival-by-cdf-d": (
        lambda: survival_by_cdf(GfgmCopula.independence([0.5] * (NATURAL_FORM_MAX_D + 1)),
                                [0.5] * (NATURAL_FORM_MAX_D + 1)),
        InvalidDistributionError,
        f"d <= {NATURAL_FORM_MAX_D}",
    ),
    "mixture-neither": (lambda: MixtureSpec(), InvalidDistributionError, "either moments or a quadrature"),
    "mixture-one-moment": (
        lambda: MixtureSpec.from_moments([1.0]), InvalidDistributionError, "K >= 1"
    ),
    "mixture-incongruent": (
        lambda: MixtureSpec.from_quadrature([0.5], [0.5, 0.5]),
        InvalidDistributionError,
        "congruent 1-D",
    ),
    "mixture-moment-range": (
        lambda: MixtureSpec.from_moments([1.0, 1.0, 1.0 + 1e-13]),
        InvalidDistributionError,
        r"lie in \[0,1\]",
    ),
    "mixture-moment-order": (
        lambda: MixtureSpec.from_moments([1.0, 0.5]).moment(2),
        InvalidDistributionError,
        "moment of order 2 not supplied",
    ),
    "fgm-thetas-length": (
        lambda: fgm_natural_cdf(np.ones(3), [0.5, 0.5]), ValueError, "power of two"
    ),
    "batch-shape": (
        lambda: SampleBatch(2, 2, np.full((3, 2), 0.5), 0), ValueError, r"shape \(2, 2\)"
    ),
    "batch-range": (
        lambda: SampleBatch(1, 2, [[0.0, 0.5]], 0), ValueError, r"strictly in \(0, 1\)"
    ),
    "sample-bernoulli-n": (
        lambda: sample_bernoulli(independent([0.5, 0.5]), 0, 0), ValueError, "n must be positive"
    ),
    "sample-bernoulli-n-integral": (
        lambda: sample_bernoulli(independent([0.5, 0.5]), 2.5, 0),
        InvalidDistributionError,
        r"n must be an integer, got 2\.5",
    ),
    "sample-seed-integral": (
        lambda: sample(GfgmCopula.independence([0.5, 0.5]), 5, 1.7),
        InvalidDistributionError,
        r"seed must be an integer, got 1\.7",
    ),
    "sample-seed-negative": (
        lambda: sample(GfgmCopula.independence([0.5, 0.5]), 5, -1),
        ValueError,
        "seed must be nonnegative, got -1",
    ),
}


@pytest.mark.parametrize("name", sorted(API_CASES))
def test_api_raises_its_documented_error(name):
    call, error, message = API_CASES[name]
    with pytest.raises(error, match=message) as info:
        call()
    assert info.type is error


def test_integral_draw_arguments_pass_as_ints():
    # n and seed follow the dimension rule: 5.0 and np.int64(1) are 5 and 1, same stream
    c = GfgmCopula.independence([0.3, 0.6])
    want = sample(c, 5, 1)
    for n, seed in ((5.0, 1.0), (np.int64(5), np.int64(1))):
        got = sample(c, n, seed)
        assert got.values.tobytes() == want.values.tobytes()
        assert (type(got.n), type(got.seed), got.seed) == (int, int, 1)
    pmf = independent([0.3, 0.6])
    assert np.array_equal(sample_bernoulli(pmf, 5.0, 1.0), sample_bernoulli(pmf, 5, 1))
