"""The text of ``gfgm``'s usage lines, help and argument errors, byte for byte.

A call that succeeds builds only its command's parser; help and errors come
from the parser holding all seven, or from the command's own parser when it
stops first.  These pins check that both write what they always wrote.
"""

import argparse
import hashlib
import sys

import pytest

from gfgm.cli import main

COMMANDS = ("eval", "pdf-grid", "measures", "tables", "sample", "extremals", "order-check")


def _cases():
    cases = {
        "none": [],
        "help": ["-h"],
        "unknown": ["bogus"],
        "unknown-then-real": ["bogus", "eval"],
        "tables-which-nope": ["tables", "--which", "nope"],
        "measures-method-x": ["measures", "--method", "x"],
        # -u is required, so a bare ``eval`` stray never reaches the top-level parser
        "eval-u-stray": ["eval", "-u", "0.5,0.5", "stray"],
    }
    for name in COMMANDS:
        cases[f"{name}-help"] = [name, "-h"]
        cases[f"{name}-bare"] = [name]
        cases[f"{name}-bogus"] = [name, "--bogus"]
        cases[f"{name}-stray"] = [name, "stray"]
    return cases


CASES = _cases()

# name -> (exit code, SHA-256 of stdout, SHA-256 of stderr), recorded with
# COLUMNS=80 while ``main`` still built all seven subparsers on every call.
TEXT_DIGESTS = {
    "eval-bare": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "63b807b009906086182a23f320fdc779c4a9a967dd80e01601430a333ce44103",
    ),
    "eval-bogus": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "63b807b009906086182a23f320fdc779c4a9a967dd80e01601430a333ce44103",
    ),
    "eval-help": (
        0,
        "b58cdadbecb30d6659f94cc64e12b2dcc3ce87544ef0d9086208e79fe9924ee9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "eval-stray": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "63b807b009906086182a23f320fdc779c4a9a967dd80e01601430a333ce44103",
    ),
    "eval-u-stray": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5449a1578be2a17f85e9213ccae7cbc597260ccd0890dbf45c35ef35536b1b95",
    ),
    "extremals-bare": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b5b616a4d14f70e0d5b747c9cf81b1a377fa59abe97dcd05383f8e55ec4276c6",
    ),
    "extremals-bogus": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b5b616a4d14f70e0d5b747c9cf81b1a377fa59abe97dcd05383f8e55ec4276c6",
    ),
    "extremals-help": (
        0,
        "6db9eab98cf7842cef40864f7b3d33b6e0a81163d885cd4ee1b2ff09e811bd27",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "extremals-stray": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b5b616a4d14f70e0d5b747c9cf81b1a377fa59abe97dcd05383f8e55ec4276c6",
    ),
    "help": (
        0,
        "d7f5b433ce53832499a02f6c871b8d14babfe68aa327f3040e8469b158bf468a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "measures-bare": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "faf927cf41a449023da3694faa313e8d0caa49954252caf5183f2c370ae11998",
    ),
    "measures-bogus": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a2c747863ede5d4ba5a5864c7e559bd5ae5449502d4982690f54db93bd69d663",
    ),
    "measures-help": (
        0,
        "a707644fa3c31c6cf4411918c8096aaf5d281c147868a8c7dd5c6736fdaadb7a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "measures-method-x": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "63d86f761d864b70a7e84a301a8e366bab3d1bcc31f41de66663ff2a76cb21c0",
    ),
    "measures-stray": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5449a1578be2a17f85e9213ccae7cbc597260ccd0890dbf45c35ef35536b1b95",
    ),
    "none": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "647f83366fe0c02da8e1a902b8730db7fca24bdf284e7ec36f06a8f3f71a17c9",
    ),
    "order-check-bare": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "225227448e31e445a6fc3a779385b4c0037ee75aaf3ff5c6580b5607681878e3",
    ),
    "order-check-bogus": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "225227448e31e445a6fc3a779385b4c0037ee75aaf3ff5c6580b5607681878e3",
    ),
    "order-check-help": (
        0,
        "374272bf19d2265bb537c3f7f69ae77e94f583ec644a8835b45ab9466c81b58d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "order-check-stray": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "225227448e31e445a6fc3a779385b4c0037ee75aaf3ff5c6580b5607681878e3",
    ),
    "pdf-grid-bare": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "faf927cf41a449023da3694faa313e8d0caa49954252caf5183f2c370ae11998",
    ),
    "pdf-grid-bogus": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a2c747863ede5d4ba5a5864c7e559bd5ae5449502d4982690f54db93bd69d663",
    ),
    "pdf-grid-help": (
        0,
        "e24bbc1d4503c67b5d3c60e6473370c36725b7ba0435e818d1bd8b069bfa66d1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "pdf-grid-stray": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5449a1578be2a17f85e9213ccae7cbc597260ccd0890dbf45c35ef35536b1b95",
    ),
    "sample-bare": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "81850131c1747f053a38fa530f7f51cdb4ae1848751015389d7347471d2b944a",
    ),
    "sample-bogus": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "81850131c1747f053a38fa530f7f51cdb4ae1848751015389d7347471d2b944a",
    ),
    "sample-help": (
        0,
        "b29ba72ab4d28720fb5c946a0690e02a1f4b67867ea1e1f5af2a0a8af6081413",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "sample-stray": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "81850131c1747f053a38fa530f7f51cdb4ae1848751015389d7347471d2b944a",
    ),
    "tables-bare": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "654f33008bf9f8555797e88b46d3fc6dd1e1aeacc3c4588bb5ea0d0b0ecb9229",
    ),
    "tables-bogus": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "654f33008bf9f8555797e88b46d3fc6dd1e1aeacc3c4588bb5ea0d0b0ecb9229",
    ),
    "tables-help": (
        0,
        "d94e6ff2c8274f5efc1bf314101ebb38705a0d4bf6a001eb2167da1d899f3ca4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "tables-stray": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "654f33008bf9f8555797e88b46d3fc6dd1e1aeacc3c4588bb5ea0d0b0ecb9229",
    ),
    "tables-which-nope": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "dd8aaf45445fd9c554ae55827aa7627441c4ed678c4a6036f843db8af2a9d02f",
    ),
    "unknown": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1323b2f8ccad2ca146fe89d08052b53ef77ff2369d736ace80d9fa69b1341d63",
    ),
    "unknown-then-real": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1323b2f8ccad2ca146fe89d08052b53ef77ff2369d736ace80d9fa69b1341d63",
    ),
}


def _run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    # argparse wraps help and usage at the terminal width, read from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")


# argparse words its help differently from one Python version to another
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="text recorded with Python 3.11's argparse")
@pytest.mark.parametrize("name", sorted(CASES))
def test_text(capsys, name):
    code, out, err = _run(capsys, CASES[name])
    assert (code, _digest(out), _digest(err)) == TEXT_DIGESTS[name]


def test_top_level_usage_line(capsys):
    code, out, err = _run(capsys, ["pdf-grid", "--bogus"])
    assert code == 2 and out == ""
    assert err == (
        "usage: gfgm [-h]\n"
        "            {" + ",".join(COMMANDS) + "} ...\n"
        "gfgm: error: unrecognized arguments: --bogus\n"
    )


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["gfgm", "extremals", "--p", "0.5", "--d", "2"])
    code, out, _ = _run(capsys, None)
    assert code == 0
    assert out.startswith("# extremal exchangeable count pmfs p=0.5 d=2\n")


@pytest.fixture
def registered(monkeypatch):
    """The names given to ``add_parser``, in order."""
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    return names


def test_help_registers_and_lists_all_seven_in_order(capsys, registered):
    code, out, _ = _run(capsys, ["-h"])
    assert code == 0 and registered == list(COMMANDS)
    listed = [line.split()[0] for line in out.splitlines() if line[:4] == "    " and line[4] != " "]
    assert listed == list(COMMANDS)


# each command with its required arguments, so "--bogus" is left over; a
# missing required argument is reported by the command's own parser
_LEFT_OVER = [
    ["eval", "-u", "0.5,0.5", "--bogus"],
    ["pdf-grid", "--bogus"],
    ["measures", "--bogus"],
    ["tables", "--which", "tau-max", "--bogus"],
    ["sample", "--n", "1", "--seed", "0", "--bogus"],
    ["extremals", "--p", "0.5", "--d", "2", "--bogus"],
    ["order-check", "--spec1", "a", "--spec2", "b", "--bogus"],
]


@pytest.mark.parametrize("argv", [[], ["bogus"], ["bogus", "eval"]] + _LEFT_OVER)
def test_any_other_argv_registers_all_seven(capsys, registered, argv):
    assert _run(capsys, argv)[0] == 2
    assert registered == list(COMMANDS)


@pytest.mark.parametrize(
    "argv", [["tables", "--which", "tau-max"], ["extremals", "--p", "0.5", "--d", "3"]]
)
def test_a_known_command_builds_one_parser(capsys, monkeypatch, tmp_path, argv):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert _run(capsys, argv + ["--out", str(tmp_path / "out.csv")])[0] == 0
    assert built == [f"gfgm {argv[0]}"]
