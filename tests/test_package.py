"""Package-level properties: what importing gfgm pulls in, and what each module owns."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import gfgm
from gfgm.bernoulli import BernoulliPmf, IndependenceLaw, InvalidDistributionError, validate_margins
from gfgm.exchangeable import ExchangeableCountPmf, _extremal_rows


def _third_party_modules_after(code):
    """Top-level modules that running ``code`` loads in a fresh interpreter.

    The standard library, numpy, gfgm and whatever the interpreter loaded
    before ``code`` (``site`` hooks) are left out, so any other import shows.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(gfgm.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\nbefore = set(sys.modules)\n" + code + "\nprint(sorted("
        "{m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names) - {'numpy', 'gfgm'}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()[-1]


def test_import_leaves_scipy_unloaded():
    assert _third_party_modules_after("import gfgm") == "[]"


def test_quadrature_oracle_leaves_scipy_unloaded():
    code = (
        "import gfgm, gfgm.cli\n"
        "gfgm.measures_by_quadrature(gfgm.GfgmCopula.bivariate(0.4, 0.6, 0.5))\n"
        "assert gfgm.cli.main(['measures', '--p', '0.4,0.6', '--theta', '0.5', '--verify']) == 0"
    )
    assert _third_party_modules_after(code) == "[]"


def test_tables_command_loads_no_third_party_module(tmp_path):
    # every fresh interpreter pays for what importing gfgm pulls in
    out = tmp_path / "tau.csv"
    argv = ["tables", "--which", "tau-max", "--out", str(out)]
    code = f"import gfgm, gfgm.cli\nassert gfgm.cli.main({argv!r}) == 0"
    assert _third_party_modules_after(code) == "[]"
    assert out.read_text().startswith("# table tau-max\n")


def test_chain_plan_leaves_numpy_ma_unloaded():
    # numpy.ma (which np.union1d imports) costs a process about 1.7 MB resident
    code = (
        "import sys, gfgm\n"
        "gfgm.cdf(gfgm.GfgmCopula.comonotone([0.3, 0.5, 0.7]), [0.5, 0.5, 0.5])\n"
        "assert 'numpy.ma' not in sys.modules"
    )
    assert _third_party_modules_after(code) == "[]"


def _re_exported_modules():
    """Modules named by the ``from .<module> import *`` lines of ``gfgm/__init__.py``, in order."""
    init = pathlib.Path(gfgm.__file__)
    tree = ast.parse(init.read_text(), filename=str(init))
    return [
        importlib.import_module(f"gfgm.{node.module}")
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and [alias.name for alias in node.names] == ["*"]
    ]


def test_package_re_exports_every_module_all():
    # each public name is declared once, in the __all__ of the module that defines it
    modules = _re_exported_modules()
    package = pathlib.Path(gfgm.__file__).parent
    stems = {m.stem for m in package.glob("*.py")} - {"__init__", "cli"}
    assert {m.__name__.rpartition(".")[2] for m in modules} == stems
    assert [m.__name__ for m in modules if "__all__" not in vars(m)] == []
    assert gfgm.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(gfgm.__all__)) == len(gfgm.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(gfgm, name) is getattr(module, name), name


REFERENCE_NAMES = (
    "BivariateGfgm",
    "Coxian2Params",
    "cdf_epd",
    "coxian2_lst",
    "fgm_natural_cdf",
    "fgm_thetas",
    "huang_kotz_cdf",
    "marginal_cdf_representation",
    "mixture_copula_cdf",
)


def _imports_reference(path):
    """Whether a source file imports a module or name called ``reference``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any("reference" in name.split(".") for name in names):
            return True
    return False


def test_no_production_module_imports_reference():
    package = pathlib.Path(gfgm.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert {m.stem for m in modules} >= {"copula", "association", "cli", "reference"}
    assert _imports_reference(package / "__init__.py")
    for module in modules:
        if module.stem not in ("__init__", "reference"):
            assert not _imports_reference(module), module.name


def _called_names(tree):
    return {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }


def test_one_rule_decides_whether_moments_form_a_law():
    # bernoulli._law_masses is the rule; moments_to_pmf and the count route
    # apply it, and the oracle's check of its moments is the count route's
    # helper, with no alternating sum of its own
    package = pathlib.Path(gfgm.__file__).parent
    trees = {m.stem: ast.parse(m.read_text()) for m in package.glob("*.py")}
    functions = {
        (stem, node.name): node
        for stem, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    assert [key for key in functions if key[1] == "_law_masses"] == [("bernoulli", "_law_masses")]
    assert "_law_masses" in _called_names(functions["bernoulli", "moments_to_pmf"])
    assert "_law_masses" in _called_names(functions["exchangeable", "_outcome_masses"])
    assert "_outcome_masses" in _called_names(functions["exchangeable", "mixture_count_pmf"])
    assert "_outcome_masses" in _called_names(functions["reference", "mixture_copula_cdf"])
    assert gfgm.reference._outcome_masses is gfgm.exchangeable._outcome_masses
    assert not {"fsum", "comb", "finfo"} & _called_names(trees["reference"])


def _atom_form_reads(tree, inside=None):
    """Reads of ``.bernoulli`` and calls of ``as_atoms()`` outside their own definitions."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            found += _atom_form_reads(node, node.name)
            continue
        if inside not in ("bernoulli", "as_atoms"):
            if isinstance(node, ast.Attribute) and node.attr == "bernoulli":
                found.append(node.lineno)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "as_atoms":
                found.append(node.lineno)
        found += _atom_form_reads(node, inside)
    return found


def test_only_sampling_reads_the_atom_form():
    # everything else contracts the law or reads its moments
    package = pathlib.Path(gfgm.__file__).parent
    readers = {
        module.stem
        for module in package.glob("*.py")
        if _atom_form_reads(ast.parse(module.read_text(), filename=str(module)))
    }
    assert readers == {"sampling"}


def test_readme_limits_table_states_the_constants():
    from gfgm.association import MEASURES_MAX_D
    from gfgm.bernoulli import MAX_DENSE_DIMENSION, MAX_DIMENSION
    from gfgm.copula import NATURAL_FORM_MAX_D, SHAPE_ATOL
    from gfgm.exchangeable import COUNT_LAW_MAX_D

    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {
        line.split("|")[1].strip(): [cell.strip() for cell in line.split("|")[3:-1]]
        for line in readme.splitlines()
        if line.startswith("| `--")
    }
    # columns: measures, eval, eval --natural / --verify, sample, order-check
    assert rows["`--pmf-file` / `pmf_file=`"] == [
        f"`d ≤ {MAX_DIMENSION}`", f"`d ≤ {MAX_DIMENSION}`", f"`d ≤ {NATURAL_FORM_MAX_D}`",
        f"`d ≤ {MAX_DIMENSION}`", f"`d ≤ {MAX_DENSE_DIMENSION}`",
    ]
    count, product = rows["`--exchangeable`"], rows["`--p` alone"]
    assert count[0] == product[0] == f"`d ≤ {MEASURES_MAX_D}`"
    assert count[1].endswith(f"`≤ {COUNT_LAW_MAX_D}`")
    assert count[2] == product[2] == f"`d ≤ {NATURAL_FORM_MAX_D}`"
    assert count[3] == product[3] == f"`d ≤ {MAX_DENSE_DIMENSION}`"
    assert f"within `{SHAPE_ATOL:g}` (`SHAPE_ATOL`)" in readme


def test_readme_layout_lists_every_module():
    root = pathlib.Path(__file__).parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    layout = readme.split("## Layout", 1)[1]
    listed = re.search(r"src/gfgm/\s+library \(([^)]*)\)", layout).group(1)
    modules = {path.stem for path in (root / "src" / "gfgm").glob("*.py")} - {"__init__"}
    assert sorted(name.strip() for name in listed.split(",")) == sorted(modules)


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_reference_forms_live_in_reference(name):
    assert getattr(gfgm, name) is getattr(gfgm.reference, name)
    assert name in gfgm.reference.__all__
    assert name not in vars(gfgm.copula)
    assert name not in vars(gfgm.exchangeable)


_MARGIN_ROUTES = {
    "IndependenceLaw": lambda p: IndependenceLaw([p, 0.5]),
    "validate_margins": lambda p: validate_margins([0.5, p]),
    "comonotone_count_pmf": lambda p: gfgm.comonotone_count_pmf(p, 10),
    "end_count_pmf": lambda p: gfgm.end_count_pmf(p, 1000),
    "end_count_pmf_d10": lambda p: gfgm.end_count_pmf(p, 10),
    "max_measures_gfgm_p": lambda p: gfgm.max_measures_gfgm_p(p, 10),
    "min_measures_exchangeable": lambda p: gfgm.min_measures_exchangeable(p, 10),
    "cdf_epd": lambda p: gfgm.cdf_epd(p, 3, [0.5, 0.5, 0.5]),
    "Coxian2Params": lambda p: gfgm.Coxian2Params(p),
    "marginal_cdf_representation": lambda p: gfgm.marginal_cdf_representation(p, (0.5, 0.5), 0.5),
}


@pytest.mark.parametrize("route", sorted(_MARGIN_ROUTES))
def test_one_margin_domain(route):
    # (1e-12, 1 - 1e-12) everywhere, at any d: end_count_pmf keeps a small margin
    build = _MARGIN_ROUTES[route]
    for p in (1e-13, 1.0 - 1e-13, 0.0, 1.0, float("nan")):
        with pytest.raises(InvalidDistributionError, match=r"\(1e-12, 1 - 1e-12\)"):
            build(p)
    build(2e-12)


_BETA_12 = gfgm.MixtureSpec.beta(2.0, 3.0, 12)
_DIMENSION_ROUTES = {
    "BernoulliPmf": lambda d: BernoulliPmf(d, [0, 1023], [0.5, 0.5]),
    "ExchangeableCountPmf": lambda d: ExchangeableCountPmf(d, [0.5] + [0.0] * 9 + [0.5]).q,
    "comonotone_count_pmf": lambda d: gfgm.comonotone_count_pmf(0.3, d).q,
    "_extremal_rows": lambda d: list(_extremal_rows(0.3, d)),
    "extremal_count_pmfs": lambda d: [cp.q for cp in gfgm.extremal_count_pmfs(0.3, d)],
    "end_count_pmf": lambda d: gfgm.end_count_pmf(0.3, d).q,
    "mixture_count_pmf": lambda d: gfgm.mixture_count_pmf(_BETA_12, d).q,
    "mixture_copula_cdf": lambda d: gfgm.mixture_copula_cdf(_BETA_12, d, [0.5] * 10),
    "beta_mixture_copula": lambda d: gfgm.beta_mixture_copula(2.0, 3.0, d).law.q,
    "max_measures_gfgm_p": lambda d: gfgm.max_measures_gfgm_p(0.3, d),
    "min_measures_exchangeable": lambda d: gfgm.min_measures_exchangeable(0.3, d),
    "cdf_epd": lambda d: gfgm.cdf_epd(0.3, d, [0.5] * 10),
}


@pytest.mark.parametrize("route", sorted(_DIMENSION_ROUTES))
def test_one_dimension_rule(route):
    # an integral d passes as an int, whatever its type; anything else raises
    build = _DIMENSION_ROUTES[route]
    for d in (10.7, 2.5, float("nan")):
        with pytest.raises(InvalidDistributionError, match=r"dimension must be an integer, got "):
            build(d)
    want = repr(build(10))
    assert repr(build(np.int64(10))) == repr(build(10.0)) == want


def test_numpy_floor_has_bitwise_count():
    # bernoulli._popcount calls np.bitwise_count, new in NumPy 2.0
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    floors = [dep.partition(">=")[2] for dep in deps if dep.startswith("numpy")]
    assert len(floors) == 1
    assert tuple(int(part) for part in floors[0].split(".")[:2]) >= (2, 0)


def _imported_top_modules(tree):
    """Top-level modules that ``tree`` imports, by statement or by ``pytest.importorskip``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "importorskip":
            found.add(node.args[0].value.partition(".")[0])
    return found


def test_tests_import_only_declared_packages():
    # a clean ``pip install -e '.[test]'`` brings every third-party module the tests import
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        re.match(r"[\w.-]+", dep).group().lower()
        for dep in project["dependencies"] + project["optional-dependencies"]["test"]
    }
    local = {path.stem for path in (root / "tests").glob("*.py")} | {"gfgm"}
    imported = set()
    for path in (root / "tests").glob("*.py"):
        imported |= _imported_top_modules(ast.parse(path.read_text(encoding="utf-8")))
    third_party = imported - set(sys.stdlib_module_names) - local
    assert "mpmath" in third_party  # the guard sees a function-level import
    assert third_party <= declared, sorted(third_party - declared)


def _private_argparse_uses(tree):
    """Lines that read an ``argparse`` attribute starting with "_", or import gettext."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            private = node.attr.startswith("_") and getattr(node.value, "id", None) == "argparse"
        elif isinstance(node, ast.Import):
            private = any(alias.name.partition(".")[0] == "gettext" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").partition(".")[0]
            private = module == "gettext" or (
                module == "argparse" and any(alias.name.startswith("_") for alias in node.names)
            )
        else:
            continue
        if private:
            found.append(node.lineno)
    return found


def test_no_module_uses_private_argparse():
    # the CLI parses through argparse's public API; its own error text needs no gettext
    package = pathlib.Path(gfgm.__file__).parent
    uses = {
        module.name: lines
        for module in sorted(package.glob("*.py"))
        if (lines := _private_argparse_uses(ast.parse(module.read_text(), filename=str(module))))
    }
    assert uses == {}
