"""Package-level properties: what importing gfgm pulls in, and what each module owns."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import gfgm
from gfgm.bernoulli import IndependenceLaw, InvalidDistributionError, validate_margins


def _scipy_modules_after(code):
    """The scipy modules loaded in a fresh interpreter after running ``code``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gfgm.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()[-1]


def test_import_leaves_scipy_unloaded():
    assert _scipy_modules_after("import sys, gfgm") == "[]"


def test_quadrature_oracle_leaves_scipy_unloaded():
    code = (
        "import sys, gfgm, gfgm.cli\n"
        "gfgm.measures_by_quadrature(gfgm.GfgmCopula.bivariate(0.4, 0.6, 0.5))\n"
        "assert gfgm.cli.main(['measures', '--p', '0.4,0.6', '--theta', '0.5', '--verify']) == 0"
    )
    assert _scipy_modules_after(code) == "[]"


REFERENCE_NAMES = (
    "BivariateGfgm",
    "Coxian2Params",
    "cdf_epd",
    "coxian2_lst",
    "fgm_natural_cdf",
    "fgm_thetas",
    "huang_kotz_cdf",
    "marginal_cdf_representation",
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


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_reference_forms_live_in_reference(name):
    assert getattr(gfgm, name) is getattr(gfgm.reference, name)
    assert name in gfgm.reference.__all__
    assert name not in vars(gfgm.copula)


_MARGIN_ROUTES = {
    "IndependenceLaw": lambda p: IndependenceLaw([p, 0.5]),
    "validate_margins": lambda p: validate_margins([0.5, p]),
    "end_count_pmf": lambda p: gfgm.end_count_pmf(p, 1000),
    "max_measures_gfgm_p": lambda p: gfgm.max_measures_gfgm_p(p, 10),
    "min_measures_exchangeable": lambda p: gfgm.min_measures_exchangeable(p, 10),
    "cdf_epd": lambda p: gfgm.cdf_epd(p, 3, [0.5, 0.5, 0.5]),
    "Coxian2Params": lambda p: gfgm.Coxian2Params(p),
    "marginal_cdf_representation": lambda p: gfgm.marginal_cdf_representation(p, (0.5, 0.5), 0.5),
}


@pytest.mark.parametrize("route", sorted(_MARGIN_ROUTES))
def test_one_margin_domain(route):
    # (1e-12, 1 - 1e-12) everywhere; end_count_pmf needs pd > 1e-9 to keep its margin
    build = _MARGIN_ROUTES[route]
    for p in (1e-13, 1.0 - 1e-13, 0.0, 1.0, float("nan")):
        with pytest.raises(InvalidDistributionError, match=r"\(1e-12, 1 - 1e-12\)"):
            build(p)
    build(2e-12)
