"""Package-level properties: what importing gfgm pulls in."""

import os
import subprocess
import sys

import gfgm


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
