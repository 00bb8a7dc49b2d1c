"""Key-value copula specification files.

A spec is plain text, one ``key=value`` per line (``#`` comments allowed):

    d=<int>
    p=<comma-separated reals>
    pmf_file=<path>            # atom-form pmf, or
    exchangeable=<spec>        # counts:/end:/comonotone:/beta: string, or
    theta=<real>               # bivariate closed form (needs p of length 2)

At most one of the three dependence sources may appear; with none, ``p``
alone denotes the independence copula.  Relative pmf paths resolve against
the spec file's directory.  ``build_copula`` converts the text of ``d``,
``p`` and ``theta``, from a spec file and from the CLI's copula flags alike.
"""

from __future__ import annotations

import os

import numpy as np

from .bernoulli import InvalidDistributionError, load_pmf_file
from .copula import GfgmCopula
from .exchangeable import parse_exchangeable_spec

__all__ = ["build_copula", "load_copula_spec"]

_KEYS = ("d", "p", "pmf_file", "exchangeable", "theta")


def parse_spec_text(text: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _KEYS:
            raise InvalidDistributionError(f"unknown spec line: {line!r}")
        if key in cfg:
            raise InvalidDistributionError(f"duplicate spec key {key!r}")
        cfg[key] = value.strip()
    return cfg


def _parsed(key: str, value, convert, kind: str):
    """``value``, or ``convert(value)`` when it is text; text that does not parse raises naming ``key``."""
    try:
        return convert(value) if isinstance(value, str) else value
    except ValueError:
        raise InvalidDistributionError(f"{key} must be {kind}, got {value!r}") from None


def build_copula(
    d: int | str | None = None,
    p=None,
    pmf_file: str | None = None,
    exchangeable: str | None = None,
    theta: float | str | None = None,
    base_dir: str = ".",
) -> GfgmCopula:
    """Assemble a copula from spec fields, typed or as text, enforcing single-source rules."""
    d = _parsed("d", d, int, "an integer")
    p = _parsed("p", p, lambda text: [float(s) for s in text.split(",")], "comma-separated reals")
    theta = _parsed("theta", theta, float, "a real number")
    if sum(s is not None for s in (pmf_file, exchangeable, theta)) > 1:
        raise InvalidDistributionError("give at most one of pmf_file, exchangeable, theta")
    p_arr = None if p is None else np.asarray(p, dtype=float)
    if pmf_file is not None:
        pmf = load_pmf_file(os.path.join(base_dir, pmf_file))  # an absolute pmf_file stays as it is
        if d is not None and pmf.d != d:
            raise InvalidDistributionError(f"pmf has d={pmf.d}, spec says d={d}")
        return GfgmCopula(pmf, p_arr)
    if exchangeable is not None:
        if d is None and p_arr is not None:
            d = p_arr.size
        return GfgmCopula(parse_exchangeable_spec(exchangeable, d), p_arr)
    if theta is not None:
        if p_arr is None or p_arr.size != 2:
            raise InvalidDistributionError("theta form needs p with exactly 2 entries")
        if d is not None and d != 2:
            raise InvalidDistributionError("theta form is bivariate (d=2)")
        return GfgmCopula.bivariate(float(p_arr[0]), float(p_arr[1]), float(theta))
    if p_arr is None:
        raise InvalidDistributionError("spec needs p (independence) or one dependence source")
    if d is not None and d != p_arr.size:
        raise InvalidDistributionError(f"p has {p_arr.size} entries, spec says d={d}")
    return GfgmCopula.independence(p_arr)


def load_copula_spec(path: str) -> GfgmCopula:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = parse_spec_text(fh.read())
    return build_copula(**cfg, base_dir=os.path.dirname(os.path.abspath(path)))
