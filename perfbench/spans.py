"""Span tracing of gfgm's layers, from outside the library.

``Tracer`` wraps the public entry points of each gfgm module and rebinds
every name that refers to them in every loaded ``gfgm`` module (so
``gfgm.association.cdf`` is wrapped as well as ``gfgm.copula.cdf``), and
patches ``__post_init__`` of the pmf classes to time their construction.
Leaving the ``with`` block restores every original.  Spans are kept in
memory (name, start, end, parent, op id, error, counts) and only while
``recording`` is set, which the harness does around each timed op; the
untraced run never installs a wrapper.

Per-layer metrics are sums over spans of self time (span time minus the
time of its direct children) and of counts, divided by the number of
workload cycles traced.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np

LAYERS = ("cli", "specio", "bernoulli", "exchangeable", "copula", "association", "sampling")

# (module, entry point, self-time metric)
ENTRY_POINTS = (
    ("cli", "main", "cli.self_s"),
    ("specio", "build_copula", "specio.self_s"),
    ("specio", "load_copula_spec", "specio.self_s"),
    ("specio", "parse_spec_text", "specio.self_s"),
    ("bernoulli", "BernoulliPmf.__post_init__", "bernoulli.construct_s"),
    ("bernoulli", "marginals", "bernoulli.construct_s"),
    ("bernoulli", "independent", "bernoulli.construct_s"),
    ("bernoulli", "comonotonic", "bernoulli.construct_s"),
    ("bernoulli", "from_theta_bivariate", "bernoulli.construct_s"),
    ("bernoulli", "load_pmf_file", "bernoulli.construct_s"),
    ("bernoulli", "parse_pmf_text", "bernoulli.construct_s"),
    ("bernoulli", "moments_to_pmf", "bernoulli.construct_s"),
    ("exchangeable", "expand", "exchangeable.expand_s"),
    ("exchangeable", "end_pmf", "exchangeable.count_pmf_s"),
    ("exchangeable", "ExchangeableCountPmf.__post_init__", "exchangeable.count_pmf_s"),
    ("exchangeable", "end_count_pmf", "exchangeable.count_pmf_s"),
    ("exchangeable", "comonotone_count_pmf", "exchangeable.count_pmf_s"),
    ("exchangeable", "mixture_count_pmf", "exchangeable.count_pmf_s"),
    ("exchangeable", "parse_exchangeable_spec", "exchangeable.count_pmf_s"),
    ("exchangeable", "count_pmf_of", "exchangeable.count_pmf_s"),
    ("exchangeable", "beta_mixture_copula", "exchangeable.count_pmf_s"),
    ("exchangeable", "measures_exchangeable", "exchangeable.measures_s"),
    ("copula", "cdf", "copula.cdf_s"),
    ("copula", "pdf", "copula.pdf_s"),
    ("copula", "survival", "copula.survival_s"),
    ("copula", "survival_by_cdf", "copula.survival_s"),
    ("association", "tau", "association.tau_s"),
    ("association", "rho_cL", "association.rho_s"),
    ("association", "rho_cU", "association.rho_s"),
    ("association", "rho_c", "association.rho_s"),
    ("association", "measures", "association.rho_s"),
    ("association", "max_measures_gfgm_p", "association.closed_form_s"),
    ("association", "min_measures_exchangeable", "association.closed_form_s"),
    ("association", "measures_by_quadrature", "association.quadrature_s"),
    ("association", "check_concordance", "association.concordance_s"),
    ("sampling", "sample", "sampling.sample_s"),
    ("sampling", "sample_bernoulli", "sampling.sample_s"),
    ("sampling", "empirical_measures", "sampling.empirical_s"),
)

METRIC_OF = {f"{module}.{attr}": metric for module, attr, metric in ENTRY_POINTS}

COUNTS = (
    "cli.bytes_out", "bernoulli.pmfs", "bernoulli.atoms", "exchangeable.expanded_atoms",
    "exchangeable.support_pairs", "copula.points", "copula.atom_points",
    "association.atom_pairs", "association.grid_points", "sampling.values",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _points(c, u) -> dict:
    n = np.atleast_2d(np.asarray(u)).shape[0]
    return {"copula.points": n, "copula.atom_points": n * c.bernoulli.n_atoms}


def _cli_bytes(argv) -> dict:
    argv = list(argv or ())
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.isfile(path):
            return {"cli.bytes_out": os.path.getsize(path)}
    return {}


def _grid(args, kwargs) -> dict:
    grid = _arg(args, kwargs, 2, "grid_points_per_axis")
    # the workloads pass the grid explicitly; a default grid is not counted
    return {"association.grid_points": grid ** args[0].d} if grid else {}


# counts of work done, from (args, kwargs, result) of a span that returned
_COUNTERS = {
    "cli.main": lambda a, k, r: _cli_bytes(_arg(a, k, 0, "argv")),
    "bernoulli.BernoulliPmf.__post_init__": lambda a, k, r: {
        "bernoulli.pmfs": 1, "bernoulli.atoms": a[0].n_atoms},
    "exchangeable.expand": lambda a, k, r: {"exchangeable.expanded_atoms": r.n_atoms},
    "exchangeable.measures_exchangeable": lambda a, k, r: {
        "exchangeable.support_pairs": int(np.count_nonzero(a[0].q)) ** 2},
    "copula.cdf": lambda a, k, r: _points(a[0], _arg(a, k, 1, "u")),
    "copula.pdf": lambda a, k, r: _points(a[0], _arg(a, k, 1, "u")),
    "copula.survival": lambda a, k, r: _points(a[0], _arg(a, k, 1, "u")),
    "association.tau": lambda a, k, r: {"association.atom_pairs": a[0].bernoulli.n_atoms ** 2},
    "association.check_concordance": lambda a, k, r: _grid(a, k),
    "sampling.sample": lambda a, k, r: {"sampling.values": r.n * r.d},
}


class Tracer:
    """Context manager that installs span wrappers on gfgm's entry points."""

    def __init__(self):
        self.spans: list[dict] = []
        self.recording = False
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        owners = {layer: importlib.import_module(f"gfgm.{layer}") for layer in LAYERS}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gfgm" or n.startswith("gfgm."))]
        for module_name, attr, _ in ENTRY_POINTS:
            name = f"{module_name}.{attr}"
            owner = owners[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._rebind(cls, method, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def _rebind(self, target, key, wrapper) -> None:
        self._restore.append((target, key, getattr(target, key)))
        setattr(target, key, wrapper)

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = {"name": name, "parent": stack[-1] if stack else None,
                    "op": self.op_id, "error": False}
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.update(counter(args, kwargs, result))
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **span}) + "\n")

    def layer_metrics(self, cycles: int) -> dict:
        """Self time and counts per workload cycle, by per-layer metric name."""
        child_time = [0.0] * len(self.spans)
        child_error = [False] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
                child_error[span["parent"]] |= span["error"]
        totals = {metric: 0.0 for metric in METRIC_OF.values()}
        totals.update({name: 0 for name in COUNTS})
        totals.update({f"{layer}.errors": 0 for layer in LAYERS})
        totals.update({"cli.calls": 0, "specio.calls": 0})
        for index, span in enumerate(self.spans):
            layer = span["name"].split(".")[0]
            totals[METRIC_OF[span["name"]]] += span["end"] - span["start"] - child_time[index]
            for name in COUNTS:
                totals[name] += span.get(name, 0)
            # an error counts once, in the innermost span that raised it
            if span["error"] and not child_error[index]:
                totals[f"{layer}.errors"] += 1
            parent = span["parent"]
            outer = parent is None or self.spans[parent]["name"].split(".")[0] != layer
            if layer in ("cli", "specio") and outer:
                totals[f"{layer}.calls"] += 1
        return {name: value / cycles for name, value in totals.items()}
