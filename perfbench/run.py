"""Benchmark of the gfgm library and command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  One process, one closed-loop client, no
extra threads; numpy's BLAS pool is left at its default and recorded.

``--trace 0`` measures the end-to-end metrics: the workload's op cycle runs
once untimed (warm-up) and then repeatedly until ``--seconds`` have passed
and at least 100 ops are done; set-up time is the median over fresh
interpreters (``setup_probe.py``).  ``--trace 1`` runs whole cycles
untraced for half the time, then the same number of cycles with span
wrappers installed (``spans.py``), and reports the per-layer metrics and
the tracing overhead.  Every op's output is checked outside the timed
region.  Metric names and units come from BENCHMARK.json.  The last line
of standard output is the JSON result; spans and a result file with
provenance go to ``.perfbench_out/``.

``--smoke`` runs one op of each workload, untraced and traced, and fails
unless every metric of BENCHMARK.json is produced and no op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import provenance

gfgm = provenance.import_checked_gfgm()

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(provenance.ROOT, ".perfbench_out")
SETUP_RUNS = 3
MIN_OPS = 100
# leaves room for set-up probes and checks inside the 180 s a run may take
LOOP_LIMIT_S = 120.0


@dataclass
class Phase:
    """Latencies and failures of the ops of whole cycles."""

    latencies: list = field(default_factory=list)
    cycle_s: list = field(default_factory=list)
    cycle_items: int = 0
    failures: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_cycles(ops, seconds=0.0, min_ops=0, cycles=None, tracer=None) -> Phase:
    """Run whole op cycles until ``cycles`` are done, or else until both
    ``seconds`` of wall time and ``min_ops`` ops are reached."""
    phase = Phase(cycle_items=sum(op.items for op in ops))
    start = time.perf_counter()
    while True:
        cycle = 0.0
        for op in ops:
            if tracer is not None:
                tracer.op_id = phase.attempted
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                error = f"{op.name}: {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.recording = False
            if error is None:
                try:
                    op.check(out)
                except workloads.CheckFailed as exc:
                    error = str(exc)
            if error is not None:
                phase.failures.append(error)
            phase.latencies.append(t1 - t0)
            cycle += t1 - t0
        phase.cycle_s.append(cycle)
        elapsed = time.perf_counter() - start
        if cycles is not None:
            if len(phase.cycle_s) >= cycles:
                return phase
        elif elapsed >= seconds and phase.attempted >= min_ops:
            return phase
        if elapsed >= LOOP_LIMIT_S:
            return phase


def setup_times(name: str, seed: int, tmp: str, runs: int) -> list:
    """(import_s, build_s) of ``runs`` fresh interpreters, one after another."""
    probe_dir = os.path.join(tmp, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    out = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed), probe_dir],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((times["import_s"], times["build_s"]))
    return out


def end_to_end_metrics(setup: list, timed: Phase) -> dict:
    lat_ms = sorted(1e3 * t for t in timed.latencies)
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if len(lat_ms) > 1 else lat_ms[0]
    return {
        "setup_s": statistics.median(i + b for i, b in setup),
        "items_per_s": timed.cycle_items * len(timed.cycle_s) / sum(timed.cycle_s),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(setup: list, untraced: Phase, traced: Phase, tracer) -> dict:
    cycles = len(traced.cycle_s)
    metrics = tracer.layer_metrics(cycles)
    metrics.update({
        "setup.import_s": statistics.median(i for i, _ in setup),
        "setup.build_s": statistics.median(b for _, b in setup),
        "trace.op_s": sum(traced.cycle_s) / cycles,
        "trace.overhead_ratio": sum(traced.cycle_s) / sum(untraced.cycle_s),
    })
    return metrics


def declared_units(group: str) -> dict:
    with open(os.path.join(provenance.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[group]}


def with_units(metrics: dict, group: str) -> dict:
    """The declared metrics, in declared order; a missing one is an error."""
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in declared_units(group).items()}


def measure(name: str, seed: int, seconds: float, traced: bool, tmp: str) -> dict:
    setup = setup_times(name, seed, tmp, SETUP_RUNS)
    ops = workloads.build(name, seed, tmp)
    phases = [run_cycles(ops, cycles=1)]  # warm-up: fills lazy caches and oracles
    if not traced:
        timed = run_cycles(ops, seconds, MIN_OPS)
        phases.append(timed)
        metrics = with_units(end_to_end_metrics(setup, timed), "end_to_end")
        counts = f"{timed.attempted} ops in {len(timed.cycle_s)} cycles"
    else:
        untraced = run_cycles(ops, seconds / 2.0)
        with spans.Tracer() as tracer:
            traced_phase = run_cycles(ops, cycles=len(untraced.cycle_s), tracer=tracer)
        phases += [untraced, traced_phase]
        tracer.write_jsonl(os.path.join(OUT_DIR, f"spans-{name}-{seed}.jsonl"))
        metrics = with_units(per_layer_metrics(setup, untraced, traced_phase, tracer), "per_layer")
        counts = f"{traced_phase.attempted} traced ops in {len(traced_phase.cycle_s)} cycles"
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "detail": {"counts": counts, "failures": failures[:20], "setup_runs": setup},
    }


def smoke(tmp: str) -> int:
    """One op of each workload, untraced and traced; every metric must appear."""
    expected = {g: declared_units(g) for g in ("end_to_end", "per_layer")}
    problems = [f"{g}: {n} has no unit" for g, units in expected.items()
                for n, unit in units.items() if not unit]
    for name in workloads.WORKLOADS:
        setup = setup_times(name, 0, tmp, 1)
        ops = workloads.build(name, 0, tmp)[:1]
        untraced = run_cycles(ops, cycles=1)
        original = gfgm.copula.cdf
        with spans.Tracer() as tracer:
            traced = run_cycles(ops, cycles=1, tracer=tracer)
        if gfgm.copula.cdf is not original:
            problems.append(f"{name}: tracer left its wrappers installed")
        produced = {
            "end_to_end": end_to_end_metrics(setup, untraced),
            "per_layer": per_layer_metrics(setup, untraced, traced, tracer),
        }
        for group, units in expected.items():
            missing = set(units) - set(produced[group])
            extra = set(produced[group]) - set(units)
            if missing or extra:
                problems.append(f"{name} {group}: missing {sorted(missing)}, undeclared {sorted(extra)}")
        failed = untraced.failures + traced.failures
        fail_ratio = len(failed) / (untraced.attempted + traced.attempted)
        print(f"smoke {name}: {ops[0].name} fail_ratio={fail_ratio}")
        if fail_ratio != 0:
            problems += failed
    for problem in problems:
        print(f"smoke FAIL {problem}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="fast check of the harness")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    os.makedirs(OUT_DIR, exist_ok=True)
    info = provenance.describe(gfgm)
    print("provenance " + json.dumps(info))
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        if args.smoke:
            return smoke(tmp)
        spec = workloads.WORKLOADS[args.workload]
        print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}; item: {spec.item}")
        for size in spec.sizes:
            print(f"  op {size}")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    detail = result.pop("detail")
    print(f"{detail['counts']}; setup over {len(detail['setup_runs'])} fresh interpreters")
    for failure in detail["failures"]:
        print(f"FAILED {failure}")
    print(f"fail_ratio {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6g}")
    for metric, entry in result["metrics"].items():
        print(f"metric {metric} {entry['value']:.6g} {entry['unit']}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": info, **result, **detail}
    path = os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
