"""Planner benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload paper-study --seed 0 --seconds 35 --trace 0

Runs from the root of a source checkout and imports ``ipowdm`` from its
``src/``. An op is one plan (``ipowdm.experiment.run_single``; on
``fresh-topology`` also ``topology.parse_topology`` of its input). Plans run
one after another in this process, whole units at a time, until
``--seconds`` have passed and at least ``MIN_PLANS`` plans are done. Every
plan's ``RunResult`` is checked against the seed commit's result stored in
``reference/``. The last line of standard output is the JSON result; with
``--trace 1`` it holds the per-layer metrics of ``tracing.py`` instead of the
end-to-end ones. See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, TraceError
from workloads import WORKLOADS, Workload, named_topology_doc

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
SPANS_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 9
MIN_PLANS = 110  # so that at least ten plans lie beyond plan_ms_p90


class SetupError(RuntimeError):
    """The program or the reference outputs cannot be found in this checkout."""


@dataclasses.dataclass
class Env:
    """Imported modules and the inputs loaded at set-up."""

    experiment: object
    topology: object
    topologies: dict
    scenarios: dict


def set_up(workload: Workload) -> Env:
    """Import ``ipowdm`` afresh from ``src/`` and load the workload's inputs."""
    if not (SRC / "ipowdm" / "__init__.py").is_file():
        raise SetupError(f"no ipowdm package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ipowdm" or m.startswith("ipowdm.")]:
        del sys.modules[name]
    experiment = importlib.import_module("ipowdm.experiment")
    topology = importlib.import_module("ipowdm.topology")
    traffic = importlib.import_module("ipowdm.traffic")
    transceiver = importlib.import_module("ipowdm.transceiver")
    if not Path(experiment.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"ipowdm was imported from {experiment.__file__}, not {SRC}")
    if not transceiver.DEFAULT_CATALOG:
        raise SetupError("empty default transceiver catalog")
    return Env(
        experiment=experiment,
        topology=topology,
        topologies={n: topology.parse_topology(named_topology_doc(n))
                    for n in workload.topologies},
        scenarios={n: traffic.load_scenario(n) for n in workload.scenarios},
    )


def timed_set_ups(workload: Workload) -> tuple[list[float], Env]:
    """Set up ``SETUP_REPEATS`` times; returns the times and the last Env."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        env = set_up(workload)
        times.append(time.perf_counter() - t0)
    return times, env


def run_plan(env: Env, plan):
    """One op. Attributes are looked up on the modules so tracing sees them."""
    if isinstance(plan.topology, dict):
        topo = env.topology.parse_topology(plan.topology)
    else:
        topo = env.topologies[plan.topology]
    row, _state = env.experiment.run_single(
        topo, plan.arch, env.scenarios[plan.scenario], plan.seed, strict=plan.strict
    )
    return row


def digest(row) -> str:
    """Fingerprint of every field of a RunResult at full precision."""
    return hashlib.sha256(repr(dataclasses.astuple(row)).encode()).hexdigest()[:16]


def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        raise SetupError(f"missing reference outputs {path}")
    return json.loads(path.read_text())


def attempt(env, plan):
    """Run one op; an op that raises is recorded as its exception."""
    try:
        return run_plan(env, plan)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return exc


def run_units(env, workload, units, seconds, min_plans, tracer=None):
    """Run whole units until ``seconds`` and ``min_plans`` are both reached.

    With a tracer, each plan runs untraced and then at once traced, so that
    both see the same host conditions; the latencies are the untraced ones
    and every traced result follows its untraced one in the results.
    Returns (wall seconds, latencies, [(unit, index, row or error)]).
    """
    latencies, results = [], []
    clock = time.perf_counter
    plans = {u: workload.plans(u) for u in units}  # inputs are built untimed
    start = clock()
    for unit in units:
        for j, plan in enumerate(plans[unit]):
            t0 = clock()
            results.append((unit, j, attempt(env, plan)))
            latencies.append(clock() - t0)
            if tracer is not None:
                with tracer.install(), tracer.plan():
                    results.append((unit, j, attempt(env, plan)))
        if clock() - start >= seconds and len(latencies) >= min_plans:
            break
    return clock() - start, latencies, results


def count_failures(results, reference) -> int:
    failed = 0
    for unit, j, row in results:
        if isinstance(row, Exception) or digest(row) != reference["units"][unit][j]:
            failed += 1
            if not isinstance(row, Exception):
                print(f"mismatch in unit {unit} plan {j}: {row}", file=sys.stderr)
    return failed


def program_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ipowdm").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD's commit when the checkout is a git repository, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def end_to_end(wall, latencies, setup_times) -> dict[str, tuple[float, str]]:
    return {
        "plans_per_s": (len(latencies) / wall, "1/s"),
        "plan_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "plan_ms_p90": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    units = workload.units(args.seed)
    try:
        reference = load_reference(workload.name)
        setup_times, env = timed_set_ups(workload)
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        # At least four plans, so that every architecture runs on fresh-topology.
        tracer = Tracer()
        try:
            _, latencies, results = run_units(env, workload, units, args.seconds, 4, tracer)
            tracer.check_layers(optional=workload.unused_layers)
        except TraceError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
        tracer.write_spans(SPANS_DIR / f"spans-{workload.name}.csv")
        metrics = tracer.metrics(100.0 * (tracer.plan_ns / 1e9 / sum(latencies) - 1.0))
        beyond_p90 = None
    else:
        wall, latencies, results = run_units(env, workload, units, args.seconds, MIN_PLANS)
        # Set up again after the loop: host speed drifts over tens of seconds,
        # and a median over both ends of the run drifts less.
        setup_times += timed_set_ups(workload)[0]
        metrics = end_to_end(wall, latencies, setup_times)
        p90 = metrics["plan_ms_p90"][0] / 1e3
        beyond_p90 = sum(1 for t in latencies if t > p90)

    failed = count_failures(results, reference)
    info = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "plans": len(latencies), "plans_beyond_p90": beyond_p90,
        "units": len(set(u for u, _, _ in results)),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": git_commit(), "program": program_fingerprint(),
        "reference_program": reference["program"],
    }
    print(json.dumps({"info": info}))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
