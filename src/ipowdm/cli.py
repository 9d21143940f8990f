"""Command line front end.

Subcommands::

    ipowdm gen-traffic --topology j14 --scenario TS1 --seed 0
    ipowdm plan        --topology j14 --arch TrIP --scenario TS1 --seed 0 --out out/
    ipowdm power       --topology j14 --arch TrIP --scenario TS1 --seed 0
    ipowdm experiment  --topology j14 --topology g17 --runs 10 --out out/
    ipowdm compare     --in out/rows.csv --baseline OpIP

``--topology`` accepts the builtin names ``j14``/``g17`` or a JSON file path;
``--scenario`` accepts ``TS1``/``TS2``/``TS3`` or a JSON file path.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .dimensioning import (
    DimensioningConfig,
    PowerTable,
    load_power_config,
    network_power,
)
from .experiment import (
    BlockingError,
    ExperimentConfig,
    average_rows,
    compare,
    dicts_to_csv,
    plan_to_json,
    power_to_csv,
    power_to_json,
    rows_from_csv,
    rows_to_csv,
    rows_to_json,
    run_experiment,
    run_single,
)
from .rmsa import ARCH_NAMES, PlannerConfig
from .topology import json_text, load_named_topology
from .traffic import generate_traffic, load_scenario
from .transceiver import DEFAULT_CATALOG, load_catalog

def _input_flags(p: argparse.ArgumentParser, multi=False):
    action = "append" if multi else "store"
    p.add_argument("--topology", action=action, required=True,
                   help="builtin name (j14/g17) or topology JSON file")
    p.add_argument("--scenario", action=action, default=None,
                   help="builtin name (TS1/TS2/TS3) or scenario JSON file")


def _planning_flags(p: argparse.ArgumentParser, multi=False):
    _input_flags(p, multi)
    p.add_argument("--k", type=int, default=3, help="candidate paths per pair")
    p.add_argument("--modes", default=None, help="transceiver catalog JSON file")
    p.add_argument("--power-config", default=None,
                   help="JSON with power table / dimensioning overrides")


def _power(args):
    if args.power_config:
        return load_power_config(args.power_config)
    return PowerTable(), DimensioningConfig()


def _catalog(args):
    return load_catalog(args.modes) if args.modes else DEFAULT_CATALOG


def _write(target, text):
    """Write ``text`` to the file ``target`` (its directory made if need be),
    else to stdout, as UTF-8 with ``\n`` line ends whatever the locale."""
    data = text.encode("utf-8")
    if target:
        Path(target).parent.mkdir(parents=True, exist_ok=True)
        Path(target).write_bytes(data)
        print(f"wrote {target}")
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()  # a reader that left raises here, not at exit
    else:  # a text-only stdout (IDLE, a notebook, a StringIO) takes str
        sys.stdout.write(text)


def cmd_gen_traffic(args) -> int:
    topo = load_named_topology(args.topology)
    scenario = load_scenario(args.scenario or "TS1")
    matrix = generate_traffic(topo, scenario, args.seed)
    _write(args.out, matrix.to_csv())
    return 0


def _run_one(args):
    """Plan the one run that ``plan`` and ``power`` report on."""
    topo = load_named_topology(args.topology)
    scenario = load_scenario(args.scenario or "TS1")
    pt, dc = _power(args)
    row, state = run_single(topo, args.arch, scenario, args.seed, PlannerConfig(k=args.k),
                            pt, dc, _catalog(args), strict=args.strict)
    return row, state, pt, dc


def _plan_file_name(topology: str, arch: str, scenario: str, seed: int) -> str:
    """``plan_<topology>_<arch>_<scenario>_<seed>.json``, checked before any
    directory is made: the topology and scenario names come from the user's
    files, so the name must be one path component the file system can encode."""
    name = f"plan_{topology}_{arch}_{scenario}_{seed}.json"
    try:
        if not any(sep and sep in name for sep in (os.sep, os.altsep, "\0")):
            os.fsencode(name)
            return name
    except UnicodeEncodeError:
        pass
    raise ValueError(f"plan file name for topology {topology!r} and scenario "
                     f"{scenario!r} is not one file name this file system can encode")


def cmd_plan(args) -> int:
    row, state, _, _ = _run_one(args)
    name = args.out and _plan_file_name(row.topology, args.arch, row.scenario, args.seed)
    _write(args.out and Path(args.out) / name, plan_to_json(row, state))
    return 0


def cmd_power(args) -> int:
    _, state, pt, dc = _run_one(args)
    report = power_to_json if args.format == "json" else power_to_csv
    _write(args.out, report(*network_power(state, pt, dc)))
    return 0


def cmd_experiment(args) -> int:
    if args.runs < 1:
        raise ValueError(f"runs must be >= 1, got {args.runs}")
    topos = [load_named_topology(t) for t in args.topology]
    scen_names = args.scenario or ["TS1", "TS2", "TS3"]
    scenarios = [load_scenario(s) for s in scen_names]
    archs = args.arch or list(ARCH_NAMES)
    pt, dc = _power(args)
    cfg = ExperimentConfig(
        topologies=topos,
        archs=archs,
        scenarios=scenarios,
        seeds=[args.seed + i for i in range(args.runs)],
        planner=PlannerConfig(k=args.k),
        power=pt,
        dimensioning=dc,
        catalog=_catalog(args),
        strict=args.strict,
    )
    rows = run_experiment(cfg)
    averages = average_rows(rows)
    out_dir = Path(args.out or ".")
    if args.format == "json":
        _write(out_dir / "rows.json", rows_to_json(rows))
        _write(out_dir / "averages.json", json_text(averages))
    else:
        _write(out_dir / "rows.csv", rows_to_csv(rows))
        _write(out_dir / "averages.csv", dicts_to_csv(averages))
    return 0


def cmd_compare(args) -> int:
    try:
        rows = rows_from_csv(Path(args.infile).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"rows CSV {args.infile}: not UTF-8: {exc}") from exc
    table = compare(average_rows(rows), args.baseline)
    _write(args.out, json_text(table) if args.format == "json" else dicts_to_csv(table))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ipowdm")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-traffic", help="emit a traffic matrix as CSV")
    _input_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_traffic)

    p = sub.add_parser("plan", help="provision one run and dump the lightpaths")
    _planning_flags(p)
    p.add_argument("--arch", choices=ARCH_NAMES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("power", help="per-node and total power for one run")
    _planning_flags(p)
    p.add_argument("--arch", choices=ARCH_NAMES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("experiment", help="full batch study with averages")
    _planning_flags(p, multi=True)
    p.add_argument("--arch", action="append", choices=ARCH_NAMES, default=None)
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--runs", type=int, default=10, help="seeds per cell")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("compare", help="savings versus a baseline architecture")
    p.add_argument("--in", dest="infile", required=True, help="rows CSV from experiment")
    p.add_argument("--baseline", default="OpIP", choices=ARCH_NAMES)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader left: exit quietly, with stdout on devnull so that the
        # interpreter's exit flush of what is still buffered cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (OSError, ValueError, BlockingError) as exc:
        print(f"ipowdm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
