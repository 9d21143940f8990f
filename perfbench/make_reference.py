"""Record the reference outputs the benchmark checks every plan against.

    python3 perfbench/make_reference.py paper-study [fresh-topology ...]

Run it once, at the commit whose outputs define "correct", from the root of
its checkout. For each workload named it runs every plan of the whole pool and
writes ``reference/<workload>.json``: one digest per plan, indexed
``[unit][plan]``. For ``paper-study`` it also rebuilds the 240-run study
(traffic seeds 0-9, written as by ``ipowdm experiment``) from units 0-9 and
refuses to write if ``rows.csv`` or ``averages.csv`` differ from the study
hashes below.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys

from run import REFERENCE_DIR, digest, git_commit, program_fingerprint, run_plan, set_up
from workloads import ARCHS, WORKLOADS

STUDY_SHA256 = {
    "rows.csv": "bf978fcb7970d8bb9d98855a1494f03d99ebad3ad900ef293da947e96f89bfc2",
    "averages.csv": "051770278c83f3c6fd26bbb9a834eb344b1557e91bf773c06e47f610254d8798",
}


def study_hashes(env, rows_by_unit) -> dict[str, str]:
    """sha256 of rows.csv and averages.csv for traffic seeds 0-9."""
    rows = [row for unit in range(10) for row in rows_by_unit[unit]]
    topo_order = ("j14", "g17")
    rows.sort(key=lambda r: (topo_order.index(r.topology), ARCHS.index(r.arch),
                             r.scenario, r.seed))
    ex = env.experiment
    texts = {
        "rows.csv": ex.rows_to_csv(rows),
        "averages.csv": ex.dicts_to_csv(ex.average_rows(rows)),
    }
    return {name: hashlib.sha256(t.encode()).hexdigest() for name, t in texts.items()}


def main(names) -> int:
    for name in names:
        workload = WORKLOADS[name]
        env = set_up(workload)
        rows_by_unit = [[run_plan(env, p) for p in workload.plans(u)]
                        for u in range(workload.pool_size)]
        doc = {
            "workload": name,
            "commit": git_commit(),
            "program": program_fingerprint(),
            "python": platform.python_version(),
            "units": [[digest(r) for r in rows] for rows in rows_by_unit],
        }
        if name == "paper-study":
            got = study_hashes(env, rows_by_unit)
            if got != STUDY_SHA256:
                print(f"study hashes differ: {got}", file=sys.stderr)
                return 1
            doc["study_sha256"] = got
        REFERENCE_DIR.mkdir(exist_ok=True)
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(doc, indent=0) + "\n")
        print(f"{name}: {sum(map(len, rows_by_unit))} plans recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(WORKLOADS)))
