"""Record the reference outputs that ``check.py`` compares against.

    python3 perfbench/record.py [WORKLOAD ...]

For every input set of each workload, runs the program at 1 and at 2
workers, requires byte-identical ``report.json`` files, equal exit codes and
no traceback, and writes the exit code and the compared report sections to
``reference/<workload>.json``.  Re-record only when a change of results is
intended and declared.
"""

from __future__ import annotations

import json
import sys

from check import COMPARED, reference_path
from invoke import ROOT, child_env, run_child
from workloads import SEED_SETS, WORKLOADS, Workload

RECORD_DIR = ROOT / ".bench_build" / "perfbench" / "record"


def record_one(workload: Workload, master_seed: int) -> dict:
    work = RECORD_DIR / f"{workload.name}-s{master_seed}"
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.json"
    config.write_text(json.dumps(workload.config(master_seed), indent=1))
    runs = []
    for workers in (1, 2):
        out = work / f"workers{workers}"
        argv = [sys.executable, "-m", "sddelab.cli", *workload.cli_args(config, out, workers)]
        outcome = run_child(argv, child_env(), out, 600.0, watch_tree=workers > 1)
        if outcome.raised or outcome.timed_out:
            raise SystemExit(f"{workload.name} seed {master_seed}: {outcome.stderr}")
        runs.append((outcome.exit_code, (out / "report.json").read_bytes()))
    if runs[0] != runs[1]:
        raise SystemExit(f"{workload.name} seed {master_seed}: workers 1 and 2 disagree")
    exit_code, report = runs[0]
    doc = json.loads(report)
    print(f"{workload.name} seed {master_seed}: exit {exit_code}", flush=True)
    return {"exit_code": exit_code, "report": {key: doc[key] for key in COMPARED}}


def main(names: list[str]) -> int:
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        table = {str(seed): record_one(workload, seed)
                 for seed in (workload.master_seed(k) for k in range(SEED_SETS))}
        path = reference_path(name)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
