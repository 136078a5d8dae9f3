"""Benchmark of ``sddelab experiment <flavor>``: the Monte Carlo runs users wait on.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is taken from ``src/`` (nothing is
installed).  Workloads are defined in ``workloads.py``; the seed selects one
of their recorded input sets, and the program receives only the generated
JSON config.

``--trace 0`` (end to end, tracing off).  One client runs a closed loop: each
invocation is a fresh ``python3 -m sddelab.cli experiment`` process, and the
next starts only when the previous one has exited, until ``--seconds`` have
passed.  Before the loop, the set-up probe runs ``SETUP_REPEATS`` times.
Reported medians:

* ``replicas_per_s``: replicas / wall time of one invocation, spawn to exit;
* ``cpu_ms_per_replica``: user+sys CPU of the invocation, pool workers
  included, per replica;
* ``setup_s``: wall time of a fresh process that imports ``sddelab.cli``,
  loads the config and draws the first drivers on the workload's grids;
* ``peak_rss_mb``: peak resident memory of the invocation, pool workers
  included (summed per-process peaks).

``--trace 1`` (per layer).  Two untraced invocations at 1 worker, each
followed by a traced in-process invocation at 1 worker (``tracer.py``), then
one untraced invocation at 2 workers; ``--seconds`` does not apply.  The two
traced runs' work counts must agree exactly.  Reports busy time, self time and
counts at the module boundaries, the tracing overhead (traced minus untraced
wall) and the pool efficiency (wall at 1 worker / (2 x wall at 2 workers)).

Every invocation is checked: the exit code and ``report.json`` must match the
reference recorded for the input (``check.py``), nothing may raise, and the
report must be byte-identical to the first report of the run, across worker
counts too (the determinism gate).  A failed check counts as a failed
operation.  Every process gets the same BLAS thread count, CPUs // 2, so that
workers x threads never exceeds the CPU count and the thread count, which
sets the reduction order of the fBm matvec, is equal across worker counts.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_report, load_reference
from invoke import ROOT, SRC, Outcome, blas_threads, child_env, cpu_count, run_child
from tracer import LAYERS
from workloads import WORKLOADS, Workload

SETUP_REPEATS = 3
TRACED_REPEATS = 2
RUN_BUDGET_S = 170.0  # every run must end within 180 s
WORK_DIR = ROOT / ".bench_build" / "perfbench"
BENCH_DIR = Path(__file__).resolve().parent

END_TO_END_UNITS = {
    "replicas_per_s": "1/s",
    "cpu_ms_per_replica": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
COUNTED = ("solver.mixed", "solver.ito", "solver.zdot", "core.eval_coefficient",
           "drivers.fbm", "fraccalc.seminorm", "fraccalc.delay_norms")


class Run:
    """One benchmark run of one workload: its invocations and their checks."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.master_seed = workload.master_seed(seed)
        self.dir = WORK_DIR / f"{workload.name}-s{self.master_seed}-p{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(workload.config(self.master_seed), indent=1))
        self.expected = load_reference(workload.name, self.master_seed)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failures: list[str] = []
        self.first_report: bytes | None = None

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def _record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    def _outcome_problems(self, outcome: Outcome, exit_code: int) -> list[str]:
        problems = []
        if outcome.timed_out:
            problems.append("timed out")
        if outcome.raised:
            problems.append("raised: " + outcome.stderr.strip().splitlines()[-1])
        if outcome.exit_code != exit_code:
            problems.append(f"exit code {outcome.exit_code}, expected {exit_code}")
        return problems

    def _report_problems(self, out: Path) -> list[str]:
        path = out / "report.json"
        report = path.read_bytes() if path.exists() else None
        problems = check_report(report, self.expected)
        if report is not None:
            if self.first_report is None:
                self.first_report = report
            elif report != self.first_report:
                problems.append("report.json bytes differ from the run's first report")
        return problems

    def invoke(self, label: str, workers: int) -> Outcome:
        """One ``sddelab experiment`` process, checked."""
        out = self.dir / label
        argv = [sys.executable, "-m", "sddelab.cli",
                *self.workload.cli_args(self.config_path, out, workers)]
        outcome = run_child(argv, child_env(), out, self.remaining(), watch_tree=workers > 1)
        problems = self._outcome_problems(outcome, self.expected["exit_code"])
        self._record(label, problems + self._report_problems(out))
        return outcome

    def setup(self, label: str) -> Outcome:
        """One set-up probe process."""
        argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(self.config_path),
                *map(str, self.workload.grids)]
        outcome = run_child(argv, child_env(), self.dir / label, self.remaining())
        self._record(label, self._outcome_problems(outcome, 0))
        return outcome

    def traced(self, label: str, counts: dict | None) -> tuple[Outcome, dict | None]:
        """One traced in-process invocation at 1 worker; ``counts`` must repeat."""
        out = self.dir / label
        summary_path = out / "trace_summary.json"
        spans_path = WORK_DIR / "traces" / f"{self.workload.name}-s{self.master_seed}-{label}.npz"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(summary_path), str(spans_path),
                *self.workload.cli_args(self.config_path, out, 1)]
        outcome = run_child(argv, child_env(), out, self.remaining())
        problems = self._outcome_problems(outcome, self.expected["exit_code"])
        problems += self._report_problems(out)
        summary = json.loads(summary_path.read_text()) if summary_path.exists() else None
        if summary is None:
            problems.append("no trace summary")
        elif counts is not None and work_counts(summary) != counts:
            problems.append(f"work counts {work_counts(summary)} != {counts}")
        self._record(label, problems)
        return outcome, summary

    def finish(self) -> None:
        if self.failures:
            print(f"failed operations (logs kept in {self.dir}):", file=sys.stderr)
            for failure in self.failures:
                print(f"  {failure}", file=sys.stderr)
        else:
            shutil.rmtree(self.dir, ignore_errors=True)


def work_counts(summary: dict) -> dict:
    return {name: (span["calls"], span["work"])
            for name, span in summary["spans"].items() if name in COUNTED}


def measure_end_to_end(run: Run, seconds: float) -> dict:
    w = run.workload
    setups = [run.setup(f"setup-{i}") for i in range(SETUP_REPEATS)]
    loop: list[Outcome] = []
    started = time.monotonic()
    # keep room in the run budget for one more invocation and the gate
    while not loop or (time.monotonic() - started < seconds
                       and run.remaining() > 2 * loop[-1].wall_s + 5):
        loop.append(run.invoke(f"e2e-{len(loop)}", w.workers))
    other = 2 if w.workers == 1 else 1
    run.invoke(f"gate-workers{other}", other)
    median = statistics.median
    values = {
        "replicas_per_s": median(w.replicas / o.wall_s for o in loop),
        "cpu_ms_per_replica": median(1e3 * o.cpu_s / w.replicas for o in loop),
        "setup_s": median(o.wall_s for o in setups),
        "peak_rss_mb": median(o.peak_rss_mb for o in loop),
    }
    print(f"{len(loop)} invocations in {time.monotonic() - started:.1f} s, walls "
          + " ".join(f"{o.wall_s:.2f}" for o in loop) + "; set-ups "
          + " ".join(f"{o.wall_s:.2f}" for o in setups))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def measure_layers(run: Run) -> dict:
    untraced: list[Outcome] = []
    traced: list[tuple[Outcome, dict | None]] = []
    for i in range(TRACED_REPEATS):  # interleaved, so both sides see the same load
        untraced.append(run.invoke(f"untraced-{i}", 1))
        counts = work_counts(traced[0][1]) if traced and traced[0][1] else None
        traced.append(run.traced(f"traced-{i}", counts))
    pool = run.invoke("untraced-workers2", 2)
    summaries = [s for _, s in traced if s is not None]
    metrics = layer_metrics(summaries)
    wall_w1 = statistics.median(o.wall_s for o in untraced)
    metrics["experiments.pool_efficiency"] = (wall_w1 / (2 * pool.wall_s), "ratio")
    metrics["trace.overhead_s"] = (
        statistics.median(o.wall_s for o, _ in traced) - wall_w1, "s")
    metrics["ops_failed_frac"] = (len(run.failures) / run.attempted, "fraction")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics; None where the program no longer has the boundary."""
    median = statistics.median
    missing = set().union(*(s["missing"] for s in summaries))

    def busy(span: str) -> float:
        return median(s["spans"][span]["busy_s"] for s in summaries)

    def calls(span: str) -> int:
        return summaries[0]["spans"][span]["calls"]

    def work(span: str, key: str) -> int:
        return summaries[0]["spans"][span]["work"].get(key, 0)

    def per_step(span: str) -> float:
        steps = work(span, "steps")
        return 1e9 * busy(span) / steps if steps else 0.0

    def field(key: str) -> float:
        return median(s[key] for s in summaries)

    def layer_self(layer: str) -> float:
        return median(s["layer_self_s"][layer] for s in summaries)

    table = {  # metric: (unit, boundary it needs, value)
        "solver.mixed.steps": ("count", "solver.mixed", lambda: work("solver.mixed", "steps")),
        "solver.mixed.busy_s": ("s", "solver.mixed", lambda: busy("solver.mixed")),
        "solver.mixed.ns_per_step": ("ns", "solver.mixed", lambda: per_step("solver.mixed")),
        "solver.ito.steps": ("count", "solver.ito", lambda: work("solver.ito", "steps")),
        "solver.ito.busy_s": ("s", "solver.ito", lambda: busy("solver.ito")),
        "solver.ito.ns_per_step": ("ns", "solver.ito", lambda: per_step("solver.ito")),
        "solver.zdot.calls": ("count", "solver.zdot", lambda: calls("solver.zdot")),
        "solver.zdot.busy_s": ("s", "solver.zdot", lambda: busy("solver.zdot")),
        "core.eval_coefficient.calls":
            ("count", "core.eval_coefficient", lambda: calls("core.eval_coefficient")),
        "core.eval_coefficient.busy_s":
            ("s", "core.eval_coefficient", lambda: busy("core.eval_coefficient")),
        "fraccalc.seminorm.calls":
            ("count", "fraccalc.seminorm", lambda: calls("fraccalc.seminorm")),
        "fraccalc.seminorm.busy_s": ("s", "fraccalc.seminorm", lambda: busy("fraccalc.seminorm")),
        "fraccalc.seminorm.lag_pairs":
            ("pair.computed", "fraccalc.seminorm", lambda: work("fraccalc.seminorm", "lag_pairs")),
        "fraccalc.delay_norms.calls":
            ("count", "fraccalc.delay_norms", lambda: calls("fraccalc.delay_norms")),
        "fraccalc.delay_norms.busy_s":
            ("s", "fraccalc.delay_norms", lambda: busy("fraccalc.delay_norms")),
        "drivers.fbm.calls": ("count", "drivers.fbm", lambda: calls("drivers.fbm")),
        "drivers.fbm.busy_s": ("s", "drivers.fbm", lambda: busy("drivers.fbm")),
        "drivers.fbm.flops": ("flop.computed", "drivers.fbm", lambda: work("drivers.fbm", "flops")),
        "drivers.wiener.busy_s": ("s", "drivers.wiener", lambda: busy("drivers.wiener")),
        "drivers.factor_s": ("s", "drivers.fbm", lambda: field("factor_s")),
        "cli.import_s": ("s", None, lambda: field("import_s")),
        "config.load_s": ("s", "config.load", lambda: busy("config.load")),
        "cli.write_s": ("s", "cli.write", lambda: busy("cli.write")),
    }
    for layer in LAYERS:
        table[f"{layer}.self_s"] = ("s", layer, lambda layer=layer: layer_self(layer))
    metrics = {}
    for name, (unit, needs, value) in table.items():
        gone = not summaries or needs in missing or any(
            needs is not None and m.startswith(needs + ".") for m in missing)
        metrics[name] = (None if gone else value(), unit)
    for span in sorted(missing):
        print(f"boundary missing from the program: {span}", file=sys.stderr)
    return metrics


def environment(workload: Workload) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": cpu_count(),
        "workers": workload.workers,
        "blas_threads": blas_threads(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
    }


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    print(f"workload {workload.name} (seed {seed} -> master seed {run.master_seed}, "
          f"{workload.replicas} replicas, workers {workload.workers}, "
          f"{'traced' if trace else 'end to end'})")
    print("environment " + json.dumps(environment(workload), sort_keys=True))
    metrics = measure_layers(run) if trace else measure_end_to_end(run, seconds)
    run.finish()
    failed = len(run.failures)
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']!r} {m['unit']}")
    if not trace:
        print(f"  {'ops_failed_frac':<30} {failed / run.attempted!r} fraction")
    print(f"  {failed} of {run.attempted} invocations failed")
    return {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="input set; 0 is the acceptance seed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the end-to-end loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sddelab" / "cli.py").is_file():
        print(f"no sddelab sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names]
    if len(results) == 1:
        result = results[0]
    else:
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
