"""Run one child process and measure it: wall, CPU, peak memory, exit code.

Each child starts in its own session, so a child that outlives its deadline
is killed together with any pool workers it started.  CPU time comes from
``wait4`` and includes every descendant the child waited for (pool workers).
Peak memory is the child's own ``ru_maxrss``; for pool runs it is the sum of
the per-process high-water marks (``VmHWM``) of the child and its workers,
sampled from ``/proc`` while the child runs.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_build" / "perfbench" / "tmp"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_WORKERS = 2  # the largest worker count of any invocation


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    """BLAS threads per process: workers x threads <= CPUs at every worker count.

    The count is the same at every worker count because it sets the reduction
    order of the Cholesky matvec, and with it the bytes of ``report.json``.
    """
    return max(1, cpu_count() // MAX_WORKERS)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SDDELAB_OUT", None)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(TMP)
    TMP.mkdir(parents=True, exist_ok=True)
    for var in BLAS_THREAD_VARS:
        env[var] = str(blas_threads())
    return env


@dataclass
class Outcome:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str
    timed_out: bool

    @property
    def raised(self) -> bool:
        return "Traceback (most recent call last)" in self.stderr


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _children(pid: int) -> list[int]:
    kids = []
    try:
        for task in Path(f"/proc/{pid}/task").iterdir():
            kids.extend(int(x) for x in (task / "children").read_text().split())
    except (OSError, ValueError):
        pass
    return kids


def _watch_tree(pid: int, hwm: dict, stop: threading.Event) -> None:
    while not stop.is_set():
        for p in [pid, *_children(pid)]:
            hwm[p] = max(hwm.get(p, 0), _vm_hwm_kb(p))
        stop.wait(0.05)


def run_child(argv: list[str], env: dict, log_dir: Path, timeout_s: float,
              watch_tree: bool = False) -> Outcome:
    """Run ``argv`` from the repository root; stdout/stderr go to ``log_dir``."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    hwm: dict[int, int] = {}
    stop = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err,
                                start_new_session=True)
        expired = threading.Event()

        def expire() -> None:
            expired.set()
            _kill_group(proc.pid)

        killer = threading.Timer(timeout_s, expire)
        killer.start()
        watcher = None
        if watch_tree:
            watcher = threading.Thread(target=_watch_tree, args=(proc.pid, hwm, stop))
            watcher.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        finally:
            killer.cancel()
            stop.set()
            if watcher is not None:
                watcher.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # stragglers, if the child left any
    peak_kb = max(usage.ru_maxrss, sum(hwm.values()))
    return Outcome(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=peak_kb / 1024.0,
        stderr=err_path.read_text(errors="replace"),
        timed_out=expired.is_set(),
    )


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
