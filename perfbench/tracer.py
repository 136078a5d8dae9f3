"""Traced in-process ``sddelab`` run: spans at the module boundaries.

    python3 perfbench/tracer.py SUMMARY.json SPANS.npz experiment <flavor> --config ...

Run as a child of ``run.py`` with ``PYTHONPATH`` pointing at ``src``.  It
times ``import sddelab.cli``, wraps the calls between the modules ``cli``,
``config``, ``experiments``, ``solver``, ``core``, ``drivers`` and
``fraccalc`` from outside the package, runs ``sddelab.cli.main`` in-process,
then writes every span (name, start, end, parent) to SPANS.npz and the
per-boundary totals, per-layer self times and exact work counts to
SUMMARY.json.  A boundary that the package no longer has is listed under
``missing``; its numbers are absent, never zero.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

LAYERS = ("cli", "config", "experiments", "solver", "core", "drivers", "fraccalc")


def _steps(args, kwargs):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[4]
    return {"steps": cfg.n_steps}


def _fbm_work(args, kwargs):
    params = kwargs["params"] if "params" in kwargs else args[0]
    flops = params.n_steps**2 if params.method == "cholesky" else 0
    return {"flops": flops, "n": params.n_steps}


def _lag_pairs(args, kwargs):
    n = args[0].shape[0] - 1
    return {"lag_pairs": n * (n + 1) // 2}


# (span name, module, attribute path, work counter); the attribute is
# replaced where the calling module looks it up.
BOUNDARIES = (
    ("cli.main", "sddelab.cli", "main", None),
    ("config.load", "sddelab.cli", "load_config", None),
    ("experiments.run", "sddelab.cli", "run_experiment", None),
    ("cli.write", "sddelab.cli", "_dump_json", None),
    ("solver.mixed", "sddelab.experiments", "euler_mixed_sdde", _steps),
    ("solver.ito", "sddelab.experiments", "euler_ito_sdde", _steps),
    ("solver.closed_form", "sddelab.experiments", "geometric_closed_form", None),
    ("solver.zdot", "sddelab.solver", "MollifiedDrift.zdot", None),
    ("core.eval_coefficient", "sddelab.solver", "eval_coefficient", None),
    ("drivers.fbm", "sddelab.experiments", "sample_fbm", _fbm_work),
    ("drivers.wiener", "sddelab.experiments", "sample_wiener", None),
    ("fraccalc.seminorm", "sddelab.fraccalc", "_seminorm_0_alpha", _lag_pairs),
    ("fraccalc.delay_norms", "sddelab.fraccalc", "delay_norms", None),
)


class Tracer:
    """Spans kept in flat arrays; one stack of open spans (single thread)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("q")  # grid size for driver spans, else 0
        self.work: dict[str, dict[str, int]] = {}
        self.uncounted: set[str] = set()
        self._open = [-1]

    def wrap(self, span: str, fn, counter=None):
        nid = len(self.names)
        self.names.append(span)
        work = self.work.setdefault(span, {})
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1])
            self.tag.append(0)
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._open.pop()
                if counter is not None:
                    try:
                        counts = counter(args, kwargs)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        self.uncounted.add(span)
                    else:
                        self.tag[idx] = counts.pop("n", 0)
                        for key, value in counts.items():
                            work[key] = work.get(key, 0) + value

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every boundary that exists; return the names of those that do not."""
    missing = []
    for span, module_name, attr, counter in BOUNDARIES:
        *path, leaf = attr.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
        except (ImportError, AttributeError):
            missing.append(span)
            continue
        setattr(owner, leaf, tracer.wrap(span, fn, counter))
    return missing


def summarize(tracer: Tracer, missing: list[str]) -> dict:
    """Totals per boundary, self time per layer and the driver factor time.

    A boundary whose work counter no longer fits its arguments is reported
    as missing, like one that no longer exists.
    """
    import numpy as np

    missing = [*missing, *sorted(tracer.uncounted)]
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - child_time
    spans = {}
    for nid, span in enumerate(tracer.names):
        mask = name == nid
        spans[span] = {
            "calls": int(mask.sum()),
            "busy_s": float(dur[mask].sum()),
            "self_s": float(self_time[mask].sum()),
            "work": tracer.work[span],
        }
    layers = {
        layer: sum(v["self_s"] for k, v in spans.items() if k.split(".")[0] == layer)
        for layer in LAYERS
    }
    fbm = tracer.names.index("drivers.fbm") if "drivers.fbm" in tracer.names else -1
    return {"spans": spans, "layer_self_s": layers, "missing": missing,
            "factor_s": _factor_s(np.frombuffer(tracer.tag, dtype=np.int64)[name == fbm],
                                  dur[name == fbm])}


def _factor_s(sizes, times) -> float:
    """First fBm call at each grid size minus the median later call there."""
    import numpy as np

    total = 0.0
    for n in np.unique(sizes):
        at_n = times[sizes == n]
        if len(at_n) > 1:
            total += float(at_n[0] - np.median(at_n[1:]))
    return total


def main(argv: list[str]) -> int:
    summary_path, spans_path, *cli_args = argv
    started = time.perf_counter()
    import sddelab.cli

    import_s = time.perf_counter() - started
    tracer = Tracer()
    missing = install(tracer)
    exit_code = sddelab.cli.main(cli_args)
    import numpy as np

    np.savez(
        spans_path,
        names=np.array(tracer.names),
        name=np.frombuffer(tracer.name, dtype=np.int32),
        parent=np.frombuffer(tracer.parent, dtype=np.int32),
        start=np.frombuffer(tracer.start),
        end=np.frombuffer(tracer.end),
        tag=np.frombuffer(tracer.tag, dtype=np.int64),
    )
    summary = summarize(tracer, missing)
    summary.update(import_s=import_s, exit_code=exit_code)
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
