"""Command-line entry point.

One config file describes one run; flags only override the master seed
(``--seed`` replaces ``seed.master`` and is validated like it), the output
directory and the worker count.  Subcommands: ``fbm`` (sample a driver path),
``frac`` (fractional-calculus operations on a CSV path), ``solve`` (one SDDE
solve), ``experiment`` (Monte Carlo studies).

Exit codes: 0 success and all configured pass criteria hold; 1 criteria
failed; 2 config parse error (unreadable file or invalid JSON); 3 constraint
violation (a key, type, choice or range outside the config schema, ``--seed``
included, a broken rule linking fields, a malformed input CSV, or a level
schedule the experiment cannot run), with the offending field named on stderr,
and also a driver covariance that cannot be factored or a run that does not
fit in memory, with the size named; 4 solver explosion; 5 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, fraccalc
from .config import (
    FLAVOR_ALIASES,
    ConfigError,
    LoadedConfig,
    load_config,
)
from .core import ParamError
from .drivers import DriverNumericsError, sample_fbm
from .experiments import ExperimentConfig, ExperimentError, _sample_drivers, run_experiment
from .grid import GridError, GridPath
from .solver import (
    MollifiedDrift,
    SolverExplosionError,
    coefficient_evaluator,
    euler_ito_sdde,
    euler_mixed_sdde,
)

__all__ = ["main", "RunConfig"]

EXIT_OK = 0
EXIT_CRITERIA_FAILED = 1
EXIT_PARSE = 2
EXIT_CONSTRAINT = 3
EXIT_EXPLOSION = 4
EXIT_IO = 5

OUTPUT_DIR_ENV = "SDDELAB_OUT"


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: subcommand, config path, output and worker flags."""

    subcommand: str
    config_path: Path
    output_dir: Path
    workers: int | None
    verbose: bool
    flavor: str | None = None  # the experiment subcommand's flavor alias


def _dump_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, grid: GridPath, header: str) -> None:
    lines = [header]
    times = grid.times
    for k in range(grid.n_points):
        row = ",".join(repr(float(v)) for v in grid.values[k])
        lines.append(f"{float(times[k])!r},{row}")
    path.write_text("\n".join(lines) + "\n")


def _read_csv(path: Path) -> GridPath:
    lines = [(i, ln) for i, ln in enumerate(Path(path).read_text().splitlines(), 1)
             if ln.strip()]
    if len(lines) < 3:
        raise ConfigError(f"{path}: need a header and at least two rows")
    rows = []
    for i, ln in lines[1:]:
        try:
            rows.append([float(x) for x in ln.split(",")])
            if not np.all(np.isfinite(rows[-1])):
                raise ValueError
        except ValueError:
            raise ConfigError(f"{path}, line {i}: expected comma-separated finite numbers, "
                              f"got {ln!r}") from None
        if len(rows[-1]) < 2 or len(rows[-1]) != len(rows[0]):
            raise ConfigError(f"{path}, line {i}: {len(rows[-1])} columns; every row needs "
                              f"the time and the value columns of the first row")
    arr = np.asarray(rows)
    times, values = arr[:, 0], arr[:, 1:]
    steps = np.diff(times)
    if steps.min() <= 0 or steps.max() - steps.min() > 1e-9 * max(1.0, steps.max()):
        raise ConfigError(f"{path}: time column is not a uniform grid")
    return GridPath(float(times[0]), float(steps.mean()), values)


def _resolve_out(flag: str | None) -> Path:
    if flag:
        return Path(flag)
    env = os.environ.get(OUTPUT_DIR_ENV)
    return Path(env) if env else Path.cwd()


def _cmd_fbm(loaded: LoadedConfig, run: RunConfig) -> int:
    path = sample_fbm(*loaded.payload)
    out = run.output_dir
    _write_csv(out / "fbm_path.csv", path, "time,value")
    _dump_json(
        out / "fbm_path.json",
        {"code_version": __version__, "config": loaded.resolved},
    )
    if run.verbose:
        print(f"wrote {out / 'fbm_path.csv'} ({path.n_points} nodes)")
    return EXIT_OK


def _cmd_frac(loaded: LoadedConfig, run: RunConfig) -> int:
    f = loaded.payload
    csv_path = Path(f["input_csv"])
    if not csv_path.is_absolute():
        csv_path = run.config_path.parent / csv_path
    grid = _read_csv(csv_path)
    op = f["operation"]
    alpha = f["alpha"]
    interval = tuple(f["interval"]) if f["interval"] is not None else None
    if op in ("gls", "rs", "young_love") and grid.dim != 2:
        raise ConfigError(f"operation {op!r} needs a two-column CSV (f and g)")
    if op == "norms":
        result = asdict(fraccalc.fractional_norms(grid, alpha, interval, f["lambda"]))
    elif op == "delay_norms":
        bundle = fraccalc.delay_norms(grid, alpha, f["delay"], f["t"])
        result = {**asdict(bundle), "norm_t": bundle.norm_t}
    else:
        fp = GridPath(grid.t0, grid.dt, grid.values[:, 0])
        gp = GridPath(grid.t0, grid.dt, grid.values[:, 1])
        if interval is not None:
            fp, gp = fp.window(*interval), gp.window(*interval)
        if op == "gls":
            result = {"value": fraccalc.gls_integral(fp, gp, alpha)}
        elif op == "rs":
            result = {"value": fraccalc.riemann_stieltjes_integral(fp, gp, f["rule"])}
        else:
            result = {
                "bound": fraccalc.young_love_bound(fp, gp, f["lambda"], f["mu"])
            }
    payload = {"code_version": __version__, "config": loaded.resolved, "result": result}
    _dump_json(run.output_dir / "frac_result.json", payload)
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


def _cmd_solve(loaded: LoadedConfig, run: RunConfig) -> int:
    scfg, spec, initial, seed, fbm, mollifier = loaded.payload
    started = time.perf_counter()
    w, z = _sample_drivers(spec, fbm, seed)
    if scfg.scheme == "euler_mixed":
        path = euler_mixed_sdde(spec, initial, w, z, scfg)
    else:
        drift = MollifiedDrift(spec, z, mollifier.level)
        path = euler_ito_sdde(drift, coefficient_evaluator(spec, "b"), initial, w, scfg)
    runtime = time.perf_counter() - started
    out = run.output_dir
    header = "time," + ",".join(f"v{i + 1}" for i in range(path.dim))
    _write_csv(out / "solution.csv", path, header)
    _dump_json(
        out / "solution_meta.json",
        {
            "code_version": __version__,
            "config": loaded.resolved,
            "dims": {"d": spec.dim, "m": spec.n_wiener, "l": spec.n_holder},
            "scheme": scfg.scheme,
            "seed": {"master": seed.master_seed, "stream": seed.stream_index},
            "runtime_seconds": runtime,
        },
    )
    if run.verbose:
        print(f"wrote {out / 'solution.csv'} in {runtime:.2f}s")
    return EXIT_OK


def _cmd_experiment(loaded: LoadedConfig, run: RunConfig) -> int:
    cfg: ExperimentConfig = loaded.payload
    if run.flavor is not None and FLAVOR_ALIASES[run.flavor] != cfg.kind:
        raise ConfigError(
            f"experiment subcommand {run.flavor!r} does not match config flavor "
            f"{cfg.kind!r}"
        )
    if run.workers is not None:
        cfg = replace(cfg, workers=run.workers)
    started = time.perf_counter()
    report = run_experiment(cfg)
    runtime = time.perf_counter() - started
    out = run.output_dir
    report_dict = {
        "code_version": __version__,
        "config": loaded.resolved,
        "report": report.to_dict(),
    }
    _dump_json(out / "report.json", report_dict)
    _dump_json(
        out / "run_meta.json",
        {"runtime_seconds": runtime, "workers": cfg.workers},
    )
    if cfg.emit_distances and hasattr(report, "levels"):
        lines = ["level,replica,distance"]
        for lv in report.levels:
            for i, d in enumerate(lv.distances):
                lines.append(f"{lv.level!r},{i},{d!r}")
        (out / "distances.csv").write_text("\n".join(lines) + "\n")
    if run.verbose or not report.passed:
        status = "PASS" if report.passed else "FAIL"
        print(f"{cfg.kind}: {status}")
        for reason in report.reasons:
            print(f"  - {reason}")
    return EXIT_OK if report.passed else EXIT_CRITERIA_FAILED


_COMMANDS = {"fbm": _cmd_fbm, "frac": _cmd_frac, "solve": _cmd_solve,
             "experiment": _cmd_experiment}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sddelab",
        description="Mixed stochastic delay differential equation laboratory",
    )
    parser.add_argument("--version", action="version", version=f"sddelab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help=f"output directory (default ${OUTPUT_DIR_ENV} or cwd)")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--workers", type=int, default=None, help="override the worker count")
        p.add_argument("-v", "--verbose", action="store_true")

    for name in ("fbm", "frac", "solve"):
        add_common(sub.add_parser(name))
    exp = sub.add_parser("experiment")
    exp.add_argument("flavor", nargs="?", choices=sorted(FLAVOR_ALIASES), default=None)
    add_common(exp)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    run = RunConfig(
        subcommand=args.subcommand,
        config_path=Path(args.config),
        output_dir=_resolve_out(args.out),
        workers=args.workers,
        verbose=args.verbose,
        flavor=getattr(args, "flavor", None),
    )
    try:
        loaded = load_config(run.config_path, args.seed)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigError, ParamError) as exc:
        print(f"config constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT

    try:
        run.output_dir.mkdir(parents=True, exist_ok=True)
        if loaded.kind != run.subcommand:
            raise ConfigError(f"subcommand {run.subcommand} got a {loaded.kind!r} config")
        return _COMMANDS[run.subcommand](loaded, run)
    except (ConfigError, ParamError, GridError, ExperimentError, DriverNumericsError) as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except MemoryError as exc:
        print(f"constraint violation: the run does not fit in memory: {exc}",
              file=sys.stderr)
        return EXIT_CONSTRAINT
    except SolverExplosionError as exc:
        print(f"solver explosion: {exc}", file=sys.stderr)
        return EXIT_EXPLOSION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
