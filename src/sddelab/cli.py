"""Command-line entry point.

One config file describes one run.  Subcommands: ``fbm`` (sample a driver
path), ``frac`` (fractional-calculus operations on a CSV path), ``solve`` (one
SDDE solve), ``experiment`` (Monte Carlo studies).  Each takes ``--config``
and ``--out`` (the output directory); a subcommand accepts only the other flags
it reads: ``--seed`` (replaces ``seed.master`` and is validated like it) and
``-v`` for all but ``frac``, whose config has no seed and which always prints
its result, and ``--workers`` (the worker count) for ``experiment`` alone.  A
flag a subcommand does not accept is a usage error (exit 2).

Exit codes: 0 success and all configured pass criteria hold; 1 criteria
failed; 2 config parse error (unreadable file or invalid JSON); 3 constraint
violation (a key, type, choice or range outside the config schema, ``--seed``
included, a broken rule linking fields, a malformed input CSV, or a level
schedule the experiment cannot run), printed as ``field: message`` from the
field that the :class:`~sddelab.grid.FieldError` carries, and also a driver
covariance that cannot be factored or a size too large to allocate, at load
(the section or the field named) or at run; 4 solver explosion, a closed-form
reference past the trust region included; 5 I/O error.

Every output record that carries the config (``report.json``,
``solution_meta.json``, ``fbm_path.json``, ``frac_result.json``) is built by
``_record``: the code version and the resolved config of
:func:`~sddelab.config.load_config`, then the command's own fields.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__, fraccalc
from .config import FLAVOR_ALIASES, ConfigError, LoadedConfig, load_config
from .drivers import DriverNumericsError, sample_fbm
from .experiments import ExperimentConfig, _sample_drivers, run_experiment
from .grid import FieldError, GridPath, _build
from .solver import SolverExplosionError, euler_ito_sdde, euler_mixed_sdde

__all__ = ["main"]

EXIT_OK = 0
EXIT_CRITERIA_FAILED = 1
EXIT_PARSE = 2
EXIT_CONSTRAINT = 3
EXIT_EXPLOSION = 4
EXIT_IO = 5

OUTPUT_DIR_ENV = "SDDELAB_OUT"


def _finite(obj):
    """``obj`` with every float that is not finite replaced by None, so that
    its JSON holds ``null`` there: RFC 8259 has no NaN or Infinity."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def _json(obj, **options) -> str:
    return json.dumps(_finite(obj), sort_keys=True, allow_nan=False, **options)


def _dump_json(path: Path, obj: dict) -> None:
    path.write_text(_json(obj, indent=2) + "\n")


def _peak_rss(forked: bool) -> dict:
    """The ``run_meta.json`` keys of peak resident memory, in MB: this
    process's, and for a run that ``forked`` the largest of its reaped
    workers'; none where the platform has no ``resource`` module."""
    try:
        import resource  # read here: importing the CLI does not load it
    except ImportError:
        return {}
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes there, else KiB
    peaks = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if forked:
        peaks["worker_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {key: value * unit / 2**20 for key, value in peaks.items()}


def _record(loaded: LoadedConfig, **fields) -> dict:
    """An output record: the code version, the resolved config and ``fields``."""
    return {"code_version": __version__, "config": loaded.resolved, **fields}


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
        raise ConfigError(f"{path}: need a header and at least two rows", "frac.input_csv")
    rows = []
    for i, ln in lines[1:]:
        try:
            rows.append([float(x) for x in ln.split(",")])
            if not np.all(np.isfinite(rows[-1])):
                raise ValueError
        except ValueError:
            raise ConfigError(f"{path}, line {i}: expected comma-separated finite numbers, "
                              f"got {ln!r}", "frac.input_csv") from None
        if len(rows[-1]) < 2 or len(rows[-1]) != len(rows[0]):
            raise ConfigError(f"{path}, line {i}: {len(rows[-1])} columns; every row needs "
                              f"the time and the value columns of the first row",
                              "frac.input_csv")
    arr = np.asarray(rows)
    times, values = arr[:, 0], arr[:, 1:]
    steps = np.diff(times)
    if steps.min() <= 0 or steps.max() - steps.min() > 1e-9 * max(1.0, steps.max()):
        raise ConfigError(f"{path}: time column is not a uniform grid", "frac.input_csv")
    return GridPath(float(times[0]), float(steps.mean()), values)


# each command reads the parsed arguments; ``main`` makes ``config`` and ``out`` paths


def _cmd_fbm(loaded: LoadedConfig, args: argparse.Namespace) -> int:
    path = sample_fbm(*loaded.payload)
    _write_csv(args.out / "fbm_path.csv", path, "time,value")
    _dump_json(args.out / "fbm_path.json", _record(loaded))
    if args.verbose:
        print(f"wrote {args.out / 'fbm_path.csv'} ({path.n_points} nodes)")
    return EXIT_OK


def _cmd_frac(loaded: LoadedConfig, args: argparse.Namespace) -> int:
    f = loaded.payload
    grid = _read_csv(args.config.parent / f["input_csv"])  # an absolute path stays as it is
    op = f["operation"]
    alpha = f["alpha"]
    if op in ("gls", "rs", "young_love") and grid.dim != 2:
        raise ConfigError(f"operation {op!r} needs a two-column CSV (f and g)", "frac.input_csv")
    if f["interval"] is not None:
        grid = _build("frac.interval", grid.window, *f["interval"])
    if op == "norms":
        result = asdict(fraccalc.fractional_norms(grid, alpha, f["lambda"]))
    elif op == "delay_norms":
        bundle = _build("frac", fraccalc.delay_norms, grid, alpha, f["delay"], f["t"])
        result = {**asdict(bundle), "norm_t": bundle.norm_t}
    else:
        fp = GridPath(grid.t0, grid.dt, grid.values[:, 0])
        gp = GridPath(grid.t0, grid.dt, grid.values[:, 1])
        if op == "gls":
            result = {"value": fraccalc.gls_integral(fp, gp, alpha)}
        elif op == "rs":
            result = {"value": fraccalc.riemann_stieltjes_integral(fp, gp, f["rule"])}
        else:
            result = {"bound": fraccalc.young_love_bound(fp, gp, f["lambda"], f["mu"])}
    _dump_json(args.out / "frac_result.json", _record(loaded, result=result))
    print(_json(result))
    return EXIT_OK


def _cmd_solve(loaded: LoadedConfig, args: argparse.Namespace) -> int:
    scfg, spec, initial, seed, fbm, mollifier = loaded.payload
    started = time.perf_counter()
    scheme = loaded.resolved["solve"]["scheme"]
    w, z = _sample_drivers(spec, fbm, seed)
    if scheme == "euler_mixed":
        path = euler_mixed_sdde(spec, initial, w, z, scfg)
    else:
        path = euler_ito_sdde(spec, initial, w, z, scfg, mollifier.level)
    runtime = time.perf_counter() - started
    header = "time," + ",".join(f"v{i + 1}" for i in range(path.dim))
    _write_csv(args.out / "solution.csv", path, header)
    _dump_json(args.out / "solution_meta.json", _record(
        loaded,
        dims={"d": spec.dim, "m": spec.n_wiener, "l": spec.n_holder},
        scheme=scheme,
        seed={"master": seed.master_seed, "stream": seed.stream_index},
        runtime_seconds=runtime,
    ))
    if args.verbose:
        print(f"wrote {args.out / 'solution.csv'} in {runtime:.2f}s")
    return EXIT_OK


def _cmd_experiment(loaded: LoadedConfig, args: argparse.Namespace) -> int:
    cfg: ExperimentConfig = loaded.payload
    if args.flavor is not None and FLAVOR_ALIASES[args.flavor] != cfg.kind:
        raise ConfigError(f"experiment subcommand {args.flavor!r} does not match config "
                          f"flavor {cfg.kind!r}", "experiment.flavor")
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    started = time.perf_counter()
    report = run_experiment(cfg)
    runtime = time.perf_counter() - started
    _dump_json(args.out / "report.json", _record(loaded, report=report.to_dict()))
    _dump_json(args.out / "run_meta.json", {"runtime_seconds": runtime, "workers": cfg.workers,
                                            "processes": report.processes,
                                            **_peak_rss(report.processes > 1)})
    if cfg.emit_distances and hasattr(report, "levels"):
        lines = ["level,replica,distance"]
        for lv in report.levels:
            for i, d in enumerate(lv.distances):
                lines.append(f"{lv.level!r},{i},{d!r}")
        (args.out / "distances.csv").write_text("\n".join(lines) + "\n")
    if args.verbose or not report.passed:
        status = "PASS" if report.passed else "FAIL"
        print(f"{cfg.kind}: {status}")
        for reason in report.reasons:
            print(f"  - {reason}")
    return EXIT_OK if report.passed else EXIT_CRITERIA_FAILED


_COMMANDS = {"fbm": _cmd_fbm, "frac": _cmd_frac, "solve": _cmd_solve,
             "experiment": _cmd_experiment}


def _named(exc: Exception) -> str:
    """The stderr text of an exit 3: ``field: message`` where the error carries its field."""
    field = getattr(exc, "field", None)
    return f"{field}: {exc}" if field else str(exc)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sddelab",
        description="Mixed stochastic delay differential equation laboratory",
    )
    parser.add_argument("--version", action="version", version=f"sddelab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name == "experiment":
            p.add_argument("flavor", nargs="?", choices=sorted(FLAVOR_ALIASES), default=None)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help=f"output directory (default ${OUTPUT_DIR_ENV} or cwd)")
        if name != "frac":  # a frac config has no seed, and frac always prints its result
            p.add_argument("--seed", type=int, default=None, help="override the master seed")
            p.add_argument("-v", "--verbose", action="store_true")
        if name == "experiment":
            p.add_argument("--workers", type=int, default=None, help="override the worker count")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    args.config = Path(args.config)
    args.out = Path(args.out or os.environ.get(OUTPUT_DIR_ENV) or Path.cwd())
    try:
        loaded = load_config(args.config, getattr(args, "seed", None))  # frac takes none
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FieldError as exc:
        print(f"config constraint violation: {_named(exc)}", file=sys.stderr)
        return EXIT_CONSTRAINT

    try:
        args.out.mkdir(parents=True, exist_ok=True)
        if loaded.kind != args.subcommand:
            raise ConfigError(f"subcommand {args.subcommand} got a {loaded.kind!r} config", "kind")
        return _COMMANDS[args.subcommand](loaded, args)
    except (ValueError, DriverNumericsError) as exc:  # FieldError and the like
        print(f"constraint violation: {_named(exc)}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except (MemoryError, OverflowError) as exc:
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
