"""Strict JSON configuration from one field table per section.

One config file describes one run.  Each section is a table of
:class:`Field` rows (key, type, choices or range, required flag or default,
one-line doc), and one generic reader derives from it the unknown-key,
missing-key, type, choice and range checks and the defaults.  Ranges that a
domain object already enforces (``HolderParams``, ``FbmParams``,
``SolverConfig``, ``MollifierParams``, ``ExperimentConfig``) are left to it,
and a domain error raised while loading becomes a :class:`ConfigError` that
names the section.  The few rules linking fields are explicit lines after the
read.  Nothing physically meaningful (Hurst index, exponents, mesh, taps,
Monte Carlo size) has a silent default, and every parsed config serializes to
a canonical dict that round-trips losslessly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (_MODULATIONS, DELAY_READS, FAMILIES, CoeffBlock, CoefficientSpec,
                   HolderParams, InitialCondition, ParamError, constant_initial)
from .drivers import _METHODS, FbmParams
from .experiments import (EXPERIMENT_KINDS, PERTURBATIONS, REFERENCES, ExperimentConfig,
                          ExperimentError)
from .fraccalc import RS_RULES
from .grid import GridPath, SeedSpec, same_time
from .solver import SCHEMES, MollifierParams, SolverConfig

__all__ = [
    "ConfigError",
    "Field",
    "LoadedConfig",
    "load_config",
    "parse_config",
]

# CLI short names for experiment flavors.
FLAVOR_ALIASES = {
    "coeff": "coeff_convergence",
    "delay": "vanishing_delay",
    "euler": "euler_refinement",
    "ito": "ito_limit",
    "moments": "moments",
    "quasi": "quasi_contract",
}

FRAC_OPERATIONS = ("norms", "delay_norms", "gls", "rs", "young_love")


class ConfigError(ValueError):
    """A config violates the schema or an admissibility constraint."""


REQUIRED = object()  # the key must be present
OPTIONAL = object()  # an absent key reads as None; an explicit null is rejected


@dataclass(frozen=True)
class Field:
    """One key of a config section.

    ``type`` names an entry of ``_TYPES`` or is the table of a nested section.
    ``default`` is ``REQUIRED``, ``OPTIONAL`` or the value of an absent key;
    an explicit null is accepted only where that value is None (a nested
    section then takes its defaults).  ``range`` is ``(left, lo, hi, right)``
    with the brackets of interval notation.
    """

    key: str
    type: object
    doc: str
    default: object = REQUIRED
    choices: tuple = ()
    range: tuple = ()


_INF = float("inf")
_COUNT, _POSITIVE, _NON_NEGATIVE = ("[", 1, _INF, ")"), ("(", 0, _INF, ")"), ("[", 0, _INF, ")")
_UNIT_OPEN, _UNIT_HALF_OPEN = ("(", 0, 1, ")"), ("(", 0, 1, "]")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v == v  # not NaN


def _as_array(v):
    try:
        arr = np.asarray(v)
    except ValueError:  # ragged nesting
        return None
    return arr if arr.dtype.kind in "iuf" and np.isfinite(arr).all() else None


# type: (what it accepts, read), where read gives the value or None if v does not fit
_TYPES = {
    "float": ("a number", lambda v: float(v) if _is_number(v) else None),
    "number": ("a number", lambda v: v if _is_number(v) else None),  # kept as written
    "integer": ("an integer", lambda v: v if _is_number(v) and isinstance(v, int) else None),
    "boolean": ("true or false", lambda v: v if isinstance(v, bool) else None),
    "string": ("a string", lambda v: v if isinstance(v, str) else None),
    "numbers": ("a list of numbers",
                lambda v: v if isinstance(v, list) and all(map(_is_number, v)) else None),
    "array": ("a finite number or a nested list of finite numbers", _as_array),
}


def _within(v, rng: tuple) -> bool:
    left, lo, hi, right = rng
    return (lo < v if left == "(" else lo <= v) and (v < hi if right == ")" else v <= hi)


def _read(table: tuple, d, context: str = "") -> dict:
    """Section ``d`` checked against ``table``, absent keys at their defaults."""
    where = context or "config"
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {type(d).__name__}")
    unknown = set(d) - {f.key for f in table}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [f.key for f in table if f.default is REQUIRED and f.key not in d]
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")
    return {f.key: _read_field(f, d, f"{context}.{f.key}".lstrip(".")) for f in table}


def _read_field(f: Field, d: dict, where: str):
    v = d.get(f.key, None if f.default is OPTIONAL else f.default)
    if isinstance(f.type, tuple):  # a nested section
        return _read(f.type, {} if v is None else v, where)
    if f.key not in d or (v is None and f.default is None):
        return v
    what, read = _TYPES[f.type]
    value = read(v)
    if value is None:
        raise ConfigError(f"{where}: expected {what}, got {v!r}")
    if f.choices and value not in f.choices:
        raise ConfigError(f"{where}: expected one of {', '.join(f.choices)}, got {v!r}")
    if f.range and not _within(value, f.range):
        left, lo, hi, right = f.range
        raise ConfigError(f"{where}: expected a value in {left}{lo:g}, {hi:g}{right}, got {v!r}")
    return value


# --------------------------------------------------------------------------
# the field tables

HOLDER = (
    Field("gamma", "float", "Hölder order of the rough driver Z; above 1/2 and below hurst"),
    Field("alpha", "float", "order of the fractional norms, in (1-gamma, 1/2)"),
    Field("beta", "float", "time-Hölder order of the z-coefficient, in (1-gamma, 1]"),
    Field("theta", "float", "Hölder order of the initial condition, in (1-gamma, 1/2)"),
    Field("hurst", "float", "Hurst index of the fBm realizing Z, in (1/2, 1)"),
)
BLOCK = (
    Field("gain_now", "array", "gain at psi(0): scalar, (d, d) or (channels, d, d)", 0.0),
    Field("gain_delay", "array", "gain at the delay read, shaped like gain_now", 0.0),
    Field("const", "array", "constant term: scalar or (channels, d)", 0.0),
    Field("time_modulation", "string", "factor applied at time t", "none", _MODULATIONS),
)
CONSTANTS = (
    Field("K", "float", "claimed growth constant, at least the closed form", OPTIONAL),
    Field("K_R", "float", "claimed Lipschitz constant, at least the closed form", OPTIONAL),
    Field("beta", "float", "claimed time-Hölder order (type-checked only)", OPTIONAL),
)
COEFFICIENTS = (
    Field("family", "string", "coefficient family", REQUIRED, FAMILIES),
    Field("dim", "integer", "state dimension d", range=_COUNT),
    Field("n_wiener", "integer", "number m of Wiener channels", range=_COUNT),
    Field("n_holder", "integer", "number l of rough-driver channels", range=_COUNT),
    Field("tau", "float", "delay tap; required by linear and pointwise_delay", 0.0),
    Field("delay_span", "float", "kernel support; required by distributed_delay", 0.0),
    Field("drift", BLOCK, "drift a, one channel", None),
    Field("diffusion", BLOCK, "diffusion b, n_wiener channels", None),
    Field("zdrive", BLOCK, "rough coefficient c, n_holder channels", None),
    Field("constants", CONSTANTS, "claimed constants, checked against the closed form", None),
)
INITIAL = (
    Field("theta", "float", "claimed Hölder order of the history, in (0, 1)"),
    Field("constant", "array", "constant history value; selects the constant form", OPTIONAL),
    Field("delay", "float", "history length r (constant form)", OPTIONAL, range=_NON_NEGATIVE),
    Field("dt", "float", "history step (path form; constant form default r/64, or 1 if r = 0)",
          OPTIONAL, range=_POSITIVE),
    Field("t0", "float", "first history time -r (path form)", OPTIONAL),
    Field("values", "array", "history values on [t0, 0] (path form)", OPTIONAL),
)
SEED = (
    Field("master", "integer", "master seed, in [0, 2^64)"),
    Field("stream", "integer", "stream index, at least 0", 0),
)
_METHOD = Field("method", "string", "exact fBm sampler: Cholesky factor by the Schur "
                "algorithm, or circulant embedding", "cholesky", _METHODS)
_HORIZON = Field("horizon", "float", "time horizon T", range=_POSITIVE)
_N_STEPS = Field("n_steps", "integer", "Euler steps on the driver grid, at least 2 "
                 "(the meshes of euler_refinement are its levels)")
DRIVER = (_METHOD,)
FBM = (
    Field("hurst", "float", "Hurst index, in (1/2, 1)"),
    Field("n_steps", "integer", "grid steps, at least 2"),
    _HORIZON,
    _METHOD,
)
FRAC = (
    Field("operation", "string", "operation on the input CSV", REQUIRED, FRAC_OPERATIONS),
    Field("input_csv", "string", "CSV path (time column first), relative to the config"),
    Field("alpha", "float", "fractional order", range=_UNIT_OPEN),
    Field("lambda", "number", "Hölder exponent of f (norms default: 1 - alpha); "
          "required by young_love", None, range=_UNIT_HALF_OPEN),
    Field("mu", "number", "Hölder exponent of g, lambda + mu > 1; required by young_love",
          None, range=_UNIT_HALF_OPEN),
    Field("interval", "numbers", "grid-aligned window [a, b]; not for delay_norms, whose "
          "window is [-delay, t]", None),
    Field("rule", "string", "Riemann-Stieltjes sum rule of rs", "left", RS_RULES),
    Field("delay", "number", "history length r; required by delay_norms", None,
          range=_NON_NEGATIVE),
    Field("t", "number", "end time t; required by delay_norms", None, range=_POSITIVE),
)
SOLVE = (
    Field("scheme", "string", "euler_ito solves the mollified Itô equation", REQUIRED, SCHEMES),
    _HORIZON,
    _N_STEPS,
    Field("delay", "float", "look-back window, equal to the history length r (default r)",
          OPTIONAL),
    Field("explosion_threshold", "float", "state norm that counts as an explosion, > 0", 1e8),
    Field("mollifier_level", "integer", "mollifier level N >= 1; required by euler_ito", None),
)
EXPERIMENT = (
    Field("flavor", "string", "the statement to check", REQUIRED, EXPERIMENT_KINDS),
    Field("levels", "numbers", "strictly monotone level schedule, read per flavor"),
    Field("replicas", "integer", "Monte Carlo size, at least 30"),
    Field("epsilon", "float", "exceedance threshold of the sup distance, > 0"),
    _HORIZON,
    _N_STEPS,
    Field("perturbation", "string", "coefficient perturbation (coeff_convergence)", "none",
          PERTURBATIONS),
    Field("reference", "string", "reference solution (euler_refinement)", "closed_form",
          REFERENCES),
    Field("m_trunc", "float", "truncation level of the driver seminorm", 10.0),
    Field("r_trunc", "float", "truncation level of the solution delay norm", 1e3),
    Field("moment_p", "number", "moment order p of quasi_contract (default: smallest "
          "admissible even order)", None),
    Field("emit_distances", "boolean", "also write per-replica distances.csv", False),
)
CRITERIA = (
    Field("max_final_exceedance", "float", "last-level exceedance must stay below", 0.05),
    Field("min_decreasing_steps", "integer", "euler_refinement: mean-distance drops needed, >= 0 "
          "(default: levels - 2, at least 1)", None),
    Field("ratio_bound", "float", "quasi_contract: largest allowed ratio spread", 10.0),
    Field("heavy_tail_fails", "boolean", "moments: fail when the top 1% carry half the "
          "moment", False),
)
_KIND = Field("kind", "string", "the run type: experiment, solve, fbm or frac")
_SEED = Field("seed", SEED, "the master seed and stream")
_MODEL = (  # the sections shared by solve and experiment configs
    Field("holder", HOLDER, "the exponent bundle"),
    Field("coefficients", COEFFICIENTS, "the coefficients a, b, c"),
    Field("initial", INITIAL, "the history on [-r, 0]: a constant or a path"),
    _SEED,
    Field("driver", DRIVER, "the fBm sampler", None),
)
DOCUMENTS = {
    "experiment": (_KIND, Field("experiment", EXPERIMENT, "one Monte Carlo study"),
                   Field("criteria", CRITERIA, "pass criteria", None), *_MODEL),
    "solve": (_KIND, Field("solve", SOLVE, "one solve"), *_MODEL),
    "fbm": (_KIND, Field("fbm", FBM, "one fBm path"), _SEED),
    "frac": (_KIND, Field("frac", FRAC, "one fractional-calculus operation")),
}


# --------------------------------------------------------------------------
# domain objects and the resolved dicts


@dataclass(frozen=True)
class LoadedConfig:
    """A validated run: ``kind`` plus the domain objects the run needs."""

    kind: str
    payload: object
    resolved: dict  # canonical dict form, embedded into reports


def _build(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a domain error becomes a ConfigError naming the section."""
    try:
        return make(*args, **kwargs)
    except (ParamError, ExperimentError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _spec(c: dict, raw: dict, blocks: dict) -> CoefficientSpec:
    family = c["family"]
    key = {"tap": "tau", "window": "delay_span"}.get(DELAY_READS[family])
    if key is not None and key not in raw:
        raise ConfigError(f"family {family!r} requires an explicit {key}")
    spec = CoefficientSpec(family, c["dim"], c["n_wiener"], c["n_holder"], **blocks,
                           tau=c["tau"], delay_span=c["delay_span"])
    k, k_r, tol = c["constants"]["K"], c["constants"]["K_R"], 1e-9
    if k is not None and k < spec.growth_constant() - tol:
        raise ConfigError(f"constants.K={k} is below the closed-form growth constant "
                          f"{spec.growth_constant():.6g} of this family")
    if k_r is not None and k_r < spec.lipschitz_constant() - tol:
        raise ConfigError(f"constants.K_R={k_r} is below the closed-form Lipschitz "
                          f"constant {spec.lipschitz_constant():.6g}")
    return spec


def _initial(i: dict, raw: dict) -> InitialCondition:
    """The constant form (constant, delay, optional dt) or the path form (t0, dt, values)."""
    constant = "constant" in raw
    stray = set(raw) & ({"t0", "values"} if constant else {"delay"})
    if stray:
        raise ConfigError(f"unknown keys {sorted(stray)}")
    missing = [k for k in (("constant", "delay") if constant else ("t0", "dt", "values"))
               if k not in raw]
    if missing:
        raise ConfigError(f"missing required keys {missing}")
    if constant:
        r = i["delay"]
        dt = i["dt"] if i["dt"] is not None else (r / 64 if r > 0 else 1.0)
        return InitialCondition(constant_initial(i["constant"], r, dt).eta, i["theta"])
    return InitialCondition(GridPath(i["t0"], i["dt"], i["values"]), i["theta"])


def _block_to_dict(block: CoeffBlock) -> dict:
    arrays = {key: getattr(block, key).tolist() for key in ("gain_now", "gain_delay", "const")}
    return {**arrays, "time_modulation": block.time_modulation}


def _model(v: dict, doc: dict) -> tuple:
    """(holder, spec, initial, seed, method) and their resolved sections: the
    values read, but the coefficients and the history as built."""
    holder = _build("holder", HolderParams, **v["holder"])
    c = v["coefficients"]
    channels = {"drift": 1, "diffusion": c["n_wiener"], "zdrive": c["n_holder"]}
    blocks = {name: _build(f"coefficients.{name}", CoeffBlock.build, n, c["dim"], **c[name])
              for name, n in channels.items()}
    spec = _build("coefficients", _spec, c, doc["coefficients"], blocks)
    initial = _build("initial", _initial, v["initial"], doc["initial"])
    seed = _build("seed", SeedSpec, v["seed"]["master"], v["seed"]["stream"])
    method = v["driver"]["method"]
    eta = initial.eta
    resolved = {
        "holder": v["holder"],
        "coefficients": {
            **{key: c[key] for key in ("family", "dim", "n_wiener", "n_holder", "tau",
                                       "delay_span")},
            **{name: _block_to_dict(block) for name, block in blocks.items()},
            "constants": {"K": spec.growth_constant(), "K_R": spec.lipschitz_constant(),
                          "beta": 1.0},
        },
        "initial": {"t0": eta.t0, "dt": eta.dt, "values": eta.values.tolist(),
                    "theta": initial.holder_theta},
        "driver": v["driver"],
        "seed": v["seed"],
    }
    return (holder, spec, initial, seed, method), resolved


def _parse_fbm(v: dict, doc: dict) -> LoadedConfig:
    params = _build("fbm", FbmParams, **v["fbm"])
    seed = _build("seed", SeedSpec, v["seed"]["master"], v["seed"]["stream"])
    resolved = {"kind": "fbm", "fbm": v["fbm"], "seed": v["seed"]}
    return LoadedConfig("fbm", (params, seed), resolved)


def _parse_frac(v: dict, doc: dict) -> LoadedConfig:
    f = v["frac"]
    op = f["operation"]
    if op == "young_love" and (f["lambda"] is None or f["mu"] is None):
        raise ConfigError("frac: young_love requires explicit lambda and mu")
    if op == "young_love" and not f["lambda"] + f["mu"] > 1.0:
        raise ConfigError(f"frac: young_love needs lambda + mu > 1, got {f['lambda']} + {f['mu']}")
    if op == "delay_norms" and (f["delay"] is None or f["t"] is None):
        raise ConfigError("frac: delay_norms requires explicit delay and t")
    if op == "delay_norms" and f["interval"] is not None:
        raise ConfigError("frac.interval: delay_norms takes no interval; its window is [-delay, t]")
    if f["interval"] is not None:
        if len(f["interval"]) != 2:
            raise ConfigError("frac.interval must be a [a, b] pair")
        f["interval"] = [float(x) for x in f["interval"]]
    return LoadedConfig("frac", f, {"kind": "frac", "frac": f})


def _parse_solve(v: dict, doc: dict) -> LoadedConfig:
    (holder, spec, initial, seed, method), resolved = _model(v, doc)
    s = v["solve"]
    delay = initial.r if s["delay"] is None else s["delay"]
    scfg = _build("solve", SolverConfig, s["n_steps"], s["horizon"], delay, s["scheme"],
                  s["explosion_threshold"])
    if not same_time(initial.r, scfg.delay):
        # a zero-length history has r = -0.0; its window prints as [0, 0]
        raise ConfigError(f"solve.delay={scfg.delay} does not match the initial-condition "
                          f"window [{-initial.r or 0}, 0]")
    level = s["mollifier_level"]
    if scfg.scheme == "euler_ito" and level is None:
        raise ConfigError("solve: scheme euler_ito requires mollifier_level")
    mollifier = None if level is None else _build("solve", MollifierParams, level)
    fbm = _build("solve", FbmParams, holder.hurst, scfg.n_steps, scfg.horizon, method)
    resolved = {"kind": "solve", "solve": {**s, "delay": scfg.delay}, **resolved}
    return LoadedConfig("solve", (scfg, spec, initial, seed, fbm, mollifier), resolved)


def _parse_experiment(v: dict, doc: dict) -> LoadedConfig:
    (holder, spec, initial, seed, method), resolved = _model(v, doc)
    e = dict(v["experiment"])
    # worker count is run machinery, not experiment identity: flag-only, so
    # that reports are byte-identical across worker counts
    cfg = _build("experiment", ExperimentConfig, kind=e.pop("flavor"),
                 levels=tuple(e.pop("levels")), spec=spec, params=holder, initial=initial,
                 seed=seed.master_seed, driver_method=method, **e, **v["criteria"])
    resolved = {
        "kind": "experiment",
        "experiment": {"flavor": cfg.kind, "levels": [float(x) for x in cfg.levels], **e},
        "criteria": v["criteria"],
        **resolved,
    }
    return LoadedConfig("experiment", cfg, resolved)


_PARSERS = {
    "fbm": _parse_fbm,
    "frac": _parse_frac,
    "solve": _parse_solve,
    "experiment": _parse_experiment,
}


def parse_config(doc: dict) -> LoadedConfig:
    """Validate a decoded config document and build the domain objects."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("config must be an object with a 'kind' key")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _PARSERS:
        raise ConfigError(f"kind must be one of {sorted(_PARSERS)}, got {kind!r}")
    return _PARSERS[kind](_read(DOCUMENTS[kind], doc), doc)


def load_config(path: str | Path, seed: int | None = None) -> LoadedConfig:
    """Read and validate a JSON config file; a ``seed`` then replaces the
    ``seed.master`` of a document that has one and is validated like it."""
    doc = json.loads(Path(path).read_text())
    loaded = parse_config(doc)
    if seed is None or "seed" not in loaded.resolved:
        return loaded
    return parse_config({**doc, "seed": {**doc["seed"], "master": seed}})
