"""Strict JSON configuration: parsing, validation, canonical serialization.

One config file describes one run.  Unknown keys fail loudly, and none of the
physically meaningful parameters (Hurst index, exponents, mesh, taps, Monte
Carlo size) has a silent default.  Every parsed config can be serialized back
to a canonical dict that round-trips losslessly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import (
    CoeffBlock,
    CoefficientSpec,
    HolderParams,
    InitialCondition,
    ParamError,
    constant_initial,
)
from .drivers import FbmParams
from .experiments import EXPERIMENT_KINDS, ExperimentConfig, ExperimentError
from .grid import GridPath, SeedSpec
from .solver import SolverConfig

__all__ = [
    "ConfigError",
    "LoadedConfig",
    "load_config",
    "parse_config",
    "config_to_dict",
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

_FRAC_OPS = ("norms", "delay_norms", "gls", "rs", "young_love")


class ConfigError(ValueError):
    """A config violates the schema or an admissibility constraint."""


def _require_keys(d: dict, required: tuple, optional: tuple, context: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{context}: expected an object, got {type(d).__name__}")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"{context}: missing required keys {sorted(missing)}")


_REQUIRED = object()


def _typed(d: dict, key: str, context: str, types, what: str, default=_REQUIRED):
    """``d[key]`` checked against ``types``; an absent key gives ``default``.
    An explicit null is accepted only where the default is None."""
    if key not in d and default is not _REQUIRED:
        return default
    v = d.get(key)
    if v is None and default is None:
        return None
    if isinstance(v, bool) is not (bool in types) or not isinstance(v, types):
        raise ConfigError(f"{context}.{key}: expected {what}, got {v!r}")
    return v


def _number(d: dict, key: str, context: str, default=_REQUIRED) -> float | None:
    v = _typed(d, key, context, (int, float), "a number", default)
    return None if v is None else float(v)


def _integer(d: dict, key: str, context: str, default=_REQUIRED) -> int | None:
    return _typed(d, key, context, (int,), "an integer", default)


def _array(d: dict, key: str, context: str, default=_REQUIRED) -> np.ndarray:
    """A number or a (nested) list of numbers, as an array."""
    v = d.get(key, default)
    try:
        arr = np.asarray(v)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf":
        raise ConfigError(f"{context}.{key}: expected numbers, got {v!r}")
    return arr


def _boolean(d: dict, key: str, context: str, default: bool) -> bool:
    return _typed(d, key, context, (bool,), "true or false", default)


def _parse_holder(d: dict) -> HolderParams:
    _require_keys(d, ("gamma", "alpha", "beta", "theta", "hurst"), (), "holder")
    try:
        return HolderParams(
            gamma=_number(d, "gamma", "holder"),
            alpha=_number(d, "alpha", "holder"),
            beta=_number(d, "beta", "holder"),
            theta=_number(d, "theta", "holder"),
            hurst=_number(d, "hurst", "holder"),
        )
    except ParamError as exc:
        raise ConfigError(f"holder: {exc}") from exc


def _parse_block(d: dict | None, channels: int, dim: int, context: str) -> CoeffBlock:
    if d is None:
        d = {}
    _require_keys(d, (), ("gain_now", "gain_delay", "const", "time_modulation"), context)
    try:
        return CoeffBlock.build(
            channels,
            dim,
            gain_now=_array(d, "gain_now", context, 0.0),
            gain_delay=_array(d, "gain_delay", context, 0.0),
            const=_array(d, "const", context, 0.0),
            time_modulation=d.get("time_modulation", "none"),
        )
    except ParamError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _parse_coefficients(d: dict) -> CoefficientSpec:
    _require_keys(
        d,
        ("family", "dim", "n_wiener", "n_holder"),
        ("tau", "delay_span", "drift", "diffusion", "zdrive", "constants"),
        "coefficients",
    )
    family = d["family"]
    dim = _integer(d, "dim", "coefficients")
    m = _integer(d, "n_wiener", "coefficients")
    l = _integer(d, "n_holder", "coefficients")
    if family in ("linear", "pointwise_delay") and "tau" not in d:
        raise ConfigError(f"coefficients: family {family!r} requires an explicit tau")
    if family == "distributed_delay" and "delay_span" not in d:
        raise ConfigError("coefficients: distributed_delay requires an explicit delay_span")
    try:
        spec = CoefficientSpec(
            family=family,
            dim=dim,
            n_wiener=m,
            n_holder=l,
            drift=_parse_block(d.get("drift"), 1, dim, "coefficients.drift"),
            diffusion=_parse_block(d.get("diffusion"), m, dim, "coefficients.diffusion"),
            zdrive=_parse_block(d.get("zdrive"), l, dim, "coefficients.zdrive"),
            tau=_number(d, "tau", "coefficients", 0.0),
            delay_span=_number(d, "delay_span", "coefficients", 0.0),
        )
    except ParamError as exc:
        raise ConfigError(f"coefficients: {exc}") from exc
    constants = d.get("constants")
    if constants is not None:
        _require_keys(constants, (), ("K", "K_R", "beta"), "coefficients.constants")
        tol = 1e-9
        bounds = {key: _number(constants, key, "coefficients.constants") for key in constants}
        k, k_r = bounds.get("K"), bounds.get("K_R")
        if k is not None and k < spec.growth_constant() - tol:
            raise ConfigError(
                f"coefficients.constants.K={k} is below the closed-form "
                f"growth constant {spec.growth_constant():.6g} of this family"
            )
        if k_r is not None and k_r < spec.lipschitz_constant() - tol:
            raise ConfigError(
                f"coefficients.constants.K_R={k_r} is below the "
                f"closed-form Lipschitz constant {spec.lipschitz_constant():.6g}"
            )
    return spec


def _parse_initial(d: dict, spec: CoefficientSpec) -> InitialCondition:
    _require_keys(d, ("theta",), ("constant", "delay", "t0", "dt", "values"), "initial")
    theta = _number(d, "theta", "initial")
    try:
        if "constant" in d:
            _require_keys(d, ("theta", "constant", "delay"), ("dt",), "initial")
            r = _number(d, "delay", "initial")
            value = _array(d, "constant", "initial")
            dt = _number(d, "dt", "initial", r / 64 if r > 0 else 1.0)
            eta = constant_initial(value, r, dt)
            return InitialCondition(eta.eta, theta)
        _require_keys(d, ("theta", "t0", "dt", "values"), (), "initial")
        path = GridPath(_number(d, "t0", "initial"), _number(d, "dt", "initial"),
                        _array(d, "values", "initial"))
        return InitialCondition(path, theta)
    except (ParamError, ValueError) as exc:
        raise ConfigError(f"initial: {exc}") from exc


def _parse_seed(d: dict) -> SeedSpec:
    _require_keys(d, ("master",), ("stream",), "seed")
    try:
        return SeedSpec(_integer(d, "master", "seed"), _integer(d, "stream", "seed", 0))
    except ValueError as exc:
        raise ConfigError(f"seed: {exc}") from exc


def _parse_driver(d: dict | None) -> str:
    if d is None:
        return "cholesky"
    _require_keys(d, (), ("method",), "driver")
    method = d.get("method", "cholesky")
    if method not in ("cholesky", "davies_harte"):
        raise ConfigError(f"driver.method must be cholesky or davies_harte, got {method!r}")
    return method


@dataclass(frozen=True)
class LoadedConfig:
    """A validated run: ``kind`` plus the domain objects the run needs."""

    kind: str
    payload: object
    resolved: dict  # canonical dict form, embedded into reports


def _parse_fbm(doc: dict) -> LoadedConfig:
    _require_keys(doc, ("kind", "fbm", "seed"), (), "config")
    f = doc["fbm"]
    _require_keys(f, ("hurst", "n_steps", "horizon"), ("method",), "fbm")
    try:
        params = FbmParams(
            hurst=_number(f, "hurst", "fbm"),
            n_steps=_integer(f, "n_steps", "fbm"),
            horizon=_number(f, "horizon", "fbm"),
            method=f.get("method", "cholesky"),
        )
    except ValueError as exc:
        raise ConfigError(f"fbm: {exc}") from exc
    seed = _parse_seed(doc["seed"])
    resolved = {
        "kind": "fbm",
        "fbm": asdict(params),
        "seed": {"master": seed.master_seed, "stream": seed.stream_index},
    }
    return LoadedConfig("fbm", (params, seed), resolved)


def _parse_frac(doc: dict) -> LoadedConfig:
    _require_keys(doc, ("kind", "frac"), (), "config")
    f = doc["frac"]
    _require_keys(
        f,
        ("operation", "input_csv", "alpha"),
        ("lambda", "mu", "interval", "rule", "delay", "t"),
        "frac",
    )
    op = f["operation"]
    if op not in _FRAC_OPS:
        raise ConfigError(f"frac.operation must be one of {_FRAC_OPS}, got {op!r}")
    alpha = _number(f, "alpha", "frac")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"frac.alpha must lie in (0, 1), got {alpha}")
    if op == "young_love" and not ("lambda" in f and "mu" in f):
        raise ConfigError("frac: young_love requires explicit lambda and mu")
    if op == "delay_norms" and not ("delay" in f and "t" in f):
        raise ConfigError("frac: delay_norms requires explicit delay and t")
    for key in ("lambda", "mu", "delay", "t"):
        _number(f, key, "frac", None)
    if f.get("rule", "left") not in ("left", "midpoint"):
        raise ConfigError(f"frac.rule must be left or midpoint, got {f['rule']!r}")
    interval = f.get("interval")
    if interval is not None:
        if not (isinstance(interval, list) and len(interval) == 2):
            raise ConfigError("frac.interval must be a [a, b] pair")
        interval = tuple(_number({"interval": v}, "interval", "frac") for v in interval)
    resolved = {
        "kind": "frac",
        "frac": {
            "operation": op,
            "input_csv": str(f["input_csv"]),
            "alpha": alpha,
            "interval": list(interval) if interval is not None else None,
            "rule": f.get("rule", "left"),
            **{key: f.get(key) for key in ("lambda", "mu", "delay", "t")},
        },
    }
    return LoadedConfig("frac", resolved["frac"], resolved)


def _block_to_dict(block: CoeffBlock) -> dict:
    arrays = {key: getattr(block, key).tolist() for key in ("gain_now", "gain_delay", "const")}
    return {**arrays, "time_modulation": block.time_modulation}


def _spec_to_dict(spec: CoefficientSpec) -> dict:
    return {
        "family": spec.family,
        "dim": spec.dim,
        "n_wiener": spec.n_wiener,
        "n_holder": spec.n_holder,
        "tau": spec.tau,
        "delay_span": spec.delay_span,
        "drift": _block_to_dict(spec.drift),
        "diffusion": _block_to_dict(spec.diffusion),
        "zdrive": _block_to_dict(spec.zdrive),
        "constants": {
            "K": spec.growth_constant(),
            "K_R": spec.lipschitz_constant(),
            "beta": 1.0,
        },
    }


def _initial_to_dict(initial: InitialCondition) -> dict:
    return {
        "t0": initial.eta.t0,
        "dt": initial.eta.dt,
        "values": initial.eta.values.tolist(),
        "theta": initial.holder_theta,
    }


def _attrs(obj, *names: str) -> dict:
    return {name: getattr(obj, name) for name in names}


def _model_to_dict(holder: HolderParams, spec: CoefficientSpec, initial: InitialCondition,
                   method: str, seed: SeedSpec) -> dict:
    """The resolved sections shared by solve and experiment configs."""
    return {
        "holder": asdict(holder),
        "coefficients": _spec_to_dict(spec),
        "initial": _initial_to_dict(initial),
        "driver": {"method": method},
        "seed": {"master": seed.master_seed, "stream": seed.stream_index},
    }


def _parse_solve(doc: dict) -> LoadedConfig:
    _require_keys(
        doc, ("kind", "solve", "holder", "coefficients", "initial", "seed"),
        ("driver",), "config",
    )
    s = doc["solve"]
    _require_keys(
        s, ("scheme", "horizon", "n_steps"),
        ("delay", "explosion_threshold", "mollifier_level"), "solve",
    )
    holder = _parse_holder(doc["holder"])
    spec = _parse_coefficients(doc["coefficients"])
    initial = _parse_initial(doc["initial"], spec)
    seed = _parse_seed(doc["seed"])
    method = _parse_driver(doc.get("driver"))
    try:
        scfg = SolverConfig(
            n_steps=_integer(s, "n_steps", "solve"),
            horizon=_number(s, "horizon", "solve"),
            delay=_number(s, "delay", "solve", initial.r),
            scheme=s["scheme"],
            explosion_threshold=_number(s, "explosion_threshold", "solve", 1e8),
        )
    except ValueError as exc:
        raise ConfigError(f"solve: {exc}") from exc
    if abs(scfg.delay - initial.r) > 1e-9 * max(1.0, scfg.delay):
        raise ConfigError(
            f"solve.delay={scfg.delay} does not match the initial-condition "
            f"window [-{initial.r}, 0]"
        )
    level = _integer(s, "mollifier_level", "solve", None)
    if scfg.scheme == "euler_ito" and level is None:
        raise ConfigError("solve: scheme euler_ito requires mollifier_level")
    resolved = {
        "kind": "solve",
        "solve": {
            **_attrs(scfg, "scheme", "horizon", "n_steps", "delay", "explosion_threshold"),
            "mollifier_level": level,
        },
        **_model_to_dict(holder, spec, initial, method, seed),
    }
    payload = (scfg, holder, spec, initial, seed, method, level)
    return LoadedConfig("solve", payload, resolved)


def _parse_experiment(doc: dict) -> LoadedConfig:
    _require_keys(
        doc, ("kind", "experiment", "holder", "coefficients", "initial", "seed"),
        ("driver", "criteria"), "config",
    )
    e = doc["experiment"]
    # worker count is run machinery, not experiment identity: flag-only, so
    # that reports are byte-identical across worker counts
    _require_keys(
        e,
        ("flavor", "levels", "replicas", "epsilon", "horizon", "n_steps"),
        ("perturbation", "reference", "m_trunc", "r_trunc", "moment_p",
         "emit_distances"),
        "experiment",
    )
    flavor = e["flavor"]
    if flavor not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"experiment.flavor must be one of {EXPERIMENT_KINDS}, got {flavor!r}"
        )
    criteria = doc.get("criteria") or {}
    _require_keys(
        criteria, (),
        ("max_final_exceedance", "min_decreasing_steps", "ratio_bound", "heavy_tail_fails"),
        "criteria",
    )
    holder = _parse_holder(doc["holder"])
    spec = _parse_coefficients(doc["coefficients"])
    initial = _parse_initial(doc["initial"], spec)
    seed = _parse_seed(doc["seed"])
    method = _parse_driver(doc.get("driver"))
    levels = e["levels"]
    if not isinstance(levels, list) or not levels:
        raise ConfigError("experiment.levels must be a non-empty list")
    for level in levels:
        _number({"levels": level}, "levels", "experiment")
    if e.get("moment_p") is not None:  # type-checked; kept as written
        _number(e, "moment_p", "experiment")
    try:
        cfg = ExperimentConfig(
            kind=flavor,
            spec=spec,
            params=holder,
            initial=initial,
            horizon=_number(e, "horizon", "experiment"),
            n_steps=_integer(e, "n_steps", "experiment"),
            levels=tuple(levels),
            replicas=_integer(e, "replicas", "experiment"),
            epsilon=_number(e, "epsilon", "experiment"),
            seed=seed.master_seed,
            driver_method=method,
            perturbation=e.get("perturbation", "none"),
            reference=e.get("reference", "closed_form"),
            m_trunc=_number(e, "m_trunc", "experiment", 10.0),
            r_trunc=_number(e, "r_trunc", "experiment", 1e3),
            moment_p=e.get("moment_p"),
            max_final_exceedance=_number(criteria, "max_final_exceedance", "criteria", 0.05),
            min_decreasing_steps=_integer(criteria, "min_decreasing_steps", "criteria", None),
            ratio_bound=_number(criteria, "ratio_bound", "criteria", 10.0),
            heavy_tail_fails=_boolean(criteria, "heavy_tail_fails", "criteria", False),
            emit_distances=_boolean(e, "emit_distances", "experiment", False),
        )
    except (ExperimentError, ValueError) as exc:
        raise ConfigError(f"experiment: {exc}") from exc
    resolved = {
        "kind": "experiment",
        "experiment": {
            "flavor": cfg.kind,
            "levels": [float(x) for x in cfg.levels],
            **_attrs(cfg, "replicas", "epsilon", "horizon", "n_steps", "perturbation",
                     "reference", "m_trunc", "r_trunc", "moment_p", "emit_distances"),
        },
        "criteria": _attrs(cfg, "max_final_exceedance", "min_decreasing_steps",
                           "ratio_bound", "heavy_tail_fails"),
        **_model_to_dict(holder, spec, initial, method, seed),
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
    return _PARSERS[kind](doc)


def load_config(path: str | Path) -> LoadedConfig:
    """Read and validate a JSON config file."""
    text = Path(path).read_text()
    doc = json.loads(text)
    return parse_config(doc)


def config_to_dict(loaded: LoadedConfig) -> dict:
    """Canonical dict form of a parsed config (round-trips losslessly)."""
    return loaded.resolved
