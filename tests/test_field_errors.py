"""Every exit 3 names its field.

One generative test per run kind mutates one field of a small valid document,
each mutation drawn from that field's entry in ``config.DOCUMENTS``: a wrong
type, a value outside the choices, each range bound, NaN, +-inf and 1e308.
A mutation that the entry refuses must exit 3 with a last stderr line whose
text after ``constraint violation: `` starts with the field's dotted path.
A mutation that the entry admits (an infinite or huge number where no
stated range excludes it) may be a valid run; it must end in a documented
exit code, and an exit 3 must name the field or another one of the document,
never only a section that holds it: such a value can break a rule that links
it to another field (a claimed constant, the grid the history must land on,
the finest mesh).  A panel of valid extremes must
run.  An ``ast`` lint keeps a config path out of the head of
every message in ``src/sddelab``.
"""

import ast
import contextlib
import copy
import io
import json
import math
from pathlib import Path

import pytest

from sddelab import config
from sddelab.cli import main

SRC = Path(__file__).resolve().parents[1] / "src" / "sddelab"

HOLDER = {"gamma": 0.7, "alpha": 0.35, "beta": 1.0, "theta": 0.45, "hurst": 0.75}
GEOMETRIC = {"family": "no_delay", "dim": 1, "n_wiener": 1, "n_holder": 1,
             "drift": {"gain_now": 0.5}, "diffusion": {"gain_now": 0.4},
             "zdrive": {"gain_now": 0.3}}
POINTWISE = {"family": "pointwise_delay", "dim": 1, "n_wiener": 1, "n_holder": 1, "tau": 0.25,
             "drift": {"gain_now": 0.3, "gain_delay": 0.2, "const": 0.1,
                       "time_modulation": "sin"},
             "diffusion": {"gain_now": 0.2}, "zdrive": {"gain_now": 0.1},
             "constants": {"K": 100.0, "K_R": 100.0}}
CRITERIA = {"max_final_exceedance": 0.5, "min_decreasing_steps": 1, "ratio_bound": 10.0,
            "heavy_tail_fails": False}


def _experiment(flavor, levels, n_steps, coefficients=GEOMETRIC, delay=0.0, **extra):
    return {
        "kind": "experiment",
        "experiment": {"flavor": flavor, "levels": levels, "replicas": 30, "epsilon": 0.1,
                       "horizon": 1.0, "n_steps": n_steps, **extra},
        "criteria": CRITERIA,
        "holder": HOLDER,
        "coefficients": coefficients,
        "initial": {"constant": 1.0, "delay": delay, "theta": 0.45, "dt": 0.0625},
        "driver": {"method": "cholesky"},
        "seed": {"master": 5, "stream": 0},
    }


# one small valid document per run kind, each setting most of its optional fields
DOCS = {
    "coeff": _experiment("coeff_convergence", [2, 4], 16, POINTWISE, 0.25,
                         perturbation="drift_shift", m_trunc=10.0, r_trunc=1000.0,
                         emit_distances=False),
    "delay": _experiment("vanishing_delay", [0.25, 0.125], 16, POINTWISE, 0.25),
    "euler": _experiment("euler_refinement", [16, 64], 64, reference="closed_form"),
    "ito": _experiment("ito_limit", [4, 8], 64),
    "moments": _experiment("moments", [2.0, 4.0], 16),
    "quasi": _experiment("quasi_contract", [0.1, 0.05], 32, moment_p=14, m_trunc=25.0),
    "solve": {
        "kind": "solve",
        "solve": {"scheme": "euler_ito", "horizon": 1.0, "n_steps": 64,
                  "explosion_threshold": 1e8, "mollifier_level": 8},
        "holder": HOLDER,
        "coefficients": POINTWISE,
        "initial": {"constant": 1.0, "delay": 0.25, "theta": 0.45, "dt": 0.0625},
        "driver": {"method": "cholesky"},
        "seed": {"master": 5, "stream": 2},
    },
    "fbm": {
        "kind": "fbm",
        "fbm": {"hurst": 0.75, "n_steps": 64, "horizon": 1.0, "method": "cholesky"},
        "seed": {"master": 3, "stream": 1},
    },
    "frac": {
        "kind": "frac",
        "frac": {"operation": "young_love", "input_csv": "f.csv", "alpha": 0.3,
                 "lambda": 0.6, "mu": 0.6, "interval": [0.0, 0.5]},
    },
    "delay_norms": {
        "kind": "frac",
        "frac": {"operation": "delay_norms", "input_csv": "f.csv", "alpha": 0.3,
                 "delay": 0.25, "t": 0.5},
    },
}


def _run(tmp_path: Path, alias: str, doc: dict) -> tuple[int, str]:
    """Exit code and stderr of ``sddelab`` on ``doc``, run in this process;
    a frac document reads a CSV on [-0.25, 1] with dt = 1/32."""
    rows = [f"{k / 32!r},{math.sin(k / 8)!r},{(k / 32) ** 2!r}" for k in range(-8, 33)]
    (tmp_path / "f.csv").write_text("time,f,g\n" + "\n".join(rows) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    kind = DOCS[alias]["kind"]
    args = [kind, alias] if kind == "experiment" else [kind]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*args, "--config", str(cfg), "--out", str(tmp_path / "out")])
    return code, err.getvalue()


def _fields(table: tuple, node: dict, prefix: str = ""):
    """(dotted path, Field, key path) of every key that ``node`` sets, nested sections too."""
    for f in table:
        if f.key in node:
            path = f"{prefix}{f.key}"
            yield path, f, (f.key,)
            if isinstance(f.type, tuple) and isinstance(node[f.key], dict):
                for sub, g, keys in _fields(f.type, node[f.key], path + "."):
                    yield sub, g, (f.key, *keys)


_WRONG_TYPES = {
    "float": ["x", True, [1.0]],
    "number": ["x", False, {"k": 1}],
    "integer": ["x", True, 1.5],
    "boolean": ["x", 1],
    "string": [1, ["x"]],
    "numbers": ["x", 1, [1.0, "x"]],
    "array": ["x", {"k": 1}, [[1.0], [1.0, 2.0]]],
}


def _mutations(f) -> list[tuple[object, bool]]:
    """(value, whether the entry refuses it) for one field."""
    refused = list(_WRONG_TYPES.get(f.type, ["x", 1]))  # a nested section takes an object
    if f.default is not None:
        refused.append(None)
    if f.choices:
        refused.append("not-a-choice")
    if isinstance(f.type, tuple) or f.type in ("boolean", "string"):
        return [(v, True) for v in refused]
    bad, extremes = [math.nan], [math.inf, -math.inf, 1e308]
    if f.type == "integer":  # a float is a wrong type
        bad, extremes = bad + extremes, []
    if f.type in ("array", "numbers"):  # a non-finite entry is refused; a huge one is a value
        bad, extremes = bad + extremes[:2], extremes[2:]
    if f.range:
        left, lo, hi, right = f.range
        bad.append(lo if left == "(" else lo - 1)
        if math.isfinite(hi):
            bad.append(hi if right == ")" else hi + 1)
        bad += [v for v in extremes if not config._within(v, f.range)]
        extremes = [v for v in extremes if config._within(v, f.range)]
    if f.type == "numbers":  # a list of one such number
        bad, extremes = [[v] for v in bad], [[v] for v in extremes]
    return [(v, True) for v in refused + bad] + [(v, False) for v in extremes]


def _every_key(table: tuple) -> dict:
    return {f.key: _every_key(f.type) if isinstance(f.type, tuple) else 0 for f in table}


def _paths(kind: str) -> set[str]:
    """Every dotted config path of a run kind, the sections included."""
    table = config.DOCUMENTS[kind]
    return {path for path, _, _ in _fields(table, _every_key(table))}


def _cases(alias: str):
    doc = DOCS[alias]
    for path, f, keys in _fields(config.DOCUMENTS[doc["kind"]], doc):
        if f.key == "kind":
            continue  # the kind selects the subcommand and the table
        for value, refused in _mutations(f):
            yield path, keys, value, refused


def _mutated(doc: dict, keys: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


@pytest.mark.parametrize("alias", sorted(DOCS))
def test_every_refused_value_exits_three_naming_its_field(tmp_path, alias):
    """The whole table of one run kind: each refused mutation exits 3 naming
    its field first; each admitted one exits 0, 1, 3 or 4, and an exit 3
    names first a path of the document that is not a section holding it."""
    code, err = _run(tmp_path, alias, DOCS[alias])
    assert code in (0, 1), err
    paths = _paths(DOCS[alias]["kind"])
    wrong = []
    for path, keys, value, refused in _cases(alias):
        try:
            code, err = _run(tmp_path, alias, _mutated(DOCS[alias], keys, value))
        except Exception as exc:  # a traceback, or a numpy warning that pytest raises
            wrong.append(f"{path} = {value!r}: raised {exc!r}")
            continue
        last = err.strip().splitlines()[-1] if err.strip() else ""
        named = last.partition("constraint violation: ")[2].split(": ")[0]
        if refused and (code != 3 or named != path):
            wrong.append(f"{path} = {value!r} (refused): exit {code}: {last}")
        elif code not in (0, 1, 3, 4) or code == 3 and (
                named not in paths or path.startswith(f"{named}.")):
            wrong.append(f"{path} = {value!r} (admitted): exit {code}: {last}")
    assert not wrong, "\n".join(wrong)


@pytest.mark.parametrize("alias, sections", [
    # gains of 1e3: the closed form, the meshes and the solves leave the trust region
    ("euler", {"coefficients": {"drift": {"gain_now": 1e3}}}),
    ("euler", {"coefficients": {"zdrive": {"gain_now": 1e3}}}),
    ("moments", {"coefficients": {"diffusion": {"gain_now": 1e3}}}),
    ("solve", {"coefficients": {"zdrive": {"gain_now": 1e3}, "constants": None}}),
    # H = 0.9999 draws with both samplers
    ("fbm", {"fbm": {"hurst": 0.9999, "n_steps": 4096, "method": "cholesky"}}),
    ("fbm", {"fbm": {"hurst": 0.9999, "n_steps": 4096, "method": "davies_harte"}}),
    ("moments", {"holder": {"hurst": 0.9999, "gamma": 0.9}}),
    # a long horizon
    ("euler", {"experiment": {"horizon": 1e3}}),
    ("fbm", {"fbm": {"horizon": 1e6}}),
    ("solve", {"solve": {"horizon": 1e3, "n_steps": 4096, "mollifier_level": 1},
               "initial": {"delay": 1e3 / 64}, "coefficients": {"tau": 1e3 / 64}}),
])
def test_valid_extremes_run(tmp_path, alias, sections):
    """Values inside every stated bound run, or explode (exit 4); none is an exit 3."""
    doc = copy.deepcopy(DOCS[alias])
    for section, values in sections.items():
        doc[section].update(values)
    code, err = _run(tmp_path, alias, doc)
    assert code in (0, 1, 4), err


@pytest.mark.parametrize("delay, t, message", [
    (0.5, 0.5, "frac.delay: time -0.5 outside [-0.25, 1.0]"),
    (0.01, 0.5, "frac.delay: time -0.01 does not land on the grid (dt=0.03125)"),
    (0.25, 1.5, "frac.t: time 1.5 outside [-0.25, 1.0]"),
    (0.25, 0.51, "frac.t: time 0.51 does not land on the grid (dt=0.03125)"),
])
def test_a_delay_norms_window_off_the_csv_names_its_end(tmp_path, delay, t, message):
    """A window [-delay, t] that the CSV does not cover names the end that is
    off: ``frac.delay`` below the first time or off the grid, ``frac.t``
    past the last time or off the grid."""
    doc = copy.deepcopy(DOCS["delay_norms"])
    doc["frac"].update(delay=delay, t=t)
    code, err = _run(tmp_path, "delay_norms", doc)
    assert code == 3
    assert err.strip().splitlines()[-1] == f"constraint violation: {message}"


def test_no_message_starts_with_a_config_path():
    """A field is carried by the error, never pasted into its message: no
    string constant, and no f-string's leading text, in ``src/sddelab``
    starts with a config path followed by a colon."""
    paths = set().union(*map(_paths, config.DOCUMENTS))
    assert {"experiment.levels", "coefficients.drift.gain_now", "seed", "frac.t"} <= paths
    pasted = set()
    for source in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.JoinedStr) and node.values:
                node = node.values[0]  # the f-string's head
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                head, colon, _ = node.value.partition(":")
                if colon and head in paths:
                    pasted.add(f"{source.name}:{node.lineno}: {node.value!r}")
    assert not pasted, "\n".join(sorted(pasted))
