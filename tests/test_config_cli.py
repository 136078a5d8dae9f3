import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sddelab.cli import main
from sddelab import FbmParams, config, experiments, sample_fbm, sample_wiener
from sddelab.config import ConfigError, load_config, parse_config
from sddelab.grid import stack_paths
from sddelab.solver import euler_ito_sdde, euler_mixed_sdde

DATA = Path(__file__).parent / "data"

GOLDEN_RESOLVED = {
    "kind": "experiment",
    "experiment": {
        "flavor": "euler_refinement",
        "levels": [16.0, 64.0, 256.0],
        "replicas": 40,
        "epsilon": 0.1,
        "horizon": 1.0,
        "n_steps": 256,
        "perturbation": "none",
        "reference": "closed_form",
        "m_trunc": 10.0,
        "r_trunc": 1000.0,
        "moment_p": None,
        "emit_distances": False,
    },
    "criteria": {
        "max_final_exceedance": 0.05,
        "min_decreasing_steps": None,
        "ratio_bound": 10.0,
        "heavy_tail_fails": False,
    },
    "holder": {"gamma": 0.7, "alpha": 0.35, "beta": 1.0, "theta": 0.45, "hurst": 0.75},
    "coefficients": {
        "family": "no_delay",
        "dim": 1,
        "n_wiener": 1,
        "n_holder": 1,
        "tau": 0.0,
        "delay_span": 0.0,
        "drift": {
            "gain_now": [[[0.5]]], "gain_delay": [[[0.0]]],
            "const": [[0.0]], "time_modulation": "none",
        },
        "diffusion": {
            "gain_now": [[[0.4]]], "gain_delay": [[[0.0]]],
            "const": [[0.0]], "time_modulation": "none",
        },
        "zdrive": {
            "gain_now": [[[0.3]]], "gain_delay": [[[0.0]]],
            "const": [[0.0]], "time_modulation": "none",
        },
        "constants": {"K": 1.2, "K_R": 1.2, "beta": 1.0},
    },
    "initial": {"t0": 0.0, "dt": 1.0, "values": [[1.0]], "theta": 0.45},
    "driver": {"method": "cholesky"},
    "seed": {"master": 2024, "stream": 0},
}


def geometric_doc():
    return json.loads((DATA / "geometric_experiment.json").read_text())


class TestParsing:
    def test_golden_fixture_normalizes_exactly(self):
        loaded = load_config(DATA / "geometric_experiment.json")
        assert json.loads(json.dumps(loaded.resolved)) == GOLDEN_RESOLVED

    def test_resolved_dict_round_trips(self):
        loaded = load_config(DATA / "geometric_experiment.json")
        again = parse_config(json.loads(json.dumps(loaded.resolved)))
        assert again.resolved == loaded.resolved

    def test_unknown_top_level_key(self):
        doc = geometric_doc()
        doc["detail"] = 1
        with pytest.raises(ConfigError, match="unknown keys.*detail"):
            parse_config(doc)

    def test_unknown_nested_key(self):
        doc = geometric_doc()
        doc["holder"]["alpha0"] = 0.2
        with pytest.raises(ConfigError, match="alpha0"):
            parse_config(doc)

    def test_missing_required_key(self):
        doc = geometric_doc()
        del doc["experiment"]["replicas"]
        with pytest.raises(ConfigError, match="replicas"):
            parse_config(doc)

    def test_low_hurst_rejected_with_named_constraint(self):
        doc = geometric_doc()
        doc["holder"]["hurst"] = 0.4
        with pytest.raises(ConfigError, match="hurst must lie in"):
            parse_config(doc)

    def test_alpha_outside_gamma_window(self):
        doc = geometric_doc()
        doc["holder"]["alpha"] = 0.6
        with pytest.raises(ConfigError, match=r"alpha must lie in \(1-gamma, 1/2\)"):
            parse_config(doc)

    def test_small_monte_carlo_budget_rejected(self):
        doc = geometric_doc()
        doc["experiment"]["replicas"] = 10
        with pytest.raises(ConfigError, match="at least 30"):
            parse_config(doc)

    def test_tau_required_for_delay_families(self):
        doc = geometric_doc()
        doc["coefficients"]["family"] = "pointwise_delay"
        with pytest.raises(ConfigError, match="tau"):
            parse_config(doc)

    def test_underclaimed_constants_rejected(self):
        doc = geometric_doc()
        doc["coefficients"]["constants"] = {"K": 0.5}
        with pytest.raises(ConfigError, match="below the closed-form"):
            parse_config(doc)

    def test_flavor_must_be_known(self):
        doc = geometric_doc()
        doc["experiment"]["flavor"] = "magic"
        with pytest.raises(ConfigError, match="flavor"):
            parse_config(doc)


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestCliExperiment:
    def test_pass_run_exits_zero_and_writes_report(self, tmp_path):
        cfg = write_config(tmp_path, geometric_doc())
        out = tmp_path / "out"
        assert main(["experiment", "euler", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["report"]["passed"] is True
        assert report["code_version"]
        assert report["config"]["experiment"]["flavor"] == "euler_refinement"
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["runtime_seconds"] > 0

    def test_reports_byte_identical_across_reruns_and_workers(self, tmp_path):
        cfg = write_config(tmp_path, geometric_doc())
        outs = []
        for name, workers in (("a", None), ("b", None), ("c", "8")):
            args = ["experiment", "euler", "--config", str(cfg), "--out", str(tmp_path / name)]
            if workers:
                args += ["--workers", workers]
            assert main(args) == 0
            outs.append((tmp_path / name / "report.json").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_flavor_mismatch_is_a_constraint_error(self, tmp_path):
        cfg = write_config(tmp_path, geometric_doc())
        assert main(["experiment", "delay", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    def test_criteria_failure_exits_one(self, tmp_path):
        doc = geometric_doc()
        # a coarse single level cannot beat a tight exceedance threshold
        doc["experiment"]["levels"] = [4]
        doc["experiment"]["n_steps"] = 4
        doc["criteria"] = {"max_final_exceedance": 0.0001}
        cfg = write_config(tmp_path, doc)
        assert main(["experiment", "euler", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_parse_error_exits_two(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["experiment", "euler", "--config", str(bad), "--out", str(tmp_path)]) == 2
        missing = tmp_path / "nope.json"
        assert main(["experiment", "euler", "--config", str(missing), "--out", str(tmp_path)]) == 2

    def test_constraint_violation_exits_three(self, tmp_path):
        doc = geometric_doc()
        doc["experiment"]["replicas"] = 10
        cfg = write_config(tmp_path, doc)
        assert main(["experiment", "euler", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    def test_seed_override_changes_report(self, tmp_path):
        cfg = write_config(tmp_path, geometric_doc())
        main(["experiment", "euler", "--config", str(cfg), "--out", str(tmp_path / "x")])
        main(["experiment", "euler", "--config", str(cfg), "--out", str(tmp_path / "y"),
              "--seed", "999"])
        x = json.loads((tmp_path / "x" / "report.json").read_text())
        y = json.loads((tmp_path / "y" / "report.json").read_text())
        assert x["config"]["seed"]["master"] == 2024
        assert y["config"]["seed"]["master"] == 999
        assert x["report"]["levels"] != y["report"]["levels"]

    def test_emit_distances_writes_csv(self, tmp_path):
        doc = geometric_doc()
        doc["experiment"]["emit_distances"] = True
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["experiment", "euler", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "distances.csv").read_text().strip().splitlines()
        assert lines[0] == "level,replica,distance"
        assert len(lines) == 1 + 3 * 40


class TestCliSolve:
    def solve_doc(self, scheme="euler_mixed"):
        return {
            "kind": "solve",
            "solve": {"scheme": scheme, "horizon": 1.0, "n_steps": 128, "delay": 0.0,
                      "mollifier_level": 8 if scheme == "euler_ito" else None},
            "holder": {"gamma": 0.7, "alpha": 0.35, "beta": 1.0, "theta": 0.45,
                       "hurst": 0.75},
            "coefficients": {
                "family": "no_delay", "dim": 1, "n_wiener": 1, "n_holder": 1,
                "drift": {"gain_now": 0.5}, "diffusion": {"gain_now": 0.4},
                "zdrive": {"gain_now": 0.3},
            },
            "initial": {"constant": 1.0, "delay": 0.0, "theta": 0.45},
            "seed": {"master": 5},
        }

    @pytest.mark.parametrize("scheme", ["euler_mixed", "euler_ito"])
    def test_solution_csv_and_meta(self, tmp_path, scheme):
        cfg = write_config(tmp_path, self.solve_doc(scheme))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "solution.csv").read_text().strip().splitlines()
        assert lines[0] == "time,v1"
        assert len(lines) == 1 + 129
        meta = json.loads((out / "solution_meta.json").read_text())
        assert meta["scheme"] == scheme

    def test_solution_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path, self.solve_doc())
        main(["solve", "--config", str(cfg), "--out", str(tmp_path / "r1")])
        main(["solve", "--config", str(cfg), "--out", str(tmp_path / "r2")])
        assert (tmp_path / "r1" / "solution.csv").read_bytes() == (
            tmp_path / "r2" / "solution.csv"
        ).read_bytes()

    @pytest.mark.parametrize("scheme", ["euler_mixed", "euler_ito"])
    def test_several_holder_channels_solve_on_the_stacked_channels(self, tmp_path, scheme):
        doc = self.solve_doc(scheme)
        doc["coefficients"]["n_holder"] = 2
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        solved = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)[:, 1]

        scfg, spec, initial, seed, _, mollifier = load_config(cfg).payload
        fbm = FbmParams(0.75, 128, 1.0)
        w = sample_wiener(128, 1.0, 1, seed.child(0))
        z = stack_paths([sample_fbm(fbm, seed.child(1).child(j)) for j in range(2)])
        if scheme == "euler_mixed":
            path = euler_mixed_sdde(spec, initial, w, z, scfg)
        else:
            path = euler_ito_sdde(spec, initial, w, z, scfg, mollifier.level)
        np.testing.assert_array_equal(solved, path.values[:, 0])

    def test_explosion_exits_four(self, tmp_path):
        doc = self.solve_doc()
        doc["coefficients"]["drift"]["gain_now"] = 100.0
        doc["coefficients"]["constants"] = None
        del doc["coefficients"]["constants"]
        doc["solve"]["explosion_threshold"] = 10.0
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 4


class TestCliFbmAndFrac:
    def fbm_doc(self):
        return {
            "kind": "fbm",
            "fbm": {"hurst": 0.75, "n_steps": 64, "horizon": 1.0, "method": "cholesky"},
            "seed": {"master": 3, "stream": 1},
        }

    def test_fbm_csv_with_sidecar(self, tmp_path):
        cfg = write_config(tmp_path, self.fbm_doc())
        out = tmp_path / "out"
        assert main(["fbm", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "fbm_path.csv").read_text().strip().splitlines()
        assert lines[0] == "time,value"
        assert len(lines) == 66
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        sidecar = json.loads((out / "fbm_path.json").read_text())
        assert sidecar["config"]["fbm"]["hurst"] == 0.75
        assert sidecar["config"]["seed"] == {"master": 3, "stream": 1}

    def test_fbm_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, self.fbm_doc())
        target = tmp_path / "envout"
        monkeypatch.setenv("SDDELAB_OUT", str(target))
        assert main(["fbm", "--config", str(cfg)]) == 0
        assert (target / "fbm_path.csv").exists()

    def test_fbm_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path, self.fbm_doc())
        main(["fbm", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["fbm", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "fbm_path.csv").read_bytes() == (
            tmp_path / "b" / "fbm_path.csv"
        ).read_bytes()

    @pytest.mark.parametrize("method", ["cholesky", "davies_harte"])
    def test_grid_too_large_for_memory_exits_three_without_traceback(self, tmp_path,
                                                                     method):
        """8 PiB of float64: more than the address space, so numpy refuses the
        first array at once on any machine."""
        doc = self.fbm_doc()
        doc["fbm"].update(n_steps=10**15, method=method)
        cfg = write_config(tmp_path, doc)
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-m", "sddelab.cli", "fbm", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.returncode == 3
        assert "Traceback" not in out.stderr
        assert "does not fit in memory" in out.stderr
        assert "PiB" in out.stderr  # the size asked for

    def test_factor_failure_exits_three_naming_n_and_hurst(self, tmp_path, capsys,
                                                           monkeypatch):
        from sddelab import drivers

        monkeypatch.setattr(drivers, "_fgn_autocov", lambda n, h: np.ones(n))
        monkeypatch.setattr(drivers, "_cholesky_factor",
                            drivers._cholesky_factor.__wrapped__)
        cfg = write_config(tmp_path, self.fbm_doc())
        assert main(["fbm", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert "n=64, H=0.75" in capsys.readouterr().err

    def test_frac_norms_on_csv(self, tmp_path, capsys):
        n = 256
        t = [k / n for k in range(n + 1)]
        csv = tmp_path / "lin.csv"
        csv.write_text("time,value\n" + "\n".join(f"{x!r},{x!r}" for x in t) + "\n")
        cfg = write_config(tmp_path, {
            "kind": "frac",
            "frac": {"operation": "norms", "input_csv": "lin.csv", "alpha": 0.5},
        })
        out = tmp_path / "out"
        assert main(["frac", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "frac_result.json").read_text())["result"]
        assert result["seminorm_0_alpha"] == pytest.approx(3.0, rel=1e-6)

    def test_frac_gls_two_columns(self, tmp_path):
        n = 512
        t = [k / n for k in range(n + 1)]
        csv = tmp_path / "pair.csv"
        rows = "\n".join(f"{x!r},{x!r},{x * x!r}" for x in t)
        csv.write_text("time,f,g\n" + rows + "\n")
        cfg = write_config(tmp_path, {
            "kind": "frac",
            "frac": {"operation": "gls", "input_csv": str(csv), "alpha": 0.3},
        })
        out = tmp_path / "out"
        assert main(["frac", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "frac_result.json").read_text())["result"]
        assert result["value"] == pytest.approx(2.0 / 3.0, abs=2e-3)

    def test_subcommand_config_kind_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, self.fbm_doc())
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 3


# --------------------------------------------------------------------------
# exit-code contract


def typed_doc():
    """A small valid coeff-convergence config that sets most optional fields."""
    return {
        "kind": "experiment",
        "experiment": {
            "flavor": "coeff_convergence", "levels": [2, 4], "replicas": 30,
            "epsilon": 0.1, "horizon": 1.0, "n_steps": 16, "perturbation": "drift_shift",
            "reference": "closed_form", "m_trunc": 10.0, "r_trunc": 1000.0,
            "emit_distances": False,
        },
        "criteria": {"max_final_exceedance": 0.5, "min_decreasing_steps": 1,
                     "ratio_bound": 10.0, "heavy_tail_fails": False},
        "holder": {"gamma": 0.7, "alpha": 0.35, "beta": 1.0, "theta": 0.45, "hurst": 0.75},
        "coefficients": {
            "family": "pointwise_delay", "dim": 1, "n_wiener": 1, "n_holder": 1,
            "tau": 0.25,
            "drift": {"gain_now": 0.3, "gain_delay": 0.2, "const": 0.1, "time_modulation": "sin"},
            "diffusion": {"gain_now": 0.2},
            "zdrive": {"gain_now": 0.1},
            "constants": {"K": 100.0, "K_R": 100.0},
        },
        "initial": {"constant": 1.0, "delay": 0.25, "theta": 0.45, "dt": 0.0625},
        "driver": {"method": "cholesky"},
        "seed": {"master": 5, "stream": 0},
    }


def _field_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,), value
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


# null means "unset" for these fields and for the optional objects
NULLABLE = {("criteria", "min_decreasing_steps")}


def _wrong_values(path, value):
    """Values of a type the field never accepts."""
    if path in NULLABLE:
        return [v for v in _wrong_values((), value) if v is not None]
    if isinstance(value, bool):
        return ["x", 1, None]
    if isinstance(value, (int, float)):
        return ["x", True, {"k": 1}, None]
    if isinstance(value, str):
        return [1, ["x"], {"k": 1}, None]
    if isinstance(value, list):
        return ["x", 1, {"k": 1}, None]
    return ["x", 1, ["x"]]


TYPED_PATHS = [path for path, _ in _field_paths(typed_doc())]


def test_typed_doc_is_valid(tmp_path):
    cfg = write_config(tmp_path, typed_doc())
    assert main(["experiment", "coeff", "--config", str(cfg), "--out", str(tmp_path)]) in (0, 1)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_wrong_typed_fields_exit_two_or_three(tmp_path_factory, data):
    """Swapping any field of a valid config for a wrong-typed value is a
    parse or constraint error (exit 2 or 3), never a traceback or a run."""
    path = data.draw(st.sampled_from(TYPED_PATHS))
    doc = typed_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(st.sampled_from(_wrong_values(path, node[path[-1]])))
    tmp = tmp_path_factory.mktemp("typed")
    cfg = write_config(tmp, doc)
    assert main(["experiment", "coeff", "--config", str(cfg), "--out", str(tmp)]) in (2, 3)


# right-typed values outside each field's range; levels[0] values keep the
# schedule monotone, so the flavor's own level rule is what rejects them
OUT_OF_RANGE = {
    ("holder", "gamma"): [0.5, 0.75, 1.2],
    ("holder", "alpha"): [0.3, 0.5, -0.1],
    ("holder", "beta"): [0.3, 1.5],
    ("holder", "theta"): [0.3, 0.5],
    ("holder", "hurst"): [0.5, 1.0, 0.3, 1.5],
    ("coefficients", "dim"): [0, -1],
    ("coefficients", "n_wiener"): [0, -1],
    ("coefficients", "n_holder"): [0, -1],
    ("coefficients", "tau"): [-0.25],
    ("coefficients", "constants", "K"): [-1.0],
    ("experiment", "replicas"): [0, -1, 29],
    ("experiment", "epsilon"): [0.0, -0.1],
    ("experiment", "horizon"): [0.0, -1.0],
    ("experiment", "n_steps"): [0, -1],
    ("initial", "theta"): [0.0, 1.0],
    ("initial", "delay"): [-0.25],
    ("initial", "dt"): [0.0, -0.0625],
    ("seed", "master"): [-1, 2**64],
    ("seed", "stream"): [-1],
}
LEVEL_OUT_OF_RANGE = {"coeff": [0, -2, 0.0], "euler": [16.5, 0, -16, 1.5]}
RANGE_DOCS = {"coeff": typed_doc, "euler": geometric_doc}


def _range_cases(flavor):
    paths = {path for path, _ in _field_paths(RANGE_DOCS[flavor]())}
    cases = [(path, v) for path, values in OUT_OF_RANGE.items() if path in paths
             for v in values]
    return cases + [(("experiment", "levels", 0), v) for v in LEVEL_OUT_OF_RANGE[flavor]]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_out_of_range_fields_exit_three_naming_the_field(tmp_path_factory, data):
    """A right-typed value outside its field's range (a zero or negative
    count, a non-positive horizon, a non-integral mesh, a hurst outside
    (1/2, 1), ...) is a constraint violation that names the field."""
    flavor = data.draw(st.sampled_from(sorted(RANGE_DOCS)))
    path, value = data.draw(st.sampled_from(_range_cases(flavor)))
    doc = RANGE_DOCS[flavor]()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    tmp = tmp_path_factory.mktemp("range")
    cfg = write_config(tmp, doc)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["experiment", flavor, "--config", str(cfg), "--out", str(tmp)])
    assert code == 3
    named = [k for k in path if isinstance(k, str)][-1]
    assert named in err.getvalue()


def _frac_doc(**frac):
    return {"kind": "frac", "frac": {"input_csv": "f.csv", "alpha": 0.3, **frac}}


def _with(doc, section, **values):
    doc[section].update(values)
    return doc


def delay_doc(levels):
    """A vanishing-delay config on the history window [-0.5, 0]."""
    doc = _with(typed_doc(), "experiment", flavor="vanishing_delay", levels=levels,
                perturbation="none")
    doc["initial"].update(delay=0.5)
    return doc


RANGE_ERRORS = {
    # a tap outside [0, initial delay] is refused before any replica is solved
    "delay_negative_tap": ("experiment", "levels", delay_doc([0.5, -0.25])),
    "delay_tap_beyond_history": ("experiment", "levels", delay_doc([0.75, 0.5])),
    "ito_half_level": (
        "experiment", "levels",
        _with(geometric_doc(), "experiment", flavor="ito_limit", levels=[0.5, 4]),
    ),
    "mollifier_level_zero": (
        "solve", "mollifier",
        _with(TestCliSolve().solve_doc("euler_ito"), "solve", mollifier_level=0),
    ),
    # dt = 1/16 is coarser than a quarter window of level 64, as in `experiment ito`
    "solve_ito_mesh_too_coarse": (
        "solve", "mesh dt=0.0625 too coarse for mollifier level 64",
        _with(TestCliSolve().solve_doc("euler_ito"), "solve", n_steps=16, mollifier_level=64),
    ),
    "young_love_lambda_above_one": (
        "frac", "frac.lambda", _frac_doc(operation="young_love", **{"lambda": 2.0, "mu": 0.5}),
    ),
    "norms_negative_lambda": (
        "frac", "frac.lambda", _frac_doc(operation="norms", **{"lambda": -1}),
    ),
    "delay_norms_negative_t": (
        "frac", "frac.t", _frac_doc(operation="delay_norms", delay=0.25, t=-1),
    ),
    "delay_norms_interval": (
        "frac", "frac.interval",
        _frac_doc(operation="delay_norms", delay=0.25, t=1.0, interval=[0.0, 0.5]),
    ),
    "euler_zero_mesh": (
        "experiment", "levels", _with(geometric_doc(), "experiment", levels=[0, 64]),
    ),
    "coeff_zero_index": (
        "experiment", "levels", _with(typed_doc(), "experiment", levels=[0, 2]),
    ),
    "negative_horizon": (
        "experiment", "horizon", _with(geometric_doc(), "experiment", horizon=-1),
    ),
    # JSON's Infinity: euler_refinement would divide the horizon into no finite grid
    "experiment_infinite_horizon": (
        "experiment", "horizon", _with(geometric_doc(), "experiment", horizon=float("inf")),
    ),
    "solve_infinite_horizon": (
        "solve", "horizon", _with(TestCliSolve().solve_doc(), "solve", horizon=float("inf")),
    ),
    "fbm_infinite_horizon": (
        "fbm", "horizon", _with(TestCliFbmAndFrac().fbm_doc(), "fbm", horizon=float("inf")),
    ),
    "moments_negative_order": (
        "experiment", "levels",
        _with(geometric_doc(), "experiment", flavor="moments", levels=[2.0, -4.0]),
    ),
    # 0.3 lies between the nodes 19/64 and 20/64; the stepper must not round it
    "solve_off_grid_tap": (
        "solve", "tap 0.3",
        _with(_with(_with(TestCliSolve().solve_doc(), "solve", n_steps=64, delay=0.5),
                    "initial", delay=0.5), "coefficients", family="pointwise_delay", tau=0.3),
    ),
    "negative_explosion_threshold": (
        "solve", "explosion_threshold",
        _with(TestCliSolve().solve_doc(), "solve", explosion_threshold=-1.0),
    ),
    # drops < need never holds below zero: the criterion would be vacuous
    "negative_min_decreasing_steps": (
        "experiment", "min_decreasing_steps",
        {**geometric_doc(), "criteria": {"min_decreasing_steps": -1}},
    ),
    # int(16.5) would run mesh 16 while the report says 16.5
    "euler_half_mesh": (
        "experiment", "levels", _with(geometric_doc(), "experiment", levels=[16.5, 64]),
    ),
    # JSON's NaN compares false to every bound, so it would pass any criterion
    "quasi_nan_ratio_bound": (
        "experiment", "ratio_bound",
        {**_with(geometric_doc(), "experiment", flavor="quasi_contract", levels=[0.1, 0.05],
                 n_steps=32), "criteria": {"ratio_bound": float("nan")}},
    ),
    "coeff_nan_max_final_exceedance": (
        "experiment", "max_final_exceedance",
        _with(typed_doc(), "criteria", max_final_exceedance=float("nan")),
    ),
    "nan_gain": (
        "experiment", "gain_now",
        _with(typed_doc(), "coefficients", drift={"gain_now": float("nan")}),
    ),
    # an infinite gain is refused before it explodes the solve
    "infinite_gain": (
        "solve", "gain_now",
        _with(TestCliSolve().solve_doc(), "coefficients", drift={"gain_now": float("inf")}),
    ),
}


def test_solve_delay_against_a_zero_length_history_prints_the_window(tmp_path, capsys):
    """A zero-length history starts at -0.0; its window reads [0, 0]."""
    cfg = write_config(tmp_path, _with(TestCliSolve().solve_doc(), "solve", delay=0.25))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "solve.delay=0.25 does not match the initial-condition window [0, 0]" in err
    assert "--0.0" not in err


@pytest.mark.parametrize("case", sorted(RANGE_ERRORS))
def test_range_errors_exit_three_naming_the_field(tmp_path, capsys, case):
    subcommand, named, doc = RANGE_ERRORS[case]
    cfg = write_config(tmp_path, doc)
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert named in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def _small_experiment_doc():
    return _with(geometric_doc(), "experiment", replicas=30, levels=[16, 64], n_steps=64)


SEED_DOCS = {
    "fbm": lambda: TestCliFbmAndFrac().fbm_doc(),
    "solve": lambda: TestCliSolve().solve_doc(),
    "experiment": _small_experiment_doc,
}


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("subcommand", sorted(SEED_DOCS))
def test_seed_flag_outside_the_seed_range_exits_three_naming_seed(tmp_path, subcommand,
                                                                  seed):
    cfg = write_config(tmp_path, SEED_DOCS[subcommand]())
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "sddelab.cli", subcommand, "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--seed", seed],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 3
    assert "seed" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("subcommand, outputs", [
    ("fbm", ["fbm_path.csv", "fbm_path.json"]),
    ("solve", ["solution.csv"]),
    ("experiment", ["report.json"]),
])
def test_seed_flag_writes_the_bytes_of_a_config_with_that_master(tmp_path, subcommand,
                                                                 outputs):
    flagged, written = SEED_DOCS[subcommand](), SEED_DOCS[subcommand]()
    flagged["seed"]["master"] = 77
    written["seed"]["master"] = 5
    runs = {"flag": (flagged, ["--seed", "5"]), "config": (written, [])}
    for name, (doc, extra) in runs.items():
        cfg = write_config(tmp_path, doc, f"{name}.json")
        args = [subcommand, "--config", str(cfg), "--out", str(tmp_path / name), *extra]
        assert main(args) == 0
    for output in outputs:
        assert (tmp_path / "flag" / output).read_bytes() == (
            tmp_path / "config" / output).read_bytes()


def test_integral_float_meshes_run_as_integers(tmp_path):
    reports = []
    for name, levels in (("float", [16.0, 64.0, 256.0]), ("int", [16, 64, 256])):
        doc = _with(geometric_doc(), "experiment", levels=levels)
        cfg = write_config(tmp_path, doc, f"{name}.json")
        out = tmp_path / name
        assert main(["experiment", "euler", "--config", str(cfg), "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("rows, line", [
    (["0.0,0.0", "0.5,x", "1.0,1.0"], 3),
    (["0.0,0.0", "0.5,0.5,0.5", "1.0,1.0"], 3),
    (["0.0", "0.5", "1.0"], 2),
    (["0.0,0.0", "0.5,nan", "1.0,1.0"], 3),
    (["0.0,0.0", "0.5,0.5", "1.0,-inf"], 4),
    (["0.0,0.0", "nan,0.5", "1.0,1.0"], 3),
])
def test_malformed_csv_is_a_constraint_violation(tmp_path, capsys, rows, line):
    (tmp_path / "f.csv").write_text("time,value\n" + "\n".join(rows) + "\n")
    cfg = write_config(tmp_path, _frac_doc(operation="norms"))
    assert main(["frac", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert f"f.csv, line {line}:" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("coefficients", "tau", "abc"),
    ("coefficients.drift", "gain_now", "x"),
    ("criteria", "min_decreasing_steps", "x"),
])
def test_named_wrong_types_are_constraint_violations(tmp_path, capsys, section, key, value):
    doc = typed_doc()
    node = doc
    for part in section.split("."):
        node = node[part]
    node[key] = value
    cfg = write_config(tmp_path, doc)
    assert main(["experiment", "coeff", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("drift, zdrive, named", [
    # the drift explodes on the paths whose rough part is large
    (16.0, 3.0, "replica 46, level 64"),
    # replica 34 explodes at level 64 only; its block first trips on a later
    # replica at level 16, so the block is solved again replica by replica
    (0.0, 20.0, "replica 34, level 64"),
    # a stiff 2-d linear system: the 16-step mesh is unstable, and replica 10
    # passes the threshold by 2.6%, so solved alone it must reproduce the bits
    # it has in its block
    pytest.param([[-63.3, 0.3], [-0.2, -63.3]], [[1.0, 0.2], [0.0, 1.0]],
                 "replica 10, level 16", id="dim2"),
])
def test_explosion_names_the_replica_identically_at_every_worker_count(
    tmp_path, capsys, drift, zdrive, named
):
    doc = geometric_doc()
    doc["experiment"].update(replicas=60, levels=[16, 64], n_steps=64)
    doc["coefficients"].update(
        drift={"gain_now": drift}, diffusion={"gain_now": 0.0}, zdrive={"gain_now": zdrive}
    )
    if np.ndim(drift) == 2:
        doc["coefficients"].update(family="linear", dim=2, n_wiener=2, n_holder=2, tau=0.0)
        doc["experiment"]["reference"] = "fine_euler"
        doc["initial"]["constant"] = [1.0, -0.5]
    cfg = write_config(tmp_path, doc)
    errs = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        code = main(["experiment", "euler", "--config", str(cfg), "--out", str(out),
                     "--workers", workers])
        assert code == 4
        assert not (out / "report.json").exists()
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith(f"solver explosion: {named}: ")


def test_stacked_level_explosion_names_the_first_level_in_schedule_order(tmp_path, capsys):
    """A stiff linear drift: the solution scales with the initial value, so
    the level shifted by 1/0.25 = 4 crosses the threshold at t=0.9375, before
    the level shifted by 1/2 does (at t=1).  Replica 5 is the lowest that
    explodes, the reference does not, and the error names its first level in
    schedule order, with that level's time, at every worker count."""
    doc = geometric_doc()
    doc["experiment"].update(flavor="coeff_convergence", levels=[2, 0.25], replicas=60,
                             n_steps=64, perturbation="initial_shift")
    doc["coefficients"].update(
        drift={"gain_now": 16.0}, diffusion={"gain_now": 0.0}, zdrive={"gain_now": 3.0}
    )
    doc["seed"] = {"master": 2}
    errs = []
    for levels, workers in (([2, 0.25], "1"), ([2, 0.25], "2"), ([0.25], "1")):
        doc["experiment"]["levels"] = levels
        cfg = write_config(tmp_path, doc)
        out = tmp_path / workers
        code = main(["experiment", "coeff", "--config", str(cfg), "--out", str(out),
                     "--workers", workers])
        assert code == 4
        assert not (out / "report.json").exists()
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("solver explosion: replica 5, level 2: ")
    assert errs[0].rstrip().endswith("at t=1")
    assert errs[2].startswith("solver explosion: replica 5, level 0.25: ")
    assert errs[2].rstrip().endswith("at t=0.9375")


@pytest.mark.parametrize("flavor,levels,extra", [
    ("moments", [2.0, 4.0], {}),
    ("quasi_contract", [0.1, 0.05], {"m_trunc": 25.0}),
])
def test_reports_byte_identical_across_workers_over_several_blocks(
    tmp_path, flavor, levels, extra
):
    # one worker solves 120 replicas in blocks of 50, 50 and 20; three
    # workers solve the same blocks on two CPUs, or blocks of 40 on three or
    # more, in separate processes
    doc = geometric_doc()
    doc["experiment"].update(flavor=flavor, levels=levels, replicas=120, n_steps=16,
                             epsilon=0.5, **extra)
    doc["criteria"] = {"max_final_exceedance": 1.0}
    cfg = write_config(tmp_path, doc)
    blobs = []
    for workers in ("1", "3"):
        out = tmp_path / workers
        code = main(["experiment", "--config", str(cfg), "--out", str(out),
                     "--workers", workers])
        assert code in (0, 1)
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("levels", [[100, 400], [250, 1000]])
def test_reports_byte_identical_across_blas_thread_counts(tmp_path, levels):
    """Cholesky drivers on one panel (n=400) and on two (n=1000), neither a
    multiple of the panel: ``report.json`` and ``distances.csv`` have the
    same bytes under one and two OpenBLAS threads, in separate processes."""
    doc = geometric_doc()
    doc["experiment"].update(levels=levels, n_steps=levels[-1], emit_distances=True)
    doc["criteria"] = {"max_final_exceedance": 1.0}
    cfg = write_config(tmp_path, doc)
    src = Path(__file__).resolve().parents[1] / "src"
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run(
            [sys.executable, "-m", "sddelab.cli", "experiment", "euler", "--config",
             str(cfg), "--out", str(out)],
            check=True, env={**os.environ, "PYTHONPATH": str(src),
                             "OPENBLAS_NUM_THREADS": threads},
        )
        blobs.append([(out / name).read_bytes() for name in ("report.json", "distances.csv")])
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("cpus", [1, 3, 64])
def test_pool_is_bounded_by_the_cpus_and_the_tasks(tmp_path, monkeypatch, cpus):
    """``--workers 10000`` starts at most min(CPUs, tasks) processes, each
    task at most ``_BLOCK_REPLICAS`` replicas, and reports the bytes of one
    worker.  The pool is a stand-in that runs the tasks in this process."""
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            started.append((self.max_workers, [len(r) for _, r in tasks]))
            return map(fn, tasks)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    doc = geometric_doc()
    doc["experiment"].update(flavor="moments", levels=[2.0], replicas=130, n_steps=16)
    doc["criteria"] = {"max_final_exceedance": 1.0}
    cfg = write_config(tmp_path, doc)
    blobs = []
    for workers in ("1", "10000"):
        out = tmp_path / workers
        assert main(["experiment", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) in (0, 1)
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
    if cpus == 1:
        assert started == []
        return
    [(max_workers, sizes)] = started
    assert sum(sizes) == 130 and max(sizes) <= experiments._BLOCK_REPLICAS
    assert max_workers == min(cpus, len(sizes))


def test_blocks_bound_the_stepper_rows_and_leave_the_report_unchanged(tmp_path,
                                                                     monkeypatch):
    """29 coeff levels make 30 row groups per replica, so a block holds at
    most 450 // 30 = 15 replicas; with the row bound lifted, one block of all
    40 replicas gives the same report bytes."""
    doc = _with(typed_doc(), "experiment", levels=list(range(1, 30)), replicas=40)
    doc["criteria"] = {"max_final_exceedance": 1.0}
    cfg = write_config(tmp_path, doc)
    sizes, run_block = [], experiments._run_block
    monkeypatch.setattr(experiments, "_run_block",
                        lambda task: sizes.append(len(task[1])) or run_block(task))
    blobs = []
    for rows in (experiments._BLOCK_ROWS, 10**6):
        monkeypatch.setattr(experiments, "_BLOCK_ROWS", rows)
        out = tmp_path / str(rows)
        assert main(["experiment", "coeff", "--config", str(cfg), "--out", str(out)]) in (0, 1)
        blobs.append((out / "report.json").read_bytes())
    assert sizes == [15, 15, 10, 40]
    assert blobs[0] == blobs[1]


def test_cli_import_leaves_scipy_signal_unloaded():
    """No scipy module at all: ``scipy.special`` and ``scipy.signal`` are
    imported by the few fraccalc functions that call them."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, sddelab.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"


def test_delay_run_leaves_numpy_ma_unloaded(tmp_path):
    """The level medians are taken without ``np.median``, whose NaN check
    imports ``numpy.ma`` (~10 ms) in every convergence run."""
    cfg = write_config(tmp_path, delay_doc([0.25, 0.125]))
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys; from sddelab.cli import main; "
             f"code = main(['experiment', 'delay', '--config', {str(cfg)!r}, "
             f"'--out', {str(tmp_path / 'out')!r}]); "
             "print(code, 'numpy.ma' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.split()[-1] == "False"
    assert json.loads((tmp_path / "out" / "report.json").read_text())["report"]["levels"]


# --------------------------------------------------------------------------
# the README's config schema is rendered from the field tables


def _cell(f):
    if f.choices:
        return ", ".join(f"`{c}`" for c in f.choices)
    if f.range:
        left, lo, hi, right = f.range
        return f"{left}{lo:g}, {hi:g}{right}"
    return ""


def _default(f):
    if f.default is config.REQUIRED:
        return "required"
    if f.default is config.OPTIONAL:
        return "optional"
    return f"`{json.dumps(f.default)}`"


def render_schema():
    """One markdown table per document kind and per section, each section once."""
    sections = {}  # id(table) -> (table, paths where it is nested)

    def walk(table, path):
        for f in table:
            if isinstance(f.type, tuple):
                here = f"{path}.{f.key}" if path else f.key
                entry = sections.setdefault(id(f.type), (f.type, []))
                if here not in entry[1]:
                    entry[1].append(here)
                walk(f.type, here)

    headed = [(f'`"kind": "{kind}"`', table) for kind, table in config.DOCUMENTS.items()]
    for table in config.DOCUMENTS.values():
        walk(table, "")
    headed += [(", ".join(f"`{p}`" for p in paths), table) for table, paths in sections.values()]
    out = []
    for heading, table in headed:
        out += [f"#### {heading}", "", "| key | type | range or choices | default | meaning |",
                "|---|---|---|---|---|"]
        for f in table:
            kind = "object" if isinstance(f.type, tuple) else f.type
            out.append(f"| `{f.key}` | {kind} | {_cell(f)} | {_default(f)} | {f.doc} |")
        out.append("")
    return "\n".join(out)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_schema_matches_the_field_tables():
    assert render_schema() in README.read_text()


def test_readme_json_examples_parse():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    for block in blocks:
        parse_config(json.loads(block))
