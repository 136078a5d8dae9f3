import argparse
import concurrent.futures
import contextlib
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sddelab.cli import main
from sddelab import FbmParams, cli, config, drivers, experiments, sample_fbm, sample_wiener
from sddelab.config import ConfigError, load_config, parse_config
from sddelab.core import ParamError
from sddelab.drivers import DriverNumericsError
from sddelab.experiments import ExperimentError
from sddelab.grid import GridPath, stack_paths
from sddelab.solver import SolverExplosionError, euler_ito_sdde, euler_mixed_sdde

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
        with pytest.raises(ParamError, match="hurst must lie in") as err:
            parse_config(doc)
        assert err.value.field == "holder.hurst"

    def test_alpha_outside_gamma_window(self):
        doc = geometric_doc()
        doc["holder"]["alpha"] = 0.6
        with pytest.raises(ParamError, match=r"alpha must lie in \(1-gamma, 1/2\)") as err:
            parse_config(doc)
        assert err.value.field == "holder.alpha"

    def test_small_monte_carlo_budget_rejected(self):
        doc = geometric_doc()
        doc["experiment"]["replicas"] = 10
        with pytest.raises(ExperimentError, match="at least 30") as err:
            parse_config(doc)
        assert err.value.field == "experiment.replicas"

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
        with pytest.raises(ConfigError, match="^expected one of coeff_convergence, ") as err:
            parse_config(doc)
        assert err.value.field == "experiment.flavor"


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

    def test_reports_byte_identical_across_reruns_and_workers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "_WORK_PER_PROCESS", 1)  # fork for any work
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
            "solve": {"scheme": scheme, "horizon": 1.0, "n_steps": 128,
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
        doc["driver"] = {"method": "cholesky"}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        solved = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)[:, 1]

        scfg, spec, initial, seed, _, mollifier = load_config(cfg).payload
        fbm = FbmParams(0.75, 128, 1.0, "cholesky")
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


_BLOCKS = {
    name: {"gain_now": [[[gain]]], "gain_delay": [[[0.0]]], "const": [[0.0]],
           "time_modulation": "none"}
    for name, gain in (("drift", 0.5), ("diffusion", 0.4), ("zdrive", 0.3))
}
GOLDEN_BY_KIND = {  # kind: (document, its resolved record)
    "solve": (TestCliSolve().solve_doc(), {
        "kind": "solve",
        "solve": {"scheme": "euler_mixed", "horizon": 1.0, "n_steps": 128,
                  "explosion_threshold": 1e8, "mollifier_level": None},
        "holder": {"gamma": 0.7, "alpha": 0.35, "beta": 1.0, "theta": 0.45, "hurst": 0.75},
        "coefficients": {
            "family": "no_delay", "dim": 1, "n_wiener": 1, "n_holder": 1,
            "tau": 0.0, "delay_span": 0.0, **_BLOCKS,
            "constants": {"K": 1.2, "K_R": 1.2, "beta": 1.0},
        },
        "initial": {"t0": 0.0, "dt": 1.0, "values": [[1.0]], "theta": 0.45},
        "driver": {"method": "cholesky"},
        "seed": {"master": 5, "stream": 0},
    }),
    "fbm": (TestCliFbmAndFrac().fbm_doc(), {
        "kind": "fbm",
        "fbm": {"hurst": 0.75, "n_steps": 64, "horizon": 1.0, "method": "cholesky"},
        "seed": {"master": 3, "stream": 1},
    }),
    "frac": ({"kind": "frac", "frac": {"operation": "norms", "input_csv": "f.csv",
                                       "alpha": 0.3, "interval": [0, 1]}}, {
        "kind": "frac",
        "frac": {"operation": "norms", "input_csv": "f.csv", "alpha": 0.3, "lambda": None,
                 "mu": None, "interval": [0.0, 1.0], "rule": "left", "delay": None,
                 "t": None},
    }),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_BY_KIND))
def test_every_run_kind_resolves_to_its_golden_record(kind):
    """The resolved record of each kind, compared as the JSON bytes a run
    writes, so an integer where the record holds a float also fails."""
    doc, golden = GOLDEN_BY_KIND[kind]
    resolved = parse_config(doc).resolved
    assert json.dumps(resolved, sort_keys=True) == json.dumps(golden, sort_keys=True)
    again = parse_config(json.loads(json.dumps(resolved))).resolved
    assert json.dumps(again, sort_keys=True) == json.dumps(golden, sort_keys=True)


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
    (1/2, 1), ...) is a constraint violation whose message starts with the
    field's dotted path."""
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
    named = ".".join(k for k in path if isinstance(k, str))
    last = err.getvalue().strip().splitlines()[-1]
    assert last.partition("constraint violation: ")[2].startswith(f"{named}: "), last


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
        "solve", "solve.mollifier_level: mollifier level must be a positive integer, got 0",
        _with(TestCliSolve().solve_doc("euler_ito"), "solve", mollifier_level=0),
    ),
    # dt = 1/16 is coarser than a quarter window of level 64, as in `experiment ito`
    "solve_ito_mesh_too_coarse": (
        "solve", "solve.mollifier_level: mesh dt=0.0625 too coarse for mollifier level 64",
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
    # each names its own key path, a level rule `experiment.levels`
    "euler_mesh_not_dividing_the_finest": (
        "experiment", "experiment.levels: mesh levels must divide the finest mesh; "
        "got [16, 24, 64]",
        _with(geometric_doc(), "experiment", levels=[16, 24, 64], n_steps=64),
    ),
    "ito_mesh_too_coarse": (
        "experiment", "experiment.levels: mesh dt=0.00390625 too coarse for mollifier level 512",
        _with(geometric_doc(), "experiment", flavor="ito_limit", levels=[4, 512], n_steps=256),
    ),
    "delay_on_a_no_delay_spec": (
        "experiment", "coefficients.family: vanishing delay needs a pointwise_delay spec",
        _with(geometric_doc(), "experiment", flavor="vanishing_delay", levels=[0.5, 0.25]),
    ),
    "closed_form_unavailable": (
        "experiment", "experiment.reference: closed-form reference unavailable for this spec",
        _with(_with(geometric_doc(), "experiment", levels=[16, 64], n_steps=64),
              "coefficients", zdrive={"gain_now": 0.3, "time_modulation": "sin"}),
    ),
    "quasi_order_below_range": (
        "experiment", "experiment.moment_p: moment order p=2 below the admissible range",
        _with(geometric_doc(), "experiment", flavor="quasi_contract", levels=[0.1, 0.05],
              n_steps=32, moment_p=2),
    ),
    "negative_stream": (
        "solve", "seed.stream: stream_index must be non-negative",
        _with(TestCliSolve().solve_doc(), "seed", stream=-1),
    ),
    "constants_below_the_closed_form": (
        "experiment", "coefficients.constants.K: 0.1 is below the closed-form growth constant",
        _with(geometric_doc(), "coefficients", constants={"K": 0.1}),
    ),
    "linear_without_tau": (
        "experiment", "coefficients.tau: family 'linear' requires an explicit tau",
        _with(geometric_doc(), "coefficients", family="linear"),
    ),
    # a scalar history for coefficients of dimension 2, refused before any draw
    "history_of_another_dimension": (
        "solve", "initial: a history of dimension 1 for coefficients of dim 2",
        _with(TestCliSolve().solve_doc(), "coefficients", dim=2, n_wiener=2, n_holder=2),
    ),
    # a rule linking two keys names one of them
    "young_love_without_mu": (
        "frac", "frac.mu: young_love requires an explicit mu",
        _frac_doc(operation="young_love", **{"lambda": 0.6}),
    ),
    "delay_norms_without_t": (
        "frac", "frac.t: delay_norms requires an explicit t",
        _frac_doc(operation="delay_norms", delay=0.25),
    ),
    "young_love_exponents_summing_to_one": (
        "frac", "frac.lambda: young_love needs lambda + mu > 1, got 0.5 + 0.5",
        _frac_doc(operation="young_love", **{"lambda": 0.5, "mu": 0.5}),
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
        _with(_with(_with(TestCliSolve().solve_doc(), "solve", n_steps=64),
                    "initial", delay=0.5), "coefficients", family="pointwise_delay", tau=0.3),
    ),
    "solve_tap_beyond_the_history": (
        "solve", "tap 0.5 exceeds the history length 0.25",
        _with(_with(TestCliSolve().solve_doc(), "initial", delay=0.25),
              "coefficients", family="pointwise_delay", tau=0.5),
    ),
    # the window integrates over [-delay_span, 0], which must lie in the history
    "solve_window_beyond_the_history": (
        "solve", "window 0.3 exceeds the history length 0.25",
        _with(_with(_with(TestCliSolve().solve_doc(), "solve", n_steps=20),
                    "initial", delay=0.25, dt=0.05),
              "coefficients", family="distributed_delay", delay_span=0.3),
    ),
    # 0.1 lies between the nodes 12/128 and 13/128; the stepper must not round it
    "solve_off_grid_window": (
        "solve", "window 0.1 does not land on the grid",
        _with(_with(TestCliSolve().solve_doc(), "initial", delay=0.25),
              "coefficients", family="distributed_delay", delay_span=0.1),
    ),
    # a constant coefficient reads no state: gain_now 0.5 would solve as no_delay
    "constant_family_gain": (
        "solve", "coefficients.family: family 'constant' must not carry gains",
        _with(TestCliSolve().solve_doc(), "coefficients", family="constant"),
    ),
    "negative_explosion_threshold": (
        "solve", "explosion_threshold",
        _with(TestCliSolve().solve_doc(), "solve", explosion_threshold=-1.0),
    ),
    # drops < need never holds below zero: the criterion would be vacuous
    "negative_min_decreasing_steps": (
        "experiment", "criteria.min_decreasing_steps: min_decreasing_steps must be non-negative",
        {**geometric_doc(), "criteria": {"min_decreasing_steps": -1}},
    ),
    # int(16.5) would run mesh 16 while the report says 16.5
    "euler_half_mesh": (
        "experiment", "levels", _with(geometric_doc(), "experiment", levels=[16.5, 64]),
    ),
    # a coarsening schedule would fail a correct solver on the criteria of a refining one
    "euler_decreasing_meshes": (
        "experiment", "experiment.levels",
        _with(geometric_doc(), "experiment", levels=[256, 64, 16]),
    ),
    "ito_decreasing_levels": (
        "experiment", "experiment.levels",
        _with(geometric_doc(), "experiment", flavor="ito_limit", levels=[16, 4]),
    ),
    # an optional key that the scheme or the operation never reads
    "solve_mixed_mollifier_level": (
        "solve", "solve.mollifier_level",
        _with(TestCliSolve().solve_doc(), "solve", mollifier_level=3),
    ),
    "gls_lambda": ("frac", "frac.lambda", _frac_doc(operation="gls", **{"lambda": 0.6})),
    "norms_mu": ("frac", "frac.mu", _frac_doc(operation="norms", mu=0.6)),
    "rs_delay": ("frac", "frac.delay", _frac_doc(operation="rs", delay=0.25)),
    "young_love_t": (
        "frac", "frac.t", _frac_doc(operation="young_love", t=1.0, **{"lambda": 0.6, "mu": 0.6}),
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


def test_solve_delay_is_an_unknown_key(tmp_path, capsys):
    """The look-back window of a solve is the history's length r, set in
    ``initial``; ``solve`` states it nowhere, not even as r."""
    cfg = write_config(tmp_path, _with(TestCliSolve().solve_doc(), "solve", delay=0.0))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "solve: unknown keys ['delay']" in capsys.readouterr().err


# one valid level schedule per flavor, on a pointwise-delay spec with tap 0.25
DELAY_HISTORY_CASES = {
    "coeff": [2, 4],
    "delay": [0.25, 0.125],
    "euler": [8, 32],
    "ito": [4, 8],
    "moments": [2.0, 4.0],
    "quasi": [0.1, 0.05],
}


def _delay_history_doc(alias, levels, family="pointwise_delay", **experiment):
    doc = geometric_doc()
    doc["experiment"] = {"flavor": config.FLAVOR_ALIASES[alias], "levels": levels,
                         "replicas": 30, "epsilon": 0.1, "horizon": 1.0, "n_steps": 32,
                         **experiment}
    doc["coefficients"] = {
        "family": family, "dim": 1, "n_wiener": 1, "n_holder": 1,
        "tau" if family == "pointwise_delay" else "delay_span": 0.25,
        "drift": {"gain_now": 0.3, "gain_delay": 0.3},
        "diffusion": {"gain_delay": 0.2},
        "zdrive": {"gain_now": 0.2},
    }
    doc["initial"] = {"constant": 1.0, "delay": 0.25, "theta": 0.45}
    return doc


@pytest.mark.parametrize("alias, family", [
    *((alias, "pointwise_delay") for alias in sorted(DELAY_HISTORY_CASES)),
    ("euler", "distributed_delay"),
])
def test_every_flavor_runs_on_a_delay_history(tmp_path, capsys, alias, family):
    """The history length r = 0.25 sets the look-back window of every solve,
    the fine reference and each mesh of euler_refinement included."""
    extra = {"reference": "fine_euler", "n_steps": 128} if alias == "euler" else {}
    doc = _delay_history_doc(alias, DELAY_HISTORY_CASES[alias], family, **extra)
    cfg = write_config(tmp_path, doc)
    code = main(["experiment", alias, "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 1), err
    assert "Traceback" not in err


def test_the_history_must_land_on_every_mesh_of_a_delay_spec(tmp_path, capsys):
    """r = 1/32 lands on the fine grids but not on the mesh of 16 steps."""
    doc = _delay_history_doc("euler", [16, 64], reference="fine_euler", n_steps=256)
    doc["coefficients"]["tau"] = 1 / 32
    doc["initial"] = {"constant": 1.0, "delay": 1 / 32, "theta": 0.45}
    cfg = write_config(tmp_path, doc)
    assert main(["experiment", "euler", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "delay 0.03125 does not land on the grid (dt=0.0625)" in capsys.readouterr().err


def _count_draws(monkeypatch) -> list:
    """Spy on ``_sample_drivers`` in ``experiments`` and in ``cli``, which
    binds the name at import for ``solve``: one entry per call."""
    calls, sample = [], experiments._sample_drivers
    for module in (experiments, cli):
        monkeypatch.setattr(module, "_sample_drivers",
                            lambda *args: calls.append(args) or sample(*args))
    return calls


@pytest.mark.parametrize("alias, family, off, message", [
    *((alias, "pointwise_delay", "read", "coefficients.tau: tap 0.3 does not land on the grid "
       "(dt=0.015625)") for alias in ("coeff", "ito", "moments", "quasi")),
    ("coeff", "distributed_delay", "read", "coefficients.delay_span: window 0.3 does not land"),
    ("euler", "pointwise_delay", "read", "coefficients.tau: tap 0.3 does not land on the grid "
     "(dt=0.25)"),
    ("euler", "distributed_delay", "read", "coefficients.delay_span: window 0.3 does not land"),
    ("euler", "pointwise_delay", "initial", "initial: delay 0.3 does not land on the grid "
     "(dt=0.25)"),
    *((alias, "pointwise_delay", "initial", "initial: delay 0.3 does not land on the grid "
       "(dt=0.015625)") for alias in ("coeff", "delay", "ito", "moments", "quasi")),
    ("delay", "pointwise_delay", "beyond", "initial: delay 0.3 does not land on the grid "
     "(dt=0.015625)"),
])
def test_an_off_grid_delay_read_exits_three_before_any_draw(tmp_path, capsys, monkeypatch,
                                                           alias, family, off, message):
    """A tap or window of 0.3 (or a history of 0.3 under a tap of 0.25) lands
    on no grid of 64 steps over [0, 1], nor on the coarsest of the meshes
    4, 8, 16 and their fine-Euler grid of 64.  The run names the field that
    sets it, draws no driver and writes no report.  A history is named
    ``initial`` in every flavor, vanishing_delay's included, whose taps 0.25
    and 0.125 fit within it, before its taps ``beyond`` it, 0.3125 and 0.125."""
    euler = alias == "euler"
    levels = [4, 8, 16] if euler else DELAY_HISTORY_CASES[alias]
    doc = _delay_history_doc(alias, levels, family, n_steps=64,
                             **({"reference": "fine_euler"} if euler else {}))
    if off == "read":
        doc["coefficients"]["tau" if family == "pointwise_delay" else "delay_span"] = 0.3
        doc["initial"]["delay"] = 0.5
    else:
        doc["initial"]["delay"] = 0.3
    if off == "beyond":
        doc["experiment"]["levels"] = [0.3125, 0.125]
    cfg = write_config(tmp_path, doc)
    draws = _count_draws(monkeypatch)
    out = tmp_path / "out"
    assert main(["experiment", alias, "--config", str(cfg), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert draws == []
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("reference, n_steps, grid", [
    ("closed_form", 7, 256), ("closed_form", 1024, 256), ("fine_euler", 256, 1024),
])
def test_a_mesh_study_draws_on_its_reference_grid_or_exits_three(tmp_path, capsys, monkeypatch,
                                                                   reference, n_steps, grid):
    """``experiment.n_steps`` is the driver grid of a mesh study too: its finest
    mesh, or 4x that mesh under a fine-Euler reference.  Any other value exits 3
    naming the field and the grid, before any draw."""
    doc = _with(geometric_doc(), "experiment", levels=[16, 64, 256], n_steps=n_steps,
                reference=reference)
    cfg = write_config(tmp_path, doc)
    draws = _count_draws(monkeypatch)
    assert main(["experiment", "euler", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert (f"experiment.n_steps: a mesh study with reference {reference} draws its drivers "
            f"on {grid} steps; got {n_steps}") in capsys.readouterr().err
    assert draws == []
    assert not (tmp_path / "report.json").exists()


def _off_grid_solve_doc(off: str) -> dict:
    """A solve on 64 steps over [0, 1] (16 for ``mesh``) whose ``off`` input
    misses its grid: a tap or a window of 0.3 within a history of 0.5, a
    history of 0.3 under a tap of 0.25, or dt = 1/16 coarser than a quarter
    window of mollifier level 64."""
    doc = TestCliSolve().solve_doc("euler_ito" if off == "mesh" else "euler_mixed")
    doc["solve"]["n_steps"] = 64
    doc["initial"]["delay"] = 0.3 if off == "initial" else 0.5
    if off == "tap" or off == "initial":
        doc["coefficients"].update(family="pointwise_delay", tau=0.3 if off == "tap" else 0.25)
    elif off == "window":
        doc["coefficients"].update(family="distributed_delay", delay_span=0.3)
    else:
        doc["solve"].update(n_steps=16, mollifier_level=64)
    return doc


@pytest.mark.parametrize("off, message", [
    ("tap", "coefficients.tau: tap 0.3 does not land on the grid (dt=0.015625)"),
    ("window", "coefficients.delay_span: window 0.3 does not land on the grid (dt=0.015625)"),
    ("initial", "initial: delay 0.3 does not land on the grid (dt=0.015625)"),
    ("mesh", "mesh dt=0.0625 too coarse for mollifier level 64"),
])
def test_an_off_grid_solve_exits_three_before_any_draw(tmp_path, capsys, monkeypatch,
                                                      off, message):
    """``solve`` makes the pre-draw check of an experiment, with the same
    field names: it draws no driver and writes no solution."""
    cfg = write_config(tmp_path, _off_grid_solve_doc(off))
    draws = _count_draws(monkeypatch)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert draws == []
    assert not (out / "solution.csv").exists()
    assert not (out / "solution_meta.json").exists()


def test_the_draw_spy_sees_a_solve(tmp_path, monkeypatch):
    """The spy of the tests above counts the one draw of a solve that runs."""
    cfg = write_config(tmp_path, TestCliSolve().solve_doc())
    draws = _count_draws(monkeypatch)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(draws) == 1


def test_vanishing_delay_never_reads_its_specs_own_tap(tmp_path, capsys, monkeypatch):
    """The taps are the levels and the reference has no delay, so a spec tap
    of 0.3, off the grid of 64 steps, is no fault: the run draws and reports."""
    doc = _delay_history_doc("delay", [0.25, 0.125], n_steps=64)
    doc["coefficients"]["tau"] = 0.3
    doc["initial"]["delay"] = 0.5
    cfg = write_config(tmp_path, doc)
    draws = _count_draws(monkeypatch)
    out = tmp_path / "out"
    assert main(["experiment", "delay", "--config", str(cfg), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert len(draws) == 1
    assert (out / "report.json").exists()


@pytest.mark.parametrize("reference, levels", [
    ("closed_form", [16, 64]),
    ("closed_form", [64, 512]),
    ("fine_euler", [16, 128]),
])
def test_no_delay_euler_reads_only_psi_0_of_the_history(tmp_path, reference, levels):
    """With a no_delay spec only the history's last value enters the
    solution, so any history gives the report of r = 0: r = 1/32 need not
    land on a mesh of 16 steps, nor the grid r/64 of r = 0.25 refine the
    solve grid 1/512."""
    reports = []
    for r in (0.0, 1 / 32, 0.25):
        doc = _with(geometric_doc(), "experiment", levels=levels, replicas=30,
                    reference=reference,
                    n_steps=max(levels) * (4 if reference == "fine_euler" else 1))
        doc["initial"] = {"constant": 1.0, "delay": r, "theta": 0.45}
        out = tmp_path / str(r)
        assert main(["experiment", "euler", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) in (0, 1)
        reports.append(json.loads((out / "report.json").read_text())["report"])
    assert reports[0] == reports[1] == reports[2]


def test_a_constant_history_is_laid_on_a_solve_grid_finer_than_its_default_step(tmp_path):
    """The constant form's default step r/64 = 1/128 is coarser than the
    solve grid 1/1024: the history is laid on the solve grid, every node 1.0."""
    doc = _with(_with(TestCliSolve().solve_doc(), "solve", n_steps=1024), "initial", delay=0.5)
    doc["coefficients"].update(family="pointwise_delay", tau=0.5,
                               drift={"gain_now": 0.3, "gain_delay": 0.3})
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "solution.csv").read_text().splitlines()[1:]]
    assert float(rows[0][0]) == -0.5 and float(rows[512][0]) == 0.0
    assert [float(row[1]) for row in rows[:513]] == [1.0] * 513


@pytest.mark.parametrize("n_steps", [20, 400])
def test_a_history_is_read_through_its_interpolant_on_a_grid_that_does_not_nest_with_its_step(
    tmp_path, capsys, n_steps
):
    """r = 0.25 is 5 steps of 0.05 and 100 steps of 0.0025, and neither grid
    nests with the default history step r/64: the constant history is laid
    on the solve grid, every node 1.0.  A history that is not constant is read
    through its linear interpolant: solver node i at 64 i / q history steps."""
    doc = _with(_with(TestCliSolve().solve_doc(), "solve", n_steps=n_steps), "initial",
                delay=0.25)
    doc["coefficients"].update(family="pointwise_delay", tau=0.25,
                               drift={"gain_now": 0.3, "gain_delay": 0.3})
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    q = n_steps // 4
    rows = [line.split(",") for line in (tmp_path / "solution.csv").read_text().splitlines()[1:]]
    assert float(rows[0][0]) == -0.25 and float(rows[q][0]) == 0.0
    assert [float(row[1]) for row in rows[: q + 1]] == [1.0] * (q + 1)

    doc["initial"] = {"t0": -0.25, "dt": 0.25 / 64, "values": [1.0] * 64 + [2.0], "theta": 0.45}
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0, \
        capsys.readouterr().err
    rows = [line.split(",") for line in (tmp_path / "solution.csv").read_text().splitlines()[1:]]
    interpolant = [1.0 + max(0, 64 * i - 63 * q) / q for i in range(q)] + [2.0]
    assert [float(row[1]) for row in rows[: q + 1]] == interpolant
    if n_steps == 20:
        assert interpolant == [1.0] * 5 + [2.0]


def test_a_moments_run_finer_than_the_default_history_step_runs(tmp_path, capsys):
    """r = 0.25 has the default history step 1/256; the solve grid is 1/512."""
    doc = _with(geometric_doc(), "experiment", flavor="moments", levels=[2.0, 4.0],
                n_steps=512, replicas=30)
    doc["initial"] = {"constant": 1.0, "delay": 0.25, "theta": 0.45}
    cfg = write_config(tmp_path, doc)
    code = main(["experiment", "moments", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code in (0, 1), err
    assert (tmp_path / "report.json").exists()


@pytest.mark.parametrize("case", sorted(RANGE_ERRORS))
def test_range_errors_exit_three_naming_the_field(tmp_path, capsys, case):
    subcommand, named, doc = RANGE_ERRORS[case]
    cfg = write_config(tmp_path, doc)
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert named in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def _moments_doc(**experiment):
    return _with(geometric_doc(), "experiment", **{
        "flavor": "moments", "levels": [2.0], "replicas": 30, "n_steps": 16, **experiment})


def test_a_moments_run_fails_closed_on_a_nan_statistic(tmp_path):
    """A moment order of 1e308 overflows the moments to inf, so the
    half-sample change and the heavy-tail share are NaN, written as null:
    the half-sample criterion fails and the alarm is raised, and the run
    exits 1."""
    cfg = write_config(tmp_path, _moments_doc(levels=[1e308]))
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "report.json").read_text(),
                        parse_constant=pytest.fail)["report"]  # no NaN token: RFC 8259
    assert report["stability_rel_change"] is None and report["heavy_tail_share"] is None
    assert report["heavy_tail_alarm"] and not report["passed"]
    assert report["reasons"] == ["half-sample p=1e+308 estimate moved by nan% (>= 10%)"]


OVERSIZED = {  # case: (the section named at load or None, the section edited, its values)
    # r / dt overflows a C long in np.tile
    "history_steps_overflow": ("initial", "initial", {"delay": 1.0, "dt": 1e-300}),
    # 2.5e11 history nodes: a 1.82 TiB request, refused at once
    "history_beyond_memory": ("initial", "initial", {"delay": 0.25, "dt": 1e-12}),
    # driver arrays past numpy's largest array size, at run time
    "n_steps": (None, "experiment", {"n_steps": 2**62}),
    "refinement_level": (None, "experiment", {"flavor": "euler_refinement", "levels": [2**62]}),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_sizes_exit_three_without_traceback(tmp_path, case):
    """Sizes beyond the address space fail before anything is allocated: at
    load, with the config section named, or at run."""
    named, section, values = OVERSIZED[case]
    cfg = write_config(tmp_path, _with(_moments_doc(), section, **values))
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "sddelab.cli", "experiment", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 3, out.stderr
    assert "Traceback" not in out.stderr
    if named is not None:
        assert f"config constraint violation: {named}:" in out.stderr
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("field, values", [
    ("experiment.n_steps", {"n_steps": 2**62}),
    ("experiment.n_steps", {"flavor": "euler_refinement", "levels": [64, 2**62], "n_steps": 2**62}),
])
def test_a_size_past_numpys_largest_array_names_its_field(tmp_path, field, values):
    """The arrays a run would allocate are counted from the config before any
    replica is drawn: a grid past numpy's largest array exits 3 naming the
    field that sets it, with nothing allocated."""
    cfg = write_config(tmp_path, _with(_moments_doc(), "experiment", **values))
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "sddelab.cli", "experiment", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 3, out.stderr
    assert "Traceback" not in out.stderr
    assert f"constraint violation: {field}:" in out.stderr
    assert "more than numpy can allocate" in out.stderr
    assert not (tmp_path / "out" / "report.json").exists()


def _solve_n_steps(n):
    return _with(TestCliSolve().solve_doc(), "solve", n_steps=n)


def _fbm_n_steps(n, method):
    return _with(TestCliFbmAndFrac().fbm_doc(), "fbm", n_steps=n, method=method)


@pytest.mark.parametrize("subcommand, field, doc", [
    ("solve", "solve.n_steps", _solve_n_steps(2**62)),
    ("fbm", "fbm.n_steps", _fbm_n_steps(2**62, "davies_harte")),
    ("fbm", "fbm.n_steps", _fbm_n_steps(2**62, "cholesky")),
    # 2n complex values: past numpy's largest array while n + 1 values are not
    ("fbm", "fbm.n_steps", _fbm_n_steps(2**59, "davies_harte")),
])
def test_a_solve_or_fbm_size_past_numpys_largest_array_names_its_field(tmp_path, subcommand,
                                                                       field, doc):
    """``solve`` and ``fbm`` count their arrays at load, as an experiment
    does before its run: the field is named and nothing is allocated."""
    cfg = write_config(tmp_path, doc)
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "sddelab.cli", subcommand, "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 3, out.stderr
    assert "Traceback" not in out.stderr
    assert f"config constraint violation: {field}:" in out.stderr
    assert "more than numpy can allocate" in out.stderr
    assert not (tmp_path / "out").exists()


def test_a_solver_explosion_prints_one_line(tmp_path):
    """An explosion whose path passes 1.3e154 before the check is reported by
    the program's own line alone, with no numpy overflow warning before it."""
    doc = _solve_n_steps(128)
    doc["coefficients"]["drift"]["gain_now"] = 1e5  # threshold: the default 1e8
    cfg = write_config(tmp_path, doc)
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "sddelab.cli", "solve", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 4, out.stderr
    assert out.stderr.splitlines() == [out.stderr.strip()]
    assert out.stderr.startswith("solver explosion: ")


@pytest.mark.parametrize("block, gain", [("zdrive", 1e3), ("drift", 1e300)])
def test_a_closed_form_reference_past_the_trust_region_is_an_explosion(
    tmp_path, capsys, monkeypatch, block, gain
):
    """A closed form past the threshold, or past the float range, explodes as
    a fine-Euler reference does: exit 4, naming the replica and the reference
    level, at every worker count."""
    monkeypatch.setattr(experiments, "_WORK_PER_PROCESS", 1)  # fork for any work
    doc = _with(geometric_doc(), "experiment", replicas=30, levels=[16, 64], n_steps=64)
    doc["coefficients"][block] = {"gain_now": gain}
    cfg = write_config(tmp_path, doc)
    errs = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(["experiment", "euler", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 4
        assert not (out / "report.json").exists()
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("solver explosion: replica 0, level reference: ")


def test_an_infinite_state_explodes_under_an_infinite_threshold(tmp_path, capsys):
    """A state past the float range is outside the trust region whatever the
    threshold: the explosion is named at the first infinite node, not at a
    NaN that may come later or never, and no solution is written."""
    doc = _with(_solve_n_steps(16), "solve", explosion_threshold=float("inf"))
    doc["coefficients"]["drift"]["gain_now"] = 1e300
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err.startswith(
        "solver explosion: solution magnitude inf exceeded the explosion threshold inf at t=")
    assert not (tmp_path / "out" / "solution.csv").exists()


def test_an_experiment_rejects_a_stream_other_than_zero(tmp_path, capsys):
    """Replica r of an experiment draws from stream r, so ``seed.stream``
    would change nothing but the echoed config."""
    doc = _moments_doc()
    doc["seed"]["stream"] = 3
    cfg = write_config(tmp_path, doc)
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "seed.stream" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


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


@pytest.mark.parametrize("subcommand, flag", [
    ("fbm", "--workers 2"), ("solve", "--workers 2"),
    ("frac", "--workers 2"), ("frac", "--seed 5"), ("frac", "-v"),
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, subcommand,
                                                              flag):
    """A subcommand accepts only the flags it reads; argparse refuses any
    other with exit 2, before the config (here absent) is read."""
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--config", str(tmp_path / "cfg.json"), *flag.split()])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


def test_a_2d_gain_of_the_wrong_shape_exits_three_naming_the_shape(tmp_path, capsys):
    doc = TestCliSolve().solve_doc()
    doc["coefficients"].update(family="linear", dim=2, n_wiener=2, n_holder=2, tau=0.0,
                               drift={"gain_now": np.ones((3, 3)).tolist()})
    doc["initial"]["constant"] = [1.0, -0.5]
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == ("config constraint violation: coefficients.drift.gain_now: "
                                       "gain must have shape (1, 2, 2), got (3, 3)\n")


@pytest.mark.parametrize("drift, zdrive, named", [
    # the drift explodes on the paths whose rough part is large; the closed-form
    # reference, checked like a solve, passes the threshold first (replica 10, t = 1)
    (16.0, 3.0, "replica 10, level reference"),
    # a large rough part: the closed form of replica 2 passes it at t = 0.59375
    (0.0, 20.0, "replica 2, level reference"),
    # a stiff 2-d linear system: the 16-step mesh is unstable, and replica 10
    # passes the threshold by 2.6%, so solved alone it must reproduce the bits
    # it has in its block
    pytest.param([[-63.3, 0.3], [-0.2, -63.3]], [[1.0, 0.2], [0.0, 1.0]],
                 "replica 10, level 16", id="dim2"),
])
def test_explosion_names_the_replica_identically_at_every_worker_count(
    tmp_path, capsys, monkeypatch, drift, zdrive, named
):
    monkeypatch.setattr(experiments, "_WORK_PER_PROCESS", 1)  # fork for any work
    doc = geometric_doc()
    doc["experiment"].update(replicas=60, levels=[16, 64], n_steps=64)
    doc["coefficients"].update(
        drift={"gain_now": drift}, diffusion={"gain_now": 0.0}, zdrive={"gain_now": zdrive}
    )
    if np.ndim(drift) == 2:
        doc["coefficients"].update(family="linear", dim=2, n_wiener=2, n_holder=2, tau=0.0)
        doc["experiment"].update(reference="fine_euler", n_steps=256)
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


def test_a_state_that_turns_nan_exits_four_naming_where(tmp_path, capsys, monkeypatch):
    """Drift +inf and rough term -inf: at seed 2 the first step gives a NaN
    state, which is an explosion like an infinite one, for a solve and for a
    moments run at every worker count."""
    monkeypatch.setattr(experiments, "_WORK_PER_PROCESS", 1)  # fork for any work
    coefficients = {"family": "no_delay", "dim": 1, "n_wiener": 1, "n_holder": 1,
                    "drift": {"gain_now": 1e305}, "diffusion": {"gain_now": 0.0},
                    "zdrive": {"gain_now": -1e306}}
    initial = {"constant": 1e8, "delay": 0.0, "theta": 0.45}
    solve = _with(TestCliSolve().solve_doc(), "solve", n_steps=16)
    solve.update(coefficients=coefficients, initial=initial, seed={"master": 2})
    cfg = write_config(tmp_path, solve)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "solve")]) == 4
    assert capsys.readouterr().err.startswith(
        "solver explosion: solution magnitude nan exceeded the explosion threshold "
    )
    moments = _with(geometric_doc(), "experiment", flavor="moments", levels=[2.0, 4.0],
                    replicas=30, n_steps=16)
    moments.update(coefficients=coefficients, initial=initial, seed={"master": 2})
    cfg = write_config(tmp_path, moments)
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(["experiment", "moments", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 4
        assert not (out / "report.json").exists()
        assert capsys.readouterr().err.startswith(
            "solver explosion: replica 0, level reference: solution magnitude nan "
        )


def test_stacked_level_explosion_names_the_first_level_in_schedule_order(
    tmp_path, capsys, monkeypatch
):
    """A stiff linear drift: the solution scales with the initial value, so
    the level shifted by 1/0.25 = 4 crosses the threshold at t=0.9375, before
    the level shifted by 1/2 does (at t=1).  Replica 5 is the lowest that
    explodes, the reference does not, and the error names its first level in
    schedule order, with that level's time, at every worker count."""
    monkeypatch.setattr(experiments, "_WORK_PER_PROCESS", 1)  # fork for any work
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


def test_a_lower_block_explosion_outranks_a_higher_ones(tmp_path, capsys, monkeypatch):
    """At 2 processes one forked worker solves replicas 0-29 and the other
    30-59.  Both blocks explode, replica 5 in the first and replica 41 in the
    second, and the run names replica 5 at every worker count.  The second
    block alone names replica 41 at level 0.25 from its one stepper call."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "_WORK_PER_PROCESS", 1)  # fork for any work
    doc = geometric_doc()
    doc["experiment"].update(flavor="coeff_convergence", levels=[2, 0.25], replicas=60,
                             n_steps=64, perturbation="initial_shift")
    doc["coefficients"].update(
        drift={"gain_now": 16.0}, diffusion={"gain_now": 0.0}, zdrive={"gain_now": 3.0}
    )
    doc["seed"] = {"master": 2}
    doc["driver"] = {"method": "cholesky"}
    cfg = write_config(tmp_path, doc)
    check, block, reduce = experiments._FLAVORS["coeff_convergence"]
    sizes = []

    def spy(cfg, w, z):
        sizes.append(w.replicas)
        return block(cfg, w, z)

    with monkeypatch.context() as patch:
        patch.setitem(experiments._FLAVORS, "coeff_convergence", (check, spy, reduce))
        with pytest.raises(SolverExplosionError, match="^replica 41, level 0.25: "):
            experiments._run_block(load_config(cfg).payload, range(30, 60))
    assert sizes == [30]
    errs = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(["experiment", "coeff", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 4
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("solver explosion: replica 5, level 2: ")


@pytest.mark.parametrize("flavor,levels,gains,seed,calls,exploded,named", [
    pytest.param("ito_limit", [1, 2, 4], (19.0, 0.0, 3.0), 5,
                 ["euler_mixed_sdde", "euler_ito_sdde"], [(0, 6), (1, 2)],
                 "replica 2, level 2: solution magnitude 1.032e+08 exceeded the explosion "
                 "threshold 1.000e+08 at t=1", id="ito_limit"),
    pytest.param("euler_refinement", [16, 32, 64], (25.0, 4.0, 0.5), 2,
                 ["geometric_closed_form"] + ["euler_mixed_sdde"] * 3, [(0, 3), (2, 10), (3, 2)],
                 "replica 2, level 64: solution magnitude 1.013e+08 exceeded the explosion "
                 "threshold 1.000e+08 at t=0.890625", id="euler_refinement"),
])
def test_a_lower_replica_exploding_in_a_later_stepper_call_is_named(
    tmp_path, capsys, monkeypatch, flavor, levels, gains, seed, calls, exploded, named
):
    """The reference call of the block explodes first, at a higher replica
    than a later call does: the block makes each of its stepper calls once,
    and the run names the lower replica at its level at 1 and 2 processes."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "_WORK_PER_PROCESS", 1)  # fork for any work
    doc = geometric_doc()
    doc["experiment"].update(flavor=flavor, levels=levels, replicas=30, n_steps=64)
    a, b, c = gains
    doc["coefficients"].update(
        drift={"gain_now": a}, diffusion={"gain_now": b}, zdrive={"gain_now": c}
    )
    doc["seed"] = {"master": seed}
    cfg = write_config(tmp_path, doc)
    made, rows = [], []

    def spy(name):
        solve = getattr(experiments, name)

        def call(*args):
            made.append(name)
            try:
                return solve(*args)
            except SolverExplosionError as exc:
                rows.append((len(made) - 1, exc.replica))
                raise
        return call

    with monkeypatch.context() as patch:
        for name in ("euler_mixed_sdde", "euler_ito_sdde", "geometric_closed_form"):
            patch.setattr(experiments, name, spy(name))
        with pytest.raises(SolverExplosionError, match=f"^{re.escape(named)}$"):
            experiments._run_block(load_config(cfg).payload, range(30))
    assert made == calls
    assert rows == exploded
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(["experiment", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 4
        assert capsys.readouterr().err == f"solver explosion: {named}\n"


def test_block_explosions_name_the_lowest_row_then_the_earliest_call():
    """Three stepper calls explode at rows 3, 1 and 1: row 1 of the second
    call is raised, with the level of its group.  Once row 0 has exploded,
    no later call is made; with no explosion the results come back."""
    def boom(row, group=0):
        def stepper():
            raise SolverExplosionError(0.5, 1e9, 1e8, row, group)
        return stepper

    with pytest.raises(SolverExplosionError) as err:
        with experiments._Explosions() as solve:
            assert solve(("reference",), boom(3)) is None
            assert solve((16, 32), boom(1, 1)) is None
            assert solve((64,), boom(1)) is None
    assert (err.value.replica, err.value.level) == (1, 32)
    made = []
    with pytest.raises(SolverExplosionError) as err:
        with experiments._Explosions() as solve:
            solve((16,), boom(2))
            solve(("reference",), boom(0))
            assert solve((32,), made.append, 32) is None
    assert (err.value.replica, err.value.level, made) == (0, "reference", [])
    with experiments._Explosions() as solve:
        assert solve(("reference",), abs, -5) == 5


@pytest.mark.parametrize("flavor,levels,extra", [
    ("moments", [2.0, 4.0], {}),
    ("quasi_contract", [0.1, 0.05], {"m_trunc": 25.0}),
])
def test_reports_byte_identical_across_workers_over_several_blocks(
    tmp_path, monkeypatch, flavor, levels, extra
):
    # one worker solves 120 replicas in blocks of 50, 50 and 20; three
    # workers solve the same blocks on two CPUs, or blocks of 40 on three or
    # more, in separate processes
    monkeypatch.setattr(experiments, "_WORK_PER_PROCESS", 1)  # fork for any work
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


def _in_process_pool(monkeypatch):
    """Replace the fork pool by a stand-in that runs in this process.  As a
    pool does, its ``map`` runs every task of a round before the first
    result is read, then yields the results in order and raises the error of
    the first failing task.  Return the sizes of the pools made and the
    argument tuple of every task."""
    made, tasks = [], []

    class InProcessPool:
        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == "fork"
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            outcomes = []
            for args in zip(*iterables):
                tasks.append(args)
                try:
                    outcomes.append((fn(*args), None))
                except Exception as exc:
                    outcomes.append((None, exc))

            def results():
                for rows, error in outcomes:
                    if error is not None:
                        raise error
                    yield rows
            return results()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return made, tasks


def _count_blocks(monkeypatch):
    """Patch the block runner to list the size of every block it solves."""
    sizes, run_block = [], experiments._run_block
    monkeypatch.setattr(
        experiments, "_run_block",
        lambda cfg, replicas: sizes.append(len(replicas)) or run_block(cfg, replicas),
    )
    return sizes


@pytest.mark.parametrize("cpus", [1, 3, 64])
def test_pool_is_bounded_by_the_cpus_and_the_tasks(tmp_path, monkeypatch, cpus):
    """``--workers 10000`` keeps at most min(CPUs, blocks) processes at work,
    a pool of that many workers, each block at most ``_BLOCK_REPLICAS``
    replicas, and reports the bytes of one worker.  The pool is a stand-in
    that runs the tasks in this process."""
    made, _ = _in_process_pool(monkeypatch)
    sizes = _count_blocks(monkeypatch)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(experiments, "_WORK_PER_PROCESS", 1)  # fork for any work
    doc = geometric_doc()
    doc["experiment"].update(flavor="moments", levels=[2.0], replicas=130, n_steps=16)
    doc["criteria"] = {"max_final_exceedance": 1.0}
    cfg = write_config(tmp_path, doc)
    blobs = []
    for workers in ("1", "10000"):
        out = tmp_path / workers
        sizes.clear()
        assert main(["experiment", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) in (0, 1)
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
    assert sum(sizes) == 130 and max(sizes) <= experiments._BLOCK_REPLICAS
    assert made == ([] if cpus == 1 else [min(cpus, len(sizes))])


def test_every_pool_task_carries_the_config_and_its_replicas(tmp_path, monkeypatch):
    """A worker draws its own block: each task handed to the pool is the run's
    config and a range of replicas, no driver array or path."""
    _, tasks = _in_process_pool(monkeypatch)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(experiments, "_WORK_PER_PROCESS", 1)  # fork for any work
    run = _moments_run(tmp_path, 300, 3)
    experiments.run_experiment(run)
    assert [replicas for _, replicas in tasks] == [range(lo, lo + 50) for lo in range(0, 300, 50)]
    assert all(len(task) == 2 and task[0] is run for task in tasks)
    assert not any(isinstance(arg, (np.ndarray, GridPath)) for task in tasks for arg in task)


def _log_blocks(monkeypatch, fail_solve=(), fail_draw=()):
    """Run the pool in this process and log, by block number, each hand-over
    to the pool, draw, solve and collection of a 50-replica block.  The
    blocks in ``fail_solve`` explode at their first replica, those in
    ``fail_draw`` fail in their draw."""
    _in_process_pool(monkeypatch)
    log, sample, size = [], experiments._sample_drivers, experiments._BLOCK_REPLICAS
    check, block_rows, reduce = experiments._FLAVORS["moments"]

    class LoggedPool(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, *iterables):
            tasks = list(zip(*iterables))
            log.extend(("submit", replicas.start // size) for _, replicas in tasks)
            results = super().map(fn, *zip(*tasks))

            def collected():
                for _, replicas in tasks:
                    log.append(("collect", replicas.start // size))
                    yield next(results)
            return collected()

    def draw(spec, fbm, seeds):
        block = seeds[0].stream_index // size
        log.append(("draw", block))
        if block in fail_draw:
            raise DriverNumericsError(f"the draw of block {block} failed")
        return sample(spec, fbm, seeds)

    def solve(cfg, w, z):
        block = log[-1][1]  # the block drawn last, in this process
        log.append(("solve", block))
        if block in fail_solve:
            raise SolverExplosionError(0.5, 1e9, 1e8)
        return block_rows(cfg, w, z)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", LoggedPool)
    monkeypatch.setattr(experiments, "_sample_drivers", draw)
    monkeypatch.setitem(experiments._FLAVORS, "moments", (check, solve, reduce))
    return log


def _moments_run(tmp_path, replicas, workers):
    doc = _with(geometric_doc(), "experiment", flavor="moments", levels=[2.0],
                replicas=replicas, n_steps=16)
    return replace(load_config(write_config(tmp_path, doc)).payload, workers=workers)


@pytest.mark.parametrize("cpus", [2, 3])
def test_parent_holds_at_most_one_round_of_blocks(tmp_path, monkeypatch, cpus):
    """With P processes at most P blocks are handed over and not yet
    collected: the parent collects every block of a round before it submits
    the next.  300 replicas make 6 blocks of 50, so every round is full and
    the bound is reached; the report has the bytes of one worker."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(experiments, "_WORK_PER_PROCESS", 1)  # fork for any work
    log = _log_blocks(monkeypatch)
    doc = geometric_doc()
    doc["experiment"].update(flavor="moments", levels=[2.0], replicas=300, n_steps=16)
    doc["criteria"] = {"max_final_exceedance": 1.0}
    cfg = write_config(tmp_path, doc)
    blobs = []
    for workers in ("1", str(cpus)):
        out = tmp_path / workers
        assert main(["experiment", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) in (0, 1)
        blobs.append((out / "report.json").read_bytes())
    handed = [(call, block) for call, block in log if call in ("submit", "collect")]
    rounds = [range(lo, lo + cpus) for lo in range(0, 6, cpus)]
    assert handed == [(call, block) for blocks in rounds
                      for call in ("submit", "collect") for block in blocks]
    held = np.cumsum([1 if call == "submit" else -1 for call, _ in handed])
    assert held.max() == cpus and held[-1] == 0
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("higher_fails_in", ["solve", "draw"])
def test_a_lower_block_error_outranks_a_higher_blocks_draw_or_solve(
    tmp_path, monkeypatch, higher_fails_in
):
    """At 3 processes 300 replicas make 6 blocks of 50 in two rounds.  Block
    1 explodes at replica 50, and block 2 of the same round fails too, in its
    solve or in its draw.  The run raises block 1's error and draws no block
    of the second round."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(experiments, "_WORK_PER_PROCESS", 1)  # fork for any work
    if higher_fails_in == "solve":
        log = _log_blocks(monkeypatch, fail_solve={1, 2})
    else:
        log = _log_blocks(monkeypatch, fail_solve={1}, fail_draw={2})
    with pytest.raises(SolverExplosionError) as raised:
        experiments.run_experiment(_moments_run(tmp_path, 300, 3))
    assert raised.value.replica == 50
    assert [block for call, block in log if call == "draw"] == [0, 1, 2]


def test_two_blocks_at_two_processes_run_as_one_round(tmp_path, monkeypatch):
    """100 replicas at 2 processes make blocks 0 and 1, one round: the parent
    hands both to the pool, each is drawn and solved in its worker (here in
    order, by the in-process pool), and the parent collects them in order."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "_WORK_PER_PROCESS", 1)  # fork for any work
    log = _log_blocks(monkeypatch)
    experiments.run_experiment(_moments_run(tmp_path, 100, 2))
    assert log == [("submit", 0), ("submit", 1), ("draw", 0), ("solve", 0), ("draw", 1),
                   ("solve", 1), ("collect", 0), ("collect", 1)]


@pytest.mark.parametrize("method", ["cholesky", "davies_harte"])
def test_no_forked_worker_builds_the_fbm_set_up(tmp_path, monkeypatch, method):
    """The parent builds the sampler's set-up, the Cholesky factor or the
    circulant eigenvalues, before it forks, so the workers of a real fork
    pool inherit it: building it raises in any other process, and the run at
    2 workers still exits 0 with the bytes of 1 worker.  The caches start
    empty, so the parent builds the set-up once, in the 2-worker run."""
    parent, built = os.getpid(), []

    def parent_only(build):
        def hooked(*args):
            if os.getpid() != parent:
                raise RuntimeError("a forked worker built the fBm set-up")
            built.append(build)
            return build(*args)
        return hooked

    monkeypatch.setattr(drivers, "_schur_panels", parent_only(drivers._schur_panels))
    monkeypatch.setattr(drivers, "_cholesky_factor",
                        functools.lru_cache(drivers._cholesky_factor.__wrapped__))
    monkeypatch.setattr(drivers, "_circulant_sqrt_eigs", functools.lru_cache(
        parent_only(drivers._circulant_sqrt_eigs.__wrapped__)))
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "_WORK_PER_PROCESS", 1)  # fork for any work
    doc = geometric_doc()
    doc["experiment"]["emit_distances"] = True
    doc["criteria"] = {"max_final_exceedance": 1.0, "min_decreasing_steps": 0}
    doc["driver"] = {"method": method}
    cfg = write_config(tmp_path, doc)
    blobs = []
    for workers in ("2", "1"):
        out = tmp_path / workers
        assert main(["experiment", "euler", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 0
        assert json.loads((out / "run_meta.json").read_text())["processes"] == int(workers)
        blobs.append([(out / name).read_bytes() for name in ("report.json", "distances.csv")])
    assert len(built) == 1
    assert blobs[0] == blobs[1]


def test_a_run_below_the_work_of_two_processes_forks_nothing(tmp_path, monkeypatch):
    """At ``--workers 2`` on 2 CPUs a run whose work is below two processes'
    worth stays in one process: no pool is made, and the report has the
    bytes of 1 worker."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a run below the work of two processes made a pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    cfg = write_config(tmp_path, geometric_doc())
    assert experiments._run_work(load_config(cfg).payload) < 2 * experiments._WORK_PER_PROCESS
    blobs = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(["experiment", "euler", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 0
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_work_worth_two_processes_makes_a_pool_of_two_of_eight_cpus(tmp_path, monkeypatch):
    """With 8 usable CPUs and ``--workers 8``, work of exactly two processes
    makes a pool of two workers; a unit more per process keeps the run in one."""
    made, _ = _in_process_pool(monkeypatch)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 8)
    run = _moments_run(tmp_path, 300, 8)
    work = experiments._run_work(run)
    monkeypatch.setattr(experiments, "_WORK_PER_PROCESS", work // 2 + 1)
    assert experiments._processes(run) == 1
    monkeypatch.setattr(experiments, "_WORK_PER_PROCESS", work // 2)
    assert experiments._processes(run) == 2
    experiments.run_experiment(run)
    assert made == [2]


def test_run_meta_records_the_processes_next_to_the_workers(tmp_path, monkeypatch):
    """``processes`` is 1 for a run below the work of two processes and 2
    with the pool forced; ``report.json`` is the same.  Both runs record
    their peak resident memory, and the forked run its largest worker's."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    cfg = write_config(tmp_path, geometric_doc())
    metas, blobs = [], []
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(experiments, "_WORK_PER_PROCESS", 1)
        out = tmp_path / str(forced)
        assert main(["experiment", "euler", "--config", str(cfg), "--out", str(out),
                     "--workers", "2"]) == 0
        metas.append(json.loads((out / "run_meta.json").read_text()))
        blobs.append((out / "report.json").read_bytes())
    assert [(meta["workers"], meta["processes"]) for meta in metas] == [(2, 1), (2, 2)]
    assert blobs[0] == blobs[1]
    assert [sorted(key for key in meta if "rss" in key) for meta in metas] == [
        ["peak_rss_mb"], ["peak_rss_mb", "worker_peak_rss_mb"]]
    assert all(value > 1.0 for meta in metas for key, value in meta.items() if "rss" in key)


def test_blocks_bound_the_stepper_rows_and_leave_the_report_unchanged(tmp_path,
                                                                     monkeypatch):
    """29 coeff levels make 30 row groups per replica, so a block holds at
    most 450 // 30 = 15 replicas; with the row bound lifted, one block of all
    40 replicas gives the same report bytes."""
    doc = _with(typed_doc(), "experiment", levels=list(range(1, 30)), replicas=40)
    doc["criteria"] = {"max_final_exceedance": 1.0}
    cfg = write_config(tmp_path, doc)
    sizes = _count_blocks(monkeypatch)
    blobs = []
    for rows in (experiments._BLOCK_ROWS, 10**6):
        monkeypatch.setattr(experiments, "_BLOCK_ROWS", rows)
        out = tmp_path / str(rows)
        assert main(["experiment", "coeff", "--config", str(cfg), "--out", str(out)]) in (0, 1)
        blobs.append((out / "report.json").read_bytes())
    assert sizes == [15, 15, 10, 40]
    assert blobs[0] == blobs[1]


def test_a_moments_block_counts_the_one_path_it_solves(tmp_path, monkeypatch):
    """A moments run solves one path per replica whatever its orders, so 60
    orders keep blocks of ``_BLOCK_REPLICAS``, not 450 // 61 = 7 replicas,
    and give the report bytes of a run with the row bound lifted."""
    doc = _with(geometric_doc(), "experiment", flavor="moments",
                levels=[0.5 + 0.125 * k for k in range(60)], replicas=100, n_steps=64)
    cfg = write_config(tmp_path, doc)
    sizes = _count_blocks(monkeypatch)
    blobs = []
    for rows in (experiments._BLOCK_ROWS, 10**6):
        monkeypatch.setattr(experiments, "_BLOCK_ROWS", rows)
        out = tmp_path / str(rows)
        assert main(["experiment", "moments", "--config", str(cfg), "--out", str(out)]) in (0, 1)
        blobs.append((out / "report.json").read_bytes())
    assert sizes == [50, 50, 50, 50]
    assert blobs[0] == blobs[1]


def test_cli_import_leaves_scipy_signal_unloaded():
    """No scipy module at all: ``scipy.special`` is imported only by the GLS
    integral, for ``betainc``."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, sddelab.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"


def test_a_riemann_liouville_derivative_leaves_scipy_unloaded():
    """The RL tails are one numpy FFT product and Gamma(1 - alpha) comes from
    ``math``, so a forward derivative at n = 4096 imports no scipy module."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, numpy as np; from sddelab import GridPath, forward_rl_derivative; "
             "forward_rl_derivative(GridPath(0.0, 1 / 4096, np.linspace(0, 1, 4097) ** 2), 0.3); "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"


def test_a_large_frac_gls_run_leaves_scipy_signal_unloaded(tmp_path):
    """``frac`` gls on 4097 rows, past the size where the RL tails once
    switched to ``scipy.signal``, exits 0 and imports ``scipy.special`` only
    for ``betainc``."""
    n = 4096
    rows = "\n".join(f"{k / n!r},{math.sin(3 * k / n)!r},{(k / n) ** 2!r}" for k in range(n + 1))
    (tmp_path / "pair.csv").write_text("time,f,g\n" + rows + "\n")
    cfg = write_config(tmp_path, {
        "kind": "frac", "frac": {"operation": "gls", "input_csv": "pair.csv", "alpha": 0.3},
    })
    src = Path(__file__).resolve().parents[1] / "src"
    args = ["frac", "--config", str(cfg), "--out", str(tmp_path / "out")]
    probe = ("import sys; from sddelab.cli import main; "
             f"code = main({args!r}); print(code, 'scipy.signal' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.splitlines()[-1] == "0 False"  # after the value the run prints
    assert (tmp_path / "out" / "frac_result.json").exists()


def test_cli_import_leaves_the_process_pool_unloaded():
    """``multiprocessing`` and ``concurrent.futures`` are imported by a run
    that forks workers, not by every run."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, sddelab.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"


def test_a_small_run_at_two_workers_leaves_the_process_pool_unloaded(tmp_path):
    """A ``--workers 2`` run below the work of two processes forks nothing and
    imports neither ``multiprocessing`` nor ``concurrent.futures``."""
    cfg = write_config(tmp_path, geometric_doc())
    assert experiments._run_work(load_config(cfg).payload) < 2 * experiments._WORK_PER_PROCESS
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys; from sddelab.cli import main; "
             f"code = main(['experiment', 'euler', '--config', {str(cfg)!r}, "
             f"'--out', {str(tmp_path / 'out')!r}, '--workers', '2']); "
             "print(code, sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "0 []"


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


def test_readme_usage_shows_the_flags_each_subcommand_accepts():
    """Each ``sddelab <subcommand>`` line of the README's usage block shows
    exactly the flags the parser accepts for that subcommand."""
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", README.read_text(), re.S)[1]
    shown = {line.split()[1]: set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", line))
             for line in block.splitlines() if line.startswith("sddelab ")}
    sub, = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {name: {a.option_strings[0] for a in p._actions
                       if a.option_strings and a.dest != "help"}
                for name, p in sub.choices.items()}
    assert shown == accepted


def test_readme_json_examples_parse():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    for block in blocks:
        parse_config(json.loads(block))


def test_readme_python_examples_run():
    """The library examples run in order, each block in the namespace the
    blocks before it left."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"<README.md python example {i}>", "exec"), namespace)
