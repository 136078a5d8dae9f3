"""The module boundaries that ``perfbench/tracer.py`` wraps must keep resolving.

The tracer reports a boundary it cannot find, or whose work counter no
longer fits the call arguments, under ``missing``; its per-layer numbers
then vanish from the benchmark.  Each case runs the tracer in a subprocess
on a small config and expects an empty ``missing`` list.  Nothing under
``perfbench/`` is written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

GEOMETRIC = {
    "family": "no_delay", "dim": 1, "n_wiener": 1, "n_holder": 1,
    "drift": {"gain_now": 0.5}, "diffusion": {"gain_now": 0.4}, "zdrive": {"gain_now": 0.3},
}
POINTWISE_DELAY = {
    "family": "pointwise_delay", "dim": 1, "n_wiener": 1, "n_holder": 1, "tau": 0.25,
    "drift": {"gain_now": 0.3, "gain_delay": 0.3},
    "diffusion": {"gain_delay": 0.2},
    "zdrive": {"gain_now": 0.2},
}
CASES = {
    "ito": ("ito_limit", [4, 16], 64, GEOMETRIC, {"constant": 1.0, "delay": 0.0}),
    "delay": ("vanishing_delay", [0.25, 0.125], 64, POINTWISE_DELAY,
              {"constant": 1.0, "delay": 0.25, "dt": 1 / 64}),
    "moments": ("moments", [2.0, 4.0], 32, GEOMETRIC, {"constant": 1.0, "delay": 0.0}),
    "quasi": ("quasi_contract", [0.1, 0.05], 32, GEOMETRIC, {"constant": 1.0, "delay": 0.0}),
    "coeff": ("coeff_convergence", [2, 4], 32, POINTWISE_DELAY,
              {"constant": 1.0, "delay": 0.25, "dt": 1 / 32}, {"perturbation": "initial_shift"}),
    "euler": ("euler_refinement", [8, 32], 32, GEOMETRIC, {"constant": 1.0, "delay": 0.0}),
}


def _config(flavor, levels, n_steps, coefficients, initial, extra=None):
    return {
        "kind": "experiment",
        "experiment": {"flavor": flavor, "levels": levels, "replicas": 30,
                       "epsilon": 0.1, "horizon": 1.0, "n_steps": n_steps, **(extra or {})},
        "criteria": {"max_final_exceedance": 1.0},
        "holder": {"gamma": 0.7, "alpha": 0.35, "beta": 1.0, "theta": 0.45, "hurst": 0.75},
        "coefficients": coefficients,
        "initial": {**initial, "theta": 0.45},
        "driver": {"method": "cholesky"},
        "seed": {"master": 31340},
    }


@pytest.mark.skipif(not TRACER.exists(), reason="benchmark tracer not present")
@pytest.mark.parametrize("alias", sorted(CASES))
def test_traced_boundaries_all_resolve(tmp_path, alias):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_config(*CASES[alias])))
    summary_path = tmp_path / "summary.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("SDDELAB_OUT", None)
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(summary_path), str(tmp_path / "spans.npz"),
         "experiment", alias, "--config", str(config), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode in (0, 1), proc.stderr
    summary = json.loads(summary_path.read_text())
    assert summary["missing"] == []
    assert summary["exit_code"] == proc.returncode
