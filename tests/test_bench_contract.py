"""The benchmark's contract with the program.

The module boundaries that ``perfbench/tracer.py`` wraps must keep resolving.
The tracer reports a boundary it cannot find, or whose work counter no
longer fits the call arguments, under ``missing``; its per-layer numbers
then vanish from the benchmark.  Each case runs the tracer in a subprocess
on a small config and expects an empty ``missing`` list.

Each workload's report must match the reference the benchmark checks it
against: the correctness gate of ``perfbench/run.py``, replayed in-process at
seed 0.  Nothing under ``perfbench/`` is written.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ("delay_scalar", "ito_mollified", "moments_norms", "refine_pool")

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


def _perfbench_module(name, monkeypatch):
    """``perfbench/<name>.py`` loaded without writing its bytecode cache there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not (ROOT / "perfbench" / "check.py").exists(),
                    reason="benchmark references not present")
@pytest.mark.parametrize("name", WORKLOADS)
def test_each_workload_reproduces_its_recorded_reference_at_seed_0(tmp_path, monkeypatch,
                                                                    name):
    """The benchmark rejects a report that ``check.check_report`` finds
    different from the recorded one, or a different exit code; moments_norms
    exits 1 (criteria) at seed 0, as recorded."""
    from sddelab.cli import main

    check = _perfbench_module("check", monkeypatch)
    workload = _perfbench_module("workloads", monkeypatch).WORKLOADS[name]
    seed = workload.master_seed(0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config(seed)))
    out = tmp_path / "out"
    code = main(workload.cli_args(config, out, 1))
    reference = check.load_reference(name, seed)
    assert code == reference["exit_code"]
    assert check.check_report((out / "report.json").read_bytes(), reference) == []
