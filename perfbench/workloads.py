"""The four benchmark workloads: one generated ``sddelab experiment`` config each.

Every workload uses the acceptance exponent bundle (H=0.75, alpha=0.35) and
Cholesky drivers.  The benchmark seed selects one of ``SEED_SETS`` recorded
input sets: master seed = acceptance seed + (seed mod ``SEED_SETS``), so seed
0 is the acceptance seed and every input set has a reference report recorded
in ``perfbench/reference/``.  Why each workload was chosen, with its
measured per-layer split, is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

SEED_SETS = 16

HOLDER = {"gamma": 0.7, "alpha": 0.35, "beta": 1.0, "theta": 0.45, "hurst": 0.75}
GEOMETRIC = {
    "family": "no_delay", "dim": 1, "n_wiener": 1, "n_holder": 1,
    "drift": {"gain_now": 0.5}, "diffusion": {"gain_now": 0.4}, "zdrive": {"gain_now": 0.3},
}
# criterion 4: pointwise_delay_spec(0.3, 0.3, 0.0, 0.2, 0.2, 0.0, tau=0.5)
POINTWISE_DELAY = {
    "family": "pointwise_delay", "dim": 1, "n_wiener": 1, "n_holder": 1, "tau": 0.5,
    "drift": {"gain_now": 0.3, "gain_delay": 0.3},
    "diffusion": {"gain_delay": 0.2},
    "zdrive": {"gain_now": 0.2},
}
POINT_INITIAL = {"constant": 1.0, "delay": 0.0, "theta": 0.45}


@dataclass(frozen=True)
class Workload:
    name: str
    flavor: str  # the CLI alias: ``sddelab experiment <flavor>``
    workers: int
    acceptance_seed: int
    experiment: dict  # the config's "experiment" block
    coefficients: dict
    initial: dict
    grids: tuple[int, ...]  # driver grids the run samples on (set-up probe)

    @property
    def replicas(self) -> int:
        return self.experiment["replicas"]

    def master_seed(self, seed: int) -> int:
        return self.acceptance_seed + seed % SEED_SETS

    def cli_args(self, config: Path, out: Path, workers: int) -> list[str]:
        """Arguments of ``sddelab`` for one run of this workload."""
        return ["experiment", self.flavor, "--config", str(config), "--out", str(out),
                "--workers", str(workers)]

    def config(self, master_seed: int) -> dict:
        return {
            "kind": "experiment",
            "experiment": dict(self.experiment),
            "holder": dict(HOLDER),
            "coefficients": self.coefficients,
            "initial": self.initial,
            "driver": {"method": "cholesky"},
            "seed": {"master": master_seed},
        }


def _experiment(flavor: str, levels: list, replicas: int, n_steps: int, **extra) -> dict:
    block = {"flavor": flavor, "levels": levels, "replicas": replicas,
             "epsilon": 0.1, "horizon": 1.0, "n_steps": n_steps}
    block.update(extra)
    return block


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="delay_scalar",
            flavor="delay",
            workers=1,
            acceptance_seed=31338,
            experiment=_experiment(
                "vanishing_delay", [2.0**-k for k in range(1, 9)], 100, 1024
            ),
            coefficients=POINTWISE_DELAY,
            initial={"constant": 1.0, "delay": 0.5, "theta": 0.45, "dt": 2.0**-10},
            grids=(1024,),
        ),
        Workload(
            name="ito_mollified",
            flavor="ito",
            workers=1,
            acceptance_seed=31340,
            experiment=_experiment("ito_limit", [4, 16, 64], 30, 1024),
            coefficients=GEOMETRIC,
            initial=POINT_INITIAL,
            grids=(1024,),
        ),
        Workload(
            name="moments_norms",
            flavor="moments",
            workers=1,
            acceptance_seed=31345,
            experiment=_experiment("moments", [2.0, 4.0], 200, 256),
            coefficients=GEOMETRIC,
            initial=POINT_INITIAL,
            grids=(256,),
        ),
        Workload(
            name="refine_pool",
            flavor="euler",
            workers=2,
            acceptance_seed=31337,
            experiment=_experiment("euler_refinement", [64, 256, 1024, 4096], 100, 4096,
                                   reference="closed_form"),
            coefficients=GEOMETRIC,
            initial=POINT_INITIAL,
            grids=(4096,),
        ),
    )
}
