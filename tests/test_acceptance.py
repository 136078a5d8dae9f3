"""Acceptance suite: one test per pre-registered criterion.

Each test prints one pass/fail line (run with ``pytest -s`` to see them live)
and asserts the criterion at its stated tolerance.  Seeds are fixed: the
whole suite is deterministic.
"""

import json
import time

import numpy as np
import pytest
from scipy import special

from sddelab import (
    FbmParams,
    SeedSpec,
    fbm_covariance,
    forward_rl_derivative,
    fractional_norms,
    gls_integral,
    riemann_stieltjes_integral,
    sample_fbm,
    young_love_bound,
)
from sddelab import experiments
from sddelab.cli import main
from sddelab.core import constant_initial, geometric_spec, pointwise_delay_spec
from sddelab.experiments import (
    ExperimentConfig,
    lognormal_terminal_second_moment,
    run_experiment,
)

from helpers import grid_fn, standard_params, trig_pair

WORKERS = 4


def report_line(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})",
          flush=True)


@pytest.mark.parametrize("hurst", [0.6, 0.75, 0.9])
def test_criterion_1_fbm_fidelity(hurst):
    """Empirical covariance at 10 node pairs within 3 SE, under 60 s per H."""
    n, m = 512, 20_000
    params = FbmParams(hurst, n, 1.0)
    started = time.perf_counter()
    paths = np.empty((m, n + 1))
    for i in range(m):
        paths[i] = sample_fbm(params, SeedSpec(777, i)).values[:, 0]
    pairs = [
        (64, 128), (128, 256), (256, 512), (64, 512), (128, 384),
        (192, 448), (320, 512), (256, 384), (448, 512), (96, 288),
    ]
    worst = 0.0
    for si, ti in pairs:
        prod = paths[:, si] * paths[:, ti]
        se = prod.std(ddof=1) / np.sqrt(m)
        z = abs(prod.mean() - fbm_covariance(si / n, ti / n, hurst)) / se
        worst = max(worst, z)
    runtime = time.perf_counter() - started
    ok = worst < 3.0 and runtime < 60.0
    report_line(
        f"1 fBm fidelity H={hurst}", ok, f"max |z|={worst:.2f} SE, {runtime:.1f}s"
    )
    assert worst < 3.0
    assert runtime < 60.0


def test_criterion_2_fractional_calculus_oracles():
    """RL power rules at 2^12 (< 1e-3 rel), GLS vs RS at 2^14 (< 1e-3),
    estimate (norm product) and Young-Love on 1000 random pairs: 0 violations."""
    worst_rel = 0.0
    for beta in (0.5, 1.0, 2.0):
        for alpha in (0.25, 0.5):
            p = grid_fn(lambda t: t**beta, 0, 1, 2**12)
            d = forward_rl_derivative(p, alpha)
            x = d.times
            exact = (
                special.gamma(beta + 1) / special.gamma(beta - alpha + 1)
                * x ** (beta - alpha)
            )
            mask = x >= 0.05
            rel = np.abs(d.values[mask, 0] - exact[mask]) / np.abs(exact[mask])
            worst_rel = max(worst_rel, float(rel.max()))
    const = forward_rl_derivative(grid_fn(lambda t: np.ones_like(t), 0, 1, 2**12), 0.5)
    worst_rel = max(
        worst_rel, abs(const.values[-1, 0] - 1 / np.sqrt(np.pi)) * np.sqrt(np.pi)
    )

    f1 = grid_fn(lambda t: t, 0, 1, 2**14)
    g1 = grid_fn(lambda t: t**2, 0, 1, 2**14)
    gap1 = abs(gls_integral(f1, g1, 0.3) - riemann_stieltjes_integral(f1, g1, "midpoint"))
    f2 = grid_fn(np.sin, 0, 1, 2**14)
    g2 = grid_fn(lambda t: t, 0, 1, 2**14)
    gap2 = abs(gls_integral(f2, g2, 0.25) - riemann_stieltjes_integral(f2, g2, "midpoint"))

    rng = np.random.default_rng(314159)
    violations = 0
    for _ in range(1000):
        f, g = trig_pair(rng, n=512)
        alpha = rng.uniform(0.1, 0.45)
        lhs = abs(gls_integral(f, g, alpha))
        rhs = (
            fractional_norms(f, alpha).norm_1_alpha
            * fractional_norms(g, alpha).seminorm_0_alpha
            / (special.gamma(alpha) * special.gamma(1 - alpha))
        )
        lam, mu = rng.uniform(0.6, 1.0, size=2)
        if lhs > rhs or lhs > young_love_bound(f, g, lam, mu):
            violations += 1
    ok = worst_rel < 1e-3 and gap1 < 1e-3 and gap2 < 1e-3 and violations == 0
    report_line(
        "2 fractional calculus oracles", ok,
        f"power rel={worst_rel:.1e}, gls gaps={gap1:.1e}/{gap2:.1e}, "
        f"violations={violations}/1000",
    )
    assert worst_rel < 1e-3
    assert gap1 < 1e-3 and gap2 < 1e-3
    assert violations == 0


def test_criterion_3_euler_convergence_to_closed_form():
    """Geometric spec, meshes 2^4..2^10, M=200: means non-increasing in at
    least 5 of 6 steps, final exceedance below 0.05, under 5 minutes."""
    started = time.perf_counter()
    cfg = ExperimentConfig(
        kind="euler_refinement",
        spec=geometric_spec(0.5, 0.4, 0.3),
        params=standard_params(),
        initial=constant_initial(1.0, 0.0, 2.0**-10),
        horizon=1.0,
        n_steps=2**10,
        levels=tuple(2**k for k in range(4, 11)),
        replicas=200,
        epsilon=0.1,
        seed=31337,
        workers=WORKERS,
        min_decreasing_steps=5,
    )
    rep = run_experiment(cfg)
    runtime = time.perf_counter() - started
    means = [lv.mean_distance for lv in rep.levels]
    drops = sum(1 for a, b in zip(means, means[1:]) if b <= a)
    final = rep.levels[-1].exceedance.estimate
    ok = drops >= 5 and final < 0.05 and runtime < 300.0 and rep.passed
    report_line(
        "3 Euler refinement vs closed form", ok,
        f"drops={drops}/6, final exceedance={final:.3f}, {runtime:.0f}s",
    )
    assert drops >= 5
    assert final < 0.05
    assert runtime < 300.0
    assert rep.passed


def test_criterion_4_vanishing_delay():
    """Scalar linear pointwise-delay spec, taps 2^-1..2^-8, M=500:
    exceedance non-increasing up to CI overlap and below 0.05 at the end."""
    cfg = ExperimentConfig(
        kind="vanishing_delay",
        spec=pointwise_delay_spec(0.3, 0.3, 0.0, 0.2, 0.2, 0.0, tau=0.5),
        params=standard_params(),
        initial=constant_initial(1.0, 0.5, 2.0**-10),
        horizon=1.0,
        n_steps=2**10,
        levels=tuple(2.0**-k for k in range(1, 9)),
        replicas=500,
        epsilon=0.1,
        seed=31338,
        workers=WORKERS,
    )
    rep = run_experiment(cfg)
    final = rep.levels[-1].exceedance.estimate
    ok = rep.passed and final < 0.05
    ests = [f"{lv.exceedance.estimate:.3f}" for lv in rep.levels]
    report_line("4 vanishing delay", ok, f"exceedance per tap: {' '.join(ests)}")
    assert final < 0.05
    assert rep.passed  # includes the CI-overlap monotonicity check


def test_criterion_5_coefficient_convergence():
    """Drift shift 1/n over levels 1..64, M=500: final exceedance < 0.05 and
    the zero-perturbation control is exactly zero at every level."""
    common = dict(
        kind="coeff_convergence",
        spec=geometric_spec(0.5, 0.4, 0.3),
        params=standard_params(),
        initial=constant_initial(1.0, 0.0, 2.0**-9),
        horizon=1.0,
        n_steps=2**9,
        levels=(1, 2, 4, 8, 16, 32, 64),
        replicas=500,
        epsilon=0.1,
        seed=31339,
        workers=WORKERS,
    )
    shifted = run_experiment(ExperimentConfig(**common, perturbation="drift_shift"))
    control = run_experiment(
        ExperimentConfig(**common, perturbation="none", emit_distances=True)
    )
    final = shifted.levels[-1].exceedance.estimate
    control_zero = all(
        lv.exceedance.estimate == 0.0 and all(d == 0.0 for d in lv.distances)
        for lv in control.levels
    )
    ok = final < 0.05 and control_zero and shifted.passed
    report_line(
        "5 coefficient convergence", ok,
        f"final exceedance={final:.3f}, control exactly zero={control_zero}",
    )
    assert final < 0.05
    assert control_zero
    assert shifted.passed


def test_criterion_6_mollifier_ito_limit():
    """Mean sup distance between the mixed solve and the mollified-drift Ito
    solve strictly decreasing over levels 4, 16, 64 (coupled paths, M=200)."""
    cfg = ExperimentConfig(
        kind="ito_limit",
        spec=geometric_spec(0.5, 0.4, 0.3),
        params=standard_params(),
        initial=constant_initial(1.0, 0.0, 2.0**-10),
        horizon=1.0,
        n_steps=2**10,
        levels=(4, 16, 64),
        replicas=200,
        epsilon=0.1,
        seed=31340,
        workers=WORKERS,
    )
    rep = run_experiment(cfg)
    means = [lv.mean_distance for lv in rep.levels]
    ok = means[0] > means[1] > means[2]
    report_line(
        "6 mollifier / Ito limit", ok,
        "means: " + " > ".join(f"{v:.4f}" for v in means),
    )
    assert means[0] > means[1] > means[2]
    assert rep.passed


def test_criterion_7_moment_boundedness():
    """p=2 sup-moment dominates the lognormal terminal oracle within 3 SE;
    doubling the sample from 5e3 to 1e4 moves the p=4 estimate by < 10%."""
    cfg = ExperimentConfig(
        kind="moments",
        spec=geometric_spec(0.5, 0.4, 0.3),
        params=standard_params(),
        initial=constant_initial(1.0, 0.0, 2.0**-8),
        horizon=1.0,
        n_steps=2**8,
        levels=(2.0, 4.0),
        replicas=10_000,
        epsilon=0.1,
        seed=31345,
        workers=WORKERS,
    )
    rep = run_experiment(cfg)
    oracle = lognormal_terminal_second_moment(0.5, 0.4, 0.3, 1.0, 1.0, 0.75)
    assert rep.oracle_second_moment == pytest.approx(oracle)
    ok = rep.passed and rep.stability_rel_change < 0.10
    report_line(
        "7 moment boundedness", ok,
        f"sup p=2 est={rep.sup_moments[0]:.3f} >= oracle={oracle:.3f} "
        f"(gap={rep.oracle_gap_se:+.1f} SE), p=4 half-sample shift="
        f"{rep.stability_rel_change:.1%}",
    )
    # gap in SE units: estimate >= oracle - 3 SE means gap > -3
    assert rep.oracle_gap_se is not None and rep.oracle_gap_se > -3.0
    assert rep.stability_rel_change < 0.10
    assert rep.passed


def test_criterion_8_quasi_contractivity():
    """Driver perturbations 0.1, 0.05, 0.025: the p-th moment distance ratio
    stays within a factor of 10 across sizes."""
    cfg = ExperimentConfig(
        kind="quasi_contract",
        spec=geometric_spec(0.5, 0.4, 0.3),
        params=standard_params(),
        initial=constant_initial(1.0, 0.0, 2.0**-8),
        horizon=1.0,
        n_steps=2**8,
        levels=(0.1, 0.05, 0.025),
        replicas=200,
        epsilon=0.1,
        seed=31342,
        workers=WORKERS,
    )
    rep = run_experiment(cfg)
    finite = [r for r in rep.ratios if r]
    spread = max(finite) / min(finite) if finite else np.inf
    ok = rep.passed and len(finite) == 3 and spread < 10.0
    report_line(
        "8 quasi-contractivity", ok,
        f"ratios={['%.3g' % r for r in finite]}, spread={spread:.2f}, "
        f"p={rep.p:g}, counts={rep.indicator_counts}",
    )
    assert len(finite) == 3
    assert spread < 10.0
    assert rep.passed


def test_criterion_9_determinism_across_workers(tmp_path, monkeypatch):
    """Every experiment kind re-run at worker counts 1 and 8 produces
    byte-identical report files.  The 40 replicas are one block at 1 worker
    and eight blocks of 5 at 8; the dim-2 and distributed-delay equations
    sum several products per coefficient."""
    base_holder = {"gamma": 0.7, "alpha": 0.35, "beta": 1.0, "theta": 0.45,
                   "hurst": 0.75}
    geo = {
        "family": "no_delay", "dim": 1, "n_wiener": 1, "n_holder": 1,
        "drift": {"gain_now": 0.5}, "diffusion": {"gain_now": 0.4},
        "zdrive": {"gain_now": 0.3},
    }
    delayed = {
        "family": "pointwise_delay", "dim": 1, "n_wiener": 1, "n_holder": 1,
        "tau": 0.25,
        "drift": {"gain_now": 0.3, "gain_delay": 0.3},
        "diffusion": {"gain_delay": 0.2},
        "zdrive": {"gain_now": 0.2},
    }
    linear2 = {
        "family": "linear", "dim": 2, "n_wiener": 2, "n_holder": 2, "tau": 0.125,
        "drift": {"gain_now": [[0.1, 0.3], [-0.2, 0.1]], "gain_delay": 0.2,
                  "const": [[0.1, -0.1]]},
        "diffusion": {"gain_now": 0.2, "gain_delay": [[0.0, 0.1], [0.1, 0.0]]},
        "zdrive": {"gain_now": [[0.1, 0.2], [0.0, 0.3]], "time_modulation": "sin"},
    }
    distributed = {
        "family": "distributed_delay", "dim": 1, "n_wiener": 1, "n_holder": 1,
        "delay_span": 0.25,
        "drift": {"gain_now": 0.2, "gain_delay": 0.5},
        "diffusion": {"gain_now": 0.1, "gain_delay": 0.3},
        "zdrive": {"gain_now": 0.2, "gain_delay": -0.4, "const": 0.1},
    }
    point_initial = {"constant": 1.0, "delay": 0.0, "theta": 0.45}
    window_initial = {"constant": 1.0, "delay": 0.25, "theta": 0.45, "dt": 0.25 / 32}
    cases = {
        "euler": dict(flavor="euler_refinement", levels=[16, 64], coeff=geo,
                      initial=point_initial, n_steps=64),
        "coeff": dict(flavor="coeff_convergence", levels=[1, 4, 16], coeff=geo,
                      initial=point_initial, n_steps=128, perturbation="drift_shift"),
        "delay": dict(flavor="vanishing_delay", levels=[0.25, 0.125], coeff=delayed,
                      initial=window_initial, n_steps=128),
        "ito": dict(flavor="ito_limit", levels=[4, 8], coeff=geo,
                    initial=point_initial, n_steps=128),
        "moments": dict(flavor="moments", levels=[2.0, 4.0], coeff=geo,
                        initial=point_initial, n_steps=64),
        "quasi": dict(flavor="quasi_contract", levels=[0.1, 0.05], coeff=geo,
                      initial=point_initial, n_steps=64, m_trunc=25.0),
        "coeff_dim2": dict(flavor="coeff_convergence", levels=[1, 4, 16], coeff=linear2,
                           initial=dict(window_initial, constant=[1.0, -0.5]),
                           n_steps=128, perturbation="gain_shift"),
        "ito_distributed": dict(flavor="ito_limit", levels=[4, 8], coeff=distributed,
                                initial=window_initial, n_steps=128),
    }
    # 8 usable CPUs whatever the machine, so that 8 workers split the replicas
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 8)
    all_ok = True
    for name, case in cases.items():
        alias = name.split("_")[0]
        doc = {
            "kind": "experiment",
            "experiment": {
                "flavor": case["flavor"], "levels": case["levels"],
                "replicas": 40, "epsilon": 0.5, "horizon": 1.0,
                "n_steps": case["n_steps"],
            },
            "criteria": {"max_final_exceedance": 1.0},
            "holder": base_holder,
            "coefficients": case["coeff"],
            "initial": case["initial"],
            "seed": {"master": 4242},
        }
        for key in ("perturbation", "m_trunc"):
            if key in case:
                doc["experiment"][key] = case[key]
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        blobs = []
        for workers in ("1", "8"):
            out = tmp_path / f"{name}_w{workers}"
            code = main([
                "experiment", alias, "--config", str(cfg),
                "--out", str(out), "--workers", workers,
            ])
            assert code in (0, 1), f"{alias} run crashed with exit {code}"
            blobs.append((out / "report.json").read_bytes())
        identical = blobs[0] == blobs[1]
        all_ok = all_ok and identical
        assert identical, f"{name}: reports differ between 1 and 8 workers"
    report_line("9 determinism across worker counts", all_ok, "8 cases x 2 runs")
