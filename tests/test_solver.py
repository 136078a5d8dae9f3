import numpy as np
import pytest

from sddelab import FbmParams, GridPath, SeedSpec, sample_fbm, sample_wiener
from sddelab.core import (
    CoeffBlock,
    CoefficientSpec,
    constant_initial,
    geometric_spec,
    pointwise_delay_spec,
)
from sddelab.grid import GridError
from sddelab.solver import (
    AdaptednessError,
    GuardedDriver,
    MollifiedDrift,
    SolverConfig,
    SolverExplosionError,
    coefficient_evaluator,
    euler_ito_sdde,
    euler_mixed_sdde,
    geometric_closed_form,
    mollify_driver,
)


def drivers(n, horizon=1.0, seed=0, stream=0, hurst=0.75):
    s = SeedSpec(seed, stream)
    w = sample_wiener(n, horizon, 1, s.child(0))
    z = sample_fbm(FbmParams(hurst, n, horizon), s.child(1))
    return w, z


class TestSolverConfig:
    def test_delay_must_be_grid_multiple(self):
        with pytest.raises(ValueError):
            SolverConfig(n_steps=10, horizon=1.0, delay=0.15)
        cfg = SolverConfig(n_steps=10, horizon=1.0, delay=0.2)
        assert cfg.delay_steps == 2

    @pytest.mark.parametrize("kwargs", [
        dict(n_steps=0, horizon=1.0),
        dict(n_steps=4, horizon=-1.0),
        dict(n_steps=4, horizon=1.0, delay=-0.25),
        dict(n_steps=4, horizon=1.0, scheme="milstein"),
        dict(n_steps=4, horizon=1.0, explosion_threshold=-1.0),
        dict(n_steps=4, horizon=1.0, explosion_threshold=float("nan")),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestEulerMixed:
    def test_zero_coefficients_freeze_the_state(self):
        spec = CoefficientSpec(
            "constant", 1, 1, 1,
            CoeffBlock.build(1, 1), CoeffBlock.build(1, 1), CoeffBlock.build(1, 1),
        )
        cfg = SolverConfig(n_steps=32, horizon=1.0)
        w, z = drivers(32)
        x = euler_mixed_sdde(spec, constant_initial(2.5, 0.0, cfg.dt), w, z, cfg)
        np.testing.assert_array_equal(x.values, 2.5)

    def test_single_step_recursion_by_hand(self):
        a, b, c = 0.5, 0.4, 0.3
        cfg = SolverConfig(n_steps=1, horizon=0.5)
        w, z = drivers(2, horizon=0.5)
        w, z = w.restrict(2), z.restrict(2)
        x = euler_mixed_sdde(
            geometric_spec(a, b, c), constant_initial(1.0, 0.0, cfg.dt), w, z, cfg
        )
        dw = w.values[1, 0] - w.values[0, 0]
        dz = z.values[1, 0] - z.values[0, 0]
        expected = 1.0 + a * 1.0 * 0.5 + b * 1.0 * dw + c * 1.0 * dz
        assert x.values[-1, 0] == pytest.approx(expected, rel=1e-15)

    def test_geometric_tracks_closed_form(self):
        """Coupled-path mean sup distance to the pathwise closed form stays
        small at a 2^10 mesh."""
        spec = geometric_spec(0.5, 0.4, 0.3)
        cfg = SolverConfig(n_steps=2**10, horizon=1.0)
        eta = constant_initial(1.0, 0.0, cfg.dt)
        sups = []
        for rep in range(100):
            w, z = drivers(cfg.n_steps, seed=42, stream=rep)
            x = euler_mixed_sdde(spec, eta, w, z, cfg)
            ref = geometric_closed_form(0.5, 0.4, 0.3, 1.0, w, z)
            sups.append(np.max(np.abs(x.values[:, 0] - ref.values[:, 0])))
        assert np.mean(sups) < 0.05

    def test_initial_segment_copied_bitwise(self):
        rng = np.random.default_rng(8)
        vals = np.cumsum(rng.standard_normal(17)) * 0.05
        eta = constant_initial(1.0, 0.5, 1 / 32)
        from sddelab.core import InitialCondition

        eta = InitialCondition(GridPath(-0.5, 1 / 32, vals), 0.45)
        spec = pointwise_delay_spec(0.3, 0.3, 0.0, 0.2, 0.2, 0.0, tau=0.5)
        cfg = SolverConfig(n_steps=32, horizon=1.0, delay=0.5)
        w, z = drivers(32)
        x = euler_mixed_sdde(spec, eta, w, z, cfg)
        np.testing.assert_array_equal(x.values[:17, 0], vals)

    def test_determinism(self):
        spec = geometric_spec(0.5, 0.4, 0.3)
        cfg = SolverConfig(n_steps=64, horizon=1.0)
        eta = constant_initial(1.0, 0.0, cfg.dt)
        w, z = drivers(64, seed=1)
        a = euler_mixed_sdde(spec, eta, w, z, cfg)
        b = euler_mixed_sdde(spec, eta, w, z, cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_explosion_guard(self):
        spec = geometric_spec(50.0, 0.0, 0.0)
        cfg = SolverConfig(n_steps=64, horizon=1.0, explosion_threshold=100.0)
        w, z = drivers(64)
        with pytest.raises(SolverExplosionError) as err:
            euler_mixed_sdde(spec, constant_initial(1.0, 0.0, cfg.dt), w, z, cfg)
        assert err.value.magnitude > 100.0

    def test_driver_refinement_restriction(self):
        # drivers on a 4x finer grid restrict to the solver grid
        spec = geometric_spec(0.5, 0.4, 0.3)
        cfg = SolverConfig(n_steps=32, horizon=1.0)
        eta = constant_initial(1.0, 0.0, cfg.dt)
        w_fine, z_fine = drivers(128, seed=2)
        a = euler_mixed_sdde(spec, eta, w_fine, z_fine, cfg)
        b = euler_mixed_sdde(spec, eta, w_fine.restrict(4), z_fine.restrict(4), cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_misaligned_driver_rejected(self):
        spec = geometric_spec(0.5, 0.4, 0.3)
        cfg = SolverConfig(n_steps=32, horizon=1.0)
        w, z = drivers(48)
        with pytest.raises(GridError):
            euler_mixed_sdde(spec, constant_initial(1.0, 0.0, cfg.dt), w, z, cfg)

    def test_vector_equation_runs(self):
        spec = CoefficientSpec(
            "no_delay", 2, 2, 1,
            CoeffBlock.build(1, 2, gain_now=np.array([[0.1, 0.0], [0.0, -0.1]])),
            CoeffBlock.build(2, 2, gain_now=0.2),
            CoeffBlock.build(1, 2, gain_now=0.1),
        )
        cfg = SolverConfig(n_steps=32, horizon=1.0)
        s = SeedSpec(5)
        w = sample_wiener(32, 1.0, 2, s.child(0))
        z = sample_fbm(FbmParams(0.75, 32, 1.0), s.child(1))
        x = euler_mixed_sdde(spec, constant_initial(np.array([1.0, -1.0]), 0.0, cfg.dt), w, z, cfg)
        assert x.values.shape == (33, 2)
        assert np.all(np.isfinite(x.values))


@pytest.mark.parametrize("stepper", ["mixed", "compiled_ito", "callable_ito"])
def test_off_grid_tap_is_rejected_by_every_stepper(stepper):
    # tau = 0.3 falls between the nodes 19/64 and 20/64; no stepper may round it
    spec = pointwise_delay_spec(0.1, 0.2, 0.1, 0.1, 0.1, 0.1, tau=0.3)
    cfg = SolverConfig(n_steps=64, horizon=1.0, delay=0.5)
    eta = constant_initial(1.0, 0.5, cfg.dt)
    w, z = drivers(64)
    drift = {"mixed": None, "compiled_ito": MollifiedDrift(spec, z, 8),
             "callable_ito": coefficient_evaluator(spec, "a")}[stepper]
    with pytest.raises(GridError, match="0.3 does not land on the grid"):
        if drift is None:
            euler_mixed_sdde(spec, eta, w, z, cfg)
        else:
            euler_ito_sdde(drift, coefficient_evaluator(spec, "b"), eta, w, cfg)


class TestGeometricClosedForm:
    def test_deterministic_exponential(self):
        n = 64
        w = GridPath(0.0, 1 / n, np.zeros(n + 1))
        z = GridPath(0.0, 1 / n, np.zeros(n + 1))
        x = geometric_closed_form(1.0, 0.0, 0.0, 1.0, w, z)
        assert x.values[-1, 0] == pytest.approx(np.e, rel=1e-12)

    def test_gbm_terminal_mean(self):
        """c=0 reduces to geometric Brownian motion with E X(1) = x0 e^a."""
        a, m = 0.5, 20000
        ends = np.empty(m)
        for i in range(m):
            w = sample_wiener(8, 1.0, 1, SeedSpec(1001, i))
            z = GridPath(0.0, 1 / 8, np.zeros(9))
            ends[i] = geometric_closed_form(a, 0.4, 0.0, 1.0, w, z).values[-1, 0]
        se = ends.std(ddof=1) / np.sqrt(m)
        assert abs(ends.mean() - np.exp(a)) < 3 * se

    def test_pure_rough_substitution(self):
        _, z = drivers(64, seed=3)
        w = GridPath(0.0, z.dt, np.zeros(z.n_points))
        x = geometric_closed_form(0.0, 0.0, 1.0, 2.0, w, z)
        np.testing.assert_allclose(x.values[:, 0], 2.0 * np.exp(z.values[:, 0]), rtol=1e-12)


class TestMollifier:
    def test_constant_inside_clamp(self):
        n = 256
        z = GridPath(0.0, 1 / n, np.full(n + 1, 1.5))
        zn = mollify_driver(z, 4)
        t = zn.times
        np.testing.assert_allclose(zn.values[t >= 0.25, 0], 1.5, atol=1e-12)

    def test_linear_path_closed_form(self):
        # window average of the identity is t - 1/(2N) once the window is full
        n = 1024
        z = GridPath(0.0, 1 / n, np.linspace(0, 1, n + 1))
        for level in (4, 16):
            zn = mollify_driver(z, level)
            t = zn.times
            mask = t >= 1.0 / level
            np.testing.assert_allclose(
                zn.values[mask, 0], t[mask] - 0.5 / level, atol=1e-12
            )

    def test_clamp_saturates(self):
        n = 256
        z = GridPath(0.0, 1 / n, np.full(n + 1, 2.0))
        zn = mollify_driver(z, 1)
        assert zn.values[-1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_grid_too_coarse_rejected(self):
        z = GridPath(0.0, 1 / 8, np.zeros(9))
        with pytest.raises(GridError):
            mollify_driver(z, 16)

    def test_output_lipschitz_constant_bound(self):
        # clamped values are bounded by N over a window of width 1/N
        from sddelab import holder_seminorm

        z = sample_fbm(FbmParams(0.75, 2**10, 1.0), SeedSpec(201, 0))
        for level in (2, 8):
            zn = mollify_driver(GridPath(0.0, z.dt, 4.0 * z.values), level)
            assert holder_seminorm(zn, 1.0) <= 2.0 * level**2 * (1 + 1e-9)

    def test_contraction_in_level_on_sampled_paths(self):
        """sup |Z^N - Z| beyond the warm-up window decreases in N for every
        sampled fBm path."""
        for i in range(10):
            z = sample_fbm(FbmParams(0.75, 2**10, 1.0), SeedSpec(200, i))
            prev = np.inf
            for level in (4, 16, 64):
                zn = mollify_driver(z, level)
                t = zn.times
                mask = t >= 1.0 / level
                gap = np.max(np.abs(zn.values[mask, 0] - z.values[mask, 0]))
                assert gap < prev
                prev = gap


class TestEulerIto:
    def test_zero_coefficients(self):
        cfg = SolverConfig(n_steps=16, horizon=1.0)
        w, _ = drivers(16)
        y = euler_ito_sdde(
            lambda t, psi: np.zeros(1), lambda t, psi: np.zeros((1, 1)),
            constant_initial(3.0, 0.0, cfg.dt), w, cfg,
        )
        np.testing.assert_array_equal(y.values, 3.0)

    def test_unit_drift_is_time(self):
        cfg = SolverConfig(n_steps=32, horizon=1.0)
        w, _ = drivers(32)
        y = euler_ito_sdde(
            lambda t, psi: np.ones(1), lambda t, psi: np.zeros((1, 1)),
            constant_initial(1.0, 0.0, cfg.dt), w, cfg,
        )
        np.testing.assert_allclose(y.values[:, 0], 1.0 + y.times, rtol=1e-12)

    def test_reduction_is_bit_identical_scalar(self):
        """Mixed solve with c = 0 equals the Ito solve with the same (a, b)
        bit for bit."""
        spec = geometric_spec(0.5, 0.4, 0.0)
        cfg = SolverConfig(n_steps=128, horizon=1.0)
        eta = constant_initial(1.0, 0.0, cfg.dt)
        w, z = drivers(128, seed=6)
        mixed = euler_mixed_sdde(spec, eta, w, z, cfg)
        ito = euler_ito_sdde(
            coefficient_evaluator(spec, "a"), coefficient_evaluator(spec, "b"),
            eta, w, cfg,
        )
        np.testing.assert_array_equal(mixed.values, ito.values)

    def test_reduction_is_bit_identical_vector(self):
        spec = CoefficientSpec(
            "no_delay", 2, 2, 1,
            CoeffBlock.build(1, 2, gain_now=0.3),
            CoeffBlock.build(2, 2, gain_now=0.2),
            CoeffBlock.build(1, 2),  # c = 0
        )
        cfg = SolverConfig(n_steps=64, horizon=1.0)
        eta = constant_initial(np.array([1.0, 2.0]), 0.0, cfg.dt)
        s = SeedSpec(7)
        w = sample_wiener(64, 1.0, 2, s.child(0))
        z = sample_fbm(FbmParams(0.75, 64, 1.0), s.child(1))
        mixed = euler_mixed_sdde(spec, eta, w, z, cfg)
        ito = euler_ito_sdde(
            coefficient_evaluator(spec, "a"), coefficient_evaluator(spec, "b"),
            eta, w, cfg,
        )
        np.testing.assert_array_equal(mixed.values, ito.values)

    def test_adaptedness_guard_trips_on_future_reads(self):
        cfg = SolverConfig(n_steps=16, horizon=1.0)
        w, z = drivers(16)
        guard = GuardedDriver(z)

        def leaky_drift(t, psi):
            return guard.value(t + 2 * cfg.dt)  # reads the future

        with pytest.raises(AdaptednessError):
            euler_ito_sdde(
                leaky_drift, lambda t, psi: np.zeros((1, 1)),
                constant_initial(1.0, 0.0, cfg.dt), w, cfg, guarded=(guard,),
            )

    def test_mollified_shift_closed_form_on_linear_driver(self):
        """For the unclamped deterministic driver Z(t) = t the mollifier is a
        pure 1/(2N) lag, so the solution gap of x' = x (driven by Z) has the
        closed form e (1 - exp(-1/(2N)))."""
        n = 2**12
        cfg = SolverConfig(n_steps=n, horizon=1.0)
        eta = constant_initial(1.0, 0.0, cfg.dt)
        spec = geometric_spec(0.0, 0.0, 1.0)
        w = GridPath(0.0, cfg.dt, np.zeros(n + 1))
        z = GridPath(0.0, cfg.dt, np.linspace(0, 1, n + 1))
        mixed = euler_mixed_sdde(spec, eta, w, z, cfg)
        for level in (8, 16, 32):
            drift = MollifiedDrift(spec, z, level)
            ito = euler_ito_sdde(
                drift, coefficient_evaluator(spec, "b"), eta, w, cfg,
                guarded=(drift.guard,),
            )
            gap = np.max(np.abs(ito.values - mixed.values))
            exact = np.e * (1.0 - np.exp(-0.5 / level))
            assert gap == pytest.approx(exact, rel=0.02)
            assert gap <= np.e / (2 * level)

    def test_mollified_drift_converges_to_mixed_solution(self):
        """The auxiliary Ito equation with drift a + c dZ^N/dt approaches the
        mixed solve as the mollifier level grows (coupled paths)."""
        spec = geometric_spec(0.5, 0.4, 0.3)
        cfg = SolverConfig(n_steps=2**10, horizon=1.0)
        eta = constant_initial(1.0, 0.0, cfg.dt)
        gaps = {4: [], 16: [], 64: []}
        for rep in range(20):
            w, z = drivers(cfg.n_steps, seed=77, stream=rep)
            mixed = euler_mixed_sdde(spec, eta, w, z, cfg)
            for level in gaps:
                drift = MollifiedDrift(spec, z, level)
                ito = euler_ito_sdde(
                    drift, coefficient_evaluator(spec, "b"), eta, w, cfg,
                    guarded=(drift.guard,),
                )
                gaps[level].append(np.max(np.abs(ito.values - mixed.values)))
        means = [np.mean(gaps[level]) for level in (4, 16, 64)]
        assert means[0] > means[1] > means[2]


def test_deterministic_euler_error_band():
    """b = c = 0, a = 1 is the classical Euler scheme for x' = x: the global
    error at T = 1 sits inside [1/2, 2] times e/(2n)."""
    spec = geometric_spec(1.0, 0.0, 0.0)
    for k in (6, 8, 10):
        n = 2**k
        cfg = SolverConfig(n_steps=n, horizon=1.0)
        w = GridPath(0.0, cfg.dt, np.zeros(n + 1))
        z = GridPath(0.0, cfg.dt, np.zeros(n + 1))
        x = euler_mixed_sdde(spec, constant_initial(1.0, 0.0, cfg.dt), w, z, cfg)
        err = np.max(np.abs(x.values[:, 0] - np.exp(x.times)))
        classical = np.e / (2 * n)
        assert 0.5 * classical <= err <= 2.0 * classical


def test_refinement_stability_against_closed_form():
    """Mean sup error vs the closed form is non-increasing in at least 5 of
    6 dyadic steps (coupled drivers)."""
    spec = geometric_spec(0.5, 0.4, 0.3)
    levels = [2**k for k in range(4, 11)]
    finest = levels[-1]
    table = np.empty((30, len(levels)))
    for rep in range(30):
        w, z = drivers(finest, seed=303, stream=rep)
        ref = geometric_closed_form(0.5, 0.4, 0.3, 1.0, w, z)
        for j, n in enumerate(levels):
            step = finest // n
            cfg = SolverConfig(n_steps=n, horizon=1.0)
            x = euler_mixed_sdde(
                spec, constant_initial(1.0, 0.0, cfg.dt),
                w.restrict(step), z.restrict(step), cfg,
            )
            table[rep, j] = np.max(np.abs(x.values - ref.restrict(step).values))
    means = table.mean(axis=0)
    drops = sum(1 for a, b in zip(means, means[1:]) if b <= a)
    assert drops >= 5
