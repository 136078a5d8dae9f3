import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sddelab import FbmParams, GridPath, SeedSpec, sample_fbm, sample_wiener, solver
from sddelab.core import (
    CoeffBlock,
    CoefficientSpec,
    InitialCondition,
    constant_initial,
    eval_coefficient,
    geometric_spec,
    pointwise_delay_spec,
    segment_at,
)
from sddelab.grid import GridError
from sddelab.solver import (
    MollifiedDrift,
    MollifierParams,
    SolverConfig,
    SolverExplosionError,
    euler_ito_sdde,
    euler_mixed_sdde,
    geometric_closed_form,
    _clamp,
    _history_values,
    mollify_driver,
)

from helpers import (
    AdaptednessError,
    GuardedDriver,
    GuardedMollifiedDrift,
    callable_ito,
    coefficient,
    mollified_ito_oracle,
    nesting_history_values,
    oracle_mollify_driver,
    oracle_zdot,
    window_spec,
)


def drivers(n, horizon=1.0, seed=0, stream=0, hurst=0.75):
    s = SeedSpec(seed, stream)
    w = sample_wiener(n, horizon, 1, s.child(0))
    z = sample_fbm(FbmParams(hurst, n, horizon), s.child(1))
    return w, z


class TestSolverConfig:
    def test_delay_must_be_grid_multiple(self):
        """The look-back window is the history's length, a whole number of steps."""
        cfg = SolverConfig(n_steps=10, horizon=1.0)
        assert constant_initial(1.0, 0.2, 0.05).steps(cfg.dt) == 2
        w, z = drivers(10)
        with pytest.raises(GridError, match=r"^delay 0\.15 does not land on the grid"):
            euler_mixed_sdde(geometric_spec(0.5, 0.4, 0.3), constant_initial(1.0, 0.15, 0.05),
                             w, z, cfg)

    @pytest.mark.parametrize("kwargs", [
        dict(n_steps=0, horizon=1.0),
        dict(n_steps=4, horizon=-1.0),
        dict(n_steps=4, horizon=0.0),
        dict(n_steps=4, horizon=float("nan")),
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
        cfg = SolverConfig(n_steps=32, horizon=1.0)
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

    def test_a_scalar_state_past_1e154_is_measured_as_its_magnitude(self):
        """sqrt(x^2) overflows past 1.3e154; the trust region reads |x|, so a
        path that peaks at (1 + 1e4/128)^128 ~ 9.64e242 is inside 1e300."""
        cfg = SolverConfig(n_steps=128, horizon=1.0, explosion_threshold=1e300)
        zero = GridPath(0.0, cfg.dt, np.zeros(129))
        x = euler_mixed_sdde(geometric_spec(1e4, 0.0, 0.0), constant_initial(1.0, 0.0, 1.0),
                             zero, zero, cfg)
        assert x.values[-1, 0] == pytest.approx((1 + 1e4 / 128) ** 128, rel=1e-12)

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
    cfg = SolverConfig(n_steps=64, horizon=1.0)
    eta = constant_initial(1.0, 0.5, cfg.dt)
    w, z = drivers(64)
    with pytest.raises(GridError, match="0.3 does not land on the grid"):
        if stepper == "mixed":
            euler_mixed_sdde(spec, eta, w, z, cfg)
        elif stepper == "compiled_ito":
            euler_ito_sdde(spec, eta, w, z, cfg, 8)
        else:  # the oracle loop reads the tap through eval_coefficient
            callable_ito(coefficient(spec, "a"), coefficient(spec, "b"), eta, w, cfg)


def _short_z(z):
    return GridPath(0.0, z.dt, z.values[: z.n_points // 2 + 1])


def _shifted_z(z):
    return GridPath(0.5, z.dt, z.values[: z.n_points // 2 + 1])


def _wide_z(z):
    return GridPath(0.0, z.dt, np.hstack([z.values, z.values]))


def _off_grid_z(z):
    return drivers(100)[1]


@pytest.mark.parametrize("scheme", ["mixed", "ito"])
@pytest.mark.parametrize("make_z, message", [
    pytest.param(_short_z, r"Z covers \[0, 0\.5\], expected \[0, 1\.0\]", id="short"),
    pytest.param(_shifted_z, r"Z must start at time 0, starts at 0\.5", id="shifted"),
    pytest.param(_wide_z, r"Z has dimension 2, expected 1", id="wide"),
    pytest.param(_off_grid_z, r"Z grid \(dt=0\.01\) is not a refinement of the step 0\.015625",
                 id="off_grid"),
])
def test_rough_driver_must_cover_the_horizon_in_every_scheme(scheme, make_z, message):
    """Both schemes refuse a Z that ends early, starts late, has the wrong
    dimension or a grid that does not refine the solver grid, with the same
    message; read past its end, Z would be taken as constant."""
    spec = geometric_spec(0.5, 0.4, 0.3)
    cfg = SolverConfig(n_steps=64, horizon=1.0)
    eta = constant_initial(1.0, 0.0, cfg.dt)
    w, z = drivers(64)
    with pytest.raises(GridError, match=message):
        if scheme == "mixed":
            euler_mixed_sdde(spec, eta, w, make_z(z), cfg)
        else:
            euler_ito_sdde(spec, eta, w, make_z(z), cfg, 4)


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

    def test_drivers_on_two_grids_rejected(self):
        w, _ = drivers(32)
        _, z = drivers(64)
        with pytest.raises(GridError, match="^W and Z must live on a common grid$"):
            geometric_closed_form(0.5, 0.4, 0.3, 1.0, w, z)

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

    def test_clamp_saturates_a_scalar_past_1e154(self):
        values = np.array([[1e200], [-1e200], [3.0]])
        np.testing.assert_array_equal(_clamp(values, 4.0), [[4.0], [-4.0], [3.0]])

    def test_clamp_saturates_a_vector_past_1e154(self):
        """The norm of a d > 1 node past 1.3e154 squares past the float range;
        the clamp still scales it to the level."""
        values = np.array([[1e200, 0.0], [0.0, -3e250], [3e-200, 4e-200]])
        np.testing.assert_array_equal(_clamp(values, 4.0), [[4.0, 0.0], [0.0, -4.0],
                                                            [3e-200, 4e-200]])

    def test_driver_must_start_at_time_0(self):
        with pytest.raises(GridError, match="^driver must start at time 0$"):
            mollify_driver(GridPath(0.5, 1 / 64, np.zeros(65)), 4)

    def test_a_replica_block_is_refused_naming_its_shape(self):
        with pytest.raises(GridError, match=r"^mollify_driver takes one path, got a block "
                                            r"of shape \(3, 65, 1\)$"):
            mollify_driver(GridPath(0.0, 1 / 64, np.zeros((3, 65, 1))), 4)

    def test_single_path_output_keeps_its_bits(self):
        rng = np.random.default_rng(7)
        z = GridPath(0.0, 1 / 256, rng.standard_normal((257, 2)).cumsum(axis=0) / 16)
        digest = hashlib.sha256(mollify_driver(z, 16).values.tobytes()).hexdigest()
        assert digest == "e508d158c2ea09492df4f5b0b416310cc2f8ec427d27a48dd73b3d5bb543283c"

    def test_grid_too_coarse_rejected(self):
        z = GridPath(0.0, 1 / 8, np.zeros(9))
        with pytest.raises(GridError, match=r"grid step 0\.125 too coarse for mollifier "
                                            r"level 16: need dt <= 0\.015625$"):
            mollify_driver(z, 16)
        # a quarter window is the coarsest grid admitted
        assert mollify_driver(GridPath(0.0, 1 / 64, np.zeros(65)), 16).n_points == 65

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**6), st.floats(1e-9, 1.0))
    def test_mesh_rule_is_dt_at_most_one_over_four_n(self, level, dt):
        """The rule both the solver and the experiment check ask."""
        assert MollifierParams(level).resolves(dt) == (dt <= 1.0 / (4.0 * level))

    def test_output_lipschitz_constant_bound(self):
        # clamped values are bounded by N over a window of width 1/N
        from sddelab import holder_seminorm

        z = sample_fbm(FbmParams(0.75, 2**10, 1.0), SeedSpec(201, 0))
        for level in (2, 8):
            zn = mollify_driver(GridPath(0.0, z.dt, 4.0 * z.values), level)
            assert holder_seminorm(zn, 1.0) <= 2.0 * level**2 * (1 + 1e-9)

    @pytest.mark.parametrize("n, start", [
        *(pytest.param(n, 0.0, id=str(n)) for n in (64, 100, 128, 200)),
        pytest.param(128, 2.0, id="128-from2"),
        pytest.param(100, 10.0, id="100-from10"),
    ])
    @pytest.mark.parametrize("level", [3, 5, 6, 7])
    def test_zdot_is_the_derivative_of_the_mollified_driver(self, n, level, start):
        """Each cell increment of Z^N is the integral of dZ^N/dt over the cell,
        also where the clamp binds between nodes: a random walk from ``start``
        that moves up to 3N away from it, read through windows 1/N that mostly
        fall off the grid.  Before time 0 the window reads h(0), so Z^N(0) is
        the clamped start, which the clamp cuts to N from 10."""
        rng = np.random.default_rng(700 + 10 * n + level)
        walk = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n))])
        z = GridPath(0.0, 1.0 / n, start + walk * (3.0 * level / np.abs(walk).max()))
        zn = mollify_driver(z, level).values[:, 0]
        assert zn[0] == pytest.approx(min(start, level), abs=1e-12)
        increments = np.diff(zn)
        points = 400  # midpoint rule in every cell
        times = z.dt * (np.arange(n * points) + 0.5) / points
        zdot = MollifiedDrift(geometric_spec(0.0, 0.0, 1.0), z, level).zdot(times)
        integrals = zdot[:, 0].reshape(n, points).sum(axis=1) * (z.dt / points)
        np.testing.assert_allclose(integrals, increments, rtol=0, atol=1e-5)

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
        y = callable_ito(
            lambda t, psi: np.zeros(1), lambda t, psi: np.zeros((1, 1)),
            constant_initial(3.0, 0.0, cfg.dt), w, cfg,
        )
        np.testing.assert_array_equal(y.values, 3.0)

    def test_unit_drift_is_time(self):
        cfg = SolverConfig(n_steps=32, horizon=1.0)
        w, _ = drivers(32)
        y = callable_ito(
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
        ito = callable_ito(coefficient(spec, "a"), coefficient(spec, "b"), eta, w, cfg)
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
        ito = callable_ito(coefficient(spec, "a"), coefficient(spec, "b"), eta, w, cfg)
        np.testing.assert_array_equal(mixed.values, ito.values)

    @pytest.mark.parametrize("level", [4, 32])
    @pytest.mark.parametrize("case", ["scalar", "vector", "pointwise_delay"])
    def test_compiled_reduction_is_bit_identical(self, case, level):
        """With c = 0 the mollified Ito solve equals the mixed solve bit for
        bit, at every level."""
        delay = 0.5 if case == "pointwise_delay" else 0.0
        cfg = SolverConfig(n_steps=128, horizon=1.0)
        if case == "vector":
            spec = CoefficientSpec(
                "no_delay", 2, 2, 1,
                CoeffBlock.build(1, 2, gain_now=0.3),
                CoeffBlock.build(2, 2, gain_now=0.2),
                CoeffBlock.build(1, 2),  # c = 0
            )
            eta = constant_initial(np.array([1.0, 2.0]), 0.0, cfg.dt)
            w = sample_wiener(128, 1.0, 2, SeedSpec(7).child(0))
            z = sample_fbm(FbmParams(0.75, 128, 1.0), SeedSpec(7).child(1))
        else:
            spec = (geometric_spec(0.5, 0.4, 0.0) if case == "scalar"
                    else pointwise_delay_spec(0.3, 0.3, 0.1, 0.2, 0.0, 0.0, tau=0.25))
            eta = constant_initial(1.0, delay, cfg.dt)
            w, z = drivers(128, seed=6)
        mixed = euler_mixed_sdde(spec, eta, w, z, cfg)
        ito = euler_ito_sdde(spec, eta, w, z, cfg, level)
        assert np.array_equal(mixed.values, ito.values)

    def test_mesh_rule_is_checked_for_every_level(self):
        """The solver grid must resolve every level: dt <= 1 / (4 level)."""
        spec = geometric_spec(0.5, 0.4, 0.3)
        eta = constant_initial(1.0, 0.0, 1 / 256)
        w, z = drivers(256)
        coarse = SolverConfig(n_steps=128, horizon=1.0)
        with pytest.raises(GridError, match=r"^mesh dt=0\.0078125 too coarse for "
                                            r"mollifier level 64$"):
            euler_ito_sdde(spec, eta, w, z, coarse, [4, 64])
        fine = SolverConfig(n_steps=256, horizon=1.0)  # exactly a quarter window
        assert len(euler_ito_sdde(spec, eta, w, z, fine, [4, 64])) == 2

    def test_mollified_drift_is_a_plus_c_zdot_at_any_time(self):
        """A fresh MollifiedDrift evaluates ``a + c dZ^N/dt`` at any (t, psi)
        it is given, and its zdot agrees with the guarded oracle's."""
        spec = pointwise_delay_spec(0.3, 0.3, 0.1, 0.2, 0.2, -0.1, tau=0.25)
        _, z = drivers(64, seed=4)
        x = GridPath(-0.5, z.dt, np.linspace(0.5, 2.0, 97))
        oracle = GuardedMollifiedDrift(spec, z, 4)
        for t in (0.0, 0.25, 0.5, 1.0):
            psi = segment_at(x, t, 0.5)
            drift = MollifiedDrift(spec, z, 4)
            zdot = drift.zdot(t)
            a, c = (eval_coefficient(spec, which, t, psi) for which in "ac")
            np.testing.assert_array_equal(drift(t, psi), a + (c * zdot).sum(axis=-1))
            oracle.guard.advance(t)
            np.testing.assert_array_equal(zdot, oracle.zdot(t))
        times = z.dt * np.arange(64)
        table = MollifiedDrift(spec, z, 4).zdot(times)
        assert table.shape == (64, 1)
        for k in (0, 7, 63):
            np.testing.assert_array_equal(table[k], MollifiedDrift(spec, z, 4).zdot(times[k]))

    def test_adaptedness_guard_trips_on_future_reads(self):
        cfg = SolverConfig(n_steps=16, horizon=1.0)
        w, z = drivers(16)
        guard = GuardedDriver(z)

        def leaky_drift(t, psi):
            return guard.value(t + 2 * cfg.dt)  # reads the future

        with pytest.raises(AdaptednessError):
            callable_ito(
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
            ito = euler_ito_sdde(spec, eta, w, z, cfg, level)
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
                ito = euler_ito_sdde(spec, eta, w, z, cfg, level)
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


def test_ito_tabulates_zdot_from_a_finer_driver_on_its_own_grid():
    """A Z on a grid that refines the solver grid is not restricted first:
    dZ^N/dt reads it on its own grid, as the guarded oracle does."""
    spec = pointwise_delay_spec(0.3, 0.3, 0.1, 0.2, 0.0, 0.2, tau=0.25)
    cfg = SolverConfig(n_steps=64, horizon=1.0)
    eta = constant_initial(1.0, 0.25, cfg.dt)
    w, z = drivers(128, seed=9)
    x = euler_ito_sdde(spec, eta, w, z, cfg, 3)  # t - 1/3 falls between the nodes
    np.testing.assert_array_equal(x.values, mollified_ito_oracle(spec, eta, w, z, cfg, 3).values)
    assert not np.array_equal(x.values, euler_ito_sdde(spec, eta, w, z.restrict(2), cfg, 3).values)


def test_row_groups_must_share_the_history_length():
    cfg = SolverConfig(n_steps=16, horizon=1.0)
    w, z = drivers(16)
    etas = [constant_initial(1.0, 0.0, cfg.dt), constant_initial(1.0, 0.25, cfg.dt)]
    with pytest.raises(GridError, match="^row groups must share the history length$"):
        euler_mixed_sdde(geometric_spec(0.5, 0.4, 0.3), etas, w, z, cfg)


@pytest.mark.parametrize("scheme", ["mixed", "ito"])
def test_first_step_reads_the_window_over_delay_span(scheme):
    """History 1.0 on [-0.5, 0] and a window of 0.25: the first step adds
    dt * 0.25 = 0.03125, dt times the closed-form growth constant, not dt
    times the integral over the whole history."""
    cfg = SolverConfig(n_steps=8, horizon=1.0)
    eta = constant_initial(1.0, 0.5, cfg.dt)
    zero = GridPath(0.0, cfg.dt, np.zeros(9))
    spec = window_spec(0.25)
    if scheme == "mixed":
        x = euler_mixed_sdde(spec, eta, zero, zero, cfg)
    else:
        x = euler_ito_sdde(spec, eta, zero, zero, cfg, 2)
    assert x.values[5, 0] == 1.03125 == 1.0 + cfg.dt * spec.growth_constant()


def test_row_groups_that_read_a_window_must_share_its_span():
    cfg = SolverConfig(n_steps=16, horizon=1.0)
    w, z = drivers(16)
    eta = constant_initial(1.0, 0.5, cfg.dt)
    with pytest.raises(GridError, match="^row groups that read a window must share its span$"):
        euler_mixed_sdde([window_spec(0.25), window_spec(0.5)], eta, w, z, cfg)
    # a group without delay gains reads no window, whatever its span
    alone = euler_mixed_sdde(window_spec(0.25), eta, w, z, cfg)
    grouped, _ = euler_mixed_sdde([window_spec(0.25), window_spec(0.5, 0.0)], eta, w, z, cfg)
    assert np.array_equal(grouped.values, alone.values)


@pytest.mark.parametrize("span, message", [
    (0.75, "window 0.75 exceeds the history length 0.5"),
    (0.1, "window 0.1 does not land on the grid"),
])
def test_window_must_land_inside_the_history(span, message):
    cfg = SolverConfig(n_steps=16, horizon=1.0)
    w, z = drivers(16)
    with pytest.raises(GridError, match=message):
        euler_mixed_sdde(window_spec(span), constant_initial(1.0, 0.5, cfg.dt), w, z, cfg)


def test_a_coarse_history_is_laid_on_the_solver_grid_between_its_nodes():
    """History step 1/8, solver step 1/32: every history node keeps its value
    and the solver nodes between them interpolate linearly."""
    eta = InitialCondition(GridPath(-0.5, 0.125, np.array([0.0, 1.0, 3.0, 2.0, -1.0])), 0.45)
    cfg = SolverConfig(n_steps=32, horizon=1.0)
    w, z = drivers(32)
    spec = pointwise_delay_spec(0.3, 0.3, 0.0, 0.2, 0.2, 0.0, tau=0.5)
    x = euler_mixed_sdde(spec, eta, w, z, cfg)
    history = x.values[:17, 0]
    assert x.t0 == -0.5 and x.dt == cfg.dt
    assert np.array_equal(history[::4], eta.eta.values[:, 0])
    assert np.array_equal(history[2::4], [0.5, 2.0, 2.5, 0.5])
    assert np.array_equal(history[1:4], [0.25, 0.5, 0.75])


@settings(max_examples=300, deadline=None)
@given(
    r=st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0]),
    n=st.integers(1, 100),
    q=st.integers(1, 400),
    d=st.integers(1, 3),
    constant=st.sampled_from([None, 0.0, -0.0, 1.0, -2.5]),
    m=st.integers(2, 4),
    seed=st.integers(0, 2**16),
)
def test_any_history_is_read_through_its_linear_interpolant(r, n, q, d, constant, m, seed):
    """The history of n steps on a solver grid of q steps over [-r, 0].

    Where the nesting rule it replaced reads the history, the interpolant
    gives the same bits.  On any other grid every history node that lands on
    the grid keeps its value, and the nodes between read ``np.interp``.  A
    grid and its m-fold refinement read the same values at their shared nodes.
    """
    rng = np.random.default_rng(seed)
    if constant is None:
        values = rng.standard_normal((n + 1, d))
        values[rng.random((n + 1, d)) < 0.2] = -0.0
    else:
        values = np.full((n + 1, d), constant)
    eta = InitialCondition(GridPath(-r, r / n, values), 0.45)
    assert eta.steps(r / q) == q
    new = _history_values(eta, q)
    assert new.shape == (q + 1, d)
    try:
        old = nesting_history_values(eta, r / q, q)
    except GridError:
        old = None
    if old is not None:
        assert np.array_equal(new, old)
        signs = np.signbit(new) == np.signbit(old)
        # The one change: the old rule laid a constant history on a grid that
        # does not nest with its step as copies of its last node, so a -0.0
        # there stayed -0.0; the interpolant's arithmetic reads +0.0 between
        # nodes (as it always did on nesting grids).
        assert signs.all() or (q % n and n % q and not old.any())
    else:
        j, k = np.divmod(np.arange(q + 1) * n, q)
        assert np.array_equal(new[k == 0], values[j[k == 0]])
        x = np.arange(q + 1) * n / q
        for c in range(d):
            np.testing.assert_allclose(new[:, c], np.interp(x, np.arange(n + 1), values[:, c]),
                                       rtol=0, atol=1e-12)
    fine = _history_values(eta, m * q)[::m]
    assert np.array_equal(fine, new) and np.array_equal(np.signbit(fine), np.signbit(new))


# --------------------------------------------------------------------------
# the mollified driver against the rules it had before MollifiedDrift.zdot
# became the one definition of dZ^N/dt


@settings(max_examples=80, deadline=None)
@given(
    level=st.integers(1, 100),
    fine=st.integers(1, 3),
    extra=st.integers(0, 40),
    reps=st.sampled_from([None, 1, 3]),
    channels=st.integers(1, 2),
    start=st.sampled_from([0.0, 0.5, -3.0, 250.0]),
    seed=st.integers(0, 2**16),
)
def test_zdot_and_the_ito_column_carry_the_bits_of_the_oracle(level, fine, extra, reps,
                                                               channels, start, seed):
    """``MollifiedDrift.zdot`` at the step times, at random times and at one
    time, and the third column the Ito stepper fills a chunk of steps at a
    time, equal the oracle's dZ^N/dt bit for bit: levels 1 to 100, a driver on
    the solver grid or up to three times finer, single paths and replica
    blocks, drivers that start off zero and move past the clamp."""
    rng = np.random.default_rng(seed)
    n = 4 * level + extra
    cfg = SolverConfig(n_steps=n, horizon=1.0)
    lead = () if reps is None else (reps,)
    walk = np.cumsum(rng.standard_normal(lead + (fine * n + 1, channels)), axis=-2)
    walk -= walk[..., :1, :]
    z = GridPath(0.0, cfg.dt / fine, start + walk * (3.0 * level / np.abs(walk).max(initial=1.0)))
    params, times = MollifierParams(level), cfg.dt * np.arange(n)
    zero = CoeffBlock.build(1, 1)
    spec = CoefficientSpec("no_delay", 1, 1, channels, zero, zero, CoeffBlock.build(channels, 1))
    drift = MollifiedDrift(spec, z, level)
    for t in (times, rng.uniform(0.0, 1.0, 17), float(rng.uniform(0.0, 1.0))):
        assert np.array_equal(drift.zdot(t), oracle_zdot(z, params, t))
    w = GridPath(0.0, cfg.dt, np.zeros(lead + (n + 1, 1)))
    filled, solve = [], solver._solve

    def spy(specs, etas, cfg, w, thirds, ito):  # each chunk's step times and column
        (third,) = thirds
        return solve(specs, etas, cfg, w, [lambda t: filled.append((t, third(t))) or
                                           filled[-1][1]], ito)

    with mock.patch.object(solver, "_solve", spy):
        euler_ito_sdde(spec, constant_initial(1.0, 0.0, cfg.dt), w, z, cfg, level)
    chunks, columns = zip(*filled)
    assert len(chunks) == -(-n // solver._STEPS)
    assert np.array_equal(np.concatenate(chunks), times)
    third = np.concatenate([solver._step_major(column) for column in columns])
    expected = oracle_zdot(z, params, times).reshape(-1, n, channels).transpose(1, 2, 0)
    assert np.array_equal(third, expected)


# |Z^N - oracle| <= MOLLIFY_BAND * N * max|clamp_N Z| on every node.  4000
# random draws of the test's inputs read at most 4.2e-16 (and kept the bits of
# 56% of the values): the band is about 10 times that.
MOLLIFY_BAND = 4e-15


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    level=st.integers(3, 100),
    fine=st.integers(1, 4),
    extra=st.integers(0, 30),
    dim=st.integers(1, 2),
    scale=st.sampled_from([1.0, 20.0, 400.0]),
    start=st.sampled_from([0.0, 0.7, -2.5]),
)
def test_mollify_driver_agrees_with_its_oracle_within_the_band(seed, level, fine, extra, dim,
                                                               scale, start):
    """Z^N of scaled fBm paths that start off zero, at levels 3 to 100, on
    grids of the coarsest resolving step or finer: within the band of the
    oracle, which integrates its own interpolant of the window's first cell.
    A start off zero makes the window's part before time 0 count."""
    params = FbmParams(0.75, fine * 4 * level + extra, 1.0, "davies_harte")
    paths = sample_fbm(params, [SeedSpec(seed, k) for k in range(dim)]).values[..., 0].T
    z = GridPath(0.0, 1.0 / level / 4.0 / fine, start + scale * paths)
    got, want = mollify_driver(z, level).values, oracle_mollify_driver(z, level).values
    bound = MOLLIFY_BAND * level * np.abs(_clamp(z.values, float(level))).max()
    assert np.abs(got - want).max() <= bound


def _plane_spec(gain: float) -> CoefficientSpec:
    """d = 2 with drift ``gain x`` and no noise terms."""
    zero = CoeffBlock.build(1, 2)
    return CoefficientSpec("no_delay", 2, 1, 1, CoeffBlock.build(1, 2, gain_now=gain), zero, zero)


def test_a_vector_state_past_1e154_stays_inside_a_wide_trust_region():
    """|x| of a d = 2 state near 1.4e200 is finite, so a trust region of
    1e300 holds the path; past a region of 1e200 the explosion reports the
    finite magnitude."""
    cfg = SolverConfig(n_steps=8, horizon=1.0, explosion_threshold=1e300)
    eta = constant_initial(np.array([1e200, -1e200]), 0.0, cfg.dt)
    w, z = drivers(8)
    x = euler_mixed_sdde(_plane_spec(0.5), eta, w, z, cfg)
    assert x.values[-1, 0] == -x.values[-1, 1] > 1e200 and np.isfinite(x.values).all()
    narrow = SolverConfig(n_steps=8, horizon=1.0, explosion_threshold=1.5e200)
    with pytest.raises(SolverExplosionError) as err:
        euler_mixed_sdde(_plane_spec(0.5), eta, w, z, narrow)
    assert err.value.time > 0.0
    assert 1.5e200 < err.value.magnitude == pytest.approx(
        np.hypot(*x.values[round(err.value.time / cfg.dt)]), rel=1e-15)


def test_row_groups_must_share_dimensions_and_the_kind_of_delay_read():
    cfg = SolverConfig(n_steps=16, horizon=1.0)
    w, z = drivers(16)
    eta = constant_initial(1.0, 0.5, cfg.dt)
    zero = CoeffBlock.build(1, 1)
    two_rough = CoefficientSpec("no_delay", 1, 1, 2, zero, zero, CoeffBlock.build(2, 1))
    with pytest.raises(GridError, match="^row groups must share the state and driver "
                                        "dimensions$"):
        euler_mixed_sdde([geometric_spec(0.5, 0.4, 0.3), two_rough], eta, w, z, cfg)
    tap = pointwise_delay_spec(0.3, 0.3, 0.1, 0.2, 0.0, 0.0, tau=0.25)
    with pytest.raises(GridError, match="^row groups must share the kind of delay read$"):
        euler_mixed_sdde([tap, window_spec(0.25)], eta, w, z, cfg)


# --------------------------------------------------------------------------
# exact relations of the Euler step.  The drivers are random walks drawn here,
# not sampled fBm, so these tests read no sampler bits.


def _walks(rng, reps: int, n: int, channels: int, scale: float) -> np.ndarray:
    """``(reps, n + 1, channels)`` random walks from 0 with steps of sd ``scale``."""
    steps = rng.standard_normal((reps, n, channels)) * scale
    return np.concatenate([np.zeros((reps, 1, channels)), np.cumsum(steps, axis=1)], axis=1)


def test_the_constant_family_is_its_drivers_added_up():
    """With coefficients that do not depend on the state, Euler is exact: the
    path of the ``constant`` family with d = 3, 2 Wiener and 3 Holder channels
    is ``x0 + a t + B W(t) + C Z(t)`` on every replica.  Over 20 seeds of this
    set-up the two differed by at most 9.9e-14 on values up to 6.8; the bound
    is 1e-12.  A Holder channel dropped from the step, or its increments read
    from the next channel, misses it by far more."""
    d, m, l, n, reps = 3, 2, 3, 512, 7
    cfg = SolverConfig(n_steps=n, horizon=1.0)
    rng = np.random.default_rng(0)
    a, b, c, x0 = (rng.normal(size=shape) for shape in (d, (m, d), (l, d), d))
    spec = CoefficientSpec("constant", d, m, l, CoeffBlock.build(1, d, const=a[None]),
                           CoeffBlock.build(m, d, const=b), CoeffBlock.build(l, d, const=c))
    w, z = _walks(rng, reps, n, m, cfg.dt**0.5), _walks(rng, reps, n, l, cfg.dt**0.75)
    x = euler_mixed_sdde(spec, constant_initial(x0, 0.0, cfg.dt), GridPath(0.0, cfg.dt, w),
                         GridPath(0.0, cfg.dt, z), cfg)
    exact = x0 + (cfg.dt * np.arange(n + 1))[:, None] * a + w @ b + z @ c
    assert x.values.shape == (reps, n + 1, d)
    np.testing.assert_allclose(x.values, exact, rtol=0.0, atol=1e-12)


def _affine_block(rng, channels: int, d: int) -> CoeffBlock:
    return CoeffBlock.build(channels, d, *(0.3 * rng.normal(size=shape) for shape in
                                           ((channels, d, d), (channels, d, d), (channels, d))))


@pytest.mark.parametrize("ito", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
def test_a_split_or_a_zero_gain_holder_channel_leaves_the_path(ito, seed):
    """A ``linear`` tap spec with d = 2, 2 Wiener and 2 Holder channels.
    Splitting the last Holder channel's gains into two halves on a repeated
    path, or adding a channel of zero gains on a path of its own, leaves the
    path unchanged to rounding, in both schemes.  Over 20 seeds the split
    moved it by at most 5.8e-15 on values up to 7.6 and the zero channel not
    at all; the bound is 1e-13.  The Ito scheme clamps |Z| over all channels
    at the level, so every |Z| here stays below it."""
    d, m, l, n, reps, q, level = 2, 2, 2, 256, 5, 64, 16
    cfg = SolverConfig(n_steps=n, horizon=1.0)
    rng = np.random.default_rng(seed)
    drift, diffusion, zdrive = (_affine_block(rng, k, d) for k in (1, m, l))
    eta = InitialCondition(GridPath(-q * cfg.dt, cfg.dt, rng.normal(size=(q + 1, d))), 0.45)
    w = GridPath(0.0, cfg.dt, _walks(rng, reps, n, m, cfg.dt**0.5))
    z = _walks(rng, reps, n, l, cfg.dt**0.75)

    def widened(tail):  # zdrive's first l - 1 channels, then two made by tail from its last
        return CoeffBlock.build(l + 1, d, *(
            np.concatenate([part[:-1], *tail(part[-1:])])
            for part in (zdrive.gain_now, zdrive.gain_delay, zdrive.const)))

    half = widened(lambda last: (last / 2, last / 2))
    zero = widened(lambda last: (last, 0 * last))

    def solve(block, z_nodes):
        assert np.linalg.norm(z_nodes, axis=-1).max() < level
        spec = CoefficientSpec("linear", d, m, block.channels, drift, diffusion, block, tau=0.25)
        z_path = GridPath(0.0, cfg.dt, z_nodes)
        if ito:
            return euler_ito_sdde(spec, eta, w, z_path, cfg, level).values
        return euler_mixed_sdde(spec, eta, w, z_path, cfg).values

    base = solve(zdrive, z)
    split = solve(half, np.concatenate([z, z[..., -1:]], axis=-1))
    extra = solve(zero, np.concatenate([z, _walks(rng, reps, n, 1, cfg.dt**0.75)], axis=-1))
    np.testing.assert_allclose(split, base, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(extra, base, rtol=0.0, atol=1e-13)


def _time_scaled_paths(seed: int, lam: float, c_power: float) -> tuple:
    """A ``linear`` tap spec with d = 2, 2 Wiener and 2 Holder channels, solved
    by the mixed scheme on [0, 1] and on [0, lam] with the same number of
    steps.  The long solve stretches the tap and the history by lam, scales W
    by sqrt(lam) and Z by lam^H, and the gains and constants of a, b and c by
    1 / lam, lam^(-1/2) and lam^(-c_power).  Returns both paths' values."""
    d, m, l, n, reps, q, hurst = 2, 2, 2, 256, 5, 64, 0.75
    rng = np.random.default_rng(seed)
    drift, diffusion, zdrive = (_affine_block(rng, k, d) for k in (1, m, l))
    history = rng.normal(size=(q + 1, d))
    short = SolverConfig(n_steps=n, horizon=1.0)
    w, z = _walks(rng, reps, n, m, short.dt**0.5), _walks(rng, reps, n, l, short.dt**hurst)

    def solve(s: float, c_power: float) -> np.ndarray:
        cfg = SolverConfig(n_steps=n, horizon=s)
        blocks = [CoeffBlock.build(b.channels, d, *(part * s**-power for part in
                                                    (b.gain_now, b.gain_delay, b.const)))
                  for b, power in ((drift, 1.0), (diffusion, 0.5), (zdrive, c_power))]
        spec = CoefficientSpec("linear", d, m, l, *blocks, tau=0.25 * s)
        eta = InitialCondition(GridPath(-q * cfg.dt, cfg.dt, history), 0.45)
        return euler_mixed_sdde(spec, eta, GridPath(0.0, cfg.dt, s**0.5 * w),
                                GridPath(0.0, cfg.dt, s**hurst * z), cfg).values

    return solve(1.0, c_power), solve(lam, c_power)


@pytest.mark.parametrize("seed", [0, 1])
def test_a_solve_on_a_stretched_time_axis_is_the_same_path(seed):
    """Time scaling: on [0, 4] with the tap, the history, W, Z and the gains of
    a, b and c scaled by 4, 2, 2, 4^H and 1/4, 1/2, 4^-H, the mixed scheme
    reproduces the solve on [0, 1] node for node.  Over 20 seeds the two
    differed by at most 7.1e-15 on values up to 7.6; the bound is 1e-13.
    Scaling c by 4^(-1/2), the Wiener exponent, fails the bound: over the
    same seeds it missed by 0.096 at least."""
    short, long = _time_scaled_paths(seed, 4.0, 0.75)
    assert short.shape == long.shape == (5, 64 + 256 + 1, 2)
    np.testing.assert_allclose(long, short, rtol=0.0, atol=1e-13)
    short, wrong = _time_scaled_paths(seed, 4.0, 0.5)
    assert np.abs(wrong - short).max() > 1e-13
