"""Differential tests of the compiled block stepper.

The two per-replica mixed-scheme loops that the stepper replaced are kept
here as oracles: ``old_scalar_path`` (plain-float arithmetic for scalar
specs) and ``old_generic_path`` (per-step ``eval_coefficient`` on a segment
view).  Scalar specs must agree bit for bit; vector and distributed-delay
specs within a stated tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sddelab import FbmParams, GridPath, SeedSpec, sample_fbm, sample_wiener
from sddelab.core import (
    CoeffBlock,
    CoefficientSpec,
    InitialCondition,
    constant_initial,
    eval_coefficient,
    geometric_spec,
    pointwise_delay_spec,
)
from sddelab.grid import GridError, stack_replicas
from sddelab.solver import (
    MollifiedDrift,
    SolverConfig,
    SolverExplosionError,
    coefficient_evaluator,
    euler_ito_sdde,
    euler_mixed_sdde,
)

# Vector and distributed-delay specs sum several products per coefficient.
# The stepper adds them in component order and keeps a running window sum;
# the oracle's ``@`` and ``np.trapezoid`` may round those sums differently.
VECTOR_RTOL = 1e-12


class _View:
    """Segment over a solution buffer, reading the node nearest ``u``."""

    def __init__(self, buf, anchor, lookback, dt):
        self.buf, self.anchor, self.lookback, self.dt = buf, anchor, lookback, dt

    @property
    def values(self):
        return self.buf[self.anchor - self.lookback : self.anchor + 1]

    def value_at(self, u):
        return self.buf[self.anchor + round(u / self.dt)]


def _arrays(spec, eta, w, z, cfg):
    hist = eta.eta.values[-(cfg.delay_steps + 1):].copy()
    q_tau = round(spec.tau / cfg.dt) if spec.family in ("linear", "pointwise_delay") else 0
    return hist, np.diff(w.values, axis=0), np.diff(z.values, axis=0), q_tau


def old_scalar_path(spec, eta, w, z, cfg):
    hist, dw, dz, q_tau = _arrays(spec, eta, w, z, cfg)
    n, q, dt = cfg.n_steps, cfg.delay_steps, cfg.dt
    col = np.empty(q + n + 1)
    col[: q + 1] = hist[:, 0]
    gains = [
        (b.gain_now[0, 0, 0], b.gain_delay[0, 0, 0], b.const[0, 0], b.time_modulation == "sin")
        for b in (spec.drift, spec.diffusion, spec.zdrive)
    ]
    for k in range(n):
        i = q + k
        t = k * dt
        x, xd = col[i], col[i - q_tau]
        a, b, c = (
            (gn * x + gd * xd + cst) * (math.sin(t) if sin else 1.0)
            for gn, gd, cst, sin in gains
        )
        col[i + 1] = x + a * dt + b * dw[k, 0] + c * dz[k, 0]
    return col[:, None]


def old_generic_path(spec, eta, w, z, cfg):
    hist, dw, dz, _ = _arrays(spec, eta, w, z, cfg)
    n, q, dt = cfg.n_steps, cfg.delay_steps, cfg.dt
    buf = np.empty((q + n + 1, spec.dim))
    buf[: q + 1] = hist
    for k in range(n):
        i = q + k
        psi = _View(buf, i, q, dt)
        a, b, c = (eval_coefficient(spec, which, k * dt, psi) for which in "abc")
        buf[i + 1] = buf[i] + a * dt + b @ dw[k] + c @ dz[k]
    return buf


def drivers(cfg, spec, stream, seed=11):
    s = SeedSpec(seed, stream)
    w = sample_wiener(cfg.n_steps, cfg.horizon, spec.n_wiener, s.child(0))
    zs = [
        sample_fbm(FbmParams(0.75, cfg.n_steps, cfg.horizon), s.child(1).child(j))
        for j in range(spec.n_holder)
    ]
    z = GridPath(0.0, zs[0].dt, np.column_stack([p.values[:, 0] for p in zs]))
    return w, z


def sin_delay_spec():
    return CoefficientSpec(
        "pointwise_delay", 1, 1, 1,
        CoeffBlock.build(1, 1, gain_now=0.3, gain_delay=-0.2, const=0.1, time_modulation="sin"),
        CoeffBlock.build(1, 1, gain_now=0.1, gain_delay=0.2, time_modulation="sin"),
        CoeffBlock.build(1, 1, gain_now=0.2, const=0.05, time_modulation="sin"),
        tau=0.25,
    )


SCALAR_CASES = {
    "no_delay": (geometric_spec(0.5, 0.4, 0.3), constant_initial(1.0, 0.0, 1 / 256), 0.0),
    "pointwise_delay": (
        pointwise_delay_spec(0.3, 0.3, 0.0, 0.2, 0.2, 0.0, tau=0.25),
        constant_initial(1.0, 0.5, 1 / 256), 0.5,
    ),
    "sin": (sin_delay_spec(), constant_initial(0.7, 0.25, 1 / 256), 0.25),
}


def _case(name):
    spec, eta, delay = SCALAR_CASES[name]
    return spec, eta, SolverConfig(n_steps=256, horizon=1.0, delay=delay)


def test_old_scalar_and_generic_paths_agree_bitwise_with_sin_modulation():
    spec, eta, cfg = _case("sin")
    for stream in range(3):
        w, z = drivers(cfg, spec, stream)
        np.testing.assert_array_equal(
            old_scalar_path(spec, eta, w, z, cfg), old_generic_path(spec, eta, w, z, cfg)
        )


@pytest.mark.parametrize("name", sorted(SCALAR_CASES))
def test_single_path_equals_old_scalar_path(name):
    spec, eta, cfg = _case(name)
    w, z = drivers(cfg, spec, 0)
    x = euler_mixed_sdde(spec, eta, w, z, cfg)
    np.testing.assert_array_equal(x.values, old_scalar_path(spec, eta, w, z, cfg))


@pytest.mark.parametrize("name", sorted(SCALAR_CASES))
def test_block_equals_per_replica_solves(name):
    spec, eta, cfg = _case(name)
    pairs = [drivers(cfg, spec, r) for r in range(7)]
    block = euler_mixed_sdde(
        spec, eta, stack_replicas([w for w, _ in pairs]), stack_replicas([z for _, z in pairs]), cfg
    )
    assert block.replicas == 7
    for r, (w, z) in enumerate(pairs):
        single = euler_mixed_sdde(spec, eta, w, z, cfg)
        np.testing.assert_array_equal(block.values[r], single.values)
        np.testing.assert_array_equal(block.values[r], old_scalar_path(spec, eta, w, z, cfg))


def _vector_spec():
    return CoefficientSpec(
        "linear", 2, 2, 2,
        CoeffBlock.build(1, 2, gain_now=np.array([[0.1, 0.3], [-0.2, 0.1]]),
                         gain_delay=0.2, const=np.array([[0.1, -0.1]])),
        CoeffBlock.build(2, 2, gain_now=0.2, gain_delay=np.array([[0.0, 0.1], [0.1, 0.0]])),
        CoeffBlock.build(2, 2, gain_now=np.array([[0.1, 0.2], [0.0, 0.3]]), time_modulation="sin"),
        tau=0.125,
    )


def _distributed_spec():
    return CoefficientSpec(
        "distributed_delay", 1, 1, 1,
        CoeffBlock.build(1, 1, gain_now=0.2, gain_delay=0.5),
        CoeffBlock.build(1, 1, gain_now=0.1, gain_delay=0.3),
        CoeffBlock.build(1, 1, gain_now=0.2, gain_delay=-0.4, const=0.1),
        delay_span=0.25,
    )


@pytest.mark.parametrize("make_spec, x0", [
    (_vector_spec, np.array([1.0, -0.5])),
    (_distributed_spec, np.array([1.0])),
])
def test_vector_and_distributed_blocks_match_old_generic_path(make_spec, x0):
    spec = make_spec()
    cfg = SolverConfig(n_steps=256, horizon=1.0, delay=0.25)
    eta = constant_initial(x0, 0.25, cfg.dt)
    pairs = [drivers(cfg, spec, r) for r in range(4)]
    block = euler_mixed_sdde(
        spec, eta, stack_replicas([w for w, _ in pairs]), stack_replicas([z for _, z in pairs]), cfg
    )
    for r, (w, z) in enumerate(pairs):
        oracle = old_generic_path(spec, eta, w, z, cfg)
        np.testing.assert_allclose(block.values[r], oracle, rtol=VECTOR_RTOL, atol=1e-14)


PARTITION_REPLICAS = 9
PARTITION_CASES = {  # name: (spec factory, psi(0), delay of the solve)
    "no_delay": (lambda: geometric_spec(0.5, 0.4, 0.3), np.array([1.0]), 0.0),
    "sin_pointwise_delay": (sin_delay_spec, np.array([0.7]), 0.25),
    "linear_dim2": (_vector_spec, np.array([1.0, -0.5]), 0.25),
    "distributed_delay": (_distributed_spec, np.array([1.0]), 0.25),
}


def _partition_solve(spec, eta, cfg, pairs, ito):
    w, z = stack_replicas([w for w, _ in pairs]), stack_replicas([z for _, z in pairs])
    if ito:
        return euler_ito_sdde(MollifiedDrift(spec, z, 2), coefficient_evaluator(spec, "b"),
                              eta, w, cfg).values
    return euler_mixed_sdde(spec, eta, w, z, cfg).values


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(PARTITION_CASES)),
    ito=st.booleans(),
    n=st.sampled_from([16, 32, 64]),
    cuts=st.sets(st.integers(min_value=1, max_value=PARTITION_REPLICAS - 1)),
)
def test_any_partition_of_the_replicas_gives_bitwise_equal_paths(name, ito, n, cuts):
    """A replica's path does not depend on the block it is solved in: one
    block of all replicas, blocks of one and the drawn partition agree bit
    for bit, under both schemes."""
    make_spec, x0, delay = PARTITION_CASES[name]
    spec, cfg = make_spec(), SolverConfig(n_steps=n, horizon=1.0, delay=delay)
    eta = constant_initial(x0, delay, cfg.dt)
    if delay:  # a sloped history, so the delay read differs from psi(0)
        ramp = np.linspace(0.5, 1.0, cfg.delay_steps + 1)[:, None]
        eta = InitialCondition(GridPath(-delay, cfg.dt, ramp * x0), 0.45)
    pairs = [drivers(cfg, spec, r) for r in range(PARTITION_REPLICAS)]
    whole = _partition_solve(spec, eta, cfg, pairs, ito)
    bounds = [0, *sorted(cuts), PARTITION_REPLICAS]
    for edges in (bounds, range(PARTITION_REPLICAS + 1)):
        parts = [_partition_solve(spec, eta, cfg, pairs[lo:hi], ito)
                 for lo, hi in zip(edges, edges[1:])]
        assert np.array_equal(np.concatenate(parts), whole)


def test_block_explosion_names_the_first_exploding_row():
    spec = geometric_spec(0.0, 0.0, 1.0)
    cfg = SolverConfig(n_steps=16, horizon=1.0, explosion_threshold=10.0)
    n = cfg.n_steps + 1
    w = GridPath(0.0, cfg.dt, np.zeros((3, n, 1)))
    ramps = np.array([0.0, 5.0, 50.0])[:, None] * np.linspace(0.0, 1.0, n)
    z = GridPath(0.0, cfg.dt, ramps[..., None])
    with pytest.raises(SolverExplosionError) as err:
        euler_mixed_sdde(spec, constant_initial(1.0, 0.0, cfg.dt), w, z, cfg)
    assert err.value.replica == 2


def test_block_sizes_must_match():
    spec = geometric_spec(0.5, 0.4, 0.3)
    cfg = SolverConfig(n_steps=16, horizon=1.0)
    w, z = drivers(cfg, spec, 0)
    with pytest.raises(GridError):
        euler_mixed_sdde(spec, constant_initial(1.0, 0.0, cfg.dt), stack_replicas([w, w]), z, cfg)


# --------------------------------------------------------------------------
# the mollified Ito scheme


def _callable_ito(spec, eta, w, z, cfg, level):
    """The general per-step loop of euler_ito_sdde, fed the same objects."""
    drift = MollifiedDrift(spec, z, level)
    diffusion = coefficient_evaluator(spec, "b")
    return euler_ito_sdde(
        lambda t, psi: drift(t, psi), lambda t, psi: diffusion(t, psi),
        eta, w, cfg, guarded=(drift.guard,),
    )


@pytest.mark.parametrize("name", sorted(SCALAR_CASES))
@pytest.mark.parametrize("level", [4, 16, 64])
def test_compiled_ito_equals_callable_loop(name, level):
    spec, eta, cfg = _case(name)
    w, z = drivers(cfg, spec, 3)
    drift = MollifiedDrift(spec, z, level)
    compiled = euler_ito_sdde(drift, coefficient_evaluator(spec, "b"), eta, w, cfg)
    np.testing.assert_array_equal(compiled.values, _callable_ito(spec, eta, w, z, cfg, level).values)


def test_compiled_ito_block_equals_per_replica_solves():
    spec, eta, cfg = _case("pointwise_delay")
    pairs = [drivers(cfg, spec, r) for r in range(5)]
    zb = stack_replicas([z for _, z in pairs])
    block = euler_ito_sdde(
        MollifiedDrift(spec, zb, 16), coefficient_evaluator(spec, "b"), eta,
        stack_replicas([w for w, _ in pairs]), cfg,
    )
    for r, (w, z) in enumerate(pairs):
        np.testing.assert_array_equal(
            block.values[r], _callable_ito(spec, eta, w, z, cfg, 16).values
        )


def test_compiled_ito_vector_spec_matches_callable_loop():
    spec = _vector_spec()
    cfg = SolverConfig(n_steps=256, horizon=1.0, delay=0.25)
    eta = constant_initial(np.array([1.0, -0.5]), 0.25, cfg.dt)
    w, z = drivers(cfg, spec, 1)
    compiled = euler_ito_sdde(MollifiedDrift(spec, z, 8), coefficient_evaluator(spec, "b"), eta, w, cfg)
    np.testing.assert_allclose(
        compiled.values, _callable_ito(spec, eta, w, z, cfg, 8).values,
        rtol=VECTOR_RTOL, atol=1e-14,
    )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=200),
    level=st.integers(min_value=1, max_value=8),
    frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_zdot_table_reads_no_driver_value_after_its_time(n, level, frac, seed):
    """Changing Z after node k leaves the tabulated dZ^N/dt at t_0..t_k unchanged."""
    rng = np.random.default_rng(seed)
    dt = 1.0 / n
    vals = np.cumsum(rng.standard_normal(n + 1)) * 3.0
    k = min(int(frac * n), n - 1)
    changed = vals.copy()
    changed[k + 1:] += rng.standard_normal(n - k) * 5.0
    times = dt * np.arange(n)
    spec = geometric_spec(0.0, 0.0, 1.0)
    before = MollifiedDrift(spec, GridPath(0.0, dt, vals), level).zdot_table(times)
    after = MollifiedDrift(spec, GridPath(0.0, dt, changed), level).zdot_table(times)
    np.testing.assert_array_equal(before[: k + 1], after[: k + 1])


def test_callable_ito_rejects_replica_blocks():
    spec, eta, cfg = _case("no_delay")
    w, _ = drivers(cfg, spec, 0)
    with pytest.raises(GridError):
        euler_ito_sdde(
            coefficient_evaluator(spec, "a"), coefficient_evaluator(spec, "b"),
            eta, stack_replicas([w, w]), cfg,
        )


def test_history_window_is_copied_into_every_replica():
    spec, _, cfg = _case("pointwise_delay")
    vals = np.linspace(0.5, 1.0, cfg.delay_steps + 1)
    eta = InitialCondition(GridPath(-cfg.delay, cfg.dt, vals), 0.45)
    pairs = [drivers(cfg, spec, r) for r in range(3)]
    x = euler_mixed_sdde(
        spec, eta, stack_replicas([w for w, _ in pairs]), stack_replicas([z for _, z in pairs]), cfg
    )
    np.testing.assert_array_equal(x.values[:, : cfg.delay_steps + 1, 0], np.tile(vals, (3, 1)))
