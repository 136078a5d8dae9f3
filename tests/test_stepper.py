"""Differential tests of the compiled block stepper.

The two per-replica mixed-scheme loops that the stepper replaced are kept
here as oracles: ``old_scalar_path`` (plain-float arithmetic for scalar
specs) and ``old_generic_path`` (per-step ``eval_coefficient`` on a segment
view).  Scalar specs must agree bit for bit; vector and distributed-delay
specs within a stated tolerance.
"""

import math
from dataclasses import replace

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
    euler_ito_sdde,
    euler_mixed_sdde,
)

from helpers import callable_ito, coefficient, mollified_ito_oracle

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
        return euler_ito_sdde(spec, eta, w, z, cfg, 2).values
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


def _group_spec(spec, cfg, tap, gain, const, merged):
    """A row-group variant of ``spec``: a drift gain shift, every constant set
    to ``const`` (0 drops them), the delay gains folded away or a new tap."""
    drift = replace(spec.drift, gain_now=spec.drift.gain_now + gain * np.eye(spec.dim))
    blocks = {name: replace(block, const=np.full_like(block.const, const))
              for name, block in (("drift", drift), ("diffusion", spec.diffusion),
                                  ("zdrive", spec.zdrive))}
    spec = replace(spec, **blocks)
    if merged:
        return spec.merge_delay()
    return spec if spec.family == "distributed_delay" else spec.with_tau(tap * cfg.dt)


GROUP_CASES = {  # name: (spec factory, psi(0))
    "sin_pointwise_delay": (sin_delay_spec, np.array([0.7])),
    "linear_dim2": (_vector_spec, np.array([1.0, -0.5])),
    "distributed_delay": (_distributed_spec, np.array([1.0])),
}


def _same_bits(a, b):
    """Equal shapes and bytes: equal values and equal signs of zero."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(GROUP_CASES)),
    ito=st.booleans(),
    n=st.sampled_from([16, 32, 64]),
    own_z=st.booleans(),
    groups=st.lists(st.tuples(
        st.integers(min_value=0, max_value=16),  # tap, in steps
        st.sampled_from([0.0, 0.5, -1.0]),  # drift gain shift
        st.sampled_from([0.0, 0.1, -0.2]),  # every constant
        st.booleans(),  # delay gains folded away
        st.sampled_from([0.0, 1.0, -2.0]),  # history scale
        st.sampled_from([1, 2, 4]),  # mollifier level
    ), min_size=1, max_size=4),
)
def test_every_row_group_of_a_stacked_solve_equals_its_solve_alone(name, ito, n, own_z,
                                                                   groups):
    """One stacked call over row groups with their own taps, gains,
    constants, histories and drivers Z (mixed scheme) or zdot tables (Ito
    scheme) gives each group the bits of its own solve, signs of zero too."""
    make_spec, x0 = GROUP_CASES[name]
    delay = 0.25
    base, cfg = make_spec(), SolverConfig(n_steps=n, horizon=1.0, delay=delay)
    ramp = np.linspace(0.5, 1.0, cfg.delay_steps + 1)[:, None]
    pairs = [drivers(cfg, base, r) for r in range(3)]
    w, z = stack_replicas([w for w, _ in pairs]), stack_replicas([z for _, z in pairs])
    etas, specs, zs, levels = [], [], [], []
    for g, (tap, gain, const, merged, scale, level) in enumerate(groups):
        etas.append(InitialCondition(GridPath(-delay, cfg.dt, scale * ramp * x0), 0.45))
        tap = min(tap, cfg.delay_steps)
        specs.append(_group_spec(base, cfg, tap, gain, const, merged))
        zs.append(GridPath(0.0, cfg.dt, z.values + 0.1 * g * z.times[:, None]) if own_z else z)
        levels.append(level)
    if ito:
        stacked = euler_ito_sdde(base, etas, w, zs if own_z else z, cfg, levels)
        alone = [euler_ito_sdde(base, eta, w, zg, cfg, level)
                 for eta, zg, level in zip(etas, zs, levels)]
    else:
        stacked = euler_mixed_sdde(specs, etas, w, zs if own_z else z, cfg)
        alone = [euler_mixed_sdde(*args, w, zg, cfg) for *args, zg in zip(specs, etas, zs)]
    assert isinstance(stacked, tuple) and len(stacked) == len(groups)
    for path, single in zip(stacked, alone):
        assert np.array_equal(path.values, single.values)
        assert _same_bits(path.values, single.values)


def test_groups_without_a_delay_or_constant_term_skip_it():
    """Zero drivers and a state of -0.0 make every increment -0.0, so the
    path stays at -0.0 when solved alone; adding the +0.0 delay read (of a
    positive history) or constant of another group's term would turn it
    into +0.0."""
    cfg = SolverConfig(n_steps=16, horizon=1.0, delay=0.25)
    zero = GridPath(0.0, cfg.dt, np.zeros((cfg.n_steps + 1, 1)))
    history = np.append(np.linspace(1.0, 0.5, cfg.delay_steps), -0.0)[:, None]
    eta = InitialCondition(GridPath(-cfg.delay, cfg.dt, history), 0.45)
    plain = pointwise_delay_spec(0.3, 0.0, 0.2, 0.0, 0.1, 0.0, tau=0.25)
    with_delay = pointwise_delay_spec(0.3, 0.3, 0.2, 0.2, 0.1, 0.1, tau=0.125)
    with_const = replace(plain, drift=replace(plain.drift, const=np.full((1, 1), 0.1)))
    alone = euler_mixed_sdde(plain, eta, zero, zero, cfg)
    assert np.signbit(alone.values[cfg.delay_steps:]).all()
    for other in (with_delay, with_const):
        stacked, _ = euler_mixed_sdde([plain, other], eta, zero, zero, cfg)
        assert _same_bits(stacked.values, alone.values)


def test_stacked_explosion_names_the_first_group_then_its_first_crossing():
    """Group 1 crosses the threshold later than group 2 does, and only in
    replica 1: the error names group 1, replica 1 and group 1's time."""
    cfg = SolverConfig(n_steps=16, horizon=1.0, explosion_threshold=10.0)
    n = cfg.n_steps + 1
    w = GridPath(0.0, cfg.dt, np.zeros((2, n, 1)))
    z = GridPath(0.0, cfg.dt, (np.array([0.0, 1.0])[:, None] * np.linspace(0.0, 1.0, n))[..., None])
    eta = constant_initial(1.0, 0.0, cfg.dt)
    specs = [geometric_spec(0.0, 0.0, c) for c in (0.0, 3.0, 20.0)]
    with pytest.raises(SolverExplosionError) as err:
        euler_mixed_sdde(specs, eta, w, z, cfg)
    for spec in specs[1:]:
        with pytest.raises(SolverExplosionError) as alone:
            euler_mixed_sdde(spec, eta, w, z, cfg)
        assert alone.value.replica == 1
    late, early = (euler_mixed_sdde(s, eta, w, z, SolverConfig(n_steps=16, horizon=1.0))
                   for s in specs[1:])
    assert np.argmax(early.values[1, :, 0] > 10.0) < np.argmax(late.values[1, :, 0] > 10.0)
    assert (err.value.group, err.value.replica) == (1, 1)
    assert err.value.time == pytest.approx(np.argmax(late.values[1, :, 0] > 10.0) * cfg.dt)


def test_row_groups_must_agree_in_size_and_structure():
    spec, eta, cfg = _case("pointwise_delay")
    w, z = drivers(cfg, spec, 0)
    with pytest.raises(GridError):
        euler_mixed_sdde([spec, spec], [eta], w, z, cfg)
    with pytest.raises(GridError):  # a sin-modulated group with unmodulated ones
        euler_mixed_sdde([spec, sin_delay_spec()], eta, w, z, cfg)


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


@pytest.mark.parametrize("name", sorted(SCALAR_CASES))
@pytest.mark.parametrize("level", [4, 16, 64])
def test_compiled_ito_equals_callable_loop(name, level):
    spec, eta, cfg = _case(name)
    w, z = drivers(cfg, spec, 3)
    compiled = euler_ito_sdde(spec, eta, w, z, cfg, level)
    oracle = mollified_ito_oracle(spec, eta, w, z, cfg, level)
    np.testing.assert_array_equal(compiled.values, oracle.values)


def test_compiled_ito_block_equals_per_replica_solves():
    spec, eta, cfg = _case("pointwise_delay")
    pairs = [drivers(cfg, spec, r) for r in range(5)]
    zb = stack_replicas([z for _, z in pairs])
    block = euler_ito_sdde(spec, eta, stack_replicas([w for w, _ in pairs]), zb, cfg, 16)
    for r, (w, z) in enumerate(pairs):
        np.testing.assert_array_equal(
            block.values[r], mollified_ito_oracle(spec, eta, w, z, cfg, 16).values
        )


def test_compiled_ito_vector_spec_matches_callable_loop():
    spec = _vector_spec()
    cfg = SolverConfig(n_steps=256, horizon=1.0, delay=0.25)
    eta = constant_initial(np.array([1.0, -0.5]), 0.25, cfg.dt)
    w, z = drivers(cfg, spec, 1)
    compiled = euler_ito_sdde(spec, eta, w, z, cfg, 8)
    np.testing.assert_allclose(
        compiled.values, mollified_ito_oracle(spec, eta, w, z, cfg, 8).values,
        rtol=VECTOR_RTOL, atol=1e-14,
    )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=200),
    level=st.integers(min_value=1, max_value=8),
    frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_zdot_reads_no_driver_value_after_its_time(n, level, frac, seed):
    """Changing Z after node k leaves dZ^N/dt at t_0..t_k unchanged."""
    rng = np.random.default_rng(seed)
    dt = 1.0 / n
    vals = np.cumsum(rng.standard_normal(n + 1)) * 3.0
    k = min(int(frac * n), n - 1)
    changed = vals.copy()
    changed[k + 1:] += rng.standard_normal(n - k) * 5.0
    times = dt * np.arange(n)
    spec = geometric_spec(0.0, 0.0, 1.0)
    before = MollifiedDrift(spec, GridPath(0.0, dt, vals), level).zdot(times)
    after = MollifiedDrift(spec, GridPath(0.0, dt, changed), level).zdot(times)
    np.testing.assert_array_equal(before[: k + 1], after[: k + 1])


def test_callable_ito_rejects_replica_blocks():
    spec, eta, cfg = _case("no_delay")
    w, _ = drivers(cfg, spec, 0)
    with pytest.raises(GridError):
        callable_ito(coefficient(spec, "a"), coefficient(spec, "b"), eta,
                     stack_replicas([w, w]), cfg)


def test_history_window_is_copied_into_every_replica():
    spec, _, cfg = _case("pointwise_delay")
    vals = np.linspace(0.5, 1.0, cfg.delay_steps + 1)
    eta = InitialCondition(GridPath(-cfg.delay, cfg.dt, vals), 0.45)
    pairs = [drivers(cfg, spec, r) for r in range(3)]
    x = euler_mixed_sdde(
        spec, eta, stack_replicas([w for w, _ in pairs]), stack_replicas([z for _, z in pairs]), cfg
    )
    np.testing.assert_array_equal(x.values[:, : cfg.delay_steps + 1, 0], np.tile(vals, (3, 1)))
