"""Differential tests of the compiled block stepper.

The two per-replica mixed-scheme loops that the stepper replaced are kept
here as oracles: ``old_scalar_path`` (plain-float arithmetic for scalar
specs) and ``old_generic_path`` (per-step ``eval_coefficient`` on a segment
view).  Scalar specs must agree bit for bit; vector and distributed-delay
specs within a stated tolerance.
"""

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sddelab import FbmParams, GridPath, SeedSpec, sample_fbm, sample_wiener, solver
from sddelab.core import (
    DELAY_READS,
    CoeffBlock,
    CoefficientSpec,
    InitialCondition,
    constant_initial,
    eval_coefficient,
    geometric_spec,
    pointwise_delay_spec,
)
from sddelab.grid import GridError
from sddelab.solver import (
    MollifiedDrift,
    SolverConfig,
    SolverExplosionError,
    euler_ito_sdde,
    euler_mixed_sdde,
)

from helpers import (callable_ito, coefficient, mollified_ito_oracle, oracle_front,
                     stack_replicas)

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
    hist = eta.eta.values[-(eta.steps(cfg.dt) + 1):].copy()
    q_tau = round(spec.tau / cfg.dt) if spec.family in ("linear", "pointwise_delay") else 0
    return hist, np.diff(w.values, axis=0), np.diff(z.values, axis=0), q_tau


def old_scalar_path(spec, eta, w, z, cfg):
    hist, dw, dz, q_tau = _arrays(spec, eta, w, z, cfg)
    n, q, dt = cfg.n_steps, eta.steps(cfg.dt), cfg.dt
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
    n, q, dt = cfg.n_steps, eta.steps(cfg.dt), cfg.dt
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
    "no_delay": (geometric_spec(0.5, 0.4, 0.3), constant_initial(1.0, 0.0, 1 / 256)),
    "pointwise_delay": (
        pointwise_delay_spec(0.3, 0.3, 0.0, 0.2, 0.2, 0.0, tau=0.25),
        constant_initial(1.0, 0.5, 1 / 256),
    ),
    "sin": (sin_delay_spec(), constant_initial(0.7, 0.25, 1 / 256)),
}


def _case(name):
    return (*SCALAR_CASES[name], SolverConfig(n_steps=256, horizon=1.0))


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
    cfg = SolverConfig(n_steps=256, horizon=1.0)
    eta = constant_initial(x0, 0.25, cfg.dt)
    pairs = [drivers(cfg, spec, r) for r in range(4)]
    block = euler_mixed_sdde(
        spec, eta, stack_replicas([w for w, _ in pairs]), stack_replicas([z for _, z in pairs]), cfg
    )
    for r, (w, z) in enumerate(pairs):
        oracle = old_generic_path(spec, eta, w, z, cfg)
        np.testing.assert_allclose(block.values[r], oracle, rtol=VECTOR_RTOL, atol=1e-14)


def test_a_window_of_half_the_history_matches_the_oracles_of_both_schemes():
    """delay_span = r/2 on a sloped history: the running window sum over the
    last span steps matches the per-step evaluator under both schemes, and
    differs from the window over the whole history."""
    spec = replace(_distributed_spec(), delay_span=0.125)
    cfg = SolverConfig(n_steps=256, horizon=1.0)
    eta = InitialCondition(GridPath(-0.25, cfg.dt, np.linspace(0.5, 1.0, 65)), 0.45)
    pairs = [drivers(cfg, spec, r) for r in range(3)]
    w, z = stack_replicas([w for w, _ in pairs]), stack_replicas([z for _, z in pairs])
    mixed = euler_mixed_sdde(spec, eta, w, z, cfg)
    ito = euler_ito_sdde(spec, eta, w, z, cfg, 4)
    for r, (wr, zr) in enumerate(pairs):
        np.testing.assert_allclose(mixed.values[r], old_generic_path(spec, eta, wr, zr, cfg),
                                   rtol=VECTOR_RTOL, atol=1e-14)
        np.testing.assert_allclose(ito.values[r],
                                   mollified_ito_oracle(spec, eta, wr, zr, cfg, 4).values,
                                   rtol=VECTOR_RTOL, atol=1e-14)
    whole = euler_mixed_sdde(_distributed_spec(), eta, w, z, cfg)
    assert np.abs(mixed.values[:, -1] - whole.values[:, -1]).min() > 1e-3


PARTITION_REPLICAS = 9
PARTITION_CASES = {  # name: (spec factory, psi(0), history length r)
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
    spec, cfg = make_spec(), SolverConfig(n_steps=n, horizon=1.0)
    eta = constant_initial(x0, delay, cfg.dt)
    if delay:  # a sloped history, so the delay read differs from psi(0)
        ramp = np.linspace(0.5, 1.0, eta.steps(cfg.dt) + 1)[:, None]
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
    base, cfg = make_spec(), SolverConfig(n_steps=n, horizon=1.0)
    q = round(delay / cfg.dt)  # the history length in steps
    ramp = np.linspace(0.5, 1.0, q + 1)[:, None]
    pairs = [drivers(cfg, base, r) for r in range(3)]
    w, z = stack_replicas([w for w, _ in pairs]), stack_replicas([z for _, z in pairs])
    etas, specs, zs, levels = [], [], [], []
    for g, (tap, gain, const, merged, scale, level) in enumerate(groups):
        etas.append(InitialCondition(GridPath(-delay, cfg.dt, scale * ramp * x0), 0.45))
        tap = min(tap, q)
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
    cfg = SolverConfig(n_steps=16, horizon=1.0)
    zero = GridPath(0.0, cfg.dt, np.zeros((cfg.n_steps + 1, 1)))
    q = 4  # a history of length 0.25
    history = np.append(np.linspace(1.0, 0.5, q), -0.0)[:, None]
    eta = InitialCondition(GridPath(-q * cfg.dt, cfg.dt, history), 0.45)
    plain = pointwise_delay_spec(0.3, 0.0, 0.2, 0.0, 0.1, 0.0, tau=0.25)
    with_delay = pointwise_delay_spec(0.3, 0.3, 0.2, 0.2, 0.1, 0.1, tau=0.125)
    with_const = replace(plain, drift=replace(plain.drift, const=np.full((1, 1), 0.1)))
    alone = euler_mixed_sdde(plain, eta, zero, zero, cfg)
    assert np.signbit(alone.values[q:]).all()
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
    """Row 2 crosses the threshold before row 1 does, row 0 never: the error
    names row 1, the lowest exploding row, at its own first crossing."""
    spec = geometric_spec(0.0, 0.0, 1.0)
    cfg = SolverConfig(n_steps=16, horizon=1.0, explosion_threshold=10.0)
    n = cfg.n_steps + 1
    w = GridPath(0.0, cfg.dt, np.zeros((3, n, 1)))
    ramps = np.array([0.0, 5.0, 50.0])[:, None] * np.linspace(0.0, 1.0, n)
    z = GridPath(0.0, cfg.dt, ramps[..., None])
    eta = constant_initial(1.0, 0.0, cfg.dt)
    with pytest.raises(SolverExplosionError) as err:
        euler_mixed_sdde(spec, eta, w, z, cfg)
    wide = SolverConfig(n_steps=16, horizon=1.0, explosion_threshold=1e300)
    x = euler_mixed_sdde(spec, eta, w, z, wide).values[..., 0]
    crossings = np.argmax(x > 10.0, axis=1)
    assert crossings[2] < crossings[1] and not (x[0] > 10.0).any()
    assert err.value.replica == 1
    assert err.value.time == crossings[1] * cfg.dt


def test_a_state_that_turns_nan_is_an_explosion():
    """Drift +inf and rough term -inf in the first step: the node is NaN, and
    the solver names it as an explosion at its time."""
    spec = geometric_spec(1e305, 0.0, -1e306)
    cfg = SolverConfig(n_steps=16, horizon=1.0)
    n = cfg.n_steps + 1
    w = GridPath(0.0, cfg.dt, np.zeros(n))
    z = GridPath(0.0, cfg.dt, np.linspace(0.0, 1.0, n))
    with pytest.raises(SolverExplosionError) as err:
        euler_mixed_sdde(spec, constant_initial(1e8, 0.0, cfg.dt), w, z, cfg)
    assert err.value.time == cfg.dt and math.isnan(err.value.magnitude)


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
    cfg = SolverConfig(n_steps=256, horizon=1.0)
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
    spec, case_eta, cfg = _case("pointwise_delay")
    q = case_eta.steps(cfg.dt)
    vals = np.linspace(0.5, 1.0, q + 1)
    eta = InitialCondition(GridPath(-case_eta.r, cfg.dt, vals), 0.45)
    pairs = [drivers(cfg, spec, r) for r in range(3)]
    x = euler_mixed_sdde(
        spec, eta, stack_replicas([w for w, _ in pairs]), stack_replicas([z for _, z in pairs]), cfg
    )
    np.testing.assert_array_equal(x.values[:, : q + 1, 0], np.tile(vals, (3, 1)))


# --------------------------------------------------------------------------
# the channel-major stepper against the stepper it replaced


SIGNED_ZEROS = ([0.0, -0.0, 0.5, -1.5], [0.3, 0.4, 0.15, 0.15])  # values, odds


def _oracle_block(rng, channels, d, family, sin, zeros, terms):
    """A random coefficient block of ``family``: gains and constants drawn
    from normals, or with ``zeros`` mostly from both signs of zero; the delay
    gains and the constants only where ``terms`` (two flags) asks for them."""
    def draw(on, *shape):
        if not on:
            return np.zeros(shape)
        if zeros:
            return rng.choice(SIGNED_ZEROS[0], size=shape, p=SIGNED_ZEROS[1])
        return rng.normal(size=shape) * rng.choice([0.0, 0.5], size=shape)

    return CoeffBlock.build(
        channels, d,
        gain_now=draw(family != "constant", channels, d, d),
        gain_delay=draw(DELAY_READS[family] != "none" and terms[0], channels, d, d),
        const=draw(terms[1], channels, d),
        time_modulation="sin" if sin else "none",
    )


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    family=st.sampled_from(sorted(DELAY_READS)),
    dims=st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 2)),  # d, m, l
    groups=st.integers(1, 4),
    reps=st.integers(1, 7),
    single=st.booleans(),
    ito=st.booleans(),
    steps=st.sampled_from([8, 16]),
    past=st.sampled_from([(1, -1), (1, 0), (1, 1), (3, 5)]),
    stride=st.sampled_from([1, 2]),
    q=st.sampled_from([0, 1, 3, 6]),
    sins=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    zeros=st.booleans(),
    own_z=st.booleans(),
    threshold=st.sampled_from([1e8, 3.0]),
    slice_values=st.sampled_from([1, 5, 64, solver._SLICE]),
)
def test_channel_major_stepper_gives_the_paths_of_the_oracle(
        seed, family, dims, groups, reps, single, ito, steps, past, stride, q, sins, zeros,
        own_z, threshold, slice_values):
    """Every family (the tap and the window included), state and driver
    dimensions, row groups and replica counts, both schemes, trust-region
    slices down to one step, increment tables of ``steps`` steps on grids of
    one step less, one table, one step more and three tables and five steps,
    drivers on the solver grid or restricted from one twice as fine: the
    stepper's paths carry the oracle's bits, signs of zero included, and an
    explosion names the same group, replica, time and magnitude."""
    n = past[0] * steps + past[1]
    rng = np.random.default_rng(seed)
    d, m, l = dims
    read = DELAY_READS[family]
    if read == "window":
        q = max(q, 1)
    cfg = SolverConfig(n_steps=n, horizon=1.0, explosion_threshold=threshold)
    span = int(rng.integers(1, q + 1)) if q else 0
    specs, etas, levels = [], [], []
    for _ in range(groups):
        terms = rng.random(2) < 0.5  # whether the group has delay gains, constants
        blocks = [_oracle_block(rng, channels, d, family, sin, zeros, terms)
                  for channels, sin in zip((1, m, l), sins)]
        specs.append(CoefficientSpec(family, d, m, l, *blocks,
                                     tau=int(rng.integers(0, q + 1)) * cfg.dt,
                                     delay_span=span * cfg.dt if read == "window" else 0.0))
        history = (rng.choice([0.0, -0.0, 1.0], size=(q + 1, d), p=[0.3, 0.5, 0.2]) if zeros
                   else rng.normal(size=(q + 1, d)))
        etas.append(InitialCondition(GridPath(-q * cfg.dt, cfg.dt, history), 0.45))
        levels.append(int(rng.integers(1, n // 4 + 1)))
    lead = () if single and reps == 1 else (reps,)

    def path(channels):  # on the solver grid refined ``stride`` times
        shape, dt = lead + (n * stride + 1, channels), cfg.dt / stride
        if zeros:
            return GridPath(0.0, dt, rng.choice([0.0, -0.0, 0.25], size=shape,
                                                p=[0.45, 0.45, 0.1]))
        return GridPath(0.0, dt, np.cumsum(rng.normal(size=shape) * dt**0.5, axis=-2))

    w = path(m)
    zs = [path(l) for _ in range(groups)]
    z = zs if own_z else zs[0]

    def solve():
        try:
            if ito:
                return euler_ito_sdde(specs, etas, w, z, cfg, levels if own_z else levels[0])
            return euler_mixed_sdde(specs, etas, w, z, cfg)
        except SolverExplosionError as exc:
            return (exc.group, exc.replica, exc.time, exc.magnitude)

    with mock.patch.object(solver, "_front", oracle_front):
        expected = solve()
    with mock.patch.object(solver, "_SLICE", slice_values), \
            mock.patch.object(solver, "_STEPS", steps):
        got = solve()
    if isinstance(expected, tuple) and not isinstance(expected[0], GridPath):
        assert got == expected or (math.isnan(got[3]) and math.isnan(expected[3])
                                   and got[:3] == expected[:3])
        return
    assert len(got) == len(expected) == groups
    for path_got, path_expected in zip(got, expected):
        assert path_got.values.shape == path_expected.values.shape
        assert np.array_equal(path_got.values, path_expected.values)
        assert _same_bits(path_got.values, path_expected.values)


@pytest.mark.parametrize("family", ["no_delay", "pointwise_delay", "distributed_delay"])
@pytest.mark.parametrize("ito", [False, True])
@pytest.mark.parametrize("channels", [(1, 1), (2, 2), (3, 2)])
def test_signed_zeros_follow_the_oracle(family, ito, channels):
    """Zero drivers and a state of -0.0 make every increment a signed zero,
    so each skipped term and each channel sum shows in the sign of the path:
    a group without delay gains or constants next to groups with them, and
    b or c summed over several channels (numpy's reduce reads +0.0 for a sum
    of -0.0), give the oracle's bits."""
    m, l = channels
    cfg = SolverConfig(n_steps=16, horizon=1.0)
    q = 4
    history = np.append(np.linspace(1.0, 0.5, q), -0.0)[:, None]
    eta = InitialCondition(GridPath(-q * cfg.dt, cfg.dt, history), 0.45)
    delay = 0.0 if family == "no_delay" else 0.3

    def spec(gain_delay, const):
        blocks = [CoeffBlock.build(k, 1, gain_now=0.5, gain_delay=gain_delay, const=const)
                  for k in (1, m, l)]
        return CoefficientSpec(family, 1, m, l, *blocks, tau=2 * cfg.dt if delay else 0.0,
                               delay_span=2 * cfg.dt if family == "distributed_delay" else 0.0)

    specs = [spec(0.0, 0.0), spec(delay, 0.0), spec(0.0, 0.1)]
    w = GridPath(0.0, cfg.dt, np.zeros((2, cfg.n_steps + 1, m)))
    z = GridPath(0.0, cfg.dt, np.zeros((2, cfg.n_steps + 1, l)))

    def solve():
        if ito:
            return euler_ito_sdde(specs, eta, w, z, cfg, 4)
        return euler_mixed_sdde(specs, eta, w, z, cfg)

    with mock.patch.object(solver, "_front", oracle_front):
        expected = solve()
    for path, oracle in zip(solve(), expected):
        assert _same_bits(path.values, oracle.values)
    assert np.signbit(expected[0].values[:, q:]).any()


def test_numpy_adds_a_contiguous_block_along_axis_0_row_by_row():
    """``np.add.reduce(axis=0)`` over a C-contiguous ``(k, groups, replicas)``
    block adds its rows in order: the values of ``((x + a) + b) + c``.  The
    sign of zero differs, since the reduce starts from +0.0: a column of -0.0
    reads +0.0 where the sequential adds keep -0.0.  So the step ends with
    explicit adds; from -0.0 the reduce gives the sequential bits."""
    rng = np.random.default_rng(7)
    for k in (2, 3, 4):
        for shape in ((9, 50), (1, 50), (4, 30), (1, 1)):
            block = rng.normal(size=(k, *shape)) * 10.0 ** rng.integers(-8, 9, size=(k, *shape))
            block[:, 0, 0] = [1e16, 1.0, -1e16, 1.0][:k]  # the order of the adds shows
            block[:, -1, -1] = -0.0
            rows = block[0].copy()
            for other in block[1:]:
                rows += other
            reduced = np.add.reduce(block, axis=0)
            assert np.array_equal(reduced, rows)
            assert not np.signbit(reduced[-1, -1]) and np.signbit(rows[-1, -1])
            assert _same_bits(np.add.reduce(block, axis=0, initial=-0.0), rows)


@pytest.mark.parametrize("ito", [False, True])
@pytest.mark.parametrize("channels", [2, 3, 4, 7, 8, 9])
def test_channel_sums_keep_the_bits_of_numpys_contiguous_reduce(channels, ito):
    """The stepper sums b dW and c dZ over their channels with the bits of
    the oracle's sum over a contiguous channel axis (numpy pairs partial sums
    from 8 channels on): driver increments that round differently in another
    order, and a first step whose every channel is -0.0, whose sum reads
    +0.0 where sequential adds keep -0.0."""
    cfg = SolverConfig(n_steps=16, horizon=1.0, explosion_threshold=1e300)
    ones = [CoeffBlock.build(k, 1, gain_now=0.0, const=1.0) for k in (channels, channels)]
    drift = CoeffBlock.build(1, 1, gain_now=0.0, const=-0.0)  # x + a stays -0.0: the sum shows
    spec = CoefficientSpec("no_delay", 1, channels, channels, drift, *ones)
    eta = constant_initial(-0.0, 0.0, cfg.dt)
    rng = np.random.default_rng(channels)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 3.0, 1e-300])
    w, z = (rng.choice(pool, size=(3, cfg.n_steps + 1, channels)) for _ in range(2))
    w[:, :2] = z[:, :2] = np.array([0.0, -0.0])[:, None]  # step 0: every increment -0.0
    w, z = (GridPath(0.0, cfg.dt, nodes) for nodes in (w, z))

    def solve():
        if ito:
            return euler_ito_sdde(spec, eta, w, z, cfg, 4)
        return euler_mixed_sdde(spec, eta, w, z, cfg)

    with mock.patch.object(solver, "_front", oracle_front):
        expected = solve()
    assert _same_bits(solve().values, expected.values)
    if not ito:
        assert not np.signbit(expected.values[:, 1]).any()


def test_a_delay_block_solve_holds_one_copy_of_its_paths():
    """One block of the vanishing-delay study (9 row groups x 50 replicas,
    n = 1024, a history of 512 steps) peaks at most 1.5x the bytes of its
    path buffer, and its paths are read-only views of that one buffer."""
    cfg = SolverConfig(n_steps=1024, horizon=1.0)
    base = pointwise_delay_spec(0.3, 0.3, 0.0, 0.2, 0.2, 0.0, tau=0.5)
    specs = [base.merge_delay(), *(base.with_tau(2.0**-k) for k in range(1, 9))]
    eta = constant_initial(1.0, 0.5, cfg.dt)
    rng = np.random.default_rng(3)
    w, z = (GridPath(0.0, cfg.dt, np.cumsum(rng.normal(size=(50, 1025, 1)) * 0.03, axis=1))
            for _ in range(2))
    tracemalloc.start()
    try:
        paths = euler_mixed_sdde(specs, eta, w, z, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer_bytes = (512 + 1024 + 1) * len(specs) * 50 * 8
    assert peak <= 1.5 * buffer_bytes, peak / buffer_bytes
    assert all(not path.values.flags.writeable for path in paths)
    assert all(np.may_share_memory(paths[0].values, path.values) for path in paths[1:])


def test_a_long_mixed_solve_holds_one_table_of_increments():
    """A mixed solve of 2^14 steps and 50 replicas peaks below its path
    buffer, one table of ``_STEPS`` steps of ``[dt | dW | dZ]`` and 512 KiB:
    no table of every step, no copy of dZ and no mask of the path's values."""
    n, reps = 1 << 14, 50
    cfg = SolverConfig(n_steps=n, horizon=1.0)
    rng = np.random.default_rng(5)
    w, z = (GridPath(0.0, cfg.dt, np.cumsum(rng.normal(size=(reps, n + 1, 1)) * 0.01, axis=1))
            for _ in range(2))
    eta = constant_initial(1.0, 0.0, cfg.dt)
    tracemalloc.start()
    try:
        path = euler_mixed_sdde(geometric_spec(0.5, 0.4, 0.3), eta, w, z, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer_bytes, table_bytes = (n + 1) * reps * 8, solver._STEPS * 3 * reps * 8
    assert peak <= buffer_bytes + table_bytes + (512 << 10), peak
    assert path.values.shape == (reps, n + 1, 1)


def test_a_long_ito_solve_reads_its_drift_a_chunk_of_steps_at_a_time():
    """An Ito solve of three mollifier levels, 4096 steps and 50 replicas
    peaks below its three groups' path buffer, one table of ``_STEPS`` steps
    of ``[1 | dW | dZ^N/dt]`` and 1 MiB for one chunk's reads of the clamped
    driver: no table of dZ^N/dt over every step and no clamped copy of Z."""
    n, reps, levels = 4096, 50, [16, 64, 256]
    cfg = SolverConfig(n_steps=n, horizon=1.0)
    rng = np.random.default_rng(5)
    w, z = (GridPath(0.0, cfg.dt, np.cumsum(rng.normal(size=(reps, n + 1, 1)) * 0.01, axis=1))
            for _ in range(2))
    eta = constant_initial(1.0, 0.0, cfg.dt)
    tracemalloc.start()
    try:
        paths = euler_ito_sdde(geometric_spec(0.5, 0.4, 0.3), eta, w, z, cfg, levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer_bytes = len(levels) * (n + 1) * reps * 8
    table_bytes = solver._STEPS * 3 * len(levels) * reps * 8
    assert peak <= buffer_bytes + table_bytes + (1 << 20), peak
    assert [path.values.shape for path in paths] == [(reps, n + 1, 1)] * len(levels)
