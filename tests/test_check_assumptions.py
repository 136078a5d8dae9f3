"""Differential tests of the batched assumption sweep.

``helpers.loop_check_assumptions`` keeps the per-probe loops that the sweep
replaced: one ``eval_coefficient`` call per coefficient and probe, and one
worst/witness loop per check.  The batched sweep draws the same random
numbers in the same order and evaluates every probe of a check at once
through ``CoefficientSpec.columns``.  Scalar specs must give the same report
field for field.  Otherwise the pass flags must agree and the observed
values may differ by rounding only.
"""

import itertools

import numpy as np
import pytest

from sddelab import GridPath
from sddelab import core, solver
from sddelab.core import (
    CoeffBlock,
    CoefficientSpec,
    InitialCondition,
    check_assumptions,
    geometric_spec,
    pointwise_delay_spec,
    segment_at,
)

from helpers import loop_check_assumptions, standard_params, window_spec

# With d, m or l >= 2 a coefficient or a norm sums several products: the
# batched ``@`` and per-probe norms may round those sums differently from
# the per-probe ``@`` and ``np.linalg.norm`` of a flattened array.
SWEEP_RTOL = 1e-12
# The derivative check divides a difference of c by eps = 1e-6, which
# magnifies that rounding; its own pass rule adds the same 1e-6.
DERIVATIVE_ATOL = 1e-6

FAMILIES = ("constant", "no_delay", "linear", "pointwise_delay", "distributed_delay")
SHAPES = ((1, 1, 1), (2, 1, 2), (3, 2, 1), (2, 2, 2))  # (d, m, l)
BUDGETS = (0, 1, 7, 200)


def _random_case(family: str, shape: tuple, budget: int):
    """A spec of ``family`` and ``shape`` with random gains, modulation,
    constants, reach, claimed overrides and history."""
    d, m, l = shape
    rng = np.random.default_rng([FAMILIES.index(family), *shape, budget])
    const = bool(rng.integers(2))
    tap = family in ("linear", "pointwise_delay")
    window = family == "distributed_delay"

    def block(channels: int) -> CoeffBlock:
        def gains(on: bool):
            return rng.normal(0.0, 0.5, (channels, d, d)) if on else 0.0

        return CoeffBlock.build(
            channels, d, gain_now=gains(family != "constant"), gain_delay=gains(tap or window),
            const=rng.normal(0.0, 0.5, (channels, d)) if const else 0.0,
            time_modulation=("none", "sin")[rng.integers(2)],
        )

    spec = CoefficientSpec(
        family, d, m, l, block(1), block(m), block(l),
        tau=float(rng.choice([0.0, 0.125, 0.5])) if tap else 0.0,
        delay_span=float(rng.choice([0.125, 0.5])) if window else 0.0,
    )
    claimed = None
    if rng.integers(2):
        closed = {"K": spec.growth_constant(), "K2": spec.zderivative_bound(),
                  "K_R": spec.lipschitz_constant(), "K_time": spec.time_holder_constant()}
        keys = [k for k in closed if rng.integers(2)]
        claimed = {k: closed[k] * rng.uniform(0.3, 1.5) for k in keys}
        if rng.integers(2):
            claimed["beta"] = float(rng.uniform(0.35, 1.0))
    eta = None
    if rng.integers(2):
        walk = np.cumsum(rng.normal(0.0, 0.1, (33, d)), axis=0)
        eta = InitialCondition(GridPath(-0.25, 0.25 / 32, walk), 0.45)
    return spec, claimed, eta


CASES = [(f, s, b) for f, s, b in itertools.product(FAMILIES, SHAPES, BUDGETS)]


def test_the_cases_cover_every_option():
    specs = [_random_case(*case) for case in CASES]
    blocks = [b for spec, _, _ in specs for b in (spec.drift, spec.diffusion, spec.zdrive)]
    assert {b.time_modulation for b in blocks} == {"none", "sin"}
    assert {bool(b.const.any()) for b in blocks} == {False, True}
    assert {claimed is None for _, claimed, _ in specs} == {False, True}
    assert any(claimed and "beta" in claimed for _, claimed, _ in specs)
    assert {eta is None for _, _, eta in specs} == {False, True}
    assert {spec.tau for spec, _, _ in specs} >= {0.0, 0.125, 0.5}


@pytest.mark.parametrize("family, shape, budget", CASES,
                         ids=[f"{f}-d{s[0]}m{s[1]}l{s[2]}-{b}" for f, s, b in CASES])
def test_batched_sweep_matches_the_per_probe_loops(family, shape, budget):
    spec, claimed, eta = _random_case(family, shape, budget)
    params = standard_params()
    new = check_assumptions(spec, params, budget, claimed=claimed, eta=eta, seed=budget + 3)
    old = loop_check_assumptions(spec, params, budget, claimed=claimed, eta=eta, seed=budget + 3)
    assert [c.passed for c in new.checks] == [c.passed for c in old.checks]
    if shape == (1, 1, 1):
        assert new == old
        return
    for got, want in zip(new.checks, old.checks):
        assert (got.name, got.claimed) == (want.name, want.claimed)
        atol = DERIVATIVE_ATOL if got.name == "derivative_bound" else 0.0
        assert got.observed == pytest.approx(want.observed, rel=SWEEP_RTOL, abs=atol)


@pytest.mark.parametrize("budget", [-1, -5])
def test_a_negative_sample_budget_is_refused(budget):
    with pytest.raises(ValueError, match=f"sample_budget must be non-negative, got {budget}"):
        check_assumptions(geometric_spec(0.5, 0.4, 0.3), standard_params(), budget)


def test_the_sweep_makes_no_per_segment_evaluation(monkeypatch):
    calls = []
    reference = core.eval_coefficient

    def counted(*args):
        calls.append(args[1])
        return reference(*args)

    monkeypatch.setattr(core, "eval_coefficient", counted)
    monkeypatch.setattr(solver, "eval_coefficient", counted)
    for spec in (geometric_spec(0.5, 0.4, 0.3), window_spec(0.5),
                 pointwise_delay_spec(0.3, 0.3, 0.0, 0.2, 0.2, 0.0, tau=0.5)):
        check_assumptions(spec, standard_params(), 200)
    assert calls == []
    # the counter is live: the mollified drift still evaluates per segment
    seg = segment_at(GridPath(-0.25, 1 / 32, np.ones(9)), 0.0, 0.25)
    z = GridPath(0.0, 1 / 64, np.linspace(0.0, 1.0, 65))
    solver.MollifiedDrift(geometric_spec(0.5, 0.4, 0.3), z, 4)(0.0, seg)
    assert calls == ["a", "c"]
