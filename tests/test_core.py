import re

import numpy as np
import pytest

from sddelab import GridPath
from sddelab.core import (
    CoeffBlock,
    CoefficientSpec,
    HolderParams,
    InitialCondition,
    ParamError,
    check_assumptions,
    constant_initial,
    eval_coefficient,
    geometric_spec,
    pointwise_delay_spec,
    segment_at,
)
from sddelab.grid import GridError

from helpers import standard_params, window_spec


class TestHolderParams:
    def test_valid_bundle(self):
        p = standard_params()
        assert p.alpha == 0.35

    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(gamma=0.5, alpha=0.3, theta=0.4, hurst=0.75), "gamma must exceed 1/2"),
            (dict(gamma=0.7, alpha=0.6, theta=0.4, hurst=0.75), "alpha must lie in (1-gamma, 1/2)"),
            (dict(gamma=0.7, alpha=0.25, theta=0.4, hurst=0.75), "alpha must lie in (1-gamma, 1/2)"),
            (dict(gamma=0.7, alpha=0.35, theta=0.6, hurst=0.75), "theta must lie in (1-gamma, 1/2)"),
            (dict(gamma=0.7, alpha=0.35, theta=0.4, hurst=0.75, beta=0.2), "beta must lie in (1-gamma, 1]"),
            (dict(gamma=0.8, alpha=0.35, theta=0.4, hurst=0.75), "gamma must be strictly below hurst"),
            (dict(gamma=0.7, alpha=0.35, theta=0.4, hurst=1.2), "hurst must lie in (1/2, 1)"),
        ],
    )
    def test_each_constraint_is_named(self, kwargs, fragment):
        with pytest.raises(ParamError, match=None) as err:
            HolderParams(**kwargs)
        assert fragment in str(err.value)


class TestSegment:
    def test_constant_path(self):
        p = GridPath(-1.0, 0.25, np.full(13, 4.0))
        seg = segment_at(p, 1.0, 1.0)
        assert seg.sup_norm() == 4.0
        assert seg.value_at(0.0)[0] == 4.0
        assert seg.value_at(-1.0)[0] == 4.0

    def test_identity_path_window(self):
        # xi(s) = s on [-1, 2]: the segment at t=1 is psi(u) = 1 + u
        p = GridPath(-1.0, 0.25, np.linspace(-1, 2, 13))
        seg = segment_at(p, 1.0, 1.0)
        assert seg.value_at(-1.0)[0] == pytest.approx(0.0)
        assert seg.value_at(0.0)[0] == pytest.approx(1.0)
        assert seg.sup_norm() == pytest.approx(1.0)

    def test_anchor_read_matches_direct_indexing(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(8, 64))
            vals = rng.standard_normal(n + 1)
            p = GridPath(-0.5, 1.0 / n, vals)
            k = int(rng.integers(n // 2, n + 1))
            lookback = int(rng.integers(0, n // 2))
            seg = segment_at(p, -0.5 + k / n, lookback / n)
            assert seg.value_at(0.0)[0] == vals[k]

    def test_window_values_roundtrip_bitwise(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((33, 2))
        p = GridPath(-0.5, 1 / 32, vals)
        recovered = np.vstack(
            [segment_at(p, -0.5 + k / 32, 0.0).values for k in range(33)]
        )
        np.testing.assert_array_equal(recovered, p.values)

    def test_errors(self):
        p = GridPath(0.0, 0.25, np.zeros(9))
        with pytest.raises(GridError):
            segment_at(p, 3.0, 0.5)  # out of range
        with pytest.raises(GridError):
            segment_at(p, 1.0, 0.3)  # r not a grid multiple
        seg = segment_at(p, 1.0, 0.5)
        with pytest.raises(GridError):
            seg.value_at(-0.75)
        with pytest.raises(GridError):
            seg.value_at(0.1)


class TestEvalCoefficient:
    def test_constant_family_ignores_arguments(self):
        spec = CoefficientSpec(
            "constant", 2, 1, 1,
            CoeffBlock.build(1, 2, const=np.array([[1.0, -2.0]])),
            CoeffBlock.build(1, 2),
            CoeffBlock.build(1, 2),
        )
        p = GridPath(-1.0, 0.5, np.random.default_rng(0).standard_normal((7, 2)))
        seg = segment_at(p, 1.0, 1.0)
        for t in (0.0, 0.7):
            np.testing.assert_array_equal(eval_coefficient(spec, "a", t, seg), [1.0, -2.0])

    def test_linear_identity_gain(self):
        spec = CoefficientSpec(
            "linear", 2, 1, 1,
            CoeffBlock.build(1, 2, gain_now=np.eye(2)),
            CoeffBlock.build(1, 2),
            CoeffBlock.build(1, 2),
            tau=0.5,
        )
        vals = np.tile([1.0, 2.0], (9, 1))
        seg = segment_at(GridPath(-1.0, 0.25, vals), 1.0, 1.0)
        np.testing.assert_allclose(eval_coefficient(spec, "a", 0.0, seg), [1.0, 2.0])

    def test_distributed_uniform_kernel(self):
        # psi(u) = 1 + u on [-1, 0]: integral is 1/2, trapezoid on 2^10 cells
        spec = CoefficientSpec(
            "distributed_delay", 1, 1, 1,
            CoeffBlock.build(1, 1, gain_delay=1.0),
            CoeffBlock.build(1, 1),
            CoeffBlock.build(1, 1),
            delay_span=1.0,
        )
        n = 2**10
        p = GridPath(-1.0, 1.0 / n, np.linspace(0, 1, n + 1))
        seg = segment_at(p, 0.0, 1.0)
        assert eval_coefficient(spec, "a", 0.0, seg)[0] == pytest.approx(0.5, abs=1e-4)

    def test_output_shapes(self):
        spec = CoefficientSpec(
            "no_delay", 2, 3, 2,
            CoeffBlock.build(1, 2, gain_now=1.0),
            CoeffBlock.build(3, 2, gain_now=0.5),
            CoeffBlock.build(2, 2, gain_now=0.25),
        )
        seg = segment_at(GridPath(0.0, 0.5, np.ones((3, 2))), 1.0, 0.0)
        assert eval_coefficient(spec, "a", 0.0, seg).shape == (2,)
        assert eval_coefficient(spec, "b", 0.0, seg).shape == (2, 3)
        assert eval_coefficient(spec, "c", 0.0, seg).shape == (2, 2)

    def test_dimension_mismatch_rejected(self):
        spec = geometric_spec(1.0, 1.0, 1.0)
        seg = segment_at(GridPath(0.0, 0.5, np.ones((3, 2))), 1.0, 0.0)
        with pytest.raises(GridError):
            eval_coefficient(spec, "a", 0.0, seg)

    def test_no_delay_reads_only_the_anchor(self):
        spec = geometric_spec(0.5, 0.4, 0.3)
        rng = np.random.default_rng(5)
        base = rng.standard_normal(9)
        seg1 = segment_at(GridPath(-1.0, 0.25, base), 1.0, 1.0)
        shuffled = base.copy()
        shuffled[:-1] = rng.permutation(shuffled[:-1])
        seg2 = segment_at(GridPath(-1.0, 0.25, shuffled), 1.0, 1.0)
        for which in "abc":
            np.testing.assert_array_equal(
                eval_coefficient(spec, which, 0.3, seg1),
                eval_coefficient(spec, which, 0.3, seg2),
            )


class TestFamilyValidation:
    def test_no_delay_rejects_delay_gains(self):
        with pytest.raises(ParamError):
            CoefficientSpec(
                "no_delay", 1, 1, 1,
                CoeffBlock.build(1, 1, gain_delay=1.0),
                CoeffBlock.build(1, 1),
                CoeffBlock.build(1, 1),
            )

    def test_unknown_family(self):
        with pytest.raises(ParamError):
            CoefficientSpec(
                "polynomial", 1, 1, 1,
                CoeffBlock.build(1, 1), CoeffBlock.build(1, 1), CoeffBlock.build(1, 1),
            )

    def test_constant_family_refuses_gains(self):
        with pytest.raises(ParamError, match="family 'constant' must not carry gains"):
            CoefficientSpec(
                "constant", 1, 1, 1,
                CoeffBlock.build(1, 1, gain_now=0.5),
                CoeffBlock.build(1, 1),
                CoeffBlock.build(1, 1),
            )

    def test_distributed_needs_span(self):
        with pytest.raises(ParamError):
            CoefficientSpec(
                "distributed_delay", 1, 1, 1,
                CoeffBlock.build(1, 1, gain_delay=1.0),
                CoeffBlock.build(1, 1),
                CoeffBlock.build(1, 1),
            )

    @pytest.mark.parametrize("kwargs, message", [
        (dict(gain_now=np.ones((2, 2, 2))), "gain must have shape (1, 2, 2), got (2, 2, 2)"),
        (dict(gain_delay=np.ones((1, 3, 3))), "gain must have shape (1, 2, 2), got (1, 3, 3)"),
        (dict(const=np.ones(3)), "const must have shape (1, 2), got (3,)"),
        (dict(time_modulation="cos"), "time_modulation must be one of ('none', 'sin')"),
    ])
    def test_block_build_checks_its_shapes_and_modulation(self, kwargs, message):
        with pytest.raises(ParamError, match=f"^{re.escape(message)}$"):
            CoeffBlock.build(1, 2, **kwargs)

    def test_spec_checks_the_channel_count_of_each_block(self):
        with pytest.raises(ParamError, match="^diffusion block has 1 channels, expected 2$"):
            CoefficientSpec(
                "no_delay", 1, 2, 1,
                CoeffBlock.build(1, 1), CoeffBlock.build(1, 1), CoeffBlock.build(1, 1),
            )

    def test_geometric_constants(self):
        spec = geometric_spec(0.5, 0.4, 0.3)
        assert spec.growth_constant() == pytest.approx(1.2)
        assert spec.lipschitz_constant() == pytest.approx(1.2)
        assert spec.zderivative_bound() == pytest.approx(0.3)

    def test_merge_delay_folds_gains(self):
        spec = pointwise_delay_spec(0.3, 0.3, 0.0, 0.2, 0.2, 0.0, tau=0.25)
        merged = spec.merge_delay()
        assert merged.family == "no_delay"
        assert merged.drift.gain_now[0, 0, 0] == pytest.approx(0.6)
        assert merged.diffusion.gain_now[0, 0, 0] == pytest.approx(0.2)
        assert merged.zdrive.gain_now[0, 0, 0] == pytest.approx(0.2)


def test_recorded_growth_constant_never_violated():
    """10^4 random segments: |a| + |b| + |c| <= K (1 + ||psi||) with the
    family's own closed-form K."""
    spec = pointwise_delay_spec(0.3, -0.4, 0.1, 0.2, -0.2, 0.15, tau=0.5)
    k = spec.growth_constant()
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        vals = rng.uniform(-1, 1) * np.cumsum(rng.standard_normal(9))
        seg = segment_at(GridPath(-0.5, 1 / 16, vals), 0.0, 0.5)
        t = rng.uniform(0, 1)
        total = sum(
            np.linalg.norm(eval_coefficient(spec, w, t, seg)) for w in "abc"
        )
        assert total <= k * (1.0 + seg.sup_norm()) * (1 + 1e-12)


class TestReach:
    def test_reach_is_the_tap_the_window_span_or_zero(self):
        assert geometric_spec(0.5, 0.4, 0.3).reach == 0.0
        assert pointwise_delay_spec(0.3, 0.3, 0.0, 0.2, 0.2, 0.0, tau=0.3).reach == 0.3
        assert window_spec(0.1).reach == 0.1

    def test_window_integrates_over_delay_span_only(self):
        # psi(u) = 1 + u on [-1, 0]: over [-1/2, 0] the integral is 3/8, and
        # the trapezoid rule is exact on a linear psi
        p = GridPath(-1.0, 1 / 8, np.linspace(0.0, 1.0, 9))
        seg = segment_at(p, 0.0, 1.0)
        assert eval_coefficient(window_spec(0.5), "a", 0.0, seg)[0] == pytest.approx(0.375)
        assert eval_coefficient(window_spec(1.0), "a", 0.0, seg)[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("span, message", [
        (1.5, "window 1.5 does not fit a segment of 8 steps"),
        (0.3, "window 0.3 does not land on the grid"),
    ])
    def test_window_must_land_inside_the_segment(self, span, message):
        seg = segment_at(GridPath(-1.0, 1 / 8, np.ones(9)), 0.0, 1.0)
        with pytest.raises(GridError, match=message):
            eval_coefficient(window_spec(span), "a", 0.0, seg)

    @pytest.mark.parametrize("spec", [
        window_spec(0.1),
        window_spec(0.01),
        pointwise_delay_spec(0.3, 0.3, 0.0, 0.2, 0.2, 0.0, tau=0.1),
    ], ids=["window_0.1", "window_0.01", "tap_0.1"])
    def test_assumptions_hold_for_a_reach_shorter_than_the_default_probe(self, spec):
        """The probes span [-reach, 0], so the window's closed-form K (its
        span) holds and a tap of 0.1 lands on the probe grid."""
        report = check_assumptions(spec, standard_params(), 100)
        assert report.all_passed, report.checks


class TestCheckAssumptions:
    def test_constant_family_passes_with_slack(self):
        spec = CoefficientSpec(
            "constant", 1, 1, 1,
            CoeffBlock.build(1, 1, const=0.5),
            CoeffBlock.build(1, 1, const=0.3),
            CoeffBlock.build(1, 1, const=0.2),
        )
        report = check_assumptions(spec, standard_params(), 100)
        assert report.all_passed
        assert report["linear_growth"].observed < report["linear_growth"].claimed

    def test_overclaimed_growth_constant_fails_with_witness(self):
        report = check_assumptions(
            geometric_spec(2.0, 0.0, 0.0), standard_params(), 100, claimed={"K": 1.0}
        )
        h1 = report["linear_growth"]
        assert not h1.passed
        assert h1.observed > 1.0
        assert "||psi||" in h1.witness
        assert not report.all_passed

    def test_sin_modulated_z_coefficient_is_time_holder(self):
        # |sin t1 - sin t2| <= |t1 - t2| gives H4 with beta = 1
        spec = CoefficientSpec(
            "no_delay", 1, 1, 1,
            CoeffBlock.build(1, 1),
            CoeffBlock.build(1, 1),
            CoeffBlock.build(1, 1, gain_now=1.0, time_modulation="sin"),
        )
        report = check_assumptions(spec, standard_params(), 300)
        assert report["time_holder"].passed
        assert report["time_holder"].observed <= 1.0

    def test_initial_condition_check(self):
        eta = constant_initial(1.0, 0.5, 1 / 64)
        report = check_assumptions(geometric_spec(0.5, 0.4, 0.3), standard_params(),
                                   50, eta=eta)
        assert report["initial_holder"].passed
        assert report["initial_holder"].observed == 0.0


class TestInitialCondition:
    def test_must_end_at_zero(self):
        with pytest.raises(ParamError):
            InitialCondition(GridPath(-1.0, 0.5, np.zeros(2)), 0.45)

    def test_constant_helper(self):
        ic = constant_initial(2.0, 0.5, 1 / 8)
        assert ic.r == pytest.approx(0.5)
        assert ic.eta.n_points == 5
        assert ic.holder_constant() == 0.0

    def test_point_initial_for_no_delay(self):
        ic = constant_initial(np.array([1.0, 2.0]), 0.0, 0.1)
        assert ic.eta.n_points == 1
        assert ic.r == 0.0

    def test_shifted(self):
        ic = constant_initial(1.0, 0.25, 1 / 8).shifted(0.5)
        assert ic.eta.values[0, 0] == 1.5
