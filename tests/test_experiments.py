import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sddelab.core import (
    CoeffBlock,
    CoefficientSpec,
    constant_initial,
    geometric_spec,
    pointwise_delay_spec,
)
from sddelab import experiments
from sddelab.experiments import (
    ExceedanceEstimate,
    ExperimentConfig,
    ExperimentError,
    LevelResult,
    _median,
    _monotone_violations,
    estimate_exceedance,
    lognormal_terminal_second_moment,
    quasi_contraction_order,
    run_experiment,
)

from helpers import standard_params


def _bits(x):
    return np.float64(x).view(np.int64)


_MEDIAN_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e308, -1e308]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_MEDIAN_VALUES, min_size=1, max_size=40))
def test_median_is_numpy_median_bit_for_bit(values):
    """Odd and even sizes, signed zeros, +-inf, overflow of lo + hi and NaN."""
    arr = np.array(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # +-inf and 1e308 are inputs here
        assert _bits(_median(arr)) == _bits(np.median(arr))


def zero_spec():
    return CoefficientSpec(
        "constant", 1, 1, 1,
        CoeffBlock.build(1, 1), CoeffBlock.build(1, 1), CoeffBlock.build(1, 1),
    )


def make_config(kind, **overrides):
    base = dict(
        kind=kind,
        spec=geometric_spec(0.5, 0.4, 0.3),
        params=standard_params(),
        initial=constant_initial(1.0, 0.0, 1.0 / 128),
        horizon=1.0,
        n_steps=128,
        levels=(16, 32, 64, 128),
        replicas=30,
        epsilon=0.1,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExceedance:
    def test_all_zero_distances(self):
        est = estimate_exceedance(np.zeros(50), 0.1)
        assert est.estimate == 0.0
        # Wilson upper bound with zero successes: z^2 / (n + z^2)
        assert est.ci_high == pytest.approx(0.0713476, abs=1e-6)

    def test_all_exceed(self):
        est = estimate_exceedance(np.ones(40), 0.1)
        assert est.estimate == 1.0
        assert est.ci_high == 1.0

    def test_half_exceed_symmetric(self):
        d = np.concatenate([np.zeros(50), np.ones(50)])
        est = estimate_exceedance(d, 0.5)
        assert est.estimate == 0.5
        assert est.ci_high - 0.5 == pytest.approx(0.5 - est.ci_low, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ExperimentError):
            estimate_exceedance(np.zeros(29), 0.1)

    @given(
        st.lists(st.floats(min_value=0, max_value=10), min_size=30, max_size=200),
        st.floats(min_value=0.01, max_value=5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_interval_contains_estimate_and_stays_in_unit_range(self, dists, eps):
        est = estimate_exceedance(np.array(dists), eps)
        assert 0.0 <= est.ci_low <= est.estimate <= est.ci_high <= 1.0


def test_quasi_contraction_order_examples():
    assert quasi_contraction_order(0.35) == 14.0  # 4 / 0.3 = 13.33 -> 14
    assert quasi_contraction_order(0.3) == 10.0  # 4 / 0.4 = 10 exactly
    assert quasi_contraction_order(0.25) == 8.0


class TestConfigInvariants:
    def test_replica_floor(self):
        with pytest.raises(ExperimentError):
            make_config("euler_refinement", replicas=10)

    def test_monotone_levels(self):
        with pytest.raises(ExperimentError):
            make_config("euler_refinement", levels=(16, 8, 32))

    def test_positive_epsilon(self):
        with pytest.raises(ExperimentError):
            make_config("euler_refinement", epsilon=0.0)

    def test_unknown_kind(self):
        with pytest.raises(ExperimentError):
            make_config("bifurcation")


class TestCoefficientConvergence:
    def test_zero_perturbation_gives_exact_zero(self):
        cfg = make_config(
            "coeff_convergence", levels=(1, 2, 4), n_steps=64,
            initial=constant_initial(1.0, 0.0, 1.0 / 64), perturbation="none",
            emit_distances=True,
        )
        rep = run_experiment(cfg)
        for lv in rep.levels:
            assert lv.exceedance.estimate == 0.0
            assert all(d == 0.0 for d in lv.distances)
        assert rep.passed

    def test_drift_shift_decays_and_passes(self):
        cfg = make_config(
            "coeff_convergence", levels=(1, 4, 16, 64), n_steps=256,
            initial=constant_initial(1.0, 0.0, 1.0 / 256),
            perturbation="drift_shift", replicas=60,
        )
        rep = run_experiment(cfg)
        assert rep.levels[-1].exceedance.estimate < 0.05
        assert rep.levels[0].mean_distance > rep.levels[-1].mean_distance
        assert rep.passed

    def test_initial_shift_slope_trend(self):
        """Mean distance under an initial shift of size 1/n decays like 1/n:
        the log-log slope sits within -1 +/- 0.3 (reported as a trend only)."""
        cfg = make_config(
            "coeff_convergence", levels=(1, 2, 4, 8, 16, 32, 64), n_steps=256,
            initial=constant_initial(1.0, 0.0, 1.0 / 256),
            perturbation="initial_shift", replicas=40,
        )
        rep = run_experiment(cfg)
        means = np.array([lv.mean_distance for lv in rep.levels])
        slope = np.polyfit(np.log(cfg.levels), np.log(means), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.3)


class TestVanishingDelay:
    def test_delay_insensitive_coefficients_give_zero(self):
        spec = pointwise_delay_spec(0.4, 0.0, 0.3, 0.0, 0.2, 0.0, tau=0.25)
        cfg = make_config(
            "vanishing_delay", spec=spec, levels=(0.25, 0.125, 0.0625),
            initial=constant_initial(1.0, 0.25, 1.0 / 128), emit_distances=True,
        )
        rep = run_experiment(cfg)
        for lv in rep.levels:
            assert all(d == 0.0 for d in lv.distances)

    def test_constant_coefficients_ignore_the_tap(self):
        spec = CoefficientSpec(
            "pointwise_delay", 1, 1, 1,
            CoeffBlock.build(1, 1, const=0.5),
            CoeffBlock.build(1, 1, const=0.3),
            CoeffBlock.build(1, 1, const=0.2),
            tau=0.25,
        )
        cfg = make_config(
            "vanishing_delay", spec=spec, levels=(0.25, 0.125),
            initial=constant_initial(1.0, 0.25, 1.0 / 128), emit_distances=True,
        )
        rep = run_experiment(cfg)
        for lv in rep.levels:
            assert all(d == 0.0 for d in lv.distances)

    def test_misaligned_tap_rejected(self):
        spec = pointwise_delay_spec(0.3, 0.3, 0.0, 0.2, 0.2, 0.0, tau=0.25)
        cfg = make_config(
            "vanishing_delay", spec=spec, levels=(0.25, 0.1),
            initial=constant_initial(1.0, 0.25, 1.0 / 128),
        )
        with pytest.raises(ExperimentError):
            run_experiment(cfg)

    def test_linear_taps_decay(self):
        spec = pointwise_delay_spec(0.3, 0.3, 0.0, 0.2, 0.2, 0.0, tau=0.5)
        cfg = make_config(
            "vanishing_delay", spec=spec,
            levels=tuple(2.0**-k for k in range(1, 6)),
            initial=constant_initial(1.0, 0.5, 1.0 / 256), n_steps=256, replicas=60,
        )
        rep = run_experiment(cfg)
        assert rep.levels[-1].exceedance.estimate < 0.05
        assert rep.passed


class TestEulerRefinement:
    def test_zero_coefficients_error_free(self):
        cfg = make_config(
            "euler_refinement", spec=zero_spec(), levels=(16, 64),
            initial=constant_initial(1.0, 0.0, 1.0 / 64), emit_distances=True,
            reference="fine_euler",
        )
        rep = run_experiment(cfg)
        for lv in rep.levels:
            assert all(d == 0.0 for d in lv.distances)

    def test_closed_form_reference_requires_geometric(self):
        cfg = make_config(
            "euler_refinement", spec=zero_spec(), levels=(16, 64),
            initial=constant_initial(1.0, 0.0, 1.0 / 64),
        )
        with pytest.raises(ExperimentError):
            run_experiment(cfg)

    def test_fine_euler_reference_decays(self):
        cfg = make_config(
            "euler_refinement", levels=(16, 64, 256), reference="fine_euler",
            replicas=40,
        )
        rep = run_experiment(cfg)
        means = [lv.mean_distance for lv in rep.levels]
        assert means[0] > means[-1]
        assert rep.reference == "fine_euler"


class TestItoLimit:
    def test_no_rough_term_gives_zero_distance(self):
        cfg = make_config(
            "ito_limit", spec=geometric_spec(0.5, 0.4, 0.0), levels=(4, 8),
            n_steps=128, emit_distances=True,
        )
        rep = run_experiment(cfg)
        for lv in rep.levels:
            assert all(d == 0.0 for d in lv.distances)

    def test_mesh_compatibility_guard(self):
        cfg = make_config("ito_limit", levels=(4, 64), n_steps=64)
        with pytest.raises(ExperimentError,
                           match=r"^mesh dt=0\.015625 too coarse for mollifier level 64$"):
            run_experiment(cfg)
        # a quarter window of the finest level is the coarsest mesh admitted
        experiments._check_ito(make_config("ito_limit", levels=(4, 64), n_steps=256))

    def test_distance_decreases_in_level(self):
        cfg = make_config("ito_limit", levels=(4, 16, 64), n_steps=512, replicas=30)
        rep = run_experiment(cfg)
        means = [lv.mean_distance for lv in rep.levels]
        assert means[0] > means[1] > means[2]
        assert rep.passed


class TestMoments:
    def test_frozen_dynamics_have_unit_moments(self):
        cfg = make_config(
            "moments", spec=zero_spec(), levels=(2.0, 4.0), n_steps=64,
            initial=constant_initial(1.0, 0.0, 1.0 / 64),
        )
        rep = run_experiment(cfg)
        assert rep.sup_moments == (1.0, 1.0)
        assert rep.stability_rel_change == 0.0

    def test_geometric_dominates_terminal_oracle(self):
        cfg = make_config("moments", levels=(2.0, 4.0), n_steps=128, replicas=400)
        rep = run_experiment(cfg)
        assert rep.oracle_second_moment == pytest.approx(
            lognormal_terminal_second_moment(0.5, 0.4, 0.3, 1.0, 1.0, 0.75)
        )
        assert rep.passed
        assert rep.sup_moments[0] >= rep.oracle_second_moment - 3 * 0.5  # loose guard

    def test_truncated_moments_monotone_in_p_on_large_norms(self):
        cfg = make_config("moments", levels=(2.0, 4.0), n_steps=128, replicas=100)
        rep = run_experiment(cfg)
        assert rep.truncated_moments[0] >= 0.0
        assert 0.0 <= rep.trunc_fraction <= 1.0


class TestQuasiContract:
    def test_identical_drivers_give_zero_everywhere(self):
        # c = 0: the rough driver never enters, numerators vanish
        cfg = make_config(
            "quasi_contract", spec=geometric_spec(0.5, 0.4, 0.0),
            levels=(0.1, 0.05), n_steps=64, m_trunc=50.0,
        )
        rep = run_experiment(cfg)
        assert all(n == 0.0 for n in rep.numerators)
        assert all(r == 0.0 for r in rep.ratios if r is not None)

    def test_ratio_bounded_across_perturbation_sizes(self):
        cfg = make_config(
            "quasi_contract", levels=(0.1, 0.05, 0.025), n_steps=128,
            replicas=60, m_trunc=25.0,
        )
        rep = run_experiment(cfg)
        finite = [r for r in rep.ratios if r]
        assert finite and max(finite) / min(finite) < 10.0
        assert rep.passed

    def test_empty_indicator_is_flagged_inconclusive(self):
        cfg = make_config(
            "quasi_contract", levels=(0.1, 0.05), n_steps=128, m_trunc=1e-6,
        )
        rep = run_experiment(cfg)
        assert not rep.passed
        assert rep.indicator_counts == (0, 0)
        assert rep.reasons == ("indicator event empty in every level: inconclusive",)

    def test_zero_driver_distance_has_its_own_reason(self):
        # eps = 0 alone: the indicator event holds, but both distances vanish
        cfg = make_config("quasi_contract", levels=(0.0,), n_steps=64, m_trunc=50.0)
        rep = run_experiment(cfg)
        assert not rep.passed
        assert rep.indicator_counts[0] > 0 and rep.denominators == (0.0,)
        assert rep.ratios == (None,)
        assert len(rep.reasons) == 1 and "driver distance 0" in rep.reasons[0]
        assert "epsilon 0" in rep.reasons[0] and "empty in every level" not in rep.reasons[0]

    def test_all_zero_ratios_have_their_own_reason(self):
        # c = 0: the solutions ignore the driver, so every ratio is 0
        cfg = make_config(
            "quasi_contract", spec=geometric_spec(0.5, 0.4, 0.0),
            levels=(0.1, 0.05), n_steps=64, m_trunc=50.0,
        )
        rep = run_experiment(cfg)
        assert not rep.passed
        assert all(c > 0 for c in rep.indicator_counts) and rep.ratios == (0.0, 0.0)
        assert rep.reasons == ("every defined ratio is 0 (solutions do not move): inconclusive",)

    def test_unperturbed_level_reports_not_applicable(self):
        # eps = 0 makes both sides vanish; the ratio is reported as None
        cfg = make_config(
            "quasi_contract", levels=(0.1, 0.0), n_steps=64, m_trunc=50.0,
        )
        rep = run_experiment(cfg)
        assert rep.ratios[1] is None
        assert rep.numerators[1] == 0.0 and rep.denominators[1] == 0.0


class TestAggregation:
    @pytest.mark.parametrize("kind,extra", [
        ("euler_refinement", {}),
        ("moments", dict(levels=(2.0, 4.0))),
        ("coeff_convergence", dict(levels=(1, 2, 4), perturbation="drift_shift")),
        ("vanishing_delay", dict(
            spec=pointwise_delay_spec(0.3, 0.3, 0.0, 0.2, 0.2, 0.0, tau=0.25),
            levels=(0.25, 0.125), initial=constant_initial(1.0, 0.25, 1.0 / 64))),
        ("ito_limit", dict(levels=(4, 8))),
        ("quasi_contract", dict(levels=(0.1, 0.05), m_trunc=25.0)),
    ])
    def test_worker_count_does_not_change_the_report(self, kind, extra):
        base = dict(n_steps=64, replicas=32, emit_distances=True)
        base.update(extra)
        r1 = run_experiment(make_config(kind, **base, workers=1))
        r2 = run_experiment(make_config(kind, **base, workers=2))
        if kind in ("moments", "quasi_contract"):
            assert r1.to_dict() == r2.to_dict()
        else:
            assert r1.to_dict(True) == r2.to_dict(True)

    def test_monotone_violation_detection(self):
        def lv(level, est, lo, hi):
            return LevelResult(level, ExceedanceEstimate(est, lo, hi, 100), 0.0, 0.0)

        fine = (lv(1, 0.5, 0.4, 0.6), lv(2, 0.55, 0.45, 0.65))  # overlapping: ok
        assert _monotone_violations(fine) == []
        bad = (lv(1, 0.1, 0.05, 0.17), lv(2, 0.5, 0.4, 0.6))  # disjoint rise
        assert len(_monotone_violations(bad)) == 1

    def test_report_dict_roundtrips_through_json(self):
        import json

        cfg = make_config("euler_refinement", n_steps=64, levels=(16, 64))
        rep = run_experiment(cfg)
        blob = json.dumps(rep.to_dict(), sort_keys=True)
        assert json.loads(blob)["kind"] == "euler_refinement"
