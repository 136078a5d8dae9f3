import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from sddelab import (
    GridPath,
    backward_rl_derivative,
    delay_norms,
    forward_rl_derivative,
    fractional_norms,
    gls_integral,
    riemann_stieltjes_integral,
    young_love_bound,
)
from sddelab import fraccalc
from sddelab.grid import GridError

from helpers import grid_fn, trig_pair

INV_SQRT_PI = 0.5641895835477563  # 1 / sqrt(pi)


class TestForwardDerivative:
    def test_constant_closed_form(self):
        # c / Gamma(1-alpha) * (x-a)^(-alpha); at alpha=1/2, x-a=1: 1/sqrt(pi)
        p = grid_fn(lambda t: np.ones_like(t), 0, 1, 2**12)
        d = forward_rl_derivative(p, 0.5)
        assert d.values[-1, 0] == pytest.approx(INV_SQRT_PI, rel=1e-10)

    def test_zero_function_maps_to_zero(self):
        p = grid_fn(np.zeros_like, 0, 1, 256)
        np.testing.assert_array_equal(forward_rl_derivative(p, 0.3).values, 0.0)

    def test_identity_at_one(self):
        # power rule: Gamma(2)/Gamma(1.5) x^0.5 = 2 sqrt(x/pi)
        p = grid_fn(lambda t: t, 0, 1, 2**12)
        d = forward_rl_derivative(p, 0.5)
        assert d.values[-1, 0] == pytest.approx(2 * INV_SQRT_PI, rel=1e-9)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    def test_power_rule(self, beta, alpha):
        """D^a (x-a)^b = Gamma(b+1)/Gamma(b-a+1) (x-a)^(b-a), checked away
        from the left endpoint."""
        p = grid_fn(lambda t: t**beta, 0, 1, 2**10)
        d = forward_rl_derivative(p, alpha)
        x = d.times
        exact = special.gamma(beta + 1) / special.gamma(beta - alpha + 1) * x ** (beta - alpha)
        mask = x >= 0.05
        rel = np.abs(d.values[mask, 0] - exact[mask]) / np.abs(exact[mask])
        assert rel.max() < 1e-3

    def test_no_value_at_left_endpoint(self):
        p = grid_fn(lambda t: t, 0, 1, 16)
        d = forward_rl_derivative(p, 0.4)
        assert d.t0 == pytest.approx(p.dt)
        assert d.n_points == 16

    def test_non_finite_input_rejected(self):
        with pytest.raises(GridError):
            GridPath(0.0, 0.1, np.array([1.0, np.nan, 2.0]))


class TestBackwardDerivative:
    def test_constant_maps_to_zero(self):
        p = grid_fn(lambda t: np.full_like(t, 5.0), 0, 1, 128)
        np.testing.assert_allclose(backward_rl_derivative(p, 0.4).values, 0.0, atol=1e-12)

    def test_linear_closed_form(self):
        # g(x) = b - x at alpha = 1/2: derivative is 2 sqrt(b-x) / sqrt(pi)
        p = grid_fn(lambda t: 1.0 - t, 0, 1, 2**10)
        d = backward_rl_derivative(p, 0.5)
        k = d.index_of(0.75)
        assert d.values[k, 0] == pytest.approx(INV_SQRT_PI, rel=1e-10)
        exact = 2.0 * np.sqrt(1.0 - d.times) / np.sqrt(np.pi)
        np.testing.assert_allclose(d.values[:, 0], exact, atol=1e-12)

    def test_linearity(self):
        n = 256
        g1 = grid_fn(np.sin, 0, 1, n)
        g2 = grid_fn(lambda t: t**2, 0, 1, n)
        total = grid_fn(lambda t: np.sin(t) + t**2, 0, 1, n)
        lhs = backward_rl_derivative(total, 0.3).values
        rhs = backward_rl_derivative(g1, 0.3).values + backward_rl_derivative(g2, 0.3).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("alpha", [0.25, 0.4])
    @pytest.mark.parametrize("x_query", [0.25, 0.5, 0.875])
    def test_against_adaptive_quadrature(self, alpha, x_query):
        """Independent oracle: scipy adaptive quadrature of the defining
        singular integral for g = sin."""

        def oracle(x, b=1.0):
            tail, _ = integrate.quad(
                lambda u: (np.sin(x) - np.sin(u)) / (u - x) ** (2 - alpha),
                x, b, points=[x], limit=200,
            )
            return (
                (np.sin(x) - np.sin(b)) / (b - x) ** (1 - alpha)
                + (1 - alpha) * tail
            ) / special.gamma(alpha)

        p = grid_fn(np.sin, 0, 1, 2**12)
        d = backward_rl_derivative(p, alpha)
        assert d.values[d.index_of(x_query), 0] == pytest.approx(oracle(x_query), abs=1e-4)

    def test_no_value_at_right_endpoint(self):
        p = grid_fn(lambda t: t, 0, 1, 16)
        d = backward_rl_derivative(p, 0.4)
        assert d.end_time == pytest.approx(1.0 - p.dt)


class TestGlsIntegral:
    def test_integral_of_one_is_total_increment(self):
        f = grid_fn(lambda t: np.ones_like(t), 0, 1, 2**10)
        g = grid_fn(lambda t: t**2, 0, 1, 2**10)
        assert gls_integral(f, g, 0.3) == pytest.approx(1.0, abs=1e-3)

    def test_t_against_t_squared(self):
        f = grid_fn(lambda t: t, 0, 1, 2**14)
        g = grid_fn(lambda t: t**2, 0, 1, 2**14)
        assert gls_integral(f, g, 0.3) == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_sin_against_identity(self):
        f = grid_fn(np.sin, 0, 1, 2**14)
        g = grid_fn(lambda t: t, 0, 1, 2**14)
        assert gls_integral(f, g, 0.25) == pytest.approx(1.0 - np.cos(1.0), abs=1e-3)

    def test_agrees_with_riemann_stieltjes_under_refinement(self):
        """|gls - RS| shrinks on dyadic refinement and ends below 1e-3."""
        gaps = []
        for k in (8, 11, 14):
            f = grid_fn(np.sin, 0, 1, 2**k)
            g = grid_fn(lambda t: t**2, 0, 1, 2**k)
            gaps.append(
                abs(gls_integral(f, g, 0.3) - riemann_stieltjes_integral(f, g, "midpoint"))
            )
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 1e-3

    @pytest.mark.parametrize("alpha", [0.25, 0.3, 0.45])
    def test_additive_over_subintervals(self, alpha):
        """Splitting at the midpoint changes the value by less than 1e-6,
        although every sub-integral recomputes both derivatives from
        scratch (f does not vanish at the inner endpoint)."""
        n = 2**12

        def ffun(t):
            return 0.4 + 0.3 * np.sin(2.1 * t) + 0.2 * np.cos(0.7 * t)

        def gfun(t):
            return 0.5 * t + 0.3 * np.cos(1.7 * t)

        whole = gls_integral(grid_fn(ffun, 0, 1, n), grid_fn(gfun, 0, 1, n), alpha)
        left = gls_integral(grid_fn(ffun, 0, 0.5, n // 2), grid_fn(gfun, 0, 0.5, n // 2), alpha)
        right = gls_integral(grid_fn(ffun, 0.5, 1, n // 2), grid_fn(gfun, 0.5, 1, n // 2), alpha)
        assert abs(whole - (left + right)) < 1e-6

    def test_grid_mismatch_rejected(self):
        f = grid_fn(lambda t: t, 0, 1, 64)
        g = grid_fn(lambda t: t, 0, 1, 128)
        with pytest.raises(GridError):
            gls_integral(f, g, 0.3)


def test_norm_estimate_and_young_love_hold_on_random_smooth_pairs():
    """|int f dg| <= ||f||_{1,a} ||g||_{0,a} / (Gamma(a) Gamma(1-a)) and the
    Young-Love bound, with grid-computed norms: no violations."""
    rng = np.random.default_rng(1234)
    for _ in range(100):
        f, g = trig_pair(rng, n=512)
        alpha = rng.uniform(0.1, 0.45)
        lhs = abs(gls_integral(f, g, alpha))
        # the two norms the estimate pairs, by the kernels fractional_norms calls
        rhs = fraccalc._norm_1_alpha(f.values, f.dt, alpha) * fraccalc._seminorm_0_alpha(
            g.values, g.dt, alpha
        ) / (special.gamma(alpha) * special.gamma(1 - alpha))
        assert lhs <= rhs
        lam, mu = rng.uniform(0.6, 1.0, size=2)
        assert lhs <= young_love_bound(f, g, lam, mu)


class TestRiemannStieltjes:
    def test_constant_integrand_exact(self):
        f = grid_fn(lambda t: np.full_like(t, 2.5), 0, 1, 32)
        g = grid_fn(lambda t: t**3, 0, 1, 32)
        assert riemann_stieltjes_integral(f, g) == pytest.approx(2.5, abs=1e-12)

    def test_two_cell_left_sum_by_hand(self):
        f = grid_fn(lambda t: t, 0, 1, 2)
        assert riemann_stieltjes_integral(f, f, "left") == pytest.approx(0.25)

    @pytest.mark.parametrize("k", range(3, 10))
    def test_left_rule_telescoping_error_bound(self, k):
        n = 2**k
        f = grid_fn(lambda t: t, 0, 1, n)
        err = abs(riemann_stieltjes_integral(f, f, "left") - 0.5)
        assert err <= 1.0 / (2 * n) + 1e-15

    def test_bad_rule_rejected(self):
        f = grid_fn(lambda t: t, 0, 1, 8)
        with pytest.raises(ValueError):
            riemann_stieltjes_integral(f, f, "simpson")


class TestYoungLove:
    def test_zero_integrand(self):
        f = grid_fn(np.zeros_like, 0, 1, 64)
        g = grid_fn(lambda t: t, 0, 1, 64)
        assert young_love_bound(f, g, 0.9, 0.9) == 0.0
        assert gls_integral(f, g, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_identity_pair_closed_form(self):
        # C_{1,1} = (1 - 2^{-1})^{-1} = 2; bound = 2 * 1 * (1 + 1) * 1 = 4
        f = grid_fn(lambda t: t, 0, 1, 64)
        assert young_love_bound(f, f, 1.0, 1.0) == pytest.approx(4.0)

    def test_exponent_gate(self):
        f = grid_fn(lambda t: t, 0, 1, 8)
        with pytest.raises(ValueError):
            young_love_bound(f, f, 0.4, 0.5)


PAIR_FUNCTIONS = {
    "gls": lambda f, g: gls_integral(f, g, 0.3),
    "rs": riemann_stieltjes_integral,
    "young_love": lambda f, g: young_love_bound(f, g, 0.9, 0.9),
}


@pytest.mark.parametrize("name", sorted(PAIR_FUNCTIONS))
def test_pair_functions_refuse_two_grids_and_a_single_point(name):
    """Each function of a pair (f, g) asks two points at least and one grid."""
    call = PAIR_FUNCTIONS[name]
    f = grid_fn(lambda t: t, 0, 1, 8)
    with pytest.raises(GridError, match="^f and g must live on a common grid$"):
        call(f, grid_fn(lambda t: t, 0, 1, 16))
    point = GridPath(0.0, 0.125, np.ones(1))
    with pytest.raises(GridError, match="^need at least two grid points$"):
        call(point, f)
    with pytest.raises(GridError, match="^need at least two grid points$"):
        call(f, point)


_COMPONENTS = st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0),
) | st.sampled_from([0.0, -0.0])


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda d: st.lists(st.lists(_COMPONENTS, min_size=d, max_size=d), min_size=1, max_size=6)))
def test_vector_magnitudes_keep_the_norms_bits_and_scale_past_its_overflow(rows):
    """d = 2, 3 with components from 1e-300 to 1e300: wherever
    ``np.linalg.norm`` is finite, ``_mags`` has its bits; where it overflows,
    ``_mags`` is the finite Euclidean length (``math.hypot``)."""
    values = np.array(rows)
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(values, axis=-1)
    mags = fraccalc._mags(values)
    finite = np.isfinite(norms)
    assert np.array_equal(mags[finite], norms[finite])
    for row, mag in zip(values[~finite], mags[~finite]):
        assert mag == pytest.approx(math.hypot(*row), rel=1e-15)


class TestFractionalNorms:
    def test_zero_function(self):
        nb = fractional_norms(grid_fn(np.zeros_like, 0, 1, 128), 0.3)
        assert (nb.norm_1_alpha, nb.seminorm_0_alpha, nb.sup_norm, nb.holder) == (0, 0, 0, 0)

    def test_constant_norm_closed_form(self):
        # only the endpoint-weight term survives: |c| int t^-a dt = |c|/(1-a)
        nb = fractional_norms(grid_fn(lambda t: np.full_like(t, 2.0), 0, 1, 512), 0.25)
        assert nb.norm_1_alpha == pytest.approx(2.0 / 0.75, rel=1e-9)
        assert nb.seminorm_0_alpha == 0.0

    def test_identity_seminorm_closed_form(self):
        # sup over (s,t) of [(t-s)^a + (t-s)^a / a] = 1 + 1/a at t-s = 1
        nb = fractional_norms(grid_fn(lambda t: t, 0, 1, 512), 0.5)
        assert nb.seminorm_0_alpha == pytest.approx(3.0, rel=1e-9)

    def test_identity_norm_1_closed_form(self):
        # int t^{1-a}/(1-a) dt + int t * t^-a dt = 1/((1-a)(2-a)) + 1/(2-a)
        alpha = 0.5
        nb = fractional_norms(grid_fn(lambda t: t, 0, 1, 2**10), alpha)
        exact = 1.0 / ((1 - alpha) * (2 - alpha)) + 1.0 / (2 - alpha)
        assert nb.norm_1_alpha == pytest.approx(exact, rel=1e-4)


class TestDelayNorms:
    def test_constant_path(self):
        p = GridPath(-1.0, 1 / 64, np.full(129, -3.0))
        dn = delay_norms(p, 0.25, 1.0, 1.0)
        assert dn.norm_inf_t == 3.0
        assert dn.norm_1_t == 0.0
        assert dn.norm_t == 3.0

    def test_identity_closed_form(self):
        # shifted sup of the identity is (t-s); the kernel integral is
        # int_0^1 (1-s)^(-1/4) ds = 4/3
        n = 2**10
        p = GridPath(-1.0, 2.0 / n, np.linspace(-1, 1, n + 1))
        dn = delay_norms(p, 0.25, 1.0, 1.0)
        assert dn.norm_inf_t == pytest.approx(1.0)
        assert dn.norm_1_t == pytest.approx(4.0 / 3.0, rel=1e-9)

    def test_sum_identity_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            vals = np.cumsum(rng.standard_normal(65)) * 0.1
            p = GridPath(-0.5, 1 / 64, vals)
            dn = delay_norms(p, 0.35, 0.5, 0.5)
            assert dn.norm_t == dn.norm_inf_t + dn.norm_1_t  # exact by construction

    def test_monotone_in_t(self):
        rng = np.random.default_rng(99)
        vals = np.cumsum(rng.standard_normal(129)) * 0.1
        p = GridPath(-0.5, 1 / 64, vals)
        previous = (0.0, 0.0)
        for t in (0.25, 0.5, 0.75, 1.0, 1.5):
            dn = delay_norms(p, 0.35, 0.5, t)
            assert dn.norm_inf_t >= previous[0]
            assert dn.norm_1_t >= previous[1] - 1e-12
            previous = (dn.norm_inf_t, dn.norm_1_t)

    def test_nonpositive_t_rejected(self):
        p = GridPath(-1.0, 1 / 8, np.zeros(17))
        with pytest.raises(ValueError):
            delay_norms(p, 0.3, 1.0, 0.0)
