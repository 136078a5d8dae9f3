import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sddelab import GridPath, SeedSpec
from sddelab.grid import GridError, grid_steps, refinement, same_time, stack_paths


def test_scalar_values_are_stored_as_a_column():
    p = GridPath(0.0, 0.5, np.array([1.0, 2.0, 3.0]))
    assert p.values.shape == (3, 1)
    assert p.dim == 1
    assert p.n_points == 3
    assert p.end_time == 1.0


def test_times_are_recomputed_from_t0_dt():
    p = GridPath(-1.0, 0.25, np.zeros(9))
    np.testing.assert_allclose(p.times, -1.0 + 0.25 * np.arange(9))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t0=0.0, dt=0.1, values=np.empty((0, 1))),
        dict(t0=0.0, dt=0.0, values=np.ones(4)),
        dict(t0=0.0, dt=-0.1, values=np.ones(4)),
        dict(t0=0.0, dt=0.1, values=np.array([1.0, np.nan])),
        dict(t0=0.0, dt=0.1, values=np.array([1.0, np.inf])),
    ],
)
def test_malformed_paths_rejected(kwargs):
    with pytest.raises(GridError):
        GridPath(**kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("node", [0, 2, -1])
def test_a_non_finite_node_anywhere_is_rejected(bad, node):
    """min and max propagate a NaN: one NaN or infinity at the first, a middle
    or the last node of a block is found."""
    values = np.ones((3, 5, 2))
    values[1, node, 1] = bad
    with pytest.raises(GridError, match="^path values must be finite$"):
        GridPath(0.0, 0.1, values)


def test_wrapping_a_read_only_block_allocates_nothing_of_its_size():
    """The finiteness check of a read-only 50 x 2^14 block, which the path
    keeps as given, peaks below 1% of the block."""
    values = np.ones((50, 2**14 + 1, 1))
    values.flags.writeable = False
    tracemalloc.start()
    try:
        path = GridPath(0.0, 2.0**-14, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.values is values
    assert peak < 0.01 * values.nbytes


def test_values_are_read_only():
    p = GridPath(0.0, 1.0, np.arange(4.0))
    with pytest.raises(ValueError):
        p.values[0] = 99.0


def _read_only_view(arr):
    view = arr.view()
    view.flags.writeable = False
    return view


@pytest.mark.parametrize(
    "wrap", [np.asarray, _read_only_view, lambda arr: np.broadcast_to(arr, (2, 4))])
def test_a_writable_input_is_copied(wrap):
    """The caller may still write its array, also under a read-only view of
    it: the path keeps its own copy."""
    arr = np.arange(4.0)
    p = GridPath(0.0, 1.0, wrap(arr))
    arr[0] = 99.0
    assert p.values[0, 0] == 0.0
    assert not np.shares_memory(p.values, arr)


def test_a_read_only_input_is_kept_as_given():
    arr = np.arange(8.0).reshape(4, 2).copy()  # owns its memory, unlike the reshape
    arr.flags.writeable = False
    p = GridPath(0.0, 1.0, arr)
    assert p.values is arr
    view = arr[1:]
    assert GridPath(0.0, 1.0, view).values is view
    bad = np.array([0.0, np.nan, 1.0])
    bad.flags.writeable = False
    with pytest.raises(GridError):
        GridPath(0.0, 1.0, bad)


def test_restrict_and_window_are_views():
    p = GridPath(-1.0, 0.25, np.arange(9.0))
    for sub in (p.restrict(2), p.window(-0.5, 0.5)):
        assert np.shares_memory(sub.values, p.values)
        assert not sub.values.flags.writeable


def test_index_of_rejects_off_grid_and_out_of_range():
    p = GridPath(0.0, 0.25, np.zeros(5))
    assert p.index_of(0.75) == 3
    with pytest.raises(GridError):
        p.index_of(0.3)
    with pytest.raises(GridError):
        p.index_of(1.25)


@given(st.integers(min_value=0, max_value=256))
def test_index_of_inverts_node_times(k):
    p = GridPath(-0.5, 1 / 256, np.zeros(257))
    assert p.index_of(-0.5 + k / 256) == k


def test_restrict_keeps_every_step_th_node():
    p = GridPath(0.0, 0.125, np.arange(9.0))
    r = p.restrict(4)
    assert r.dt == 0.5
    np.testing.assert_array_equal(r.values[:, 0], [0.0, 4.0, 8.0])
    with pytest.raises(GridError):
        p.restrict(3)  # end node would be lost


def test_window_extracts_a_subgrid():
    p = GridPath(-1.0, 0.25, np.arange(9.0))
    w = p.window(-0.5, 0.5)
    assert w.t0 == -0.5
    assert w.n_points == 5
    with pytest.raises(GridError):
        p.window(0.5, 0.5)


def test_stack_paths_requires_common_grid():
    a = GridPath(0.0, 0.5, np.arange(3.0))
    b = GridPath(0.0, 0.5, np.arange(3.0) * 2)
    s = stack_paths([a, b])
    assert s.dim == 2
    np.testing.assert_array_equal(s.values[:, 1], 2 * s.values[:, 0])
    with pytest.raises(GridError):
        stack_paths([a, GridPath(0.0, 0.25, np.arange(5.0))])


class TestSeedSpec:
    def test_same_spec_same_stream(self):
        a = SeedSpec(123, 4).generator().standard_normal(8)
        b = SeedSpec(123, 4).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_different_streams_differ(self):
        a = SeedSpec(123, 4).generator().standard_normal(8)
        b = SeedSpec(123, 5).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_children_are_independent_streams(self):
        s = SeedSpec(9, 0)
        a = s.child(0).generator().standard_normal(8)
        b = s.child(1).generator().standard_normal(8)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, s.child(0).generator().standard_normal(8))

    @pytest.mark.parametrize("master,stream", [(-1, 0), (2**64, 0), (0, -1)])
    def test_validation(self, master, stream):
        with pytest.raises(ValueError):
            SeedSpec(master, stream)


# --------------------------------------------------------------------------
# the alignment rule, pinned against the predicates each module used to write


def _steps_oracle(x, dt):
    """``x = k dt``: the copy in the solver, the segments and the initial data."""
    k = round(x / dt)
    return None if abs(k * dt - x) > 1e-9 * max(1.0, abs(x)) else k


def _index_oracle(t, t0, dt):
    """``t = t0 + k dt``: the copy in ``GridPath.index_of``."""
    k = round((t - t0) / dt)
    return None if abs(t - (t0 + k * dt)) > 1e-9 * max(1.0, abs(t)) else k


def _ratio_oracle(coarse, fine):
    """``coarse = r fine`` with r >= 1, relative to the coarse step: the driver
    and history checks of the solver."""
    r = round(coarse / fine)
    return None if r < 1 or abs(r * fine - coarse) > 1e-9 * coarse else r


def _or_none(fn, *args):
    try:
        return fn(*args)
    except GridError:
        return None


_STEPS = st.one_of(
    st.sampled_from([1 / 64, 1 / 3, 0.1, 0.25, 1.0, 7.5]),
    st.floats(min_value=1e-4, max_value=10.0),
)


@st.composite
def _times(draw, dt):
    """Arbitrary times, exact multiples of dt and multiples moved by about the
    tolerance, to either side of it; negative times and zero included."""
    k = draw(st.integers(min_value=-10**6, max_value=10**6))
    node = k * dt
    near = node + draw(st.sampled_from([-1, 1])) * draw(
        st.floats(min_value=0.5, max_value=1.5)) * 1e-9 * max(1.0, abs(node))
    return draw(st.one_of(st.just(0.0), st.just(-0.0), st.just(node), st.just(near),
                          st.floats(min_value=-1e3, max_value=1e3)))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_grid_steps_accepts_what_the_old_predicate_accepted(data):
    dt = data.draw(_STEPS)
    x = data.draw(_times(dt))
    assert _or_none(grid_steps, x, dt) == _steps_oracle(x, dt)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_index_of_grid_steps_matches_the_old_index_rule(data):
    dt = data.draw(_STEPS)
    t0 = data.draw(st.one_of(st.just(0.0), st.integers(-50, 0).map(lambda k: k * dt),
                             st.floats(min_value=-5.0, max_value=5.0)))
    t = t0 + data.draw(_times(dt))
    assert _or_none(grid_steps, t, dt, t0) == _index_oracle(t, t0, dt)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_refinement_accepts_what_the_old_ratio_check_accepted(data):
    fine = data.draw(_STEPS)
    r = data.draw(st.integers(min_value=0, max_value=4096))
    coarse = data.draw(st.one_of(
        st.just(r * fine),
        st.floats(min_value=0.5, max_value=1.5).map(lambda f: r * fine * (1 + f * 1e-9)),
        st.floats(min_value=0.5, max_value=1.5).map(lambda f: r * fine * (1 - f * 1e-9)),
        st.floats(min_value=1e-4, max_value=1e3),
    ).filter(lambda c: c > 0))
    assert _or_none(refinement, coarse, fine) == _ratio_oracle(coarse, fine)


def test_alignment_edge_cases():
    assert grid_steps(0.0, 0.1) == 0
    assert grid_steps(-0.75, 0.25) == -3
    assert grid_steps(0.3, 0.1) == 3  # 0.3 / 0.1 = 2.9999999999999996
    with pytest.raises(GridError, match="tap 0.3 does not land on the grid"):
        grid_steps(0.3, 1 / 64, what="tap")
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(GridError):
            grid_steps(bad, 0.25)
    assert same_time(1e-10, 0.0) and not same_time(2e-9, 0.0)
    assert same_time(1000.0 + 5e-7, 1000.0) and not same_time(1000.0 + 2e-6, 1000.0)
    assert not same_time(float("nan"), 0.0)
    assert refinement(0.5, 0.125) == 4
    with pytest.raises(GridError):
        refinement(0.125, 0.5)  # coarser, not finer
