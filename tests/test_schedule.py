import numpy as np
import pytest

from oracles import schedule
from scenediff.schedule import NoiseSchedule, UniformTransition, make_schedule


def explicit_product(trans, t):
    q = np.eye(trans.num_classes)
    for s in range(1, t + 1):
        q = q @ trans.single_step_matrix(s)
    return q


def test_make_schedule_validation():
    with pytest.raises(ValueError):
        make_schedule("cosine", 0)
    for kind in ("exotic", "linear"):  # cosine is the one schedule
        with pytest.raises(ValueError, match="unknown schedule kind"):
            make_schedule(kind, 10)


def test_cosine_builds_for_every_step_count():
    # so a config needs no rule on num_steps beyond "at least 1"
    for num_steps in (*range(1, 3001), 10 ** 5, 10 ** 6):
        assert make_schedule("cosine", num_steps).num_steps == num_steps


def test_cosine_decreasing_and_terminal():
    s = make_schedule("cosine", 100)
    assert s.alpha_bar_at(1) > s.alpha_bar_at(50) > s.alpha_bar_at(100)
    assert s.alpha_bar_at(100) < 1e-3


def test_product_identity_both_kinds():
    # a schedule is beta alone; alpha_bar is the product it implies
    np.testing.assert_array_equal(NoiseSchedule([0.1, 0.2]).alpha_bar, np.cumprod([0.9, 0.8]))
    for kind in ("cosine", "linear"):
        s = schedule(kind, 60)
        np.testing.assert_array_equal(s.alpha_bar, np.cumprod(1 - s.beta))


def test_alpha_bar_zero_convention_and_range_check():
    s = make_schedule("cosine", 10)
    assert s.alpha_bar_at(0) == 1.0
    with pytest.raises(ValueError):
        s.beta_at(11)
    with pytest.raises(ValueError):
        s.alpha_bar_at(-1)


def test_schedule_invariants_enforced():
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([0.0, 0.1]))
    with pytest.raises(ValueError):  # beta = 1 leaves alpha_bar at 0 from then on
        NoiseSchedule(np.array([1.0, 0.5]))
    with pytest.raises(ValueError):  # alpha_bar underflows to 0
        NoiseSchedule(np.full(400, 0.9))
    with pytest.raises(ValueError):
        NoiseSchedule(np.full((2, 2), 0.1))


def test_rows_sum_to_one():
    for k in (2, 7, 64):
        trans = UniformTransition(k, make_schedule("cosine", 20))
        for t in (1, 10, 20):
            q = trans.single_step_matrix(t)
            qbar = trans.cumulative_matrix(t)
            np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(q.sum(axis=0), 1.0, atol=1e-12)  # doubly stochastic
            np.testing.assert_allclose(qbar.sum(axis=1), 1.0, atol=1e-12)


def test_cumulative_matches_explicit_product():
    for kind in ("cosine", "linear"):
        trans = UniformTransition(5, schedule(kind, 40))
        q = np.eye(5)
        for t in range(1, 41):
            q = q @ trans.single_step_matrix(t)
            assert np.max(np.abs(q - trans.cumulative_matrix(t))) < 1e-10
