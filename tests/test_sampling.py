import numpy as np
import pytest
from hypothesis import given, strategies as st

from pdecontrol.sampling import AnchorBalls, Box, rng_for, sample_omega, sample_theta


def test_omega_determinism(unit_interval):
    a = sample_omega(unit_interval, 3, seed=42)
    b = sample_omega(unit_interval, 3, seed=42)
    assert a.tobytes() == b.tobytes()


def test_omega_points_inside_open_box():
    dom = (np.array([-1.0, 2.0]), np.array([1.0, 3.0]))
    pts = sample_omega(dom, 500, seed=1)
    assert np.all(pts > dom[0]) and np.all(pts < dom[1])


def test_omega_mean_law_of_large_numbers(unit_interval):
    pts = sample_omega(unit_interval, 100_000, seed=3)
    assert abs(pts.mean() - 0.5) < 0.01


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_different_streams_differ(seed):
    dom = (np.array([0.0]), np.array([1.0]))
    a = sample_omega(dom, 8, seed, stream=0)
    b = sample_omega(dom, 8, seed, stream=1)
    assert not np.array_equal(a, b)


def test_different_seeds_differ(unit_interval):
    a = sample_omega(unit_interval, 16, seed=1)
    b = sample_omega(unit_interval, 16, seed=2)
    assert not np.array_equal(a, b)


def test_box_sampling_range():
    box = Box(half_width=1.0, dim=5)
    pts = sample_theta(box, 200, seed=0)
    assert pts.shape == (200, 5)
    assert np.abs(pts).max() <= 1.0
    assert box.inside(pts).all()


def test_anchor_ball_radius():
    anchors = np.array([[0.0, 0.0, 0.0]])
    space = AnchorBalls(anchors=anchors, radius=3.0)
    pts = sample_theta(space, 10_000, seed=5)
    d = np.linalg.norm(pts, axis=1)
    assert d.max() <= 3.0 + 1e-12


def test_anchor_membership_multiple():
    rng = np.random.default_rng(0)
    anchors = rng.uniform(-5, 5, (4, 6))
    space = AnchorBalls(anchors=anchors, radius=2.0)
    pts = sample_theta(space, 500, seed=9)
    assert space.inside(pts).all()


def test_anchor_coverage():
    # with n >> #anchors every anchor should be selected at least once
    anchors = np.eye(3) * 100.0  # far apart so membership identifies the anchor
    space = AnchorBalls(anchors=anchors, radius=1.0)
    pts = sample_theta(space, 600, seed=2)
    owners = np.argmin(
        np.linalg.norm(pts[:, None, :] - anchors[None, :, :], axis=2), axis=1
    )
    assert set(owners.tolist()) == {0, 1, 2}


@pytest.mark.parametrize(
    "space", [Box(half_width=1.0, dim=3), AnchorBalls(anchors=np.arange(12.0).reshape(4, 3), radius=0.5)]
)
def test_theta_prefix_stable(space):
    # point i depends only on (seed, stream, i): a count change keeps the prefix
    assert sample_theta(space, 8, seed=3)[:4].tobytes() == sample_theta(space, 4, seed=3).tobytes()


def test_theta_determinism():
    box = Box(half_width=2.0, dim=3)
    a = sample_theta(box, 11, seed=77)
    b = sample_theta(box, 11, seed=77)
    assert a.tobytes() == b.tobytes()


def test_rng_for_independent_of_call_order():
    a = rng_for(5, stream=3).random(4)
    _ = rng_for(5, stream=9).random(100)
    b = rng_for(5, stream=3).random(4)
    assert np.array_equal(a, b)


def test_space_validation():
    with pytest.raises(ValueError):
        Box(half_width=0.0, dim=2)
    with pytest.raises(ValueError):
        AnchorBalls(anchors=np.zeros((0, 3)), radius=1.0)
    with pytest.raises(ValueError):
        AnchorBalls(anchors=np.zeros((2, 3)), radius=0.0)
