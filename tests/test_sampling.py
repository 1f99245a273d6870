import numpy as np
import pytest
from hypothesis import given, strategies as st

from pdecontrol.sampling import AnchorBalls, Box, Purpose, rng_for, sample_omega, sample_theta, stream_key


def test_omega_determinism(unit_interval):
    a = sample_omega(unit_interval, 3, seed=42, purpose=Purpose.GRAM_POINTS)
    b = sample_omega(unit_interval, 3, seed=42, purpose=Purpose.GRAM_POINTS)
    assert a.tobytes() == b.tobytes()


def test_omega_points_inside_open_box():
    dom = (np.array([-1.0, 2.0]), np.array([1.0, 3.0]))
    pts = sample_omega(dom, 500, seed=1, purpose=Purpose.GRAM_POINTS)
    assert np.all(pts > dom[0]) and np.all(pts < dom[1])


def test_omega_mean_law_of_large_numbers(unit_interval):
    pts = sample_omega(unit_interval, 100_000, seed=3, purpose=Purpose.GRAM_POINTS)
    assert abs(pts.mean() - 0.5) < 0.01


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_different_streams_differ(seed):
    dom = (np.array([0.0]), np.array([1.0]))
    a = sample_omega(dom, 8, seed, Purpose.GRAM_POINTS, 0)
    b = sample_omega(dom, 8, seed, Purpose.GRAM_POINTS, 1)
    assert not np.array_equal(a, b)


def test_different_seeds_differ(unit_interval):
    a = sample_omega(unit_interval, 16, seed=1, purpose=Purpose.GRAM_POINTS)
    b = sample_omega(unit_interval, 16, seed=2, purpose=Purpose.GRAM_POINTS)
    assert not np.array_equal(a, b)


def test_box_sampling_range():
    box = Box(half_width=1.0, dim=5)
    pts = sample_theta(box, 200, seed=0, purpose=Purpose.GRAM_THETA)
    assert pts.shape == (200, 5)
    assert np.abs(pts).max() <= 1.0
    assert box.inside(pts).all()


def test_anchor_ball_radius():
    anchors = np.array([[0.0, 0.0, 0.0]])
    space = AnchorBalls(anchors=anchors, radius=3.0)
    pts = sample_theta(space, 10_000, seed=5, purpose=Purpose.GRAM_THETA)
    d = np.linalg.norm(pts, axis=1)
    assert d.max() <= 3.0 + 1e-12


def test_anchor_membership_multiple():
    rng = np.random.default_rng(0)
    anchors = rng.uniform(-5, 5, (4, 6))
    space = AnchorBalls(anchors=anchors, radius=2.0)
    pts = sample_theta(space, 500, seed=9, purpose=Purpose.GRAM_THETA)
    assert space.inside(pts).all()


def test_anchor_coverage():
    # with n >> #anchors every anchor should be selected at least once
    anchors = np.eye(3) * 100.0  # far apart so membership identifies the anchor
    space = AnchorBalls(anchors=anchors, radius=1.0)
    pts = sample_theta(space, 600, seed=2, purpose=Purpose.GRAM_THETA)
    owners = np.argmin(
        np.linalg.norm(pts[:, None, :] - anchors[None, :, :], axis=2), axis=1
    )
    assert set(owners.tolist()) == {0, 1, 2}


@pytest.mark.parametrize(
    "space", [Box(half_width=1.0, dim=3), AnchorBalls(anchors=np.arange(12.0).reshape(4, 3), radius=0.5)]
)
def test_theta_prefix_stable(space):
    # point i depends only on (seed, purpose, i): a count change keeps the prefix
    eight = sample_theta(space, 8, seed=3, purpose=Purpose.GRAM_THETA)
    assert eight[:4].tobytes() == sample_theta(space, 4, seed=3, purpose=Purpose.GRAM_THETA).tobytes()


def test_theta_determinism():
    box = Box(half_width=2.0, dim=3)
    a = sample_theta(box, 11, seed=77, purpose=Purpose.GRAM_THETA)
    b = sample_theta(box, 11, seed=77, purpose=Purpose.GRAM_THETA)
    assert a.tobytes() == b.tobytes()


def test_rng_for_independent_of_call_order():
    a = rng_for(5, Purpose.FIELD_STATS).random(4)
    _ = rng_for(5, Purpose.GRAM_POINTS, 9).random(100)
    b = rng_for(5, Purpose.FIELD_STATS).random(4)
    assert np.array_equal(a, b)


def test_keys_of_every_purpose_and_index_are_distinct():
    # keys only, no draw: within a purpose they rise with the index, and every
    # key of a purpose lies above every key of the purpose before it
    index = np.arange(10**6)
    last = -1
    for purpose in sorted(Purpose):
        keys = stream_key(purpose, index)
        assert keys.dtype == np.uint64 and np.all(np.diff(keys) > 0) and int(keys[0]) > last
        last = int(keys[-1])


def test_rng_for_rejects_bare_purposes_and_keys_out_of_range():
    with pytest.raises(ValueError, match="sampling.Purpose"):
        rng_for(0, 3)
    for seed, index in ((0, 2**32), (0, -1), (-1, 0), (2**64, 0)):
        with pytest.raises(ValueError):
            rng_for(seed, Purpose.GRAM_POINTS, index)
    rng_for(2**64 - 1, Purpose.EVAL_POINTS, 2**32 - 1).random()


def test_space_validation():
    with pytest.raises(ValueError):
        Box(half_width=0.0, dim=2)
    with pytest.raises(ValueError):
        AnchorBalls(anchors=np.zeros((0, 3)), radius=1.0)
    with pytest.raises(ValueError):
        AnchorBalls(anchors=np.zeros((2, 3)), radius=0.0)
