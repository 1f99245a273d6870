"""Deterministic sampling of spatial points and parameter points.

Every random draw of a run comes from rng_for(seed, purpose, index), a
counter-based Philox generator keyed by (seed, purpose * 2**32 + index), so
no two purposes share a stream and a resumed assembly writes the same bytes
as a fresh one (Salmon et al., "Parallel random numbers", SC 2011).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class Purpose(IntEnum):
    """What a random draw is for, one member per use; where a use draws more
    than once, the comment says what its index counts. The values are
    frozen, like the flat parameter layouts: renumbering one changes every
    artifact it drew."""

    ROM_INIT = 0  # rom.init_params
    CONTROL_INIT = 1  # control_net.init_control_params
    BATCHES = 2  # control_net.train's minibatch order
    FIELD_STATS = 3  # control_net.field_stats's probe vectors
    GRAM_THETA = 4  # the Gram cache's parameter points
    GRAM_POINTS = 5  # Monte-Carlo points; index: the Gram record
    TRAJ_STARTS = 6  # trajectory starts in a box theta_space
    MARCH_POINTS = 7  # Monte-Carlo points; index: i (n_t + 1) + j for state j of trajectory i
    INITIAL_SPECS = 8  # the initial specs of heat and Allen-Cahn anchors
    ANCHORS = 9  # the transport anchors, box points
    FIT_SAMPLE = 10  # fit.fit_initials' training points
    FIT_HOLDOUT = 11  # fit.fit_initials' hold-out points
    EVAL_POINTS = 12  # reference.error_curve's points


def stream_key(purpose: Purpose, index) -> np.ndarray:
    """Philox's second key word, purpose * 2**32 + index, for an index or an array of them."""
    index = np.asarray(index)
    if type(purpose) is not Purpose or index.dtype.kind not in "iu" or not np.all((index >= 0) & (index < 2**32)):
        raise ValueError(f"need a sampling.Purpose and an integer index in [0, 2**32), got {purpose!r}, {index}")
    return (int(purpose) << 32) + index.astype(np.uint64)


def rng_for(seed: int, purpose: Purpose, index: int = 0) -> np.random.Generator:
    """Generator of the draws of (purpose, index) under a seed in [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream_key(purpose, index)], dtype=np.uint64)))


@dataclass(frozen=True)
class Box:
    """Axis-aligned hypercube [-half_width, half_width]^dim in parameter space."""

    half_width: float
    dim: int

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def inside(self, thetas: np.ndarray) -> np.ndarray:
        """Per row of thetas (n, dim): whether it lies in the box."""
        return np.all(np.abs(thetas) <= self.half_width, axis=1)

    def diameter(self) -> float:
        return 2.0 * self.half_width * np.sqrt(self.dim)


@dataclass(frozen=True)
class AnchorBalls:
    """Union of L2 balls of a common radius around fitted anchor parameters."""

    anchors: np.ndarray  # (n_anchors, m)
    radius: float

    def __post_init__(self):
        anchors = np.atleast_2d(np.asarray(self.anchors, dtype=np.float64))
        object.__setattr__(self, "anchors", anchors)
        if anchors.shape[0] == 0:
            raise ValueError("anchors must be nonempty")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def dim(self) -> int:
        return self.anchors.shape[1]

    def inside(self, thetas: np.ndarray) -> np.ndarray:
        """Per row of thetas (n, dim): whether its distance to the nearest
        anchor is at most the radius, all rows at once."""
        d = np.linalg.norm(self.anchors[None, :, :] - thetas[:, None, :], axis=2)
        return d.min(axis=1) <= self.radius

    def diameter(self) -> float:
        # Coarse upper bound: anchor spread plus two radii.
        centered = self.anchors - self.anchors.mean(axis=0)
        spread = 2.0 * np.linalg.norm(centered, axis=1).max() if len(self.anchors) > 1 else 0.0
        return spread + 2.0 * self.radius


ThetaSpace = Box | AnchorBalls


def sample_omega(domain, n: int, seed: int, purpose: Purpose, index: int = 0) -> np.ndarray:
    """(n, dim) i.i.d. uniform points strictly inside an axis-aligned box.

    domain is (lo, hi) with lo/hi arrays of equal length.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo = np.asarray(domain[0], dtype=np.float64)
    hi = np.asarray(domain[1], dtype=np.float64)
    rng = rng_for(seed, purpose, index)
    u = rng.random((n, lo.shape[0]))
    return lo + (hi - lo) * u


def sample_theta(space: ThetaSpace, n: int, seed: int, purpose: Purpose) -> np.ndarray:
    """(n, dim) parameter points from a Box or AnchorBalls space. Point i
    depends only on (seed, purpose, i), so a larger n extends a smaller one.

    Box: uniform per coordinate in [-w, w].
    AnchorBalls: per point in turn, an anchor chosen uniformly and an offset
    uniform in the L2 ball (direction from a normalized Gaussian, radius
    scaled by U^(1/m)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = rng_for(seed, purpose)
    if isinstance(space, Box):
        return rng.uniform(-space.half_width, space.half_width, (n, space.dim))
    m = space.dim
    pts = np.empty((n, m))
    for i in range(n):
        anchor = space.anchors[rng.integers(0, len(space.anchors))]
        z = rng.standard_normal(m)
        pts[i] = anchor + z * (space.radius * rng.random() ** (1.0 / m) / np.linalg.norm(z))
    return pts
