"""Deterministic sampling of spatial points and parameter points.

Streams are built on the counter-based Philox generator keyed by
(seed, stream): any record's sample set is reproducible from the pair alone,
so a resumed assembly writes the same bytes as a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for an independent stream derived from (seed, stream)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream & 0xFFFFFFFFFFFFFFFF)])
    return np.random.Generator(np.random.Philox(key=key))


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


def sample_omega(domain, n: int, seed: int, stream: int = 0) -> np.ndarray:
    """(n, dim) i.i.d. uniform points strictly inside an axis-aligned box.

    domain is (lo, hi) with lo/hi arrays of equal length.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo = np.asarray(domain[0], dtype=np.float64)
    hi = np.asarray(domain[1], dtype=np.float64)
    rng = rng_for(seed, stream)
    u = rng.random((n, lo.shape[0]))
    return lo + (hi - lo) * u


def sample_theta(space: ThetaSpace, n: int, seed: int, stream: int = 0) -> np.ndarray:
    """(n, dim) parameter points from a Box or AnchorBalls space. Point i
    depends only on (seed, stream, i), so a larger n extends a smaller one.

    Box: uniform per coordinate in [-w, w].
    AnchorBalls: per point in turn, an anchor chosen uniformly and an offset
    uniform in the L2 ball (direction from a normalized Gaussian, radius
    scaled by U^(1/m)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = rng_for(seed, stream)
    if isinstance(space, Box):
        return rng.uniform(-space.half_width, space.half_width, (n, space.dim))
    m = space.dim
    pts = np.empty((n, m))
    for i in range(n):
        anchor = space.anchors[rng.integers(0, len(space.anchors))]
        z = rng.standard_normal(m)
        pts[i] = anchor + z * (space.radius * rng.random() ** (1.0 / m) / np.linalg.norm(z))
    return pts
