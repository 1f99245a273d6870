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

    def contains(self, theta: np.ndarray) -> bool:
        return bool(np.all(np.abs(theta) <= self.half_width))

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

    def contains(self, theta: np.ndarray) -> bool:
        d = np.linalg.norm(self.anchors - theta[None, :], axis=1)
        return bool(d.min() <= self.radius)

    def diameter(self) -> float:
        # Coarse upper bound: anchor spread plus two radii.
        centered = self.anchors - self.anchors.mean(axis=0)
        spread = 2.0 * np.linalg.norm(centered, axis=1).max() if len(self.anchors) > 1 else 0.0
        return spread + 2.0 * self.radius


ThetaSpace = Box | AnchorBalls


@dataclass
class SampleBatch:
    """A reproducible batch of points with its provenance."""

    points: np.ndarray  # (n, dim)
    seed: int
    generator_tag: str


def sample_omega(domain, n: int, seed: int, stream: int = 0) -> SampleBatch:
    """n i.i.d. uniform points strictly inside an axis-aligned box.

    domain is (lo, hi) with lo/hi arrays of equal length.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo = np.asarray(domain[0], dtype=np.float64)
    hi = np.asarray(domain[1], dtype=np.float64)
    rng = rng_for(seed, stream)
    u = rng.random((n, lo.shape[0]))
    pts = lo + (hi - lo) * u
    return SampleBatch(points=pts, seed=seed, generator_tag=f"omega/{stream}")


def sample_theta(space: ThetaSpace, n: int, seed: int, stream: int = 0) -> SampleBatch:
    """n parameter points from a Box or AnchorBalls space.

    Box: uniform per coordinate in [-w, w].
    AnchorBalls: anchor chosen uniformly, offset uniform in the L2 ball
    (direction from a normalized Gaussian, radius scaled by U^(1/m)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = rng_for(seed, stream)
    if isinstance(space, Box):
        pts = rng.uniform(-space.half_width, space.half_width, (n, space.dim))
        tag = f"theta-box/{stream}"
    else:
        m = space.dim
        idx = rng.integers(0, len(space.anchors), size=n)
        z = rng.standard_normal((n, m))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        r = space.radius * rng.random(n) ** (1.0 / m)
        pts = space.anchors[idx] + z * r[:, None]
        tag = f"theta-anchors/{stream}"
    return SampleBatch(points=pts, seed=seed, generator_tag=tag)
