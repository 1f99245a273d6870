"""Reduced-order models: residual networks with boundary-enforcing wrappers
and linear basis expansions, with analytic evaluation of the value, spatial
gradient, Laplacian, and parameter gradient.

Architectures
-------------
Residual nets follow
    z0 = act(W0 s + b0),   z_l = z_{l-1} + act(W_l z_{l-1} + b_l),  l = 1..L-1,
    net(s) = w_L . z_{L-1},
    u(x) = net(S(x))            (periodic wrapper)
    u(x) = alpha(x) net(S(x))   (zero-boundary wrapper).
The wrapper enters in two places only. The feature map S gives the net
input: S(x) = x for the zero-boundary wrapper and
S(x) = (cos 2pi(x-b), sin 2pi(x-b)) for the periodic wrapper with trainable
shift b. Each column of S depends on one coordinate, so one column derivative
per coordinate carries grad_x and the Laplacian into the net. The output
factor alpha(x) = prod_i f_i(x_i) vanishes on the boundary of the problem box
(lo, hi) that the arch carries, with f_i(x) = 4(x - lo_i)(hi_i - x)/(hi_i - lo_i)^2
(4(x - x^2) on (0,1), 1 - x^2 on (-1,1)); the periodic wrapper has none.

Parameter layout (frozen; caches and anchor stores depend on it)
----------------------------------------------------------------
theta = [W0 (row-major), b0, W1, b1, ..., W_{L-1}, b_{L-1}, w_L, shift?]
with the shift present only for the periodic wrapper. For linear bases theta
holds the combination coefficients in basis order. _layout lists the part
shapes; the count, the unpacking and the gradient assembly derive from it.

Derivatives are computed analytically: grad_x and the Laplacian by forward
propagation of first and second directional derivatives (one pass per spatial
coordinate), grad_theta by reverse accumulation. ReLU's second derivative is
taken as 0 everywhere (almost-everywhere correct); first-order operators never
consume the ReLU Laplacian.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NonFiniteError
from .sampling import rng_for

RESNET_ZERO_BOUNDARY = "resnet_zero_boundary"
RESNET_PERIODIC = "resnet_periodic"
LINEAR_BASIS = "linear_basis"

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class RomArch:
    """A model architecture on the problem box (lo, hi); config builds it
    from problem.domain, and an empty lo/hi is the unit box (0,1)^input_dim."""

    kind: str
    input_dim: int
    width: int = 0
    depth: int = 0
    activation: str = "tanh"
    basis_spec: tuple = ()
    lo: tuple = ()
    hi: tuple = ()

    def __post_init__(self):
        if self.kind not in (RESNET_ZERO_BOUNDARY, RESNET_PERIODIC, LINEAR_BASIS):
            raise ValueError(f"unknown arch kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        lo = tuple(map(float, self.lo)) or (0.0,) * self.input_dim
        hi = tuple(map(float, self.hi)) or (1.0,) * self.input_dim
        if not len(lo) == len(hi) == self.input_dim or not all(a < b for a, b in zip(lo, hi)):
            raise ValueError(f"the box needs lo < hi in each of {self.input_dim} coordinates")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if self.kind == LINEAR_BASIS:
            if not self.basis_spec:
                raise ValueError("linear_basis needs a nonempty basis_spec")
            if self.input_dim != 1:
                raise ValueError("linear_basis is implemented for 1-D domains")
            for b in self.basis_spec:
                if not (isinstance(b, (list, tuple)) and len(b) == 2 and b[0] == "fourier_sine"
                        and type(b[1]) is int and b[1] >= 1):
                    raise ValueError(f"basis function {b!r} is not ('fourier_sine', k) with integer k >= 1")
            object.__setattr__(self, "basis_spec", tuple(tuple(b) for b in self.basis_spec))
            return
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.depth < 2:
            raise ValueError("depth must be >= 2")
        if self.activation not in ("tanh", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.activation == "relu" and self.kind != RESNET_PERIODIC:
            raise ValueError("relu is only supported with the periodic wrapper")

    @property
    def domain(self) -> tuple[np.ndarray, np.ndarray]:
        """The box as the (lo, hi) arrays the samplers take."""
        return np.array(self.lo), np.array(self.hi)

    @property
    def net_input_dim(self) -> int:
        return 2 * self.input_dim if self.kind == RESNET_PERIODIC else self.input_dim


def arch_hash(arch: RomArch) -> str:
    """Stable 16-hex-digit digest of the architecture's fields."""
    blob = json.dumps(asdict(arch), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _layout(arch: RomArch) -> list[tuple[int, ...]]:
    """The shapes of the flat parameter vector's parts, in layout order."""
    if arch.kind == LINEAR_BASIS:
        return [(len(arch.basis_spec),)]
    din, w, L = arch.net_input_dim, arch.width, arch.depth
    shapes = [(w, din), (w,)] + [(w, w), (w,)] * (L - 1) + [(w,)]
    if arch.kind == RESNET_PERIODIC:
        shapes.append((arch.input_dim,))
    return shapes


def _size(shapes) -> int:
    return sum(math.prod(shape) for shape in shapes)


def param_count(arch: RomArch) -> int:
    return _size(_layout(arch))


def _split_flat(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive reshaped views of a flat parameter vector, one per shape;
    the shapes must cover the vector exactly."""
    views = []
    pos = 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[pos : pos + size].reshape(shape))
        pos += size
    assert pos == flat.shape[0]
    return views


def _join(parts, shapes, batch: tuple = ()) -> np.ndarray:
    """The inverse of _split_flat for gradients: the parts, each checked
    against its layout shape behind the batch dimensions, flattened and
    concatenated in layout order."""
    assert [p.shape for p in parts] == [batch + tuple(shape) for shape in shapes]
    return np.concatenate([p.reshape(*batch, -1) for p in parts], axis=-1)


def _unpack(arch: RomArch, theta: np.ndarray):
    """Views into the flat parameter vector following the frozen layout:
    (W0, b0, [(W_l, b_l)], w_L, shift or None)."""
    views = iter(_split_flat(theta, _layout(arch)))
    W0, b0 = next(views), next(views)
    blocks = [(next(views), next(views)) for _ in range(arch.depth - 1)]
    return W0, b0, blocks, next(views), next(views, None)


@dataclass(frozen=True)
class RomModel:
    arch: RomArch
    theta: np.ndarray

    def __post_init__(self):
        theta = np.ascontiguousarray(self.theta, dtype=np.float64)
        object.__setattr__(self, "theta", theta)
        m = param_count(self.arch)
        if theta.shape != (m,):
            raise ValueError(f"theta must have shape ({m},), got {theta.shape}")


def init_params(arch: RomArch, seed: int) -> np.ndarray:
    """Fan-in uniform weights, zero biases, zero periodic shift.

    Weights are drawn layer by layer in the flat layout order, so the result
    is deterministic per (arch, seed).
    """
    rng = rng_for(seed, stream=0)
    if arch.kind == LINEAR_BASIS:
        return rng.uniform(-1.0, 1.0, len(arch.basis_spec))
    din, w, L = arch.net_input_dim, arch.width, arch.depth
    chunks = []
    bound0 = np.sqrt(1.0 / din)
    chunks.append(rng.uniform(-bound0, bound0, w * din))
    chunks.append(np.zeros(w))
    bound = np.sqrt(1.0 / w)
    for _ in range(L - 1):
        chunks.append(rng.uniform(-bound, bound, w * w))
        chunks.append(np.zeros(w))
    chunks.append(rng.uniform(-bound, bound, w))
    if arch.kind == RESNET_PERIODIC:
        chunks.append(np.zeros(arch.input_dim))
    return np.concatenate(chunks)


@dataclass(frozen=True)
class EvalFlags:
    value: bool = True
    grad_x: bool = False
    laplacian: bool = False
    grad_theta: bool = False


@dataclass
class BatchEval:
    """Batched evaluation over n points; unrequested fields are None."""

    value: np.ndarray | None
    grad_x: np.ndarray | None
    laplacian: np.ndarray | None
    grad_theta: np.ndarray | None
    flags: EvalFlags


# ---------------------------------------------------------------------------
# wrappers


def _alpha(X: np.ndarray, lo: np.ndarray, hi: np.ndarray, order: int):
    """The zero-boundary factor alpha = prod_i f_i(x_i) of the box (lo, hi),
    f_i(x) = ((hi_i + lo_i) x - x^2 - lo_i hi_i) 4/(hi_i - lo_i)^2, and for
    order >= 1 its first and second derivatives along each x_i (from
    leave-one-out products; None for order 0). The expansion reproduces
    4(x - x^2) on (0,1) and 1 - x^2 on (-1,1) bit for bit."""
    scale = 4.0 / (hi - lo) ** 2
    f = ((hi + lo) * X - X * X - lo * hi) * scale
    n, d = X.shape
    prefix = np.ones((n, d + 1))
    for i in range(d):
        prefix[:, i + 1] = prefix[:, i] * f[:, i]
    if not order:
        return prefix[:, d], None, None
    suffix = np.ones((n, d + 1))
    for i in range(d - 1, -1, -1):
        suffix[:, i] = suffix[:, i + 1] * f[:, i]
    loo = prefix[:, :d] * suffix[:, 1:]  # product of all factors except i
    df = ((hi + lo) - 2.0 * X) * scale
    return prefix[:, d], df * loo, (-2.0 * scale) * loo


def _features(arch: RomArch, X: np.ndarray, shift, order: int):
    """The wrapper seen from the net: (S, dS, ddS, alpha).

    S is the net input: X for the zero-boundary wrapper, (cos, sin) of
    2pi(X - shift) for the periodic one. Net input column j depends on the
    single coordinate x_(j mod d); for order >= 1, dS and (order 2) ddS hold
    each column's first and second derivative along that coordinate, else
    None. alpha is the output factor (alpha, its first and its second
    derivatives along each x_i, per _alpha) for the zero-boundary wrapper
    and None for the periodic one.
    """
    if arch.kind == RESNET_PERIODIC:
        arg = TWO_PI * (X - shift)
        c, s = np.cos(arg), np.sin(arg)
        dS = np.concatenate([-TWO_PI * s, TWO_PI * c], axis=1) if order else None
        ddS = np.concatenate([-TWO_PI * TWO_PI * c, -TWO_PI * TWO_PI * s], axis=1) if order == 2 else None
        return np.concatenate([c, s], axis=1), dS, ddS, None
    dS = np.ones_like(X) if order else None
    ddS = np.zeros_like(X) if order == 2 else None
    return X, dS, ddS, _alpha(X, *arch.domain, order)


# ---------------------------------------------------------------------------
# activations


def _act(kind: str, A: np.ndarray, order: int):
    """Value and first/second derivative arrays of the activation."""
    if kind == "tanh":
        T = np.tanh(A)
        if order == 0:
            return T, None, None
        d1 = 1.0 - T * T
        if order == 1:
            return T, d1, None
        return T, d1, -2.0 * T * d1
    # relu: second derivative taken as 0 everywhere
    V = np.maximum(A, 0.0)
    if order == 0:
        return V, None, None
    d1 = (A > 0.0).astype(np.float64)
    if order == 1:
        return V, d1, None
    return V, d1, np.zeros_like(A)


# ---------------------------------------------------------------------------
# evaluation


def eval_batch(model: RomModel, X, need: EvalFlags) -> BatchEval:
    """Evaluate u_theta and requested derivatives at a batch of points.

    X has shape (n, d). Raises NonFiniteError if the forward pass overflows.
    """
    X = np.atleast_2d(np.ascontiguousarray(X, dtype=np.float64))
    arch = model.arch
    if X.shape[1] != arch.input_dim:
        raise ValueError(f"points have dim {X.shape[1]}, arch expects {arch.input_dim}")
    if arch.kind == LINEAR_BASIS:
        return _eval_linear_basis(model, X, need)
    return _eval_resnet(model, X, need)


def _basis_tables(basis_spec, x: np.ndarray, order: int):
    """phi_j(x), phi_j'(x), phi_j''(x) columns for the sine basis
    phi_j = sqrt(2) sin(k_j pi x) of basis_spec's ("fourier_sine", k_j)
    (RomArch has checked each function)."""
    n = x.shape[0]
    m = len(basis_spec)
    B = np.empty((n, m))
    dB = np.empty((n, m)) if order >= 1 else None
    ddB = np.empty((n, m)) if order >= 2 else None
    s = np.sqrt(2.0)
    for j, (_, k) in enumerate(basis_spec):
        w = float(k) * np.pi
        B[:, j] = s * np.sin(w * x)
        if order >= 1:
            dB[:, j] = s * w * np.cos(w * x)
        if order >= 2:
            ddB[:, j] = -s * w * w * np.sin(w * x)
    return B, dB, ddB


def _eval_linear_basis(model: RomModel, X: np.ndarray, need: EvalFlags) -> BatchEval:
    order = 2 if need.laplacian else (1 if need.grad_x else 0)
    x = X[:, 0]
    B, dB, ddB = _basis_tables(model.arch.basis_spec, x, order)
    theta = model.theta
    out = BatchEval(value=None, grad_x=None, laplacian=None, grad_theta=None, flags=need)
    if need.value:
        out.value = B @ theta
    if need.grad_x:
        out.grad_x = (dB @ theta)[:, None]
    if need.laplacian:
        out.laplacian = ddB @ theta
    if need.grad_theta:
        out.grad_theta = B.copy()
    _check_finite_batch(out)
    return out


def _eval_resnet(model: RomModel, X: np.ndarray, need: EvalFlags) -> BatchEval:
    arch = model.arch
    n, d = X.shape
    W0, b0, blocks, w_out, shift = _unpack(arch, model.theta)
    order = 2 if need.laplacian else int(need.grad_x)
    S, dS, ddS, alpha = _features(arch, X, shift, order)

    # Forward pass, caching (layer input, act', act'') per layer.
    act_order = max(order, int(need.grad_theta))
    Z, d1, d2 = _act(arch.activation, S @ W0.T + b0, act_order)
    cache = [(S, d1, d2)]
    for W, b in blocks:
        phi, d1, d2 = _act(arch.activation, Z @ W.T + b, act_order)
        cache.append((Z, d1, d2))
        Z = Z + phi
    z = Z @ w_out

    out = BatchEval(value=None, grad_x=None, laplacian=None, grad_theta=None, flags=need)
    if need.value:
        out.value = z if alpha is None else alpha[0] * z

    # Forward-mode first and second derivatives of z, one pass per coordinate.
    if order:
        zd = np.empty((n, d))
        zdd = np.empty((n, d)) if order == 2 else None
        owner = np.arange(S.shape[1]) % d
        _, d1, d2 = cache[0]
        for i in range(d):
            Ad = np.where(owner == i, dS, 0.0) @ W0.T
            Zd = d1 * Ad
            if order == 2:
                Zdd = d2 * Ad * Ad + d1 * (np.where(owner == i, ddS, 0.0) @ W0.T)
            for (W, _), (_, d1k, d2k) in zip(blocks, cache[1:]):
                Ad = Zd @ W.T
                if order == 2:
                    Zdd = Zdd + d2k * Ad * Ad + d1k * (Zdd @ W.T)
                Zd = Zd + d1k * Ad
            zd[:, i] = Zd @ w_out
            if order == 2:
                zdd[:, i] = Zdd @ w_out
        if alpha is not None:  # product rule for u = alpha z
            a, da, dda = alpha
            if order == 2:
                zdd = dda * z[:, None] + 2.0 * da * zd + a[:, None] * zdd
            zd = da * z[:, None] + a[:, None] * zd
        if need.grad_x:
            out.grad_x = zd
        if need.laplacian:
            out.laplacian = np.zeros(n)
            for col in zdd.T:
                out.laplacian += col

    # Reverse accumulation for the parameter gradient, in layout order.
    if need.grad_theta:
        scale = np.ones(n) if alpha is None else alpha[0]
        G = scale[:, None] * w_out[None, :]  # d value / d(block output)
        block_parts = []
        for (W, _), (Z_in, d1, _) in zip(blocks[::-1], cache[:0:-1]):
            D = G * d1
            block_parts = [np.einsum("np,nq->npq", D, Z_in), D] + block_parts
            G = G + D @ W
        D = G * cache[0][1]
        parts = [np.einsum("np,nq->npq", D, S), D] + block_parts + [scale[:, None] * Z]
        if shift is not None:
            gS = D @ W0
            # dS/dshift_j = -dS/dx_j, nonzero only in columns j and d + j
            parts.append(-(gS[:, :d] * (-TWO_PI * S[:, d:]) + gS[:, d:] * (TWO_PI * S[:, :d])))
        out.grad_theta = _join(parts, _layout(arch), (n,))

    _check_finite_batch(out)
    return out


def _check_finite_batch(out: BatchEval) -> None:
    for a in (out.value, out.grad_x, out.laplacian, out.grad_theta):
        if a is not None and not np.all(np.isfinite(a)):
            raise NonFiniteError("rom evaluation produced non-finite values")
