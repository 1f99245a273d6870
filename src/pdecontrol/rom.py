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
coordinate), the parameter side by reverse accumulation. The derivative path
(eval_batch with derivatives) runs point-major, (n, width) per layer, and its
reverse pass _resnet_reverse gives only per-point rows: seeded with the
output factor alpha, grad_theta, the (n, m) Jacobian that assembly reads.
ReLU's second derivative is taken as 0 everywhere (almost-everywhere
correct); first-order operators never consume the ReLU Laplacian.

Values take one kernel, value_at(arch, X), which eval_batch also runs for a
value-only request. It builds a table of X once: Phi(X) for a linear basis;
for a net the feature-major base, (cos 2pi x, sin 2pi x) of shape (2d, n)
for the periodic wrapper (the shift b enters per theta as a rotation of W0's
columns j and d + j) and X^T with alpha(X) for the zero-boundary one. A
net's forward pass on it, _net_forward, runs in (width, n) buffers that the
returned closure makes once and reuses across calls: value_at's two are
shared by every layer. The initial fit runs the same forward pass through
pullback_at, which keeps each layer's state for a matching feature-major
reverse pass: seeded with alpha r, it sums sum_n r_n du(x_n)/dtheta over
the points inside its matmuls, the gradient of the fit's loss without the
Jacobian. So a closure is not thread-safe (no caller shares one between
threads), and a pullback is valid until its closure's next call; each call
returns fresh arrays. The derivative path's value agrees with the kernel's
to round-off.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NonFiniteError
from .sampling import Purpose, rng_for

RESNET_ZERO_BOUNDARY = "resnet_zero_boundary"
RESNET_PERIODIC = "resnet_periodic"
LINEAR_BASIS = "linear_basis"

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class RomArch:
    """A model architecture on the problem box (lo, hi); config builds it
    on the problem kind's box, and an empty lo/hi is the unit box
    (0,1)^input_dim. A linear basis holds the sine modes k = 1..n_modes."""

    kind: str
    input_dim: int
    width: int = 0
    depth: int = 0
    activation: str = "tanh"
    n_modes: int = 0
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
            if self.n_modes < 1:
                raise ValueError("linear_basis needs n_modes >= 1")
            if self.input_dim != 1:
                raise ValueError("linear_basis is implemented for 1-D domains")
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
        return [(arch.n_modes,)]
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


def _join(parts, shapes, n: int) -> np.ndarray:
    """The inverse of _split_flat for per-point gradients: the parts, each
    checked against its layout shape behind the point dimension, flattened
    and concatenated in layout order into (n, m) rows."""
    assert [p.shape for p in parts] == [(n, *shape) for shape in shapes]
    return np.concatenate([p.reshape(n, -1) for p in parts], axis=-1)


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
    rng = rng_for(seed, Purpose.ROM_INIT)
    if arch.kind == LINEAR_BASIS:
        return rng.uniform(-1.0, 1.0, arch.n_modes)
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


def _act(kind: str, A: np.ndarray, second: bool):
    """Value, first derivative and (if second, else None) second derivative
    arrays of the activation, the value written over the pre-activation A;
    value_at runs the values alone."""
    if kind == "tanh":
        T = np.tanh(A, out=A)
        d1 = T * T
        np.subtract(1.0, d1, out=d1)
        return T, d1, -2.0 * T * d1 if second else None
    # relu: second derivative taken as 0 everywhere
    d1 = (A > 0.0).astype(np.float64)
    return np.maximum(A, 0.0, out=A), d1, np.zeros_like(A) if second else None


# ---------------------------------------------------------------------------
# evaluation


def eval_batch(model: RomModel, X, need: EvalFlags) -> BatchEval:
    """Evaluate u_theta and requested derivatives at a batch of points.

    X has shape (n, d). Raises NonFiniteError if the forward pass overflows.
    """
    if need == EvalFlags(value=True):
        value = value_at(model.arch, X)(model.theta)
        return BatchEval(value=value, grad_x=None, laplacian=None, grad_theta=None, flags=need)
    X = _points(model.arch, X)
    if model.arch.kind == LINEAR_BASIS:
        return _eval_linear_basis(model, X, need)
    return _eval_resnet(model, X, need)


def value_at(arch: RomArch, X) -> Callable[[np.ndarray], np.ndarray]:
    """theta -> u_theta at the points X, for many parameter vectors on one
    sample; eval_batch's value-only requests run it too.

    The table that does not depend on theta is built once: Phi(X) for a
    linear basis, which takes Phi theta per call; for a net the feature-major
    base, (cos 2pi x, sin 2pi x) of shape (2d, n) for the periodic wrapper
    and X^T with alpha(X) for the zero-boundary one. A net folds the
    periodic shift into W0 per call and runs its layers in two (width, n)
    buffers that the closure reuses across calls, so one closure must not be
    called from two threads at once. Every call returns a fresh array.
    Raises NonFiniteError like eval_batch."""
    X = _points(arch, X)
    if arch.kind != LINEAR_BASIS:
        return _net_value(arch, X)
    table = _basis_tables(arch.n_modes, X[:, 0], 0)[0]

    def combine(theta: np.ndarray) -> np.ndarray:
        u = table @ RomModel(arch, theta).theta
        _check_finite(u)
        return u

    return combine


def _net_value(arch: RomArch, X: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """value_at for a net: _net_forward in two buffers that every layer
    shares."""
    base, alpha = _net_table(arch, X)
    Z, A = np.empty((2, arch.width, X.shape[0]))
    states, acts = [Z] * arch.depth, [A] * (arch.depth - 1)

    def value(theta: np.ndarray) -> np.ndarray:
        w_out = _net_forward(arch, base, theta, states, acts)[0][3]
        return _net_output(w_out, Z, alpha)

    return value


def _net_table(arch: RomArch, X: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The feature-major base of a net and its output factor: for the
    periodic wrapper (cos 2pi x, sin 2pi x) of shape (2d, n) and None, for
    the zero-boundary one X^T and alpha(X)."""
    if arch.kind == RESNET_PERIODIC:
        arg = TWO_PI * X.T
        return np.concatenate([np.cos(arg), np.sin(arg)]), None
    return np.ascontiguousarray(X.T), _alpha(X, *arch.domain, 0)[0]


def _fold_shift(W0: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """W0 with columns j and d + j rotated by 2pi shift_j. With c_j, s_j =
    cos, sin 2pi b_j of the shift b, cos 2pi(x_j - b_j) = c_j cos 2pi x_j +
    s_j sin 2pi x_j and sin 2pi(x_j - b_j) = c_j sin 2pi x_j - s_j cos 2pi x_j,
    so the shifted features under W0 are the unshifted base under the
    rotated W0. Its transpose is the rotation by -shift."""
    d = shift.shape[0]
    c, s = np.cos(TWO_PI * shift), np.sin(TWO_PI * shift)
    Wc, Ws = W0[:, :d], W0[:, d:]
    return np.concatenate([Wc * c - Ws * s, Wc * s + Ws * c], axis=1)


def _net_forward(arch: RomArch, base: np.ndarray, theta: np.ndarray, states, acts):
    """Run the net feature-major on _net_table's base: states[l] receives
    the (width, n) output of layer l, acts[l - 1] the activation of block l
    (layer 0's activation is states[0]). Buffers may alias, so that layers
    run in place in the same memory. Returns _unpack's views and W0 with the
    periodic shift folded in."""
    params = W0, b0, blocks, _, shift = _unpack(arch, RomModel(arch, theta).theta)
    act = np.tanh if arch.activation == "tanh" else (lambda A, out: np.maximum(A, 0.0, out=out))
    if shift is not None:
        W0 = _fold_shift(W0, shift)
    Z = states[0]
    np.matmul(W0, base, out=Z)
    Z += b0[:, None]
    act(Z, out=Z)
    for (W, b), A, Z_out in zip(blocks, acts, states[1:]):
        np.matmul(W, Z, out=A)
        A += b[:, None]
        act(A, out=A)
        Z = np.add(Z, A, out=Z_out)
    return params, W0


def _net_output(w_out: np.ndarray, Z: np.ndarray, alpha: np.ndarray | None) -> np.ndarray:
    """u = alpha (w_L . Z) as a fresh array, checked finite."""
    u = w_out @ Z
    if alpha is not None:
        u *= alpha
    _check_finite(u)
    return u


def _points(arch: RomArch, X) -> np.ndarray:
    X = np.atleast_2d(np.ascontiguousarray(X, dtype=np.float64))
    if X.shape[1] != arch.input_dim:
        raise ValueError(f"points have dim {X.shape[1]}, arch expects {arch.input_dim}")
    return X


def _basis_tables(n_modes: int, x: np.ndarray, order: int):
    """phi_k(x), phi_k'(x), phi_k''(x) columns, k = 1..n_modes, for the sine
    basis phi_k = sqrt(2) sin(k pi x)."""
    n = x.shape[0]
    B = np.empty((n, n_modes))
    dB = np.empty((n, n_modes)) if order >= 1 else None
    ddB = np.empty((n, n_modes)) if order >= 2 else None
    s = np.sqrt(2.0)
    for j in range(n_modes):
        w = float(j + 1) * np.pi
        B[:, j] = s * np.sin(w * x)
        if order >= 1:
            dB[:, j] = s * w * np.cos(w * x)
        if order >= 2:
            ddB[:, j] = -s * w * w * np.sin(w * x)
    return B, dB, ddB


def _eval_linear_basis(model: RomModel, X: np.ndarray, need: EvalFlags) -> BatchEval:
    order = 2 if need.laplacian else (1 if need.grad_x else 0)
    x = X[:, 0]
    B, dB, ddB = _basis_tables(model.arch.n_modes, x, order)
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
    _check_finite(out.value, out.grad_x, out.laplacian, out.grad_theta)
    return out


def pullback_at(arch: RomArch, X) -> Callable[[np.ndarray], tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]]:
    """theta -> (u_theta at the points X, r -> sum_n r_n du_theta(x_n)/dtheta)
    for a net, for many parameter vectors on one sample: the gradient of a
    loss sum_n l(u_n) is pullback(l'(u)), without the (n, m) Jacobian that
    eval_batch's grad_theta forms.

    The forward pass is value_at's (the feature table built once, the
    periodic shift folded into W0), so the value is value_at's bit for bit;
    it keeps every layer's (width, n) state in buffers that the closure
    makes once. The pullback runs the matching feature-major reverse pass
    seeded with w_L alpha r, sums over the points inside its matmuls and
    writes each part into its place in a fresh flat gradient; the shift's
    part comes through the rotated W0 columns. A pullback reads the
    closure's buffers, so it is valid until the closure's next call, and a
    closure must not be shared between threads. The value and each gradient
    are fresh arrays. Raises NonFiniteError like eval_batch."""
    if arch.kind == LINEAR_BASIS:
        raise ValueError("pullback_at takes a net; a linear basis is its own Jacobian")
    X = _points(arch, X)
    base, alpha = _net_table(arch, X)
    L, shapes, ones = arch.depth, _layout(arch), np.ones(X.shape[0])
    m = _size(shapes)
    buffers = np.empty((2 * L + 2, arch.width, X.shape[0]))
    states, acts, (G, D, GW) = buffers[:L], buffers[L : 2 * L - 1], buffers[2 * L - 1 :]

    def at(theta: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        (_, _, blocks, w_out, shift), W0 = _net_forward(arch, base, theta, states, acts)
        value = _net_output(w_out, states[-1], alpha)

        def pullback(r: np.ndarray) -> np.ndarray:
            c = r if alpha is None else alpha * r
            grad = np.empty(m)
            parts = _split_flat(grad, shapes)
            np.matmul(states[-1], c, out=parts[2 * L])
            np.multiply(w_out[:, None], c, out=G)  # d sum / d(block output)
            for l in range(L - 1, 0, -1):
                _act_pullback(arch.activation, acts[l - 1], G, D)
                np.matmul(D, states[l - 1].T, out=parts[2 * l])
                np.matmul(D, ones, out=parts[2 * l + 1])
                np.add(G, np.matmul(blocks[l - 1][0].T, D, out=GW), out=G)
            _act_pullback(arch.activation, states[0], G, D)
            np.matmul(D, ones, out=parts[1])
            if shift is None:
                np.matmul(D, base.T, out=parts[0])
            else:
                P, d = D @ base.T, arch.input_dim  # the gradient of the rotated W0
                parts[0][...] = _fold_shift(P, -shift)
                # d W0[:, j] / d shift_j = -2pi W0[:, d + j], d W0[:, d + j] / d shift_j = 2pi W0[:, j]
                np.multiply(TWO_PI, (P[:, d:] * W0[:, :d] - P[:, :d] * W0[:, d:]).sum(axis=0), out=parts[-1])
            _check_finite(grad)
            return grad

        return value, pullback

    return at


def _act_pullback(kind: str, T: np.ndarray, G: np.ndarray, out: np.ndarray) -> None:
    """out = G act'(A), from the activation's value T = act(A)."""
    if kind == "tanh":
        np.multiply(T, T, out=out)
        np.subtract(1.0, out, out=out)
        out *= G
    else:  # relu: T > 0 exactly where A > 0
        np.multiply(G, T > 0.0, out=out)


@dataclass
class _Forward:
    """What a net's derivative path keeps of its forward pass."""

    params: tuple  # _unpack's views
    S: np.ndarray  # the net input, (n, din)
    dS: np.ndarray | None
    ddS: np.ndarray | None
    alpha: tuple | None  # _alpha's output factor, None for the periodic wrapper
    cache: list  # (layer input, act', act'') per layer
    Z: np.ndarray  # the last block's output, (n, width)
    z: np.ndarray  # net(S), (n,)

    @property
    def value(self) -> np.ndarray:
        return self.z if self.alpha is None else self.alpha[0] * self.z


def _resnet_forward(model: RomModel, X: np.ndarray, order: int) -> _Forward:
    """The forward pass, caching what derivatives of up to order (in x) and
    the parameter gradient reuse."""
    arch = model.arch
    params = W0, b0, blocks, w_out, shift = _unpack(arch, model.theta)
    S, dS, ddS, alpha = _features(arch, X, shift, order)
    A = S @ W0.T
    A += b0
    Z, d1, d2 = _act(arch.activation, A, order == 2)
    cache = [(S, d1, d2)]
    for W, b in blocks:
        A = Z @ W.T
        A += b
        phi, d1, d2 = _act(arch.activation, A, order == 2)
        cache.append((Z, d1, d2))
        Z = Z + phi
    return _Forward(params, S, dS, ddS, alpha, cache, Z, Z @ w_out)


def _resnet_reverse(arch: RomArch, fwd: _Forward, c: np.ndarray) -> np.ndarray:
    """Reverse accumulation of sum_n c_n net(S(x_n)) to theta per point: the
    (n, m) rows of c_n dnet(S(x_n))/dtheta in layout order. With c the output
    factor alpha (1 for the periodic wrapper) the rows are grad_theta u."""
    W0, _, blocks, w_out, shift = fwd.params
    S = fwd.S
    n, d = S.shape[0], arch.input_dim
    G = c[:, None] * w_out[None, :]  # d sum / d(block output)
    block_parts = []
    for (W, _), (Z_in, d1, _) in zip(blocks[::-1], fwd.cache[:0:-1]):
        D = G * d1
        block_parts = [np.einsum("np,nq->npq", D, Z_in), D] + block_parts
        G = G + D @ W
    D = G * fwd.cache[0][1]
    parts = [np.einsum("np,nq->npq", D, S), D] + block_parts + [c[:, None] * fwd.Z]
    if shift is not None:
        gS = D @ W0
        # dS/dshift_j = -dS/dx_j, nonzero only in columns j and d + j
        parts.append(-(gS[:, :d] * (-TWO_PI * S[:, d:]) + gS[:, d:] * (TWO_PI * S[:, :d])))
    return _join(parts, _layout(arch), n)


def _eval_resnet(model: RomModel, X: np.ndarray, need: EvalFlags) -> BatchEval:
    arch = model.arch
    n, d = X.shape
    order = 2 if need.laplacian else int(need.grad_x)
    fwd = _resnet_forward(model, X, order)
    W0, _, blocks, w_out, _ = fwd.params
    dS, ddS, alpha, cache, z = fwd.dS, fwd.ddS, fwd.alpha, fwd.cache, fwd.z

    out = BatchEval(value=None, grad_x=None, laplacian=None, grad_theta=None, flags=need)
    if need.value:
        out.value = fwd.value

    # Forward-mode first and second derivatives of z, one pass per coordinate.
    if order:
        zd = np.empty((n, d))
        zdd = np.empty((n, d)) if order == 2 else None
        owner = np.arange(fwd.S.shape[1]) % d
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

    if need.grad_theta:
        out.grad_theta = _resnet_reverse(arch, fwd, np.ones(n) if alpha is None else alpha[0])

    _check_finite(out.value, out.grad_x, out.laplacian, out.grad_theta)
    return out


def _check_finite(*arrays) -> None:
    for a in arrays:
        if a is not None and not np.all(np.isfinite(a)):
            raise NonFiniteError("rom evaluation produced non-finite values")
