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
shift b. Each feature of S depends on one coordinate, so one feature derivative
per coordinate carries grad_x and the Laplacian into the net. The output
factor alpha(x) = prod_i f_i(x_i) vanishes on the boundary of the problem box
(lo, hi) that the arch carries, with f_i(x) = 4(x - lo_i)(hi_i - x)/(hi_i - lo_i)^2
(4(x - x^2) on (0,1), 1 - x^2 on (-1,1)); the periodic wrapper has none.

Parameter layout (frozen; caches and anchor stores depend on it)
----------------------------------------------------------------
theta = [W0 (row-major), b0, W1, b1, ..., W_{L-1}, b_{L-1}, w_L, shift?]
with the shift present only for the periodic wrapper. For linear bases theta
holds the combination coefficients in basis order. _layout(arch) is its
_table, the (slice, shape) of each part, cached per arch; the last stop is
the parameter count. _split gives a table's (*lead, *shape) views along the
last axis of a vector or a stack, for theta here and in reference, for
control_net's xi and for the Gram record of assembly.

A net has one forward pass and one reverse pass, both feature-major and
stacked: K samples, each with its own parameter vector, run as
(K, width, n) per layer, on a table of the points that _net_table builds
once per sample: the base S of shape (din, n), (cos 2pi x, sin 2pi x) for
the periodic wrapper and X^T for the zero-boundary one, the x-derivatives
of its rows, and the output factor alpha(X). The periodic shift b enters
per theta as a rotation of W0's columns j and d + j (_fold_shift), so the
table does not depend on theta. The forward pass, _net_forward, writes each
layer's state into buffers that its caller provides. The reverse pass,
_net_reverse, runs on the stored states, takes each activation derivative
from the activation's stored value, and hands each layer's pre-activation
cotangent to a visit: pullback_at's sums the layer's part over the points
inside its matmuls, the gradient of the fit's loss without the Jacobian;
eval_batch's writes each point's part of grad_theta, the (n, m) Jacobian
that assembly reads, into views of one array. grad_x and the Laplacian are
forward-mode tangents of first and second directional derivatives on the
same stored states, one pass per spatial coordinate. ReLU's second
derivative is taken as 0 everywhere (almost-everywhere correct);
first-order operators never consume the ReLU Laplacian.

pullback_at runs the passes on a stack of K samples, value_at and
eval_batch on a stack of one. Every matmul is one BLAS call per sample on
that sample's operands and every other operation is elementwise or a
reduction along a sample's own points, so a sample's results are the same
bits at any K. value_at, which eval_batch also runs for a value-only
request, runs the forward pass in two (width, n) buffers that every layer
shares; pullback_at keeps one per layer. Each returns a closure that makes
its buffers once and reuses them across calls, so a closure is not
thread-safe (no caller shares one between threads), and a pullback is
valid until its closure's next call; each call returns fresh arrays. As
every path runs the same forward pass, a net's value is the same bits on
each.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

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


def _table(shapes) -> tuple[tuple[slice, tuple[int, ...]], ...]:
    """The (slice, shape) of each part of a flat vector laid out as the
    consecutive row-major parts shapes, in order; the last part's stop is
    the vector's length."""
    table, pos = [], 0
    for shape in shapes:
        size = math.prod(shape)
        table.append((slice(pos, pos + size), shape))
        pos += size
    return tuple(table)


def _split(flat: np.ndarray, table) -> list[np.ndarray]:
    """Views of flat's last axis, one per (slice, shape) of a _table, each
    with flat's leading axes, (*lead, *shape); the table must cover the
    last axis exactly."""
    assert table[-1][0].stop == flat.shape[-1]
    lead = flat.shape[:-1]
    return [flat[..., part].reshape(lead + shape) for part, shape in table]


@functools.lru_cache(maxsize=None)
def _layout(arch: RomArch) -> tuple[tuple[slice, tuple[int, ...]], ...]:
    """The _table of the flat parameter vector, built once per arch."""
    if arch.kind == LINEAR_BASIS:
        return _table([(arch.n_modes,)])
    din, w, L = arch.net_input_dim, arch.width, arch.depth
    shapes = [(w, din), (w,)] + [(w, w), (w,)] * (L - 1) + [(w,)]
    if arch.kind == RESNET_PERIODIC:
        shapes.append((arch.input_dim,))
    return _table(shapes)


def param_count(arch: RomArch) -> int:
    return _layout(arch)[-1][0].stop


def _unpack(arch: RomArch, theta: np.ndarray):
    """Views into a flat parameter vector, or into each row of a (K, m)
    stack of them with a leading K axis, following the frozen layout:
    (W0, b0, [(W_l, b_l)], w_L, shift or None)."""
    views = iter(_split(theta, _layout(arch)))
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


# ---------------------------------------------------------------------------
# evaluation


def eval_batch(model: RomModel, X, need: EvalFlags) -> BatchEval:
    """Evaluate u_theta and requested derivatives at a batch of points.

    X has shape (n, d). A value-only request runs value_at; a net's
    derivatives run its one forward pass with every layer's state kept,
    forward-mode tangents for grad_x and the Laplacian, and its one reverse
    pass for grad_theta, which writes each point's row straight into the
    (n, m) result. Raises NonFiniteError if the evaluation overflows.
    """
    if need == EvalFlags(value=True):
        value = value_at(model.arch, X)(model.theta)
        return BatchEval(value=value, grad_x=None, laplacian=None, grad_theta=None)
    X = _points(model.arch, X)
    if model.arch.kind == LINEAR_BASIS:
        return _eval_linear_basis(model, X, need)
    return _eval_net(model, X, need)


def value_at(arch: RomArch, X) -> Callable[[np.ndarray], np.ndarray]:
    """theta -> u_theta at the points X, for many parameter vectors on one
    sample; eval_batch's value-only requests run it too.

    The table that does not depend on theta is built once: Phi(X) for a
    linear basis, which takes Phi theta per call; _net_table's base and
    output factor for a net, which folds the periodic shift into W0 per
    call and runs its layers in two (width, n) buffers that the closure
    reuses across calls, so one closure must not be called from two threads
    at once. Every call returns a fresh array. Raises NonFiniteError like
    eval_batch."""
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
    """value_at for a net: _net_forward on a stack of one, in two buffers
    that every layer shares."""
    base, _, _, alpha = _net_table(arch, X, 0)
    base, factor = base[None], None if alpha is None else alpha[0][None]
    Z, A = np.empty((2, 1, arch.width, X.shape[0]))
    states, acts = [Z] * arch.depth, [A] * (arch.depth - 1)

    def value(theta: np.ndarray) -> np.ndarray:
        w_out = _net_forward(arch, base, RomModel(arch, theta).theta[None], states, acts)[0][3]
        return _net_output(w_out, Z, factor)[0]

    return value


def _net_table(arch: RomArch, X: np.ndarray, order: int):
    """The feature-major base of a net at one sample, (S, dS, ddS, alpha).

    S is the net input with the periodic shift left out: (cos 2pi x,
    sin 2pi x) of shape (2d, n) for the periodic wrapper, X^T for the
    zero-boundary one. Row j of S depends on the single coordinate
    x_(j mod d); for order >= 1, dS and (order 2) ddS hold each row's first
    and second derivative along that coordinate, else None. alpha is the
    output factor (alpha, its first and its second derivatives along each
    x_i, per _alpha) for the zero-boundary wrapper and None for the
    periodic one.
    """
    if arch.kind == RESNET_PERIODIC:
        arg = TWO_PI * X.T
        c, s = np.cos(arg), np.sin(arg)
        S = np.concatenate([c, s])
        dS = np.concatenate([-TWO_PI * s, TWO_PI * c]) if order else None
        ddS = (-TWO_PI * TWO_PI) * S if order == 2 else None
        return S, dS, ddS, None
    S = np.ascontiguousarray(X.T)
    dS = np.ones_like(S) if order else None
    ddS = np.zeros_like(S) if order == 2 else None
    return S, dS, ddS, _alpha(X, *arch.domain, order)


def _fold_shift(A: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """A stack A of shape (K, p, 2d) with columns j and d + j of each
    sample rotated by the angle of cosine c_j and sine s_j, (K, d).

    With (c, s) = (cos, sin) 2pi b of the shift b, cos 2pi(x_j - b_j) =
    c_j cos 2pi x_j + s_j sin 2pi x_j and sin 2pi(x_j - b_j) =
    c_j sin 2pi x_j - s_j cos 2pi x_j, so the shifted features under W0 are
    the unshifted base under W0 so rotated. The rotation by -b, of cosine c
    and sine -s (numpy's cos is even and its sin odd, bit for bit), turns
    the rows of the base's transpose into the shifted features
    (_shifted_base)."""
    d = c.shape[-1]
    c, s = c[:, None], s[:, None]
    Ac, As = A[..., :d], A[..., d:]
    return np.concatenate([Ac * c - As * s, Ac * s + As * c], axis=-1)


def _shifted_base(base: np.ndarray, rotation) -> np.ndarray:
    """The net's layer-0 input at a stack of bases, (K, din, n): the
    periodic features at x - b under _net_forward's rotation, the base
    itself without a shift (rotation None)."""
    if rotation is None:
        return base
    c, s = rotation
    return _fold_shift(base.transpose(0, 2, 1), c, -s).transpose(0, 2, 1)


def _shift_rows(W0: np.ndarray, S: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Each point's gradient of the periodic shift, (K, d, n), from layer
    0's cotangent D, theta's W0 and the shifted features S, all stacked:
    with g = W0^T D, dS_j / dshift_j = 2pi S_(d+j) and
    dS_(d+j) / dshift_j = -2pi S_j."""
    d = S.shape[1] // 2
    g = W0.transpose(0, 2, 1) @ D
    return TWO_PI * (g[:, :d] * S[:, d:] - g[:, d:] * S[:, :d])


def _net_forward(arch: RomArch, base: np.ndarray, thetas: np.ndarray, states, acts):
    """The one forward pass of a net, feature-major on a stack of K of
    _net_table's bases, (K, din, n), each with its own row of the (K, m)
    float64 parameter vectors thetas: states[l] receives the
    (K, width, n) output of layer l, acts[l - 1] the activation of block l
    (layer 0's activation is states[0]). Buffers may alias, so that layers
    run in place in the same memory. Returns _unpack's stacked views, W0
    with the periodic shift folded in, and the shift's rotation (cos, sin)
    of 2pi shift, which _shifted_base takes too (None without a shift)."""
    params = W0, b0, blocks, _, shift = _unpack(arch, thetas)
    act = np.tanh if arch.activation == "tanh" else (lambda A, out: np.maximum(A, 0.0, out=out))
    rotation = None
    if shift is not None:
        arg = TWO_PI * shift
        rotation = np.cos(arg), np.sin(arg)
        W0 = _fold_shift(W0, *rotation)
    Z = states[0]
    np.matmul(W0, base, out=Z)
    Z += b0[..., None]
    act(Z, out=Z)
    for (W, b), A, Z_out in zip(blocks, acts, states[1:]):
        np.matmul(W, Z, out=A)
        A += b[..., None]
        act(A, out=A)
        Z = np.add(Z, A, out=Z_out)
    return params, W0, rotation


def _net_output(w_out: np.ndarray, Z: np.ndarray, factor) -> np.ndarray:
    """u = alpha (w_L . Z) per sample of a stack, (K, n), as a fresh array,
    checked finite; factor is alpha, (K, n), or None without one."""
    u = (w_out[:, None] @ Z)[:, 0]
    if factor is not None:
        u *= factor
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
    out = BatchEval(value=None, grad_x=None, laplacian=None, grad_theta=None)
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


def _act_deriv(kind: str, T: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = act'(A) from the activation's stored value T = act(A)."""
    if kind == "tanh":
        np.multiply(T, T, out=out)
        return np.subtract(1.0, out, out=out)
    return np.greater(T, 0.0, out=out)  # relu: T > 0 exactly where A > 0


def _net_reverse(arch: RomArch, blocks, w_out, states, acts, S, c, buffers, visit) -> np.ndarray:
    """The one reverse pass of a net, on a stack: of sum_n c_kn
    net_k(S(x_kn)) for each sample k, with c of shape (K, n), on the states
    that _net_forward stored, from the last block to the first. Calls
    visit(l, D, Z_in) with the (K, width, n) cotangent D of layer l's
    pre-activation and the layer's input Z_in, for l = L-1 .. 0; layer 0's
    input is S, the shifted features for the periodic wrapper. D lives in
    buffers (three (K, width, n) arrays: the state's cotangent, D and
    scratch), and the next layer's overwrites it; returns layer 0's."""
    G, D, GW = buffers
    np.multiply(w_out[..., None], c[:, None], out=G)  # d sum / d(block output)
    for l in range(arch.depth - 1, 0, -1):
        _act_deriv(arch.activation, acts[l - 1], D)
        D *= G
        visit(l, D, states[l - 1])
        np.add(G, np.matmul(blocks[l - 1][0].transpose(0, 2, 1), D, out=GW), out=G)
    _act_deriv(arch.activation, states[0], D)
    D *= G
    visit(0, D, S)
    return D


def pullback_at(arch: RomArch, X) -> Callable[[np.ndarray], tuple[np.ndarray, Callable[..., np.ndarray]]]:
    """thetas -> (u, pullback) for a net on a stack of K samples X of
    shape (K, n, d), for many (K, m) stacks of parameter vectors, row k on
    sample k: u holds u_k at sample k's points, (K, n), and pullback(R)
    returns sum_n R_kn du_k(x_kn)/dtheta_k, (K, m). The gradient of a loss
    sum_n l(u_kn) is pullback(l'(u)), without the (n, m) Jacobian that
    eval_batch's grad_theta forms. pullback(R, rows) takes the cotangents
    of the stack's rows `rows` (an index array) alone and returns their
    gradients, so a caller that drops rows computes nothing for them.

    The tables are built once per sample, as in value_at, and the forward
    pass keeps every layer's (K, width, n) state in buffers that the
    closure makes once; each row's value is value_at's bit for bit. The
    pullback runs the reverse pass seeded with alpha R, whose visit sums
    each layer's part over each sample's points inside its matmuls and
    writes it into its place in a fresh gradient. A pullback reads the
    closure's buffers, so it is valid until the closure's next call, and a
    closure must not be shared between threads. The values and each
    gradient are fresh arrays. Raises NonFiniteError like eval_batch if
    any row's values or gradient overflow."""
    if arch.kind == LINEAR_BASIS:
        raise ValueError("pullback_at takes a net; a linear basis is its own Jacobian")
    tables = [_net_table(arch, _points(arch, x), 0) for x in X]
    base = np.stack([table[0] for table in tables])
    factor = None if arch.kind == RESNET_PERIODIC else np.stack([table[3][0] for table in tables])
    (K, _, n), L, table, ones = base.shape, arch.depth, _layout(arch), np.ones(base.shape[2])
    m = table[-1][0].stop
    buffers = np.empty((2 * L + 2, K, arch.width, n))
    states, acts, scratch = buffers[:L], buffers[L : 2 * L - 1], buffers[2 * L - 1 :]

    def at(thetas: np.ndarray) -> tuple[np.ndarray, Callable[..., np.ndarray]]:
        thetas = np.ascontiguousarray(thetas, dtype=np.float64)
        if thetas.shape != (K, m):
            raise ValueError(f"thetas must have shape ({K}, {m}), got {thetas.shape}")
        (_, _, _, w_out, _), _, rotation = _net_forward(arch, base, thetas, states, acts)
        value = _net_output(w_out, states[-1], factor)
        S = _shifted_base(base, rotation)

        def pullback(R: np.ndarray, rows=slice(None)) -> np.ndarray:
            W0, _, blocks, w_out, shift = _unpack(arch, thetas[rows])
            c = R if factor is None else factor[rows] * R
            grad = np.empty((c.shape[0], m))
            parts = _split(grad, table)
            kept = states[:, rows]
            np.matmul(kept[-1], c[..., None], out=parts[2 * L][..., None])

            def visit(l, D, Z_in):
                np.matmul(D, Z_in.transpose(0, 2, 1), out=parts[2 * l])
                np.matmul(D, ones, out=parts[2 * l + 1])

            D = _net_reverse(arch, blocks, w_out, kept, acts[:, rows], S[rows], c, scratch[:, : c.shape[0]], visit)
            if shift is not None:
                np.sum(_shift_rows(W0, S[rows], D), axis=-1, out=parts[-1])
            _check_finite(grad)
            return grad

        return value, pullback

    return at


def _eval_net(model: RomModel, X: np.ndarray, need: EvalFlags) -> BatchEval:
    """eval_batch's derivative path for a net, on its one forward pass on
    a stack of one with one buffer per layer state; the forward-mode
    tangents run on the sample's (width, n) views."""
    arch = model.arch
    n, d = X.shape
    L = arch.depth
    order = 2 if need.laplacian else int(need.grad_x)
    base, dS, ddS, alpha = _net_table(arch, X, order)
    buffers = np.empty((2 * L + 2, 1, arch.width, n))
    states, acts, scratch = buffers[:L], buffers[L : 2 * L - 1], buffers[2 * L - 1 :]
    (W0, _, blocks, w_out, _), W0_folded, rotation = _net_forward(arch, base[None], model.theta[None], states,
                                                                    acts)
    z = w_out[0] @ states[-1, 0]

    out = BatchEval(value=None, grad_x=None, laplacian=None, grad_theta=None)
    if need.value:
        out.value = z if alpha is None else alpha[0] * z

    # Forward-mode first and second derivatives of z, one pass per coordinate
    # i, which base rows i, i + d, ... depend on.
    if order:
        derivs = []
        for T in (states[0, 0], *acts[:, 0]):
            d1 = _act_deriv(arch.activation, T, np.empty_like(T))
            d2 = (-2.0 * T * d1 if arch.activation == "tanh" else 0.0) if order == 2 else None
            derivs.append((d1, d2))
        zd = np.empty((n, d))
        zdd = np.empty((n, d)) if order == 2 else None
        for i in range(d):
            W0_i = W0_folded[0][:, i::d]
            Ad = W0_i @ dS[i::d]
            d1, d2 = derivs[0]
            Zd = d1 * Ad
            if order == 2:
                Zdd = d2 * Ad * Ad + d1 * (W0_i @ ddS[i::d])
            for (W, _), (d1, d2) in zip(blocks, derivs[1:]):
                Ad = W[0] @ Zd
                if order == 2:
                    Zdd = Zdd + d2 * Ad * Ad + d1 * (W[0] @ Zdd)
                Zd = Zd + d1 * Ad
            zd[:, i] = w_out[0] @ Zd
            if order == 2:
                zdd[:, i] = w_out[0] @ Zdd
        if alpha is not None:  # product rule for u = alpha z
            a, da, dda = alpha
            if order == 2:
                zdd = dda * z[:, None] + 2.0 * da * zd + a[:, None] * zdd
            zd = da * z[:, None] + a[:, None] * zd
        if need.grad_x:
            out.grad_x = zd
        if need.laplacian:
            out.laplacian = zdd.sum(axis=1)

    if need.grad_theta:
        c = np.ones(n) if alpha is None else alpha[0]
        out.grad_theta = np.empty((n, param_count(arch)))
        # the (n, *shape) views of the rows, with the point axis moved last
        parts = [part.transpose(*range(1, part.ndim), 0) for part in _split(out.grad_theta, _layout(arch))]
        np.multiply(states[-1, 0], c, out=parts[2 * L])

        def visit(l, D, Z_in):
            np.einsum("pn,qn->pqn", D[0], Z_in[0], out=parts[2 * l])
            parts[2 * l + 1][...] = D[0]

        S = _shifted_base(base[None], rotation)
        D = _net_reverse(arch, blocks, w_out, states, acts, S, c[None], scratch, visit)
        if rotation is not None:
            parts[-1][...] = _shift_rows(W0, S, D)[0]

    _check_finite(out.value, out.grad_x, out.laplacian, out.grad_theta)
    return out


def _check_finite(*arrays) -> None:
    for a in arrays:
        if a is not None and not np.all(np.isfinite(a)):
            raise NonFiniteError("rom evaluation produced non-finite values")
