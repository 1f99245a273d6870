"""Reduced-order models: residual networks with boundary-enforcing wrappers
and linear basis expansions, with analytic evaluation of the value, spatial
gradient, Laplacian, and parameter gradient.

Architectures
-------------
Residual nets follow
    z0 = act(W0 s + b0),   z_l = z_{l-1} + act(W_l z_{l-1} + b_l),  l = 1..L-1,
    net(s) = w_L . z_{L-1},
where s = x for the zero-boundary wrapper (output multiplied by a distance
function alpha) and s = beta(x) = (cos 2pi(x-b), sin 2pi(x-b)) for the
periodic wrapper with trainable shift b.

Parameter layout (frozen; caches and anchor stores depend on it)
----------------------------------------------------------------
theta = [W0 (row-major), b0, W1, b1, ..., W_{L-1}, b_{L-1}, w_L, shift?]
with the shift present only for the periodic wrapper. For linear bases theta
holds the combination coefficients in basis order.

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
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError
from .sampling import rng_for

RESNET_ZERO_BOUNDARY = "resnet_zero_boundary"
RESNET_PERIODIC = "resnet_periodic"
LINEAR_BASIS = "linear_basis"

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class RomArch:
    kind: str
    input_dim: int
    width: int = 0
    depth: int = 0
    activation: str = "tanh"
    wrapper_spec: dict = field(default_factory=dict)
    basis_spec: tuple = ()

    def __post_init__(self):
        if self.kind not in (RESNET_ZERO_BOUNDARY, RESNET_PERIODIC, LINEAR_BASIS):
            raise ValueError(f"unknown arch kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.kind == LINEAR_BASIS:
            if not self.basis_spec:
                raise ValueError("linear_basis needs a nonempty basis_spec")
            if self.input_dim != 1:
                raise ValueError("linear_basis is implemented for 1-D domains")
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
        if self.kind == RESNET_ZERO_BOUNDARY:
            family = self.wrapper_spec.get("family")
            if family not in ("unit_box", "sym_box"):
                raise ValueError("zero-boundary wrapper needs family 'unit_box' or 'sym_box'")

    @property
    def net_input_dim(self) -> int:
        return 2 * self.input_dim if self.kind == RESNET_PERIODIC else self.input_dim


def arch_to_dict(arch: RomArch) -> dict:
    return {
        "kind": arch.kind,
        "input_dim": arch.input_dim,
        "width": arch.width,
        "depth": arch.depth,
        "activation": arch.activation,
        "wrapper_spec": dict(arch.wrapper_spec),
        "basis_spec": [list(b) for b in arch.basis_spec],
    }


def arch_from_dict(d: dict) -> RomArch:
    return RomArch(
        kind=d["kind"],
        input_dim=d["input_dim"],
        width=d.get("width", 0),
        depth=d.get("depth", 0),
        activation=d.get("activation", "tanh"),
        wrapper_spec=d.get("wrapper_spec", {}),
        basis_spec=tuple(tuple(b) for b in d.get("basis_spec", [])),
    )


def arch_hash(arch) -> str:
    """Stable 16-hex-digit digest of an architecture description dict."""
    d = arch_to_dict(arch) if isinstance(arch, RomArch) else arch
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def param_count(arch: RomArch) -> int:
    if arch.kind == LINEAR_BASIS:
        return len(arch.basis_spec)
    din, w, L = arch.net_input_dim, arch.width, arch.depth
    m = w * din + w + (L - 1) * (w * w + w) + w
    if arch.kind == RESNET_PERIODIC:
        m += arch.input_dim
    return m


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


def _unpack(arch: RomArch, theta: np.ndarray):
    """Views into the flat parameter vector following the frozen layout."""
    din, w, L = arch.net_input_dim, arch.width, arch.depth
    periodic = arch.kind == RESNET_PERIODIC
    shapes = [(w, din), (w,)] + [(w, w), (w,)] * (L - 1) + [(w,)]
    if periodic:
        shapes.append((arch.input_dim,))
    views = iter(_split_flat(theta, shapes))
    W0, b0 = next(views), next(views)
    blocks = [(next(views), next(views)) for _ in range(L - 1)]
    w_out = next(views)
    shift = next(views) if periodic else None
    return W0, b0, blocks, w_out, shift


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


def _alpha_factors(X: np.ndarray, spec: dict):
    """Per-coordinate factors of the distance-like boundary factor alpha:
    4(x - x^2) for the unit box (0,1)^d or (1 - x^2) for (-1,1)^d."""
    family = spec.get("family")
    if family == "unit_box":
        f = 4.0 * (X - X * X)
        df = 4.0 * (1.0 - 2.0 * X)
        ddf = np.full_like(X, -8.0)
    elif family == "sym_box":
        f = 1.0 - X * X
        df = -2.0 * X
        ddf = np.full_like(X, -2.0)
    else:
        raise ValueError(f"unknown alpha family {family!r}")
    return f, df, ddf


def _alpha_with_derivs(X: np.ndarray, spec: dict):
    """alpha, d alpha/dx_i, d^2 alpha/dx_i^2 via leave-one-out products."""
    f, df, ddf = _alpha_factors(X, spec)
    n, d = X.shape
    prefix = np.ones((n, d + 1))
    suffix = np.ones((n, d + 1))
    for i in range(d):
        prefix[:, i + 1] = prefix[:, i] * f[:, i]
    for i in range(d - 1, -1, -1):
        suffix[:, i] = suffix[:, i + 1] * f[:, i]
    alpha = prefix[:, d]
    loo = prefix[:, :d] * suffix[:, 1:]  # product of all factors except i
    dalpha = df * loo
    ddalpha = ddf * loo
    return alpha, dalpha, ddalpha


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
    """phi_j(x), phi_j'(x), phi_j''(x) columns for a 1-D basis."""
    n = x.shape[0]
    m = len(basis_spec)
    B = np.empty((n, m))
    dB = np.empty((n, m)) if order >= 1 else None
    ddB = np.empty((n, m)) if order >= 2 else None
    for j, desc in enumerate(basis_spec):
        kind = desc[0]
        if kind == "fourier_sine":
            k = float(desc[1])
            w = k * np.pi
            s = np.sqrt(2.0)
            B[:, j] = s * np.sin(w * x)
            if order >= 1:
                dB[:, j] = s * w * np.cos(w * x)
            if order >= 2:
                ddB[:, j] = -s * w * w * np.sin(w * x)
        elif kind == "monomial":
            p = int(desc[1])
            B[:, j] = x**p
            if order >= 1:
                dB[:, j] = p * x ** (p - 1) if p >= 1 else 0.0
            if order >= 2:
                ddB[:, j] = p * (p - 1) * x ** (p - 2) if p >= 2 else 0.0
        else:
            raise ValueError(f"unknown basis function {kind!r}")
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
    act = arch.activation
    n, d = X.shape
    W0, b0, blocks, w_out, shift = _unpack(arch, model.theta)
    periodic = arch.kind == RESNET_PERIODIC

    # Wrapper features and their per-coordinate directional derivatives.
    if periodic:
        arg = TWO_PI * (X - shift)
        c, s = np.cos(arg), np.sin(arg)
        S = np.concatenate([c, s], axis=1)
    else:
        S = X

    want_second = need.laplacian
    want_first = need.grad_x or need.laplacian
    order = 2 if want_second else (1 if want_first else 0)

    # Forward pass, caching activation derivatives per layer.
    A0 = S @ W0.T + b0
    Z, d1_0, d2_0 = _act(act, A0, order if order else (1 if need.grad_theta else 0))
    layer_d1 = [d1_0]
    layer_d2 = [d2_0]
    zs_in = []
    for W, b in blocks:
        zs_in.append(Z)
        A = Z @ W.T + b
        phi, d1, d2 = _act(act, A, order if order else (1 if need.grad_theta else 0))
        Z = Z + phi
        layer_d1.append(d1)
        layer_d2.append(d2)
    z_net = Z @ w_out  # (n,)

    if periodic:
        alpha = None
        value_net = z_net
    else:
        alpha, dalpha, ddalpha = _alpha_with_derivs(X, arch.wrapper_spec)
        value_net = alpha * z_net

    out = BatchEval(value=None, grad_x=None, laplacian=None, grad_theta=None, flags=need)
    if need.value:
        out.value = value_net

    # Forward-mode first/second directional derivatives, one pass per coordinate.
    if want_first:
        grad = np.empty((n, d))
        lap = np.zeros(n) if want_second else None
        for i in range(d):
            if periodic:
                Sdot = np.zeros((n, 2 * d))
                Sdot[:, i] = -TWO_PI * s[:, i]
                Sdot[:, d + i] = TWO_PI * c[:, i]
                if want_second:
                    Sddot = np.zeros((n, 2 * d))
                    Sddot[:, i] = -TWO_PI * TWO_PI * c[:, i]
                    Sddot[:, d + i] = -TWO_PI * TWO_PI * s[:, i]
            else:
                Sdot = np.zeros((n, d))
                Sdot[:, i] = 1.0
                Sddot = None  # zero for the identity map

            Ad = Sdot @ W0.T
            Zdot = layer_d1[0] * Ad
            if want_second:
                Add = Sddot @ W0.T if (periodic and Sddot is not None) else np.zeros_like(Ad)
                Zddot = layer_d2[0] * Ad * Ad + layer_d1[0] * Add
            for k, (W, b) in enumerate(blocks, start=1):
                Ad = Zdot @ W.T
                if want_second:
                    Add = Zddot @ W.T
                    Zddot = Zddot + layer_d2[k] * Ad * Ad + layer_d1[k] * Add
                Zdot = Zdot + layer_d1[k] * Ad
            zdot = Zdot @ w_out
            if want_second:
                zddot = Zddot @ w_out
            if periodic:
                grad[:, i] = zdot
                if want_second:
                    lap += zddot
            else:
                grad[:, i] = dalpha[:, i] * z_net + alpha * zdot
                if want_second:
                    lap += ddalpha[:, i] * z_net + 2.0 * dalpha[:, i] * zdot + alpha * zddot
        if need.grad_x:
            out.grad_x = grad
        if need.laplacian:
            out.laplacian = lap

    # Reverse accumulation for the parameter gradient.
    if need.grad_theta:
        m = model.theta.shape[0]
        gt = np.empty((n, m))
        sz_W0 = W0.size
        w = arch.width

        out_scale = alpha if not periodic else np.ones(n)
        # d value / d w_out and running gradient wrt the block output
        Gz = out_scale[:, None] * w_out[None, :]
        grads_blocks = []
        for k in range(len(blocks) - 1, -1, -1):
            W, b = blocks[k]
            Dk = Gz * layer_d1[k + 1]
            # per-point outer products D_k (x) z_in
            gW = np.einsum("np,nq->npq", Dk, zs_in[k])
            grads_blocks.append((gW, Dk))
            Gz = Gz + Dk @ W
        grads_blocks.reverse()
        D0 = Gz * layer_d1[0]
        gW0 = np.einsum("np,nq->npq", D0, S)

        pos = 0
        gt[:, pos : pos + sz_W0] = gW0.reshape(n, -1)
        pos += sz_W0
        gt[:, pos : pos + w] = D0
        pos += w
        for k in range(len(blocks)):
            gW, Dk = grads_blocks[k]
            gt[:, pos : pos + w * w] = gW.reshape(n, -1)
            pos += w * w
            gt[:, pos : pos + w] = Dk
            pos += w
        # gradient wrt output weights: the final hidden state times out_scale
        gt[:, pos : pos + w] = out_scale[:, None] * Z
        pos += w
        if periodic:
            gS = D0 @ W0  # (n, 2d)
            for j in range(d):
                # dS/db_j = -dS/dx_j, nonzero only in columns j and d+j
                gt[:, pos + j] = -(gS[:, j] * (-TWO_PI * s[:, j]) + gS[:, d + j] * (TWO_PI * c[:, j]))
            pos += d
        assert pos == m
        out.grad_theta = gt

    _check_finite_batch(out)
    return out


def _check_finite_batch(out: BatchEval) -> None:
    for a in (out.value, out.grad_x, out.laplacian, out.grad_theta):
        if a is not None and not np.all(np.isfinite(a)):
            raise NonFiniteError("rom evaluation produced non-finite values")
