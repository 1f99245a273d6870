"""The learned velocity field over parameter space: a gated residual network
with analytic backpropagation, the projection/trajectory losses, and the
training loop.

Layers:
    eta_0 = tanh(U_0 theta + b_0)
    eta_l = eta_{l-1} + GeLU(Ubar_l theta + bbar_l) * tanh(U_l eta_{l-1} + b_l)
    V(theta) = W_out eta_{depth-1} + b_out
with GeLU(x) = x Phi(x), Phi the standard normal CDF (exact erf form). The
gate reads the raw input theta, not the running state.

Flat parameter layout (frozen; checkpoints depend on it):
    xi = [U_0, b_0, {U_l, b_l, Ubar_l, bbar_l} per block, W_out, b_out]
with matrices stored row-major. The output layer is zero-initialized so a
fresh net is the zero field.

The gradients, _jvp, _vjp and field_stats share one forward cache and one reverse pass.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import erf

from . import binfile
from .errors import CacheMismatch, NonFiniteError
from .optim import Adam
from .rom import _join, _size, _split_flat
from .sampling import rng_for

FORMAT_VERSION = 3

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _norm_cdf(x):
    return 0.5 * (1.0 + erf(x / _SQRT2))


def _gelu_deriv(x, cdf):
    """GeLU'(x) from Phi(x), which the forward pass has already computed."""
    return cdf + x * (_INV_SQRT_2PI * np.exp(-0.5 * x * x))


@dataclass(frozen=True)
class ControlArch:
    input_dim: int
    width: int
    depth: int

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.depth < 2:
            raise ValueError("depth must be >= 2")

    @property
    def n_blocks(self) -> int:
        return self.depth - 1


def _layout(arch: ControlArch) -> list[tuple[int, ...]]:
    """The shapes of the flat xi's parts, in layout order."""
    m, w = arch.input_dim, arch.width
    return [(w, m), (w,)] + [(w, w), (w,), (w, m), (w,)] * arch.n_blocks + [(m, w), (m,)]


def control_param_count(arch: ControlArch) -> int:
    return _size(_layout(arch))


def _unpack(arch: ControlArch, xi: np.ndarray):
    views = iter(_split_flat(xi, _layout(arch)))
    U0, b0 = next(views), next(views)
    blocks = [(next(views), next(views), next(views), next(views)) for _ in range(arch.n_blocks)]
    W_out, b_out = next(views), next(views)
    return U0, b0, blocks, W_out, b_out


@dataclass(frozen=True)
class ControlNet:
    arch: ControlArch
    xi: np.ndarray
    # the layer views of xi, unpacked once (views, so they share xi's memory)
    params: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xi = np.ascontiguousarray(self.xi, dtype=np.float64)
        object.__setattr__(self, "xi", xi)
        expect = control_param_count(self.arch)
        if xi.shape != (expect,):
            raise ValueError(f"xi must have shape ({expect},), got {xi.shape}")
        object.__setattr__(self, "params", _unpack(self.arch, xi))

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        return forward(self, theta)


def init_control_params(arch: ControlArch, seed: int) -> np.ndarray:
    """Fan-in uniform hidden weights, zero biases, zero output layer."""
    rng = rng_for(seed, stream=1)
    m, w = arch.input_dim, arch.width
    chunks = [rng.uniform(-1, 1, w * m) * np.sqrt(1.0 / m), np.zeros(w)]
    for _ in range(arch.n_blocks):
        chunks.append(rng.uniform(-1, 1, w * w) * np.sqrt(1.0 / w))
        chunks.append(np.zeros(w))
        chunks.append(rng.uniform(-1, 1, w * m) * np.sqrt(1.0 / m))
        chunks.append(np.zeros(w))
    chunks.append(np.zeros(m * w))
    chunks.append(np.zeros(m))
    return np.concatenate(chunks)


# ---------------------------------------------------------------------------
# forward / backward


def _forward_cached(net: ControlNet, TH: np.ndarray):
    """(out, cache): V at the rows of TH and what every derivative reuses,
    cache = (TH, H0 the first tanh, per block (H_in, R, Phi(R), gate, T),
    H_last)."""
    U0, b0, blocks, W_out, b_out = net.params
    H0 = H = np.tanh(TH @ U0.T + b0)
    layers = []
    for U, b, Ug, bg in blocks:
        R = TH @ Ug.T + bg
        cdf = _norm_cdf(R)
        gate = R * cdf
        T = np.tanh(H @ U.T + b)
        layers.append((H, R, cdf, gate, T))
        H = H + gate * T
    return H @ W_out.T + b_out, (TH, H0, layers, H)


def forward(net: ControlNet, theta) -> np.ndarray:
    """V(theta); accepts a single vector (m,) or a batch (n, m)."""
    th = np.asarray(theta, dtype=np.float64)
    single = th.ndim == 1
    TH = th[None, :] if single else th
    if TH.shape[1] != net.arch.input_dim:
        raise ValueError("theta dimension does not match the control net")
    out, _ = _forward_cached(net, TH)
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("control field evaluation overflowed")
    return out[0] if single else out


def _reverse(net: ControlNet, cache, dout: np.ndarray):
    """Reverse pass of sum(dout * out): (dA0, [(dS, dR) per block]), the
    cotangents of the first pre-activation and of each block's tanh (S) and
    gate (R) pre-activations."""
    _, _, blocks, W_out, _ = net.params
    _, H0, layers, _ = cache
    dH = dout @ W_out
    per_block = [None] * len(layers)
    for k in range(len(layers) - 1, -1, -1):
        U = blocks[k][0]
        _, R, cdf, gate, T = layers[k]
        dS = dH * gate * (1.0 - T * T)
        per_block[k] = (dS, dH * T * _gelu_deriv(R, cdf))
        dH = dH + dS @ U
    return dH * (1.0 - H0**2), per_block


def _backward_xi(net: ControlNet, cache, dout: np.ndarray) -> np.ndarray:
    """Gradient of sum(dout * out) with respect to the flat xi."""
    TH, _, layers, H_last = cache
    dA0, per_block = _reverse(net, cache, dout)
    parts = [dA0.T @ TH, dA0.sum(axis=0)]
    for (H_in, *_), (dS, dR) in zip(layers, per_block):
        parts += [dS.T @ H_in, dS.sum(axis=0), dR.T @ TH, dR.sum(axis=0)]
    parts += [dout.T @ H_last, dout.sum(axis=0)]
    return _join(parts, _layout(net.arch))


def _jvp(net: ControlNet, cache, v: np.ndarray) -> np.ndarray:
    """Directional derivative (d/ds) V(theta + s v) at s=0, batched."""
    U0, _, blocks, W_out, _ = net.params
    _, H0, layers, _ = cache
    Hd = (1.0 - H0 * H0) * (v @ U0.T)
    for (U, _, Ug, _), (_, R, cdf, gate, T) in zip(blocks, layers):
        gate_d = _gelu_deriv(R, cdf) * (v @ Ug.T)
        Td = (1.0 - T * T) * (Hd @ U.T)
        Hd = Hd + gate_d * T + gate * Td
    return Hd @ W_out.T


def _vjp(net: ControlNet, cache, u: np.ndarray) -> np.ndarray:
    """Cotangent pullback J(theta)^T u, batched: dA0 U0 + sum of dR Ug."""
    U0, _, blocks, _, _ = net.params
    dA0, per_block = _reverse(net, cache, u)
    dTH = np.zeros_like(cache[0])
    for (_, dR), (_, _, Ug, _) in zip(per_block[::-1], blocks[::-1]):
        dTH += dR @ Ug
    dTH += dA0 @ U0
    return dTH


def field_stats(net: ControlNet, points: np.ndarray, seed: int, n_probe_iters: int = 8) -> tuple[float, float]:
    """(M_V, L_V) estimates over the rows of points: the max field magnitude
    and the max Jacobian operator norm, the latter by randomized power
    iteration on _jvp and _vjp over one forward cache."""
    TH = np.asarray(points, dtype=np.float64)
    if TH.shape[0] == 0:
        raise ValueError("empty sample")
    out, cache = _forward_cached(net, TH)
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("control field evaluation overflowed")
    m_v = float(np.linalg.norm(out, axis=1).max())
    v = rng_for(seed, stream=3).standard_normal(TH.shape)
    v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
    sigma = np.zeros(TH.shape[0])
    for _ in range(n_probe_iters):
        w = _jvp(net, cache, v)
        sigma = np.linalg.norm(w, axis=1)
        v = _vjp(net, cache, w / np.maximum(sigma[:, None], 1e-300))
        v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
    return m_v, float(sigma.max())


# ---------------------------------------------------------------------------
# losses


def loss_l1(net: ControlNet, TH: np.ndarray, G: np.ndarray, P: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared projection residual |G V(theta) - p|^2 over the rows of
    (TH, G, P), shapes (n, m), (n, m, m), (n, m), and its xi-gradient."""
    out, cache = _forward_cached(net, TH)
    res = np.einsum("nij,nj->ni", G, out) - P
    n = TH.shape[0]
    loss = float(np.mean(np.sum(res * res, axis=1)))
    dout = 2.0 * np.einsum("nij,ni->nj", G, res) / n  # G symmetric
    grad = _backward_xi(net, cache, dout)
    return loss, grad


def loss_l2(net: ControlNet, TH: np.ndarray, V: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared deviation |V(theta) - v|^2 from the trajectory velocities
    over the rows of (TH, V), both (n, m), and its xi-gradient."""
    out, cache = _forward_cached(net, TH)
    res = out - V
    n = TH.shape[0]
    loss = float(np.mean(np.sum(res * res, axis=1)))
    dout = 2.0 * res / n
    grad = _backward_xi(net, cache, dout)
    return loss, grad


# ---------------------------------------------------------------------------
# training


class _Batcher:
    """Deterministic epoch-shuffled minibatch stream over the given rows."""

    def __init__(self, rows: np.ndarray, batch_size: int, rng: np.random.Generator):
        n = rows.shape[0]
        self.n = n
        self.bs = n if batch_size == 0 or batch_size >= n else batch_size
        self.rng = rng
        self.order = rows.copy()
        self.pos = n  # force shuffle on first call

    def next(self) -> np.ndarray:
        if self.pos + self.bs > self.n:
            self.rng.shuffle(self.order)
            self.pos = 0
        idx = self.order[self.pos : self.pos + self.bs]
        self.pos += self.bs
        return idx


def train(
    net: ControlNet,
    gram,
    traj_pairs,
    *,
    lr: float,
    zeta: float,
    batch_size: int,
    stop_loss: float,
    max_steps: int,
    seed: int,
    rows: np.ndarray | None = None,
) -> tuple[ControlNet, list[tuple[int, float, float, float]]]:
    """Minimize l1 + zeta*l2 with ADAM over shuffled minibatches of
    batch_size records (0: all of them); the settings are one stage of the
    config's train.schedule with the train block's zeta and stop_loss.

    gram: (thetas, grams, rhs) arrays of shapes (n, m), (n, m, m), (n, m),
    e.g. the memory-mapped views of assembly.read_cache, or None. Each
    minibatch is gathered from them directly. rows selects the records to
    train on (default all), e.g. GramCache.rows to leave out skipped ones.
    traj_pairs: (thetas, velocities) arrays or None.
    Stops at stop_loss or at max_steps. Returns the trained
    net and the per-step history (step, l1, l2, l_total).
    """
    m = net.arch.input_dim
    TH = G = P = None
    if gram is not None:
        TH, G, P = gram
        if rows is None:
            rows = np.arange(TH.shape[0])
        if TH.shape[1] != m:
            raise CacheMismatch("gram cache dimension does not match control net")
        if rows.shape[0] == 0:
            TH = None
    T2 = V2 = None
    use_l2 = traj_pairs is not None and zeta > 0
    if use_l2:
        T2 = np.asarray(traj_pairs[0], dtype=np.float64)
        V2 = np.asarray(traj_pairs[1], dtype=np.float64)
        if T2.shape[0] == 0:
            use_l2 = False
        elif T2.shape[1] != m:
            raise CacheMismatch("trajectory cache dimension does not match control net")
    if TH is None and not use_l2:
        raise ValueError("nothing to train on: empty gram cache and no trajectory pairs")

    rng = rng_for(seed, stream=2)
    batcher1 = _Batcher(rows, batch_size, rng) if TH is not None else None
    batcher2 = _Batcher(np.arange(T2.shape[0]), batch_size, rng) if use_l2 else None

    xi = net.xi.copy()
    adam = Adam(xi.size, lr)
    history: list[tuple[int, float, float, float]] = []

    for step in range(1, max_steps + 1):
        current = ControlNet(net.arch, xi)
        l1 = l2 = 0.0
        grad = np.zeros_like(xi)
        if batcher1 is not None:
            idx = batcher1.next()
            l1, g1 = loss_l1(current, TH[idx], G[idx], P[idx])
            grad += g1
        if batcher2 is not None:
            idx2 = batcher2.next()
            l2, g2 = loss_l2(current, T2[idx2], V2[idx2])
            grad += zeta * g2
        total = l1 + zeta * l2
        if not np.isfinite(total):
            raise NonFiniteError(f"training diverged at step {step}")
        history.append((step, l1, l2, total))
        if total < stop_loss:
            break
        xi = adam.step(xi, grad)

    return ControlNet(net.arch, xi), history


def residual_scan(net: ControlNet, TH: np.ndarray, G: np.ndarray, P: np.ndarray) -> np.ndarray:
    """|G V(theta) - p| per cached record (training-quality diagnostic)."""
    res = np.einsum("nij,nj->ni", G, forward(net, TH)) - P
    return np.linalg.norm(res, axis=1)


# ---------------------------------------------------------------------------
# persistence


# A checkpoint is a binfile: the header {format_version, kind, arch} and the
# flat xi as control_param_count(arch) float64.


def save_control_checkpoint(net: ControlNet, path) -> None:
    header = {"format_version": FORMAT_VERSION, "kind": "control_checkpoint", "arch": asdict(net.arch)}
    binfile.save(path, header, net.xi)


def load_control_checkpoint(path, arch: ControlArch | None = None) -> ControlNet:
    """The checkpointed net; given arch, the checkpoint must record it."""
    expected = None if arch is None else {"arch": asdict(arch)}
    header, xi = binfile.load(path, "control_checkpoint", FORMAT_VERSION, expected, "rerun train-control")
    arch = ControlArch(**header["arch"])
    n = control_param_count(arch)
    if xi.shape != (n,):
        raise CacheMismatch(f"{path} holds {xi.size} of {n} parameters; rerun train-control")
    return ControlNet(arch=arch, xi=xi)


LOSS_HISTORY_FORMAT_VERSION = 1


def read_loss_history(path) -> np.ndarray:
    """The (step, l1, l2, l_total) rows of an existing loss history, for a
    resumed stage to keep; a file that does not read back raises
    CacheMismatch."""
    return binfile.load(path, "loss_history", LOSS_HISTORY_FORMAT_VERSION, None,
                        "rerun train-control without --resume to start a new loss history")[1]


def save_loss_history(history, path, kept: np.ndarray | None = None) -> np.ndarray:
    """Write the per-step (step, l1, l2, l_total) rows as a binfile and
    return all rows written. The rows follow the kept rows (of
    read_loss_history or of the previous stage), if given, and continue
    their step count, so annealed stages share one."""
    rows = np.array(history, dtype=np.float64).reshape(-1, 4)
    if kept is not None and kept.size:
        rows[:, 0] += kept[-1, 0]
        rows = np.concatenate([kept, rows])
    binfile.save(path, {"format_version": LOSS_HISTORY_FORMAT_VERSION, "kind": "loss_history"}, rows)
    return rows
