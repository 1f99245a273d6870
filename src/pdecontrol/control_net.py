"""The learned velocity field over parameter space: a gated residual network
with analytic backpropagation, the training loss, and the training loop.

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

One forward pass (_forward_cached) runs the layers for every caller: forward
(the RK4 solve), the gradients, _jvp, _vjp and field_stats. The first layer
and every gate read only theta, so one stacked product with
ControlNet.theta_table gives all their pre-activations and one elementwise
pass all the Phi(R); the blocks then run in turn. The pass keeps what the
one reverse pass reads. Each training step runs one forward and one backward
pass: loss stacks the step's Gram rows and trajectory-pair rows and reads
the projection loss l1 and the trajectory loss l2 off the two blocks of the
one output.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import erf

from . import binfile
from .errors import CacheMismatch, NonFiniteError
from .optim import Adam
from .rom import _join, _size, _split_flat
from .sampling import Purpose, rng_for

FORMAT_VERSION = 6

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


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
    # the sha256 of xi that its checkpoint records, checked against xi when
    # load_control_checkpoint read it; None for a net built in memory
    sha256: str | None = field(default=None, compare=False)
    # the layer views of xi, unpacked once (views, so they share xi's memory)
    params: tuple = field(init=False, repr=False, compare=False)
    # the layers that read theta, stacked for the forward pass: [U_0, Ubar_1,
    # ...] of shape (depth, width, input_dim) and [b_0, bbar_1, ...] of shape
    # (depth, width); copies of those views, built with params
    theta_table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xi = np.ascontiguousarray(self.xi, dtype=np.float64)
        object.__setattr__(self, "xi", xi)
        expect = control_param_count(self.arch)
        if xi.shape != (expect,):
            raise ValueError(f"xi must have shape ({expect},), got {xi.shape}")
        U0, b0, blocks, _, _ = params = _unpack(self.arch, xi)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "theta_table", (np.stack([U0] + [Ug for _, _, Ug, _ in blocks]),
                                                 np.stack([b0] + [bg for _, _, _, bg in blocks])))

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        return forward(self, theta)


def init_control_params(arch: ControlArch, seed: int) -> np.ndarray:
    """Fan-in uniform hidden weights, zero biases, zero output layer."""
    rng = rng_for(seed, Purpose.CONTROL_INIT)
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
    cache = (TH, H0 the first tanh, R, Phi(R), gate = R Phi(R), per block
    (H_in, T), H_last), with R, Phi(R) and gate stacked over the blocks as
    (depth-1, n, width) arrays.

    One stacked theta_table product gives the first pre-activation and every
    gate's; one elementwise pass turns the gate rows into Phi(R)."""
    table, biases = net.theta_table
    _, _, blocks, W_out, b_out = net.params
    A = np.matmul(TH, table.transpose(0, 2, 1))  # one (n, width) product per layer
    A += biases[:, None, :]
    H0 = H = np.tanh(A[0], out=A[0])
    R = A[1:]
    cdf = R / _SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    gates = cdf * R
    layers = []
    for (U, b, _, _), gate in zip(blocks, gates):
        T = H @ U.T
        T += b
        np.tanh(T, out=T)
        layers.append((H, T))
        H = H + gate * T
    out = H @ W_out.T
    out += b_out
    return out, (TH, H0, R, cdf, gates, layers, H)


def forward(net: ControlNet, theta) -> np.ndarray:
    """V(theta); accepts a single vector (m,) or a batch (n, m)."""
    th = np.asarray(theta, dtype=np.float64)
    single = th.ndim == 1
    TH = th[None, :] if single else th
    if TH.shape[1] != net.arch.input_dim:
        raise ValueError("theta dimension does not match the control net")
    out = _forward_cached(net, TH)[0]
    if not np.isfinite(out).all():
        raise NonFiniteError("control field evaluation overflowed")
    return out[0] if single else out


def _reverse(net: ControlNet, cache, dout: np.ndarray):
    """Reverse pass of sum(dout * out): (dA0, [(dS, dR) per block]), the
    cotangents of the first pre-activation and of each block's tanh (S) and
    gate (R) pre-activations."""
    _, _, blocks, W_out, _ = net.params
    _, H0, R, cdf, gates, layers, _ = cache
    dH = dout @ W_out
    per_block = [None] * len(layers)
    # GeLU' block by block: over all of R at once its temporaries reach
    # megabytes at training batch sizes, which made a heat1d training step
    # ~18% slower on a 2-vCPU host
    for k in range(len(layers) - 1, -1, -1):
        T = layers[k][1]
        dS = dH * gates[k] * (1.0 - T * T)
        per_block[k] = (dS, dH * T * _gelu_deriv(R[k], cdf[k]))
        dH = dH + dS @ blocks[k][0]
    return dH * (1.0 - H0**2), per_block


def _backward_xi(net: ControlNet, cache, dout: np.ndarray) -> np.ndarray:
    """Gradient of sum(dout * out) with respect to the flat xi."""
    TH, *_, layers, H_last = cache
    dA0, per_block = _reverse(net, cache, dout)
    parts = [dA0.T @ TH, dA0.sum(axis=0)]
    for (H_in, _), (dS, dR) in zip(layers, per_block):
        parts += [dS.T @ H_in, dS.sum(axis=0), dR.T @ TH, dR.sum(axis=0)]
    parts += [dout.T @ H_last, dout.sum(axis=0)]
    return _join(parts, _layout(net.arch))


def _jvp(net: ControlNet, cache, v: np.ndarray) -> np.ndarray:
    """Directional derivative (d/ds) V(theta + s v) at s=0, batched."""
    U0, _, blocks, W_out, _ = net.params
    _, H0, R, cdf, gates, layers, _ = cache
    Hd = (1.0 - H0 * H0) * (v @ U0.T)
    for (U, _, Ug, _), R_k, cdf_k, gate, (_, T) in zip(blocks, R, cdf, gates, layers):
        gate_d = _gelu_deriv(R_k, cdf_k) * (v @ Ug.T)
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
    v = rng_for(seed, Purpose.FIELD_STATS).standard_normal(TH.shape)
    v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
    sigma = np.zeros(TH.shape[0])
    for _ in range(n_probe_iters):
        w = _jvp(net, cache, v)
        sigma = np.linalg.norm(w, axis=1)
        v = _vjp(net, cache, w / np.maximum(sigma[:, None], 1e-300))
        v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
    return m_v, float(sigma.max())


# ---------------------------------------------------------------------------
# loss and training


def _projection_residual(G: np.ndarray, out: np.ndarray, P: np.ndarray) -> np.ndarray:
    """G V(theta) - p per row, from the field values out."""
    return np.einsum("nij,nj->ni", G, out) - P


def loss(net: ControlNet, gram, pairs, zeta: float) -> tuple[float, float, np.ndarray]:
    """(l1, l2, gradient of l1 + zeta*l2 with respect to xi) on one
    minibatch, from one forward and one reverse pass over the stacked rows.

    l1 is the mean squared projection residual |G V(theta) - p|^2 over the
    rows of gram = (TH, G, P), shapes (n, m), (n, m, m), (n, m); l2 the mean
    squared deviation |V(theta) - v|^2 from the trajectory velocities over
    the rows of pairs = (TH, V), both (n, m). Either may be None, its term
    then 0.
    """
    out, cache = _forward_cached(net, np.concatenate([batch[0] for batch in (gram, pairs) if batch is not None]))
    l1 = l2 = 0.0
    n1 = 0
    douts = []
    if gram is not None:
        _, G, P = gram
        n1 = G.shape[0]
        res = _projection_residual(G, out[:n1], P)
        l1 = float(np.mean(np.sum(res * res, axis=1)))
        douts.append(2.0 * np.einsum("nij,ni->nj", G, res) / n1)  # G symmetric
    if pairs is not None:
        res = out[n1:] - pairs[1]
        l2 = float(np.mean(np.sum(res * res, axis=1)))
        douts.append(zeta * (2.0 * res / res.shape[0]))
    return l1, l2, _backward_xi(net, cache, np.concatenate(douts))


class _Batcher:
    """Deterministic epoch-shuffled minibatches of the given rows of arrays."""

    def __init__(self, arrays, rows: np.ndarray, batch_size: int, rng: np.random.Generator):
        self.arrays = arrays
        self.rng = rng
        self.n = n = rows.shape[0]
        self.bs = n if batch_size == 0 or batch_size >= n else batch_size
        self.order = rows.copy()
        self.pos = n  # force shuffle on first call

    def next(self) -> tuple:
        if self.pos + self.bs > self.n:
            self.rng.shuffle(self.order)
            self.pos = 0
        idx = self.order[self.pos : self.pos + self.bs]
        self.pos += self.bs
        return tuple(a[idx] for a in self.arrays)


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
    traj_pairs: (thetas, velocities) arrays or None; they are used only for
    zeta > 0. Each step draws a minibatch of each and takes one loss.
    Stops at stop_loss or at max_steps. Returns the trained
    net and the per-step history (step, l1, l2, l_total).
    """
    m = net.arch.input_dim
    rng = rng_for(seed, Purpose.BATCHES)
    grams = pairs = None
    if gram is not None:
        if gram[0].shape[1] != m:
            raise CacheMismatch("gram cache dimension does not match control net")
        rows = np.arange(gram[0].shape[0]) if rows is None else rows
        if rows.shape[0]:
            grams = _Batcher(gram, rows, batch_size, rng)
    if traj_pairs is not None and zeta > 0 and traj_pairs[0].shape[0]:
        if traj_pairs[0].shape[1] != m:
            raise CacheMismatch("trajectory cache dimension does not match control net")
        pairs = _Batcher(traj_pairs, np.arange(traj_pairs[0].shape[0]), batch_size, rng)
    if grams is None and pairs is None:
        raise ValueError("nothing to train on: empty gram cache and no trajectory pairs")

    xi = net.xi.copy()
    adam = Adam(xi.size, lr)
    history: list[tuple[int, float, float, float]] = []

    for step in range(1, max_steps + 1):
        # the Gram minibatch is drawn first, as both share one generator; no
        # minibatch outlives its step, so two are never held at once
        l1, l2, grad = loss(ControlNet(net.arch, xi), grams.next() if grams else None,
                            pairs.next() if pairs else None, zeta)
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
    return np.linalg.norm(_projection_residual(G, forward(net, TH), P), axis=1)


# ---------------------------------------------------------------------------
# persistence


# A checkpoint is a binfile: the header {format_version, kind, arch,
# xi_sha256} plus the caller's record of what shaped the training data, and
# the flat xi as control_param_count(arch) float64.

_CHECKPOINT_REMEDY = "rerun train-control"


def save_control_checkpoint(net: ControlNet, path, inputs: dict) -> None:
    header = {"format_version": FORMAT_VERSION, "kind": "control_checkpoint", "arch": asdict(net.arch),
              "xi_sha256": binfile.digest(net.xi), **inputs}
    binfile.save(path, header, net.xi)


def _expected_checkpoint(arch: ControlArch, inputs: dict) -> dict:
    return {"arch": asdict(arch), **inputs}


def load_control_checkpoint(path, arch: ControlArch, inputs: dict) -> ControlNet:
    """The checkpointed net, which must record arch and inputs, the arch
    checked first, and whose xi must hash to the recorded xi_sha256; the
    net carries that digest."""
    header, xi = binfile.load(path, "control_checkpoint", FORMAT_VERSION, _expected_checkpoint(arch, inputs),
                              _CHECKPOINT_REMEDY)
    n = control_param_count(arch)
    if xi.shape != (n,):
        raise CacheMismatch(f"{path} holds {xi.size} of {n} parameters; {_CHECKPOINT_REMEDY}")
    if binfile.digest(xi) != header.get("xi_sha256"):
        raise CacheMismatch(f"{path} holds parameters whose sha256 is not its header's xi_sha256; "
                            f"{_CHECKPOINT_REMEDY}")
    return ControlNet(arch=arch, xi=xi, sha256=header["xi_sha256"])


def checkpoint_sha256(path, arch: ControlArch, inputs: dict) -> str:
    """The xi_sha256 of a checkpoint whose header records arch and inputs,
    read from the header alone: the parameters are neither read nor hashed
    (load_control_checkpoint checks them against it)."""
    header = binfile.load_header(path, "control_checkpoint", FORMAT_VERSION, _expected_checkpoint(arch, inputs),
                                 _CHECKPOINT_REMEDY)[0]
    return header.get("xi_sha256")


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
