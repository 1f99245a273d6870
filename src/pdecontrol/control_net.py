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
with matrices stored row-major; _layout tables it, as rom._layout does
theta. The output layer is zero-initialized so a fresh net is the zero
field.

One forward pass (_forward_cached) runs the layers for every caller: forward
(the RK4 solve), loss, residual_scan, _jvp, _vjp and field_stats. The first
layer and every gate read only theta, so one stacked product with the
theta table of ControlNet.forward_views gives all their pre-activations and
one elementwise pass all the Phi(R); the blocks then run in turn. The pass
keeps what the one reverse pass (_reverse) reads, but not the gates
GeLU(R) = R Phi(R): they are written into the blocks' output buffer, which
each block turns into its output in place, and the reverse pass (and _jvp)
rebuilds each gate with one multiply. It runs on views made
once, the net's in ControlNet.forward_views and the workspace's, and it
checks no value: forward returns inf or nan where the field overflows, and
each caller checks what it needs (solve_ivp each state, residual_scan its
norms, field_stats its values). Each training step runs one forward and
one backward pass: loss stacks the step's Gram rows and trajectory-pair rows
and reads the projection loss l1 and the trajectory loss l2 off the two
blocks of the one output.

Both passes write into a _Workspace that their caller makes once for a row
count: train one per stage, field_stats one per call (its _PROBE_ITERS
power iterations share it), and forward keeps one per net. Each ufunc runs
the layer formula's operation in its order, so every value is the
formula's bit for bit. A minibatch's Gram records stream through one chunk buffer of about
_CHUNK_BYTES, whole records at a time and never more records than the
workspace has rows, so a step never holds batch * m*m floats. ADAM steps
xi in slices (optim.Adam), so a step holds no parameter-sized scratch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from . import binfile
from .assembly import _record_floats, _record_layout
from .errors import CacheMismatch, NonFiniteError
from .optim import Adam
from .rom import _split, _table
from .sampling import Purpose, rng_for

# 0-d arrays: a ufunc converts a Python or numpy scalar operand anew on
# every call, which costs a batch-1 forward pass about 0.2 us per operation
_SQRT2, _ONE, _HALF = np.array(np.sqrt(2.0)), np.array(1.0), np.array(0.5)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
# the size of the buffer that a minibatch's Gram records stream through: it
# stays in a core's L2 cache while both einsums read it, and it holds enough
# records (14 at m = 67) that the einsums' per-call cost stays small
_CHUNK_BYTES = 512 * 1024
# records per forward pass of residual_scan, which bounds the forward cache
# it holds; BLAS rounds passes of a few rows differently, so the count also
# fixes the bits of verify's report
_SCAN_ROWS = 256
# the power iterations of field_stats' L_V estimate
_PROBE_ITERS = 8


def _gelu_deriv(x, cdf, out=None):
    """GeLU'(x) = Phi(x) + x phi(x) from Phi(x), which the forward pass has
    already computed; written into out if given."""
    out = np.multiply(x, -0.5, np.empty(np.shape(x)) if out is None else out)
    out *= x
    np.exp(out, out)
    out *= _INV_SQRT_2PI
    out *= x
    out += cdf
    return out


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


@functools.lru_cache(maxsize=None)
def _layout(arch: ControlArch) -> tuple[tuple[slice, tuple[int, ...]], ...]:
    """The rom._table of the flat xi, built once per arch."""
    m, w = arch.input_dim, arch.width
    return _table([(w, m), (w,)] + [(w, w), (w,), (w, m), (w,)] * arch.n_blocks + [(m, w), (m,)])


def control_param_count(arch: ControlArch) -> int:
    return _layout(arch)[-1][0].stop


def _unpack(arch: ControlArch, xi: np.ndarray):
    views = iter(_split(xi, _layout(arch)))
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
    # the views the forward pass reads, made once: the layers that read
    # theta stacked as [U_0^T, Ubar_1^T, ...] of shape (depth, input_dim,
    # width) and [b_0, bbar_1, ...] of shape (depth, 1, width) (read-only
    # strided views of xi, as U_0 and each Ubar_l lie one block's parameters
    # apart in the layout, and so do b_0 and each bbar_l), each block's
    # (U_l^T, b_l), and W_out^T and b_out
    forward_views: tuple = field(init=False, repr=False, compare=False)
    # forward's _Workspace, kept for its next call of the same row count
    workspace: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xi = np.ascontiguousarray(self.xi, dtype=np.float64)
        object.__setattr__(self, "xi", xi)
        expect = control_param_count(self.arch)
        if xi.shape != (expect,):
            raise ValueError(f"xi must have shape ({expect},), got {xi.shape}")
        U0, b0, blocks, W_out, b_out = params = _unpack(self.arch, xi)
        layout = _layout(self.arch)  # U_0, b_0, U_1, b_1, Ubar_1, ...: Ubar_1 is part 4
        block = (layout[4][0].start - layout[0][0].start) * xi.itemsize
        table, biases = (np.lib.stride_tricks.as_strided(first, (self.arch.depth,) + first.shape,
                                                         (block,) + first.strides, writeable=False)
                         for first in (U0.T, b0[None, :]))
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "forward_views",
                           (table, biases, tuple((U.T, b[None]) for U, b, _, _ in blocks), W_out.T, b_out[None]))
        object.__setattr__(self, "workspace", [None])

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


class _Workspace:
    """The buffers of passes of n rows, reused by each: what _forward_cached
    keeps (the stacked pre-activations A, with A0 the first, which turns
    into H0 in place, and R the gates', Phi(R), each block's tanh T and
    output state H, which holds the block's gate until the block runs, and
    the field out; no gate is kept), with the views that pass reads and
    returns made once (each block's (H_in, T) as layers, and its
    (H_in, T, H) as steps), the reverse pass's cotangents and scratch, the
    flat gradient with its layer views, loss's rows (TH, residual, output
    cotangent, squares) and, for records of record_width floats, the chunk
    buffer they stream through, of at most n records. What a pass returns
    lives here until the next pass."""

    def __init__(self, arch: ControlArch, n: int, record_width: int = 0):
        m, w = arch.input_dim, arch.width
        self.n = n
        self.A = np.empty((arch.depth, n, w))
        self.A0, self.R = self.A[0], self.A[1:]
        self.cdf, self.T, self.H = np.empty((3, arch.n_blocks, n, w))
        H_in = [self.A0, *self.H[:-1]]
        self.layers = list(zip(H_in, self.T))
        self.steps = list(zip(H_in, self.T, self.H))
        self.dH, self.dS, self.dR, self.tmp = np.empty((4, n, w))
        self.TH, self.out, self.res, self.dout, self.sq = np.empty((5, n, m))
        self.grad = np.empty(control_param_count(arch))
        self.grad_parts = _unpack(arch, self.grad)
        self.chunk = _chunk_buffer(record_width, n) if record_width else None


def _chunk_buffer(record_width: int, rows: int) -> np.ndarray:
    """As many whole records as fit in _CHUNK_BYTES, at least one and at
    most rows, the most its caller gathers at a time."""
    return np.empty((max(1, min(rows, _CHUNK_BYTES // (8 * record_width))), record_width))


def _forward_cached(net: ControlNet, TH: np.ndarray, ws: _Workspace):
    """(out, cache): V at the rows of TH and what every derivative reuses,
    cache = (TH, H0 the first tanh, R, Phi(R), per block (H_in, T),
    H_last), with R and Phi(R) stacked over the blocks as (depth-1, n,
    width) arrays. All but TH live in ws, a _Workspace of TH's rows. The
    cache holds no gate: a pass that reads block k's gate R Phi(R) rebuilds
    it as Phi(R)[k] * R[k], the bits this pass multiplied.

    One stacked product with the net's theta table gives the first
    pre-activation and every gate's; one elementwise pass turns the gate
    rows into Phi(R), and one multiply writes every gate into the blocks'
    output buffer H, whose slot each block turns into its output in place
    (H_k = H_in + gate T). The pass reads the views that the net and ws made
    once, and passes outputs to the ufuncs positionally, which parse an
    out= keyword more slowly: a batch-1 call makes about twenty of them."""
    table, biases, blocks, W_out_T, b_out = net.forward_views
    A, A0, R, cdf = ws.A, ws.A0, ws.R, ws.cdf
    np.matmul(TH, table, A)  # one (n, width) product per layer
    np.add(A, biases, A)
    np.tanh(A0, A0)
    np.divide(R, _SQRT2, cdf)
    erf(cdf, cdf)
    np.add(cdf, _ONE, cdf)
    np.multiply(cdf, _HALF, cdf)
    np.multiply(cdf, R, ws.H)  # every block's gate, in its output slot
    for (U_T, b), (H_in, T, H) in zip(blocks, ws.steps):
        np.matmul(H_in, U_T, T)
        np.add(T, b, T)
        np.tanh(T, T)
        np.add(H_in, np.multiply(H, T, H), H)
    out = np.matmul(H, W_out_T, ws.out)
    np.add(out, b_out, out)
    return out, (TH, A0, R, cdf, ws.layers, H)


def forward(net: ControlNet, theta) -> np.ndarray:
    """V(theta) as a new array; accepts a single vector (m,) or a batch
    (n, m). The pass runs in the net's own workspace, which is made anew
    only when the row count changes.

    The values are not checked: an overflow gives inf or nan entries, and
    each caller that needs finite values checks them (solve_ivp its state
    once per step, residual_scan its norms once per scan)."""
    th = np.asarray(theta, dtype=np.float64)
    single = th.ndim == 1
    TH = th[None] if single else th
    if TH.shape[1] != net.arch.input_dim:
        raise ValueError("theta dimension does not match the control net")
    ws = net.workspace[0]
    if ws is None or ws.n != TH.shape[0]:
        ws = net.workspace[0] = _Workspace(net.arch, TH.shape[0])
    out = _forward_cached(net, TH, ws)[0]
    return out[0].copy() if single else out.copy()


def _reverse(net: ControlNet, cache, dout: np.ndarray, ws: _Workspace, visit) -> np.ndarray:
    """Reverse pass of sum(dout * out), from the last block to the first:
    calls visit(k, dS, dR) with the cotangents of block k's tanh (S) and
    gate (R) pre-activations, and returns dA0, the first pre-activation's.
    All three live in ws; the next block's dS and dR overwrite the last.
    Each block's gate is rebuilt into dS, which then takes dH: the product
    dH gate is commutative, so its bits are those of a stored gate's."""
    _, _, blocks, W_out, _ = net.params
    _, H0, R, cdf, layers, _ = cache
    dH, dS, dR, tmp = ws.dH, ws.dS, ws.dR, ws.tmp
    np.matmul(dout, W_out, dH)
    for k in range(len(layers) - 1, -1, -1):
        T = layers[k][1]
        np.subtract(1.0, np.multiply(T, T, tmp), tmp)
        np.multiply(cdf[k], R[k], dS)  # the gate
        dS *= dH
        dS *= tmp  # dH gate (1 - T^2)
        _gelu_deriv(R[k], cdf[k], dR)
        dR *= np.multiply(dH, T, tmp)  # dH T GeLU'(R)
        visit(k, dS, dR)
        dH += np.matmul(dS, blocks[k][0], tmp)
    np.subtract(1.0, np.square(H0, tmp), tmp)
    dH *= tmp
    return dH


def _backward_xi(net: ControlNet, cache, dout: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Gradient of sum(dout * out) with respect to the flat xi, each layer's
    part written in place into ws.grad, which it returns."""
    TH, *_, layers, H_last = cache
    gU0, gb0, gblocks, gW_out, gb_out = ws.grad_parts

    def visit(k, dS, dR):
        gU, gb, gUg, gbg = gblocks[k]
        np.matmul(dS.T, layers[k][0], gU)
        np.sum(dS, axis=0, out=gb)
        np.matmul(dR.T, TH, gUg)
        np.sum(dR, axis=0, out=gbg)

    dA0 = _reverse(net, cache, dout, ws, visit)
    np.matmul(dA0.T, TH, gU0)
    np.sum(dA0, axis=0, out=gb0)
    np.matmul(dout.T, H_last, gW_out)
    np.sum(dout, axis=0, out=gb_out)
    return ws.grad


def _jvp(net: ControlNet, cache, v: np.ndarray) -> np.ndarray:
    """Directional derivative (d/ds) V(theta + s v) at s=0, batched; each
    block's gate is rebuilt from the cache as the forward pass made it."""
    U0, _, blocks, W_out, _ = net.params
    _, H0, R, cdf, layers, _ = cache
    Hd = (1.0 - H0 * H0) * (v @ U0.T)
    for (U, _, Ug, _), R_k, cdf_k, (_, T) in zip(blocks, R, cdf, layers):
        gate_d = _gelu_deriv(R_k, cdf_k) * (v @ Ug.T)
        Td = (1.0 - T * T) * (Hd @ U.T)
        Hd = Hd + gate_d * T + cdf_k * R_k * Td
    return Hd @ W_out.T


def _vjp(net: ControlNet, cache, u: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Cotangent pullback J(theta)^T u, batched: dA0 U0 + sum of dR Ug,
    with ws the reverse pass's scratch."""
    U0, _, blocks, _, _ = net.params
    dTH = np.zeros_like(cache[0])

    def visit(k, dS, dR):
        np.add(dTH, dR @ blocks[k][2], dTH)

    dTH += _reverse(net, cache, u, ws, visit) @ U0
    return dTH


def field_stats(net: ControlNet, points: np.ndarray, seed: int) -> tuple[float, float]:
    """(M_V, L_V) estimates over the rows of points: the max field magnitude
    and the max Jacobian operator norm, the latter by _PROBE_ITERS
    randomized power iterations on _jvp and _vjp over one forward cache."""
    TH = np.asarray(points, dtype=np.float64)
    if TH.shape[0] == 0:
        raise ValueError("empty sample")
    ws = _Workspace(net.arch, TH.shape[0])
    out, cache = _forward_cached(net, TH, ws)
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("control field evaluation overflowed")
    m_v = float(np.linalg.norm(out, axis=1).max())
    v = rng_for(seed, Purpose.FIELD_STATS).standard_normal(TH.shape)
    v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
    sigma = np.zeros(TH.shape[0])
    for _ in range(_PROBE_ITERS):
        w = _jvp(net, cache, v)
        sigma = np.linalg.norm(w, axis=1)
        v = _vjp(net, cache, w / np.maximum(sigma[:, None], 1e-300), ws)
        v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
    return m_v, float(sigma.max())


# ---------------------------------------------------------------------------
# loss and training


def _gram_chunks(records: np.ndarray, rows: np.ndarray, m: int, buf: np.ndarray):
    """(start, stop, G, P) for each run rows[start:stop] of as many records
    as buf holds, the run's whole records gathered into buf: G (k, m, m) and
    P (k, m) are views of buf until the next run. records must be
    C-contiguous, or np.take copies all of them first; mode "clip" writes
    straight into buf, where "raise" would buffer the output."""
    for start in range(0, rows.shape[0], buf.shape[0]):
        run = rows[start : start + buf.shape[0]]
        chunk = np.take(records, run, axis=0, out=buf[: run.shape[0]], mode="clip")
        _, P, G, _ = _split(chunk, _record_layout(m))
        yield start, start + run.shape[0], G, P


def _projection_residual(G: np.ndarray, out: np.ndarray, P: np.ndarray, res: np.ndarray) -> np.ndarray:
    """G V(theta) - p per row, from the field values out, written into res."""
    np.einsum("nij,nj->ni", G, out, out=res)
    res -= P
    return res


def _mean_square(res: np.ndarray, sq: np.ndarray) -> float:
    """The mean over rows of |res|^2, with sq as scratch."""
    return float(np.mean(np.sum(np.multiply(res, res, sq), axis=1)))


def loss(net: ControlNet, records: np.ndarray | None, pairs, zeta: float, rows: np.ndarray | None,
         ws: _Workspace) -> tuple[float, float, np.ndarray]:
    """(l1, l2, gradient of l1 + zeta*l2 with respect to xi) on one
    minibatch, from one forward and one reverse pass over the stacked rows.

    l1 is the mean squared projection residual |G V(theta) - p|^2 over the
    rows of records, a Gram cache's records in its layout
    (GramCache.records: theta (m), rhs (m), gram (m*m, row-major), status
    per row). Their G and p stream through ws's chunk buffer after the
    forward pass. l2 is the mean squared deviation |V(theta) - v|^2 from
    the trajectory velocities over the rows of pairs = (TH, V), both
    (n, m). Either may be None, its term then 0; rows is None when records
    is. ws is the _Workspace of the stacked rows; the gradient returned
    lives in it until its next pass.
    """
    m = net.arch.input_dim
    n1 = 0 if records is None else rows.shape[0]
    n2 = 0 if pairs is None else pairs[0].shape[0]
    TH, res, dout = ws.TH, ws.res, ws.dout
    if n1:
        TH[:n1] = _split(records, _record_layout(m))[0][rows]
    if n2:
        TH[n1:] = pairs[0]
    out, cache = _forward_cached(net, TH, ws)
    l1 = l2 = 0.0
    if n1:
        for start, stop, G, P in _gram_chunks(records, rows, m, ws.chunk):
            r = _projection_residual(G, out[start:stop], P, res[start:stop])
            np.einsum("nij,ni->nj", G, r, out=dout[start:stop])  # G symmetric
        dout[:n1] *= 2.0
        dout[:n1] /= n1
        l1 = _mean_square(res[:n1], ws.sq[:n1])
    if n2:
        r = np.subtract(out[n1:], pairs[1], res[n1:])
        l2 = _mean_square(r, ws.sq[n1:])
        np.multiply(r, 2.0, dout[n1:])
        dout[n1:] /= n2
        dout[n1:] *= zeta
    return l1, l2, _backward_xi(net, cache, dout, ws)


class _Batcher:
    """Deterministic epoch-shuffled minibatches of the given row indices."""

    def __init__(self, rows: np.ndarray, batch_size: int, rng: np.random.Generator):
        self.rng = rng
        self.n = n = rows.shape[0]
        self.bs = n if batch_size == 0 or batch_size >= n else batch_size
        self.order = rows.copy()
        self.pos = n  # force shuffle on first call

    def next(self) -> np.ndarray:
        """The next minibatch's indices, a view valid until the next call."""
        if self.pos + self.bs > self.n:
            self.rng.shuffle(self.order)
            self.pos = 0
        idx = self.order[self.pos : self.pos + self.bs]
        self.pos += self.bs
        return idx


def train(
    net: ControlNet,
    records: np.ndarray | None,
    traj_pairs,
    *,
    lr: float,
    zeta: float,
    batch_size: int,
    stop_loss: float,
    max_steps: int,
    seed: int,
    rows: np.ndarray | None,
) -> tuple[ControlNet, list[tuple[int, float, float, float]]]:
    """Minimize l1 + zeta*l2 with ADAM over shuffled minibatches of
    batch_size records (0: all of them); the settings are one stage of the
    config's train.schedule with the train block's zeta and stop_loss.

    records: a Gram cache's records (GramCache.records, memory-mapped), as
    loss takes them, or None. Each minibatch streams from them. rows
    selects the records to train on (GramCache.rows, which leaves out
    skipped ones); it is None when records is.
    traj_pairs: (thetas, velocities) arrays or None; they are used only for
    zeta > 0. Each step draws a minibatch of each and takes one loss.
    The step's working set (one _Workspace for both minibatches' rows, the
    pair minibatch, ADAM's vectors) is made once here and reused by every
    step. Stops at stop_loss or at max_steps. Returns the trained net and
    the per-step history (step, l1, l2, l_total).
    """
    m = net.arch.input_dim
    rng = rng_for(seed, Purpose.BATCHES)
    grams = pairs = None
    if records is not None:
        if records.shape[1] != _record_floats(m):
            raise CacheMismatch("gram cache dimension does not match control net")
        if rows.shape[0]:
            grams = _Batcher(rows, batch_size, rng)
    if traj_pairs is not None and zeta > 0 and traj_pairs[0].shape[0]:
        if traj_pairs[0].shape[1] != m:
            raise CacheMismatch("trajectory cache dimension does not match control net")
        pairs = _Batcher(np.arange(traj_pairs[0].shape[0]), batch_size, rng)
    if grams is None and pairs is None:
        raise ValueError("nothing to train on: empty gram cache and no trajectory pairs")

    n1 = grams.bs if grams else 0
    pair_batch = np.empty((2, pairs.bs, m)) if pairs else None
    ws = _Workspace(net.arch, n1 + (pairs.bs if pairs else 0), records.shape[1] if grams else 0)
    trained = ControlNet(net.arch, net.xi.copy())  # ADAM steps its xi in place
    adam = Adam(trained.xi.size, lr)
    history: list[tuple[int, float, float, float]] = []

    for step in range(1, max_steps + 1):
        # the Gram minibatch is drawn first, as both share one generator
        batch = grams.next() if grams else None
        if pairs:
            idx = pairs.next()
            for src, dst in zip(traj_pairs, pair_batch):
                np.take(src, idx, axis=0, out=dst, mode="clip")
        l1, l2, grad = loss(trained, records if grams else None, pair_batch, zeta, batch, ws)
        total = l1 + zeta * l2
        if not np.isfinite(total):
            raise NonFiniteError(f"training diverged at step {step}")
        history.append((step, l1, l2, total))
        if total < stop_loss:
            break
        adam.step(trained.xi, grad)

    return trained, history


def residual_scan(net: ControlNet, records: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|G V(theta) - p| per record of rows of records, as loss takes them
    (training-quality diagnostic). The field runs on
    _SCAN_ROWS records at a time, whose G and p then stream through one
    chunk buffer. Raises NonFiniteError if a norm is not finite, as it is
    wherever the field overflowed: the norms are checked once per scan."""
    m = net.arch.input_dim
    buf = _chunk_buffer(records.shape[1], _SCAN_ROWS)
    norms = np.empty(rows.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in the norms
        for first in range(0, rows.shape[0], _SCAN_ROWS):
            run = rows[first : first + _SCAN_ROWS]
            out = forward(net, _split(records, _record_layout(m))[0][run])
            res = np.empty_like(out)
            for start, stop, G, P in _gram_chunks(records, run, m, buf):
                _projection_residual(G, out[start:stop], P, res[start:stop])
            norms[first : first + run.shape[0]] = np.linalg.norm(res, axis=1)
    if not np.isfinite(norms).all():
        raise NonFiniteError("control field evaluation overflowed")
    return norms


# ---------------------------------------------------------------------------
# persistence


# A checkpoint is a binfile: the header the caller builds (what shaped the
# net and its training data) plus xi_sha256, and the flat xi as
# control_param_count(arch) float64.


def save_control_checkpoint(net: ControlNet, path, header: dict) -> None:
    binfile.save(path, {**header, "xi_sha256": binfile.digest(net.xi)}, net.xi)


def load_control_checkpoint(path, arch: ControlArch, header: dict) -> ControlNet:
    """The checkpointed net of arch, whose header must be header, whose xi
    must hold control_param_count(arch) parameters and hash to the recorded
    xi_sha256; the net carries that digest."""
    found, xi = binfile.load(path, header)
    n = control_param_count(arch)
    if xi.shape != (n,):
        raise CacheMismatch(f"{path} holds {xi.size} of {n} parameters; {binfile.remedy(header)}")
    if binfile.digest(xi) != found.get("xi_sha256"):
        raise CacheMismatch(f"{path} holds parameters whose sha256 is not its header's xi_sha256; "
                            f"{binfile.remedy(header)}")
    return ControlNet(arch=arch, xi=xi, sha256=found["xi_sha256"])


def checkpoint_sha256(path, header: dict) -> str:
    """The xi_sha256 of a checkpoint whose header must be header, read from
    the header alone: the parameters are neither read nor hashed
    (load_control_checkpoint checks them against it)."""
    return binfile.load_header(path, header)[0].get("xi_sha256")


def save_loss_history(history, path, header: dict, kept: np.ndarray | None = None) -> np.ndarray:
    """Write the per-step (step, l1, l2, l_total) rows as a binfile under
    header and return all rows written. The rows follow the kept rows (of
    an existing history, read back by binfile.load, or of the previous
    stage), if given, and continue their step count, so annealed stages
    share one."""
    rows = np.array(history, dtype=np.float64).reshape(-1, 4)
    if kept is not None and kept.size:
        rows[:, 0] += kept[-1, 0]
        rows = np.concatenate([kept, rows])
    binfile.save(path, header, rows)
    return rows
