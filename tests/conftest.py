import math

import hypothesis
import numpy as np
import pytest

from pdecontrol import assembly, config, control_net as cn, rom
from pdecontrol.sampling import Box

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=25, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def unit_interval():
    return (np.array([0.0]), np.array([1.0]))


def gram_records(TH: np.ndarray, G: np.ndarray, P: np.ndarray) -> np.ndarray:
    """(TH, G, P) of shapes (n, m), (n, m, m), (n, m) as rows in the Gram
    cache's record layout (assembly): theta, rhs, gram (row-major) and a
    status of 0, which training does not read."""
    n = TH.shape[0]
    return np.concatenate([TH, P, np.reshape(G, (n, -1)), np.zeros((n, 1))], axis=1)


def cache_parts(cache) -> list[np.ndarray]:
    """theta (n, m), rhs (n, m), gram (n, m, m) and status (n,): views of a
    GramCache's records, split by the cache's record table."""
    return rom._split(cache.records, assembly._record_layout(cache.header["m"]))


def check_layout_table(table, shapes: list[tuple[int, ...]], rng) -> None:
    """A layout table's slices tile [0, m) in the order and the shapes of
    the frozen layout shapes, and rom._split of a (K, m) stack gives, row
    by row, the views of each 1-D row."""
    assert [shape for _, shape in table] == shapes
    stop = 0
    for part, shape in table:
        assert (part.start, part.stop, part.step) == (stop, stop + math.prod(shape), None)
        stop = part.stop
    stack = rng.standard_normal((3, stop))
    views = rom._split(stack, table)
    assert [view.shape for view in views] == [(3, *shape) for shape in shapes]
    for k, row in enumerate(stack):
        for view, row_view in zip(views, rom._split(row, table), strict=True):
            assert np.shares_memory(view, stack) and np.shares_memory(row_view, row)
            assert np.array_equal(view[k], row_view)


def artifact_header(name: str, record: dict | None = None) -> dict:
    """The header config.RunConfig.header gives artifact name, with record
    (default empty) as its config record: for library calls made without a
    run config."""
    row = config._ARTIFACTS[name]
    return {"kind": name, "format_version": row.format_version, "writer": row.writer, "config": record or {}}


def settable_leaves(schema: dict, path: str = "") -> list[str]:
    """The dotted key paths a config can set, the keys of a train.schedule stage among them."""
    props = schema.get("properties") or schema.get("items", {}).get("properties")
    if not props:
        return [path]
    return [leaf for key, sub in props.items() for leaf in settable_leaves(sub, f"{path}.{key}".lstrip("."))]


def forward_cached(net: cn.ControlNet, TH: np.ndarray):
    """control_net._forward_cached in a workspace of its own."""
    return cn._forward_cached(net, TH, cn._Workspace(net.arch, TH.shape[0]))


def backward_xi(net: cn.ControlNet, cache, dout: np.ndarray) -> np.ndarray:
    """control_net._backward_xi in a workspace of its own."""
    return cn._backward_xi(net, cache, dout, cn._Workspace(net.arch, dout.shape[0]))


def vjp(net: cn.ControlNet, cache, u: np.ndarray) -> np.ndarray:
    """control_net._vjp in a workspace of its own."""
    return cn._vjp(net, cache, u, cn._Workspace(net.arch, u.shape[0]))


def every_row(records: np.ndarray) -> np.ndarray:
    """The indices of all records, as control_net's rows argument."""
    return np.arange(records.shape[0])


def loss_all(net: cn.ControlNet, records: np.ndarray | None, pairs, zeta: float):
    """control_net.loss on every record, in a workspace of its own."""
    rows = None if records is None else every_row(records)
    n = (0 if rows is None else rows.shape[0]) + (0 if pairs is None else pairs[0].shape[0])
    ws = cn._Workspace(net.arch, n, 0 if records is None else records.shape[1])
    return cn.loss(net, records, pairs, zeta, rows, ws)


def whole_space(dim: int) -> Box:
    """The box of infinite half-width, as evolve.solve_ivp's theta_space:
    no state escapes it and its guard norm is infinite, so a solve stops
    only on a non-finite state or a NonFiniteError of the field."""
    return Box(math.inf, dim)


def overflowing_net(arch: cn.ControlArch) -> cn.ControlNet:
    """A net whose field overflows at every theta: H = tanh(10) in every
    layer (the gates are 0) under an output layer of 1e308."""
    xi = np.zeros(cn.control_param_count(arch))
    _, b0, _, W_out, _ = cn._unpack(arch, xi)
    b0[:], W_out[:] = 10.0, 1e308
    return cn.ControlNet(arch, xi)


def fourier_sine_arch(n_modes: int) -> rom.RomArch:
    """Orthonormal sine basis sqrt(2) sin(k pi x), k = 1..n_modes, on (0,1)."""
    return rom.RomArch(kind=rom.LINEAR_BASIS, input_dim=1, n_modes=n_modes)


class TextbookAdam:
    """ADAM as the textbook writes it, each step on new arrays: the oracle
    for optim.Adam, which steps in place."""

    def __init__(self, size: int, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
