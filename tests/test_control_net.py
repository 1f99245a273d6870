import json
import os

import numpy as np
import pytest

from pdecontrol import assembly, binfile, config, control_net as cn, pde_ops, rom
from pdecontrol.errors import CacheMismatch, NonFiniteError
from pdecontrol.optim import Adam
from pdecontrol.sampling import Box, sample_theta


@pytest.fixture
def small_arch():
    return cn.ControlArch(input_dim=4, width=8, depth=3)


def make_net(arch, seed=0, jitter=0.0, rng=None):
    xi = cn.init_control_params(arch, seed)
    if jitter:
        xi = xi + jitter * rng.standard_normal(xi.size)
    return cn.ControlNet(arch, xi)


def gelu(x):
    return x * cn._norm_cdf(x)


def gelu_deriv(x):
    return cn._gelu_deriv(x, cn._norm_cdf(x))


def test_gelu_values():
    assert gelu(0.0) == 0.0
    # GeLU(x) ~ x for large x, ~0 for very negative x
    assert gelu(10.0) == pytest.approx(10.0, rel=1e-8)
    assert abs(gelu(-10.0)) < 1e-8
    # derivative at 0 is Phi(0) = 1/2
    assert gelu_deriv(0.0) == pytest.approx(0.5)


def test_zero_init_is_zero_field(small_arch, rng):
    net = make_net(small_arch)
    TH = rng.uniform(-1, 1, (6, 4))
    assert np.all(cn.forward(net, TH) == 0.0)


def test_param_count_and_layout(small_arch):
    n = cn.control_param_count(small_arch)
    m, w = 4, 8
    expect = (w * m + w) + 2 * (w * w + w + w * m + w) + (m * w + m)
    assert n == expect
    xi = cn.init_control_params(small_arch, 0)
    assert xi.shape == (n,)


def test_forward_jvp_consistency(small_arch, rng):
    net = make_net(small_arch, jitter=0.3, rng=rng)
    TH = rng.uniform(-1, 1, (5, 4))
    V = rng.standard_normal((5, 4))
    jv = cn._jvp(net, cn._forward_cached(net, TH)[1], V)
    h = 1e-6
    fd = (cn.forward(net, TH + h * V) - cn.forward(net, TH - h * V)) / (2 * h)
    assert np.abs(jv - fd).max() < 1e-5


def test_vjp_matches_jvp(small_arch, rng):
    net = make_net(small_arch, jitter=0.3, rng=rng)
    TH = rng.uniform(-1, 1, (4, 4))
    V = rng.standard_normal((4, 4))
    U = rng.standard_normal((4, 4))
    _, cache = cn._forward_cached(net, TH)
    lhs = np.sum(cn._jvp(net, cache, V) * U, axis=1)
    rhs = np.sum(cn._vjp(net, cache, U) * V, axis=1)
    assert np.allclose(lhs, rhs, rtol=1e-10)


def test_field_stats_zero_and_constant():
    space = Box(1.0, 3)
    thetas = sample_theta(space, 64, seed=0)
    arch = cn.ControlArch(input_dim=3, width=8, depth=2)
    xi = np.zeros(cn.control_param_count(arch))
    m_v, l_v = cn.field_stats(cn.ControlNet(arch, xi), thetas, seed=0)
    assert (m_v, l_v) == (0.0, 0.0)
    c = np.array([1.0, -2.0, 2.0])
    xi[-3:] = c  # b_out: the constant field V = c
    m_v, l_v = cn.field_stats(cn.ControlNet(arch, xi), thetas, seed=0)
    assert m_v == pytest.approx(3.0)
    assert l_v < 1e-6


def test_field_stats_linear_field(rng):
    A = rng.standard_normal((4, 4))
    sigma = np.linalg.svd(A, compute_uv=False)[0]
    space = Box(1.0, 4)
    thetas = sample_theta(space, 128, seed=3)
    # V(theta) = A tanh(eps theta) / eps: zero gates leave eta = tanh(eps
    # theta), so V = A theta + O(eps^2) with |V(theta)| <= ||A|| |theta|
    eps = 1e-3
    arch = cn.ControlArch(input_dim=4, width=4, depth=2)
    xi = np.zeros(cn.control_param_count(arch))
    U0, _, _, W_out, _ = cn._unpack(arch, xi)
    U0[:] = eps * np.eye(4)
    W_out[:] = A / eps
    m_v, l_v = cn.field_stats(cn.ControlNet(arch, xi), thetas, seed=3)
    assert m_v <= sigma * 2.0 + 1e-9  # |A theta| <= ||A|| |theta|, |theta| <= 2
    assert abs(l_v - sigma) / sigma < 0.1


def test_field_stats_on_control_net(rng):
    arch = cn.ControlArch(input_dim=3, width=8, depth=2)
    xi = cn.init_control_params(arch, 0) + 0.3 * rng.standard_normal(cn.control_param_count(arch))
    net = cn.ControlNet(arch, xi)
    thetas = sample_theta(Box(1.0, 3), 64, seed=5)
    m_v, l_v = cn.field_stats(net, thetas, seed=5)
    vals = cn.forward(net, thetas)
    assert m_v == pytest.approx(np.linalg.norm(vals, axis=1).max())
    # compare against dense Jacobians from jvp columns
    worst = 0.0
    for p in thetas[:16]:
        _, cache = cn._forward_cached(net, p[None, :])
        J = np.stack([cn._jvp(net, cache, e[None, :])[0] for e in np.eye(3)], axis=1)
        worst = max(worst, np.linalg.svd(J, compute_uv=False)[0])
    assert l_v == pytest.approx(worst, rel=0.1)


def test_field_stats_runs_one_forward_pass(small_arch, rng, monkeypatch):
    net = make_net(small_arch, jitter=0.3, rng=rng)
    calls = []
    forward_cached = cn._forward_cached
    monkeypatch.setattr(cn, "_forward_cached", lambda *args: calls.append(1) or forward_cached(*args))
    cn.field_stats(net, rng.uniform(-1, 1, (5, 4)), seed=0)
    assert len(calls) == 1


def test_loss_l1_trivial_cases(small_arch, rng):
    net = make_net(small_arch)  # zero field
    TH = rng.uniform(-1, 1, (3, 4))
    loss, grad = cn.loss_l1(net, TH, np.stack([np.eye(4)] * 3), np.zeros((3, 4)))
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_loss_l2_zero_net_unit_targets():
    arch = cn.ControlArch(input_dim=3, width=4, depth=2)
    net = cn.ControlNet(arch, cn.init_control_params(arch, 0))
    loss, _ = cn.loss_l2(net, np.zeros((5, 3)), np.ones((5, 3)))
    assert loss == pytest.approx(3.0)


def test_loss_gradients_match_fd(small_arch, rng):
    net = make_net(small_arch, jitter=0.2, rng=rng)
    TH, G, P = [], [], []
    for _ in range(3):
        A = rng.standard_normal((4, 4))
        TH.append(rng.uniform(-1, 1, 4))
        G.append(A @ A.T / 4)
        P.append(rng.standard_normal(4))
    gram = (np.array(TH), np.array(G), np.array(P))
    pairs = (rng.uniform(-1, 1, (4, 4)), rng.standard_normal((4, 4)))
    _, g1 = cn.loss_l1(net, *gram)
    _, g2 = cn.loss_l2(net, *pairs)
    h = 1e-6
    xi = net.xi
    for j in rng.choice(xi.size, 30, replace=False):
        xp, xm = xi.copy(), xi.copy()
        xp[j] += h
        xm[j] -= h
        for grad, loss_fn in ((g1, lambda n: cn.loss_l1(n, *gram)[0]), (g2, lambda n: cn.loss_l2(n, *pairs)[0])):
            fd = (loss_fn(cn.ControlNet(small_arch, xp)) - loss_fn(cn.ControlNet(small_arch, xm))) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-4 * max(abs(fd), 1e-3)


def test_adam_first_step_magnitude(rng):
    grad = rng.standard_normal(10)
    adam = Adam(10, lr=1e-3)
    params = np.zeros(10)
    new = adam.step(params, grad)
    # bias-corrected first step is lr * sign(g) up to adam_eps
    assert np.allclose(np.abs(new), 1e-3, rtol=1e-4)
    assert np.allclose(np.sign(new), -np.sign(grad))


def _toy_records(rng, n, m=4, scale=0.05):
    # exact-quadrature heat records on a small box: G = I, p = D theta
    D = -np.array([(k * np.pi) ** 2 for k in range(1, m + 1)])
    TH = np.array([rng.uniform(-scale, scale, m) for _ in range(n)])
    return TH, np.stack([np.eye(m)] * n), TH * D


def test_train_toy_linear_field_reaches_tolerance(rng):
    # the exact field is linear, so the loss should collapse quickly
    recs = _toy_records(rng, 256)
    arch = cn.ControlArch(input_dim=4, width=48, depth=2)
    net = cn.ControlNet(arch, cn.init_control_params(arch, 1))
    cfg = dict(lr=1e-2, zeta=0.0, batch_size=0, stop_loss=1e-3, max_steps=5000, seed=3)
    net, history = cn.train(net, recs, None, **cfg)
    assert history[-1][3] < 1e-3
    assert len(history) <= 5000


def test_train_determinism(rng):
    recs = _toy_records(rng, 64)
    arch = cn.ControlArch(input_dim=4, width=16, depth=2)
    cfg = dict(lr=1e-3, zeta=0.0, batch_size=16, stop_loss=0.0, max_steps=60, seed=9)
    net1, h1 = cn.train(cn.ControlNet(arch, cn.init_control_params(arch, 2)), recs, None, **cfg)
    net2, h2 = cn.train(cn.ControlNet(arch, cn.init_control_params(arch, 2)), recs, None, **cfg)
    assert net1.xi.tobytes() == net2.xi.tobytes()
    assert h1 == h2


def test_zeta_zero_matches_pure_l1(rng):
    recs = _toy_records(rng, 64)
    arch = cn.ControlArch(input_dim=4, width=16, depth=2)
    cfg0 = dict(lr=1e-3, zeta=0.0, batch_size=0, stop_loss=0.0, max_steps=40, seed=5)
    pairs = (np.zeros((0, 4)), np.zeros((0, 4)))
    net_a, _ = cn.train(cn.ControlNet(arch, cn.init_control_params(arch, 7)), recs, None, **cfg0)
    net_b, _ = cn.train(cn.ControlNet(arch, cn.init_control_params(arch, 7)), recs, pairs, **cfg0)
    cfg_z = dict(cfg0, zeta=0.1)
    net_c, _ = cn.train(cn.ControlNet(arch, cn.init_control_params(arch, 7)), recs, pairs, **cfg_z)
    assert net_a.xi.tobytes() == net_b.xi.tobytes() == net_c.xi.tobytes()


def _train_defaults(**settings) -> dict:
    """The config's default train block and its one stage, and seed 0, with
    settings replaced."""
    train = config._DEFAULTS["train"]
    return {**train["schedule"][0], "zeta": train["zeta"], "batch_size": train["batch_size"],
            "stop_loss": train["stop_loss"], "seed": 0, **settings}


def test_train_rejects_mismatched_cache(rng):
    recs = _toy_records(rng, 8, m=4)
    arch = cn.ControlArch(input_dim=5, width=8, depth=2)
    with pytest.raises(CacheMismatch):
        cn.train(cn.ControlNet(arch, cn.init_control_params(arch, 0)), recs, None, **_train_defaults(max_steps=5))


def test_train_nonfinite_divergence(rng):
    recs = (np.full((1, 2), 1e160), np.eye(2)[None] * 1e160, np.zeros((1, 2)))
    arch = cn.ControlArch(input_dim=2, width=4, depth=2)
    xi = cn.init_control_params(arch, 0)
    xi[-2:] = 1e160  # output bias enormous
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
        cn.train(cn.ControlNet(arch, xi), recs, None,
                 **_train_defaults(max_steps=5, stop_loss=0.0))


def test_residual_scan_zero_when_exact(rng):
    # constant rhs with identity grams: output bias = p gives an exact fit
    m = 3
    p = rng.standard_normal(m)
    gram = (rng.uniform(-1, 1, (4, m)), np.stack([np.eye(m)] * 4), np.tile(p, (4, 1)))
    arch = cn.ControlArch(input_dim=m, width=4, depth=2)
    xi = cn.init_control_params(arch, 0)
    xi[-m:] = p  # output bias
    net = cn.ControlNet(arch, xi)
    loss, _ = cn.loss_l1(net, *gram)
    assert loss < 1e-28
    assert np.all(cn.residual_scan(net, *gram) < 1e-14)


def test_checkpoint_roundtrip(tmp_path, small_arch, rng):
    net = make_net(small_arch, jitter=0.1, rng=rng)
    path = tmp_path / "control.bin"
    cn.save_control_checkpoint(net, path)
    loaded = cn.load_control_checkpoint(path)
    assert loaded.arch == small_arch
    assert np.array_equal(loaded.xi, net.xi)


def test_checkpoint_rejects_old_json_and_torn_files(tmp_path, small_arch, rng):
    net = make_net(small_arch, jitter=0.1, rng=rng)
    old = tmp_path / "control.json"
    old.write_text(json.dumps({"format_version": 1, "arch": {"input_dim": 4, "width": 8, "depth": 3},
                               "xi": net.xi.tolist()}))
    with pytest.raises(CacheMismatch, match="rerun train-control"):
        cn.load_control_checkpoint(old)
    path = tmp_path / "control.bin"
    cn.save_control_checkpoint(net, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CacheMismatch):
        cn.load_control_checkpoint(path)


def _reference_forward(arch, xi, TH):
    # the layer formula with the flat layout unpacked afresh on every call
    U0, b0, blocks, W_out, b_out = cn._unpack(arch, xi.copy())
    H = np.tanh(TH @ U0.T + b0)
    for U, b, Ug, bg in blocks:
        H = H + gelu(TH @ Ug.T + bg) * np.tanh(H @ U.T + b)
    return H @ W_out.T + b_out


def test_forward_and_train_bit_identical(tmp_path, small_arch, rng):
    net = make_net(small_arch, jitter=0.3, rng=rng)
    TH = rng.uniform(-1, 1, (7, 4))
    assert cn.forward(net, TH).tobytes() == _reference_forward(small_arch, net.xi, TH).tobytes()
    assert cn.forward(net, TH[2]).tobytes() == _reference_forward(small_arch, net.xi, TH[2:3])[0].tobytes()

    # training on a subset of rows of the mapped cache equals training on the
    # stacked copies of those rows
    arch = rom.RomArch("resnet_zero_boundary", 1, 2, 2, "tanh")
    m = rom.param_count(arch)
    thetas = sample_theta(Box(1.0, m), 12, seed=3)
    path = tmp_path / "gram.bin"
    assembly.assemble_batch(arch, thetas, pde_ops.Heat(), 32, 1, path)
    cache = assembly.read_cache(path)
    rows = np.array([0, 2, 3, 5, 7, 8, 9, 11])
    carch = cn.ControlArch(input_dim=m, width=8, depth=3)
    cfg = dict(lr=1e-2, zeta=0.0, batch_size=3, stop_loss=0.0, max_steps=25, seed=4)
    start = cn.ControlNet(carch, cn.init_control_params(carch, 1))
    mapped, h1 = cn.train(start, (cache.theta, cache.gram, cache.rhs), None, rows=rows, **cfg)
    stacked = tuple(np.array(a[rows]) for a in (cache.theta, cache.gram, cache.rhs))
    copied, h2 = cn.train(start, stacked, None, **cfg)
    assert h1 == h2
    assert mapped.xi.tobytes() == copied.xi.tobytes()


def test_loss_history_resume_rejects_a_torn_row_and_writes_whole(tmp_path, monkeypatch):
    # appending in place merged a torn last row with the next stage's first
    path = tmp_path / "hist.bin"
    cn.save_loss_history([(1, 0.5, 0.25, 0.525), (2, 0.4, 0.3, 0.43)], path)
    header, _ = binfile.read_header(path, "loss_history", cn.LOSS_HISTORY_FORMAT_VERSION, "")
    assert header["shape"] == [2, 4]
    cn.save_loss_history([(1, 0.3, 0.2, 0.32)], path, cn.read_loss_history(path))
    whole = path.read_bytes()
    assert cn.read_loss_history(path).tolist() == [[1, 0.5, 0.25, 0.525], [2, 0.4, 0.3, 0.43], [3, 0.3, 0.2, 0.32]]
    path.write_bytes(whole[:-7])
    with pytest.raises(CacheMismatch, match="rerun train-control without --resume to start a new loss history"):
        cn.read_loss_history(path)

    def cut(src, dst):
        raise OSError("cut before the rename")

    path.write_bytes(whole)
    monkeypatch.setattr(os, "replace", cut)
    with pytest.raises(OSError, match="cut"):
        cn.save_loss_history([(1, 0.2, 0.1, 0.21)], path, cn.read_loss_history(path))
    assert path.read_bytes() == whole
