import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import erf

from pdecontrol import assembly, binfile, config, control_net as cn, evolve, optim, pde_ops, pipeline, rom
from pdecontrol.errors import CacheMismatch, MissingArtifact, NonFiniteError
from pdecontrol.optim import Adam
from pdecontrol.sampling import Box, Purpose, rng_for, sample_omega, sample_theta

from conftest import (TextbookAdam, artifact_header, cache_parts, check_layout_table, fourier_sine_arch, gram_records,
                      overflowing_net)


@pytest.fixture
def small_arch():
    return cn.ControlArch(input_dim=4, width=8, depth=3)


def make_net(arch, seed=0, jitter=0.0, rng=None):
    xi = cn.init_control_params(arch, seed)
    if jitter:
        xi = xi + jitter * rng.standard_normal(xi.size)
    return cn.ControlNet(arch, xi)


def _norm_cdf(x):
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def gelu(x):
    return x * _norm_cdf(x)


def gelu_deriv(x):
    return cn._gelu_deriv(x, _norm_cdf(x))


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


def test_param_count_and_layout(small_arch, rng):
    n = cn.control_param_count(small_arch)
    m, w = 4, 8
    expect = (w * m + w) + 2 * (w * w + w + w * m + w) + (m * w + m)
    assert n == expect
    xi = cn.init_control_params(small_arch, 0)
    assert xi.shape == (n,)
    # the frozen layout [U_0, b_0, {U_l, b_l, Ubar_l, bbar_l} per block, W_out, b_out]
    table = cn._layout(small_arch)
    check_layout_table(table, [(w, m), (w,)] + [(w, w), (w,), (w, m), (w,)] * 2 + [(m, w), (m,)], rng)
    assert cn._layout(cn.ControlArch(input_dim=4, width=8, depth=3)) is table  # one table per arch


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
    thetas = sample_theta(space, 64, seed=0, purpose=Purpose.GRAM_THETA)
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
    thetas = sample_theta(space, 128, seed=3, purpose=Purpose.GRAM_THETA)
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
    thetas = sample_theta(Box(1.0, 3), 64, seed=5, purpose=Purpose.GRAM_THETA)
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


def _oracle_l1(net, TH, G, P):
    # the projection loss and its xi-gradient from a pass of its own
    out, cache = cn._forward_cached(net, TH)
    res = np.einsum("nij,nj->ni", G, out) - P
    n = TH.shape[0]
    loss = float(np.mean(np.sum(res * res, axis=1)))
    dout = 2.0 * np.einsum("nij,ni->nj", G, res) / n  # G symmetric
    return loss, cn._backward_xi(net, cache, dout)


def _oracle_l2(net, TH, V):
    # the trajectory loss and its xi-gradient from a pass of its own
    out, cache = cn._forward_cached(net, TH)
    res = out - V
    n = TH.shape[0]
    loss = float(np.mean(np.sum(res * res, axis=1)))
    return loss, cn._backward_xi(net, cache, 2.0 * res / n)


def _joint_batches(rng, n1=3, n2=4, m=4):
    TH, G, P = [], [], []
    for _ in range(n1):
        A = rng.standard_normal((m, m))
        TH.append(rng.uniform(-1, 1, m))
        G.append(A @ A.T / m)
        P.append(rng.standard_normal(m))
    gram = (np.array(TH), np.array(G), np.array(P))
    pairs = (rng.uniform(-1, 1, (n2, m)), rng.standard_normal((n2, m)))
    return gram, pairs


def test_loss_l1_trivial_cases(small_arch, rng):
    net = make_net(small_arch)  # zero field
    TH = rng.uniform(-1, 1, (3, 4))
    l1, l2, grad = cn.loss(net, gram_records(TH, np.stack([np.eye(4)] * 3), np.zeros((3, 4))), None, 0.1)
    assert l1 == 0.0 and l2 == 0.0
    assert np.all(grad == 0.0)


def test_loss_l2_zero_net_unit_targets():
    arch = cn.ControlArch(input_dim=3, width=4, depth=2)
    net = cn.ControlNet(arch, cn.init_control_params(arch, 0))
    l1, l2, _ = cn.loss(net, None, (np.zeros((5, 3)), np.ones((5, 3))), 1.0)
    assert l1 == 0.0
    assert l2 == pytest.approx(3.0)


def test_loss_gradients_match_fd(small_arch, rng):
    net = make_net(small_arch, jitter=0.2, rng=rng)
    gram, pairs = _joint_batches(rng)
    zeta = 0.1
    records = gram_records(*gram)
    _, _, grad = cn.loss(net, records, pairs, zeta)

    def total(xi):
        l1, l2, _ = cn.loss(cn.ControlNet(small_arch, xi), records, pairs, zeta)
        return l1 + zeta * l2

    h = 1e-6
    xi = net.xi
    for j in rng.choice(xi.size, 30, replace=False):
        xp, xm = xi.copy(), xi.copy()
        xp[j] += h
        xm[j] -= h
        fd = (total(xp) - total(xm)) / (2 * h)
        assert abs(grad[j] - fd) <= 1e-4 * max(abs(fd), 1e-3)


@pytest.mark.parametrize("terms", ["joint", "gram_only", "pairs_only"])
def test_loss_matches_two_pass_oracle(small_arch, rng, terms):
    net = make_net(small_arch, jitter=0.3, rng=rng)
    gram, pairs = _joint_batches(rng, n1=5, n2=7)
    gram = None if terms == "pairs_only" else gram
    pairs = None if terms == "gram_only" else pairs
    zeta = 0.1
    l1, l2, grad = cn.loss(net, None if gram is None else gram_records(*gram), pairs, zeta)
    o1, g1 = _oracle_l1(net, *gram) if gram else (0.0, 0.0)
    o2, g2 = _oracle_l2(net, *pairs) if pairs else (0.0, 0.0)
    expect = g1 + zeta * g2
    assert l1 == pytest.approx(o1, rel=1e-12, abs=0.0)
    assert l2 == pytest.approx(o2, rel=1e-12, abs=0.0)
    assert np.abs(grad - expect).max() <= 1e-12 * np.abs(expect).max()


def test_train_step_runs_one_forward_and_one_backward_pass(small_arch, rng, monkeypatch):
    # a joint step reads l1 and l2 off one pass over the stacked rows
    gram, pairs = _joint_batches(rng, n1=6, n2=5)
    calls = []
    for name in ("_forward_cached", "_backward_xi"):
        fn = getattr(cn, name)
        monkeypatch.setattr(cn, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    _, history = cn.train(make_net(small_arch), gram_records(*gram), pairs, lr=1e-3, zeta=0.1, batch_size=0,
                          stop_loss=0.0, max_steps=1, seed=0)
    assert history[0][1] > 0.0 and history[0][2] > 0.0
    assert calls == ["_forward_cached", "_backward_xi"]


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
    return gram_records(TH, np.stack([np.eye(m)] * n), TH * D)


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
    recs = gram_records(np.full((1, 2), 1e160), np.eye(2)[None] * 1e160, np.zeros((1, 2)))
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
    gram = gram_records(rng.uniform(-1, 1, (4, m)), np.stack([np.eye(m)] * 4), np.tile(p, (4, 1)))
    arch = cn.ControlArch(input_dim=m, width=4, depth=2)
    xi = cn.init_control_params(arch, 0)
    xi[-m:] = p  # output bias
    net = cn.ControlNet(arch, xi)
    l1, _, _ = cn.loss(net, gram, None, 0.0)
    assert l1 < 1e-28
    assert np.all(cn.residual_scan(net, gram) < 1e-14)


def test_residual_scan_raises_on_a_field_that_overflows(rng):
    # forward leaves the check to its callers: the scan checks its norms
    m = 3
    gram = gram_records(rng.uniform(-1, 1, (5, m)), np.stack([np.eye(m)] * 5), rng.standard_normal((5, m)))
    net = overflowing_net(cn.ControlArch(input_dim=m, width=4, depth=3))
    with np.errstate(over="ignore"):
        assert np.all(cn.forward(net, gram[:, :m]) == np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in (None, np.array([1, 3])):
            with pytest.raises(NonFiniteError, match="overflowed"):
                cn.residual_scan(net, gram, rows)


def test_checkpoint_roundtrip(tmp_path, small_arch, rng):
    net = make_net(small_arch, jitter=0.1, rng=rng)
    path = tmp_path / "control.bin"
    # the header records what shaped the net and its data; a reader checks it and the arch's parameter count
    record = artifact_header("checkpoint", {"counts.n_theta": 4})
    cn.save_control_checkpoint(net, path, record)
    loaded = cn.load_control_checkpoint(path, small_arch, record)
    assert loaded.arch == small_arch
    assert np.array_equal(loaded.xi, net.xi)
    with pytest.raises(CacheMismatch, match="'counts.n_theta' .* rerun train-control"):
        cn.load_control_checkpoint(path, small_arch, artifact_header("checkpoint", {"counts.n_theta": 5}))
    with pytest.raises(CacheMismatch, match="parameters; rerun train-control"):
        cn.load_control_checkpoint(path, cn.ControlArch(input_dim=4, width=8, depth=2), record)


def test_checkpoint_rejects_old_json_and_torn_files(tmp_path, small_arch, rng):
    net = make_net(small_arch, jitter=0.1, rng=rng)
    old = tmp_path / "control.json"
    old.write_text(json.dumps({"format_version": 1, "arch": {"input_dim": 4, "width": 8, "depth": 3},
                               "xi": net.xi.tolist()}))
    with pytest.raises(CacheMismatch, match="rerun train-control"):
        cn.load_control_checkpoint(old, small_arch, artifact_header("checkpoint"))
    path = tmp_path / "control.bin"
    cn.save_control_checkpoint(net, path, artifact_header("checkpoint"))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CacheMismatch):
        cn.load_control_checkpoint(path, small_arch, artifact_header("checkpoint"))


def test_checkpoint_records_and_checks_the_digest_of_xi(tmp_path, small_arch, rng):
    net = make_net(small_arch, jitter=0.1, rng=rng)
    assert net.sha256 is None
    path = tmp_path / "control.bin"
    record = artifact_header("checkpoint", {"n_theta": 4})
    cn.save_control_checkpoint(net, path, record)
    header, offset = binfile.read_header(path, record)
    assert header["xi_sha256"] == binfile.digest(net.xi)
    assert cn.load_control_checkpoint(path, small_arch, record).sha256 == header["xi_sha256"]
    assert cn.checkpoint_sha256(path, record) == header["xi_sha256"]
    with pytest.raises(CacheMismatch, match="'n_theta' .* rerun train-control"):
        cn.checkpoint_sha256(path, artifact_header("checkpoint", {"n_theta": 5}))
    # parameters changed in place, with the header left as it was
    data = bytearray(path.read_bytes())
    data[offset] ^= 1
    path.write_bytes(bytes(data))
    with pytest.raises(CacheMismatch, match="xi_sha256; rerun train-control"):
        cn.load_control_checkpoint(path, small_arch, record)
    with pytest.raises(MissingArtifact, match="rerun train-control"):
        cn.checkpoint_sha256(tmp_path / "none.bin", record)


def _reference_forward(arch, xi, TH):
    # the layer formula with the flat layout unpacked afresh on every call
    U0, b0, blocks, W_out, b_out = cn._unpack(arch, xi.copy())
    H = np.tanh(TH @ U0.T + b0)
    for U, b, Ug, bg in blocks:
        H = H + gelu(TH @ Ug.T + bg) * np.tanh(H @ U.T + b)
    return H @ W_out.T + b_out


def _reference_forward_cached(arch, xi, TH):
    # the cached pass written layer by layer, one product per layer:
    # (out, (TH, H0, per block (H_in, R, Phi(R), gate, T), H_last))
    U0, b0, blocks, W_out, b_out = cn._unpack(arch, xi.copy())
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


def test_forward_and_train_bit_identical(tmp_path, small_arch, rng):
    net = make_net(small_arch, jitter=0.3, rng=rng)
    TH = rng.uniform(-1, 1, (7, 4))
    assert cn.forward(net, TH).tobytes() == _reference_forward(small_arch, net.xi, TH).tobytes()
    assert cn.forward(net, TH[2]).tobytes() == _reference_forward(small_arch, net.xi, TH[2:3])[0].tobytes()

    # training on a subset of rows of the mapped cache equals training on the
    # stacked copies of those rows
    arch = rom.RomArch("resnet_zero_boundary", 1, 2, 2, "tanh")
    m = rom.param_count(arch)
    thetas = sample_theta(Box(1.0, m), 12, seed=3, purpose=Purpose.GRAM_THETA)
    path = tmp_path / "gram.bin"
    assembly.assemble_batch(arch, thetas, pde_ops.Heat(), 32, 1, path, artifact_header("gram_cache"))
    cache = assembly.read_cache(path, artifact_header("gram_cache"), thetas)
    rows = np.array([0, 2, 3, 5, 7, 8, 9, 11])
    carch = cn.ControlArch(input_dim=m, width=8, depth=3)
    cfg = dict(lr=1e-2, zeta=0.0, batch_size=3, stop_loss=0.0, max_steps=25, seed=4)
    start = cn.ControlNet(carch, cn.init_control_params(carch, 1))
    mapped, h1 = cn.train(start, cache.records, None, rows=rows, **cfg)
    theta, rhs, gram, _ = cache_parts(cache)
    stacked = gram_records(theta[rows], gram[rows], rhs[rows])
    copied, h2 = cn.train(start, stacked, None, **cfg)
    assert h1 == h2
    assert mapped.xi.tobytes() == copied.xi.tobytes()


@pytest.mark.parametrize("m", [1, 4, 67])
@pytest.mark.parametrize("width", [1, 8, 96, 256])
@pytest.mark.parametrize("depth", [2, 3, 4])
def test_forward_kernel_matches_the_layer_formula_on_a_grid_of_shapes(depth, width, m, rng):
    arch = cn.ControlArch(input_dim=m, width=width, depth=depth)
    net = make_net(arch, jitter=0.3, rng=rng)
    TH = rng.uniform(-1, 1, (5, m))
    assert cn.forward(net, TH).tobytes() == _reference_forward(arch, net.xi, TH).tobytes()
    assert cn.forward(net, TH[3]).tobytes() == _reference_forward(arch, net.xi, TH[3:4])[0].tobytes()
    # every cache entry that _reverse, _backward_xi, _jvp and _vjp read
    for rows in (TH, TH[3:4]):
        out, (TH_c, H0, R, cdf, layers, H_last) = cn._forward_cached(net, rows)
        ref_out, (ref_TH, ref_H0, ref_layers, ref_H_last) = _reference_forward_cached(arch, net.xi, rows)
        assert R.shape == cdf.shape == (depth - 1, rows.shape[0], width)
        got = [out, TH_c, H0, H_last]
        for (H_in, T), R_k, cdf_k in zip(layers, R, cdf):
            got += [H_in, R_k, cdf_k, cdf_k * R_k, T]  # the gate, as the backward pass rebuilds it
        want = [ref_out, ref_TH, ref_H0, ref_H_last] + [a for layer in ref_layers for a in layer]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_rk4_solve_on_the_kernel_equals_a_solve_on_the_layer_formula(rng):
    arch = cn.ControlArch(input_dim=6, width=16, depth=3)
    net = make_net(arch, jitter=0.3, rng=rng)
    theta0 = rng.uniform(-0.5, 0.5, 6)
    kernel = evolve.solve_ivp(net, theta0, 0.5, 40)
    oracle = evolve.solve_ivp(lambda th: _reference_forward(arch, net.xi, th[None, :])[0], theta0, 0.5, 40)
    assert kernel.thetas.tobytes() == oracle.thetas.tobytes()


def test_loss_history_resume_rejects_a_torn_row_and_writes_whole(tmp_path, monkeypatch):
    # appending in place merged a torn last row with the next stage's first
    path, head = tmp_path / "hist.bin", artifact_header("loss_history")
    cn.save_loss_history([(1, 0.5, 0.25, 0.525), (2, 0.4, 0.3, 0.43)], path, head)
    header, _ = binfile.read_header(path, head)
    assert header["shape"] == [2, 4]
    cn.save_loss_history([(1, 0.3, 0.2, 0.32)], path, head, binfile.load(path, head)[1])
    whole = path.read_bytes()
    assert binfile.load(path, head)[1].tolist() == [[1, 0.5, 0.25, 0.525], [2, 0.4, 0.3, 0.43],
                                                          [3, 0.3, 0.2, 0.32]]
    path.write_bytes(whole[:-7])
    with pytest.raises(CacheMismatch, match="delete it and rerun train-control"):
        binfile.load(path, head)[1]

    def cut(src, dst):
        raise OSError("cut before the rename")

    path.write_bytes(whole)
    monkeypatch.setattr(os, "replace", cut)
    with pytest.raises(OSError, match="cut"):
        cn.save_loss_history([(1, 0.2, 0.1, 0.21)], path, head, binfile.load(path, head)[1])
    assert path.read_bytes() == whole


def test_initial_control_weights_are_not_drawn_from_gram_record_0s_points(tmp_path, monkeypatch):
    # the control net's init and Gram record 0's Monte-Carlo points once
    # shared one random stream, so the first-layer weights were
    # sqrt(1/m) (2u - 1) of the record's uniforms u
    cfg = config.load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "transport_1d.json"),
                             out_dir=str(tmp_path), overrides=["counts.n_theta=1", "counts.n_x=64"])
    drawn = []

    def spy(*args, **kwargs):
        drawn.append(sample_omega(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(assembly, "sample_omega", spy)
    pipeline.cmd_sample_gram(cfg)
    lo, hi = cfg.rom_arch.domain
    u = ((drawn[0] - lo) / (hi - lo)).ravel()
    w0 = cn.init_control_params(cfg.control_arch, cfg.seed)[: u.size]
    assert np.abs(w0 - np.sqrt(1.0 / cfg.control_arch.input_dim) * (2.0 * u - 1.0)).max() > 0.1


# ---------------------------------------------------------------------------
# the step's working set: oracles that gather the whole minibatch


def _gathered_backward_xi(net, cache, dout):
    # the reverse pass on new arrays, each block's cotangents kept in a
    # list and the parts joined at the end
    _, _, blocks, W_out, _ = net.params
    TH, H0, R, cdf, layers, H_last = cache
    dH = dout @ W_out
    per_block = [None] * len(layers)
    for k in range(len(layers) - 1, -1, -1):
        T = layers[k][1]
        dS = dH * (R[k] * cdf[k]) * (1.0 - T * T)
        gelu_d = cdf[k] + R[k] * (1.0 / np.sqrt(2.0 * np.pi) * np.exp(-0.5 * R[k] * R[k]))
        per_block[k] = (dS, dH * T * gelu_d)
        dH = dH + dS @ blocks[k][0]
    dA0 = dH * (1.0 - H0**2)
    parts = [dA0.T @ TH, dA0.sum(axis=0)]
    for (H_in, _), (dS, dR) in zip(layers, per_block):
        parts += [dS.T @ H_in, dS.sum(axis=0), dR.T @ TH, dR.sum(axis=0)]
    parts += [dout.T @ H_last, dout.sum(axis=0)]
    return np.concatenate([p.ravel() for p in parts])


def _gathered_loss(net, gram, pairs, zeta):
    # the loss on a minibatch gathered whole: (TH, G, P) and (TH, V) arrays
    out, cache = cn._forward_cached(net, np.concatenate([batch[0] for batch in (gram, pairs) if batch is not None]))
    l1 = l2 = 0.0
    n1 = 0
    douts = []
    if gram is not None:
        _, G, P = gram
        n1 = G.shape[0]
        res = np.einsum("nij,nj->ni", G, out[:n1]) - P
        l1 = float(np.mean(np.sum(res * res, axis=1)))
        douts.append(2.0 * np.einsum("nij,ni->nj", G, res) / n1)
    if pairs is not None:
        res = out[n1:] - pairs[1]
        l2 = float(np.mean(np.sum(res * res, axis=1)))
        douts.append(zeta * (2.0 * res / res.shape[0]))
    return l1, l2, _gathered_backward_xi(net, cache, np.concatenate(douts))


def _gathered_train(net, gram, pairs, rows, *, lr, zeta, batch_size, max_steps, seed):
    # training with every minibatch gathered out of the arrays, a new net per
    # step and the textbook ADAM; the Gram minibatch is drawn first
    rng = rng_for(seed, Purpose.BATCHES)
    streams = [[gram, rows.copy()]]
    if pairs is not None:
        streams.append([pairs, np.arange(pairs[0].shape[0])])
    for stream in streams:  # the batch size, and a position that forces a first shuffle
        stream += [min(batch_size, stream[1].shape[0]), stream[1].shape[0]]
    xi = net.xi.copy()
    adam = TextbookAdam(xi.size, lr)
    for _ in range(max_steps):
        batches = []
        for stream in streams:
            arrays, order, bs, pos = stream
            if pos + bs > order.shape[0]:
                rng.shuffle(order)
                pos = 0
            batches.append(tuple(a[order[pos : pos + bs]] for a in arrays))
            stream[3] = pos + bs
        l1, l2, grad = _gathered_loss(cn.ControlNet(net.arch, xi), batches[0], batches[1] if pairs else None, zeta)
        xi = adam.step(xi, grad)
    return xi


def _mapped_cache(tmp_path, n=12):
    arch = rom.RomArch("resnet_zero_boundary", 1, 2, 2, "tanh")
    thetas = sample_theta(Box(1.0, rom.param_count(arch)), n, seed=3, purpose=Purpose.GRAM_THETA)
    path = tmp_path / "gram.bin"
    assembly.assemble_batch(arch, thetas, pde_ops.Heat(), 32, 1, path, artifact_header("gram_cache"))
    return assembly.read_cache(path, artifact_header("gram_cache"), thetas)


def test_loss_on_a_mapped_cache_is_the_gathered_minibatch_loss_bit_for_bit(tmp_path, rng, monkeypatch):
    cache = _mapped_cache(tmp_path)
    theta, rhs, gram, _ = cache_parts(cache)
    m = theta.shape[1]
    # two records per chunk: the five-record batch in three runs, the last one short
    monkeypatch.setattr(cn, "_CHUNK_BYTES", 2 * 8 * cache.records.shape[1] + 8)
    arch = cn.ControlArch(input_dim=m, width=8, depth=3)
    net = make_net(arch, jitter=0.3, rng=rng)
    rows = np.array([0, 2, 3, 5, 7, 8, 9, 11])  # record 1 (and others) left out
    batch = rng.permutation(rows)[:5]  # fewer records than the cache holds
    gathered = tuple(np.array(a[batch]) for a in (theta, gram, rhs))
    pairs = (rng.uniform(-1, 1, (4, m)), rng.standard_normal((4, m)))
    for gram, pair in ((True, pairs), (True, None), (False, pairs)):
        got = cn.loss(net, cache.records if gram else None, pair, 0.3, batch if gram else None)
        want = _gathered_loss(net, gathered if gram else None, pair, 0.3)
        assert got[:2] == want[:2]
        assert np.array_equal(got[2], want[2])
    # a reused workspace gives the same bits on every pass
    want = _gathered_loss(net, gathered, pairs, 0.3)
    ws = cn._Workspace(arch, 9, cache.records.shape[1])
    for _ in range(2):
        l1, l2, grad = cn.loss(net, cache.records, pairs, 0.3, batch, ws)
        assert (l1, l2) == want[:2]
        assert np.array_equal(grad, want[2])


def test_training_on_a_mapped_cache_is_the_gathered_training_bit_for_bit(tmp_path, rng, monkeypatch):
    cache = _mapped_cache(tmp_path)
    theta, rhs, gram, _ = cache_parts(cache)
    m = theta.shape[1]
    monkeypatch.setattr(cn, "_CHUNK_BYTES", 2 * 8 * cache.records.shape[1])
    arch = cn.ControlArch(input_dim=m, width=8, depth=3)
    start = make_net(arch, jitter=0.3, rng=rng)
    xi0 = start.xi.copy()
    rows = np.array([0, 2, 3, 5, 7, 8, 9, 11])
    pairs = (rng.uniform(-1, 1, (7, m)), rng.standard_normal((7, m)))
    settings = dict(lr=1e-2, zeta=0.2, batch_size=3, max_steps=12, seed=4)
    trained, history = cn.train(start, cache.records, pairs, rows=rows, stop_loss=0.0, **settings)
    want = _gathered_train(start, (theta, gram, rhs), pairs, rows, **settings)
    assert len(history) == 12
    assert np.array_equal(trained.xi, want)
    assert np.array_equal(start.xi, xi0)  # ADAM steps a copy


def test_adam_steps_in_place_as_the_textbook_update(rng):
    size = 50
    adam, oracle = Adam(size, lr=3e-3), TextbookAdam(size, lr=3e-3)
    params = rng.standard_normal(size)
    want = params.copy()
    for _ in range(10):
        grad = rng.standard_normal(size)
        assert adam.step(params, grad) is params
        want = oracle.step(want, grad)
        assert np.array_equal(params, want)
    assert np.array_equal(adam.m, oracle.m) and np.array_equal(adam.v, oracle.v)


def test_forward_returns_a_new_array_on_every_call(small_arch, rng):
    # RK4 keeps k1 to k4, so a reused workspace must not show through
    net = make_net(small_arch, jitter=0.3, rng=rng)
    TH = rng.uniform(-1, 1, (2, 4))
    k1 = cn.forward(net, TH[0])
    k2 = cn.forward(net, TH[1])
    assert not np.shares_memory(k1, k2)
    assert np.array_equal(k1, _reference_forward(small_arch, net.xi, TH[:1])[0])
    batch = cn.forward(net, TH)
    assert not np.shares_memory(batch, cn.forward(net, TH))


def test_a_train_step_holds_no_minibatch_of_gram_matrices(tmp_path):
    # gathering the minibatch's G out of the mapped cache would take
    # 64 * 48^2 * 8 bytes = 1.2 MB more at batch 128 than at batch 64
    m, n = 48, 130
    arch = fourier_sine_arch(m)
    thetas = sample_theta(Box(1.0, m), n, seed=0, purpose=Purpose.GRAM_THETA)
    path = tmp_path / "gram.bin"
    assembly.assemble_batch(arch, thetas, pde_ops.Heat(), 64, 0, path, artifact_header("gram_cache"))
    cache = assembly.read_cache(path, artifact_header("gram_cache"), thetas)
    carch = cn.ControlArch(input_dim=m, width=8, depth=2)
    peaks = []
    for batch_size in (64, 128):
        net = cn.ControlNet(carch, cn.init_control_params(carch, 0))
        tracemalloc.start()
        try:
            cn.train(net, cache.records, None, rows=cache.rows, lr=1e-3, zeta=0.0, batch_size=batch_size,
                     stop_loss=0.0, max_steps=1, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 0.25 * 64 * m * m * 8


# ---------------------------------------------------------------------------
# the gate-storing passes: the oracle for the passes that rebuild each gate


def _gate_storing_forward_cached(net, TH, ws=None):
    # the forward pass with every gate R Phi(R) stored in a buffer of its
    # own and kept in the cache, (TH, H0, R, Phi(R), gates, layers, H_last)
    if ws is None:
        ws = cn._Workspace(net.arch, TH.shape[0])
    table, biases, blocks, W_out_T, b_out = net.forward_views
    A, A0, R, cdf = ws.A, ws.A0, ws.R, ws.cdf
    gates = np.empty_like(cdf)
    np.matmul(TH, table, A)
    np.add(A, biases, A)
    np.tanh(A0, A0)
    np.divide(R, cn._SQRT2, cdf)
    erf(cdf, cdf)
    np.add(cdf, cn._ONE, cdf)
    np.multiply(cdf, cn._HALF, cdf)
    np.multiply(cdf, R, gates)
    for (U_T, b), (H_in, T), gate, H in zip(blocks, ws.layers, gates, ws.H):
        np.matmul(H_in, U_T, T)
        np.add(T, b, T)
        np.tanh(T, T)
        np.add(H_in, np.multiply(gate, T, H), H)
    out = np.matmul(H, W_out_T, ws.out)
    np.add(out, b_out, out)
    return out, (TH, A0, R, cdf, gates, ws.layers, H)


def _gate_storing_reverse(net, cache, dout, ws, visit):
    # the reverse pass that reads each gate from the cache
    if ws is None:
        ws = cn._Workspace(net.arch, dout.shape[0])
    _, _, blocks, W_out, _ = net.params
    _, H0, R, cdf, gates, layers, _ = cache
    dH, dS, dR, tmp = ws.dH, ws.dS, ws.dR, ws.tmp
    np.matmul(dout, W_out, dH)
    for k in range(len(layers) - 1, -1, -1):
        T = layers[k][1]
        np.subtract(1.0, np.multiply(T, T, tmp), tmp)
        np.multiply(dH, gates[k], dS)
        dS *= tmp
        cn._gelu_deriv(R[k], cdf[k], dR)
        dR *= np.multiply(dH, T, tmp)
        visit(k, dS, dR)
        dH += np.matmul(dS, blocks[k][0], tmp)
    np.subtract(1.0, np.square(H0, tmp), tmp)
    dH *= tmp
    return dH


def _gate_storing_jvp(net, cache, v):
    U0, _, blocks, W_out, _ = net.params
    _, H0, R, cdf, gates, layers, _ = cache
    Hd = (1.0 - H0 * H0) * (v @ U0.T)
    for (U, _, Ug, _), R_k, cdf_k, gate, (_, T) in zip(blocks, R, cdf, gates, layers):
        gate_d = cn._gelu_deriv(R_k, cdf_k) * (v @ Ug.T)
        Td = (1.0 - T * T) * (Hd @ U.T)
        Hd = Hd + gate_d * T + gate * Td
    return Hd @ W_out.T


# the control nets of the heat1d, transport1d and allen_cahn2d benchmark workloads
@pytest.mark.parametrize("m,width", [(4, 256), (67, 128), (66, 96)])
def test_the_passes_that_rebuild_each_gate_are_the_gate_storing_passes_bit_for_bit(m, width, rng, monkeypatch):
    arch = cn.ControlArch(input_dim=m, width=width, depth=3)
    net = make_net(arch, jitter=0.1, rng=rng)
    A = rng.standard_normal((5, m, m))
    records = gram_records(rng.uniform(-1, 1, (5, m)), A @ A.transpose(0, 2, 1) / m, rng.standard_normal((5, m)))
    pairs = (rng.uniform(-1, 1, (3, m)), rng.standard_normal((3, m)))
    TH, v, u = rng.uniform(-1, 1, (4, m)), rng.standard_normal((4, m)), rng.standard_normal((4, m))

    def passes():
        l1, l2, grad = cn.loss(net, records, pairs, 0.3, np.array([4, 0, 2]))
        _, cache = cn._forward_cached(net, TH)
        return [np.array([l1, l2]), grad.copy(), cn._jvp(net, cache, v), cn._vjp(net, cache, u),
                np.array(cn.field_stats(net, TH, seed=2))]

    with monkeypatch.context() as patch:
        for name in ("_forward_cached", "_reverse", "_jvp"):
            patch.setattr(cn, name, globals()[f"_gate_storing{name}"])
        want = passes()
    assert [a.tobytes() for a in passes()] == [a.tobytes() for a in want]


# ---------------------------------------------------------------------------
# ADAM in slices


class _WholeVectorAdam:
    # optim.Adam as one pass over the whole vector, with two parameter-sized
    # scratch vectors made anew by keep
    def __init__(self, size, lr):
        self.lr, self.t = lr, 0
        self.m, self.v = np.zeros(size), np.zeros(size)
        self._scratch = np.empty(size), np.empty(size)

    def keep(self, rows):
        self.m, self.v = self.m[rows], self.v[rows]
        self._scratch = np.empty_like(self.m), np.empty_like(self.m)

    def step(self, params, grad):
        self.t += 1
        a, b = self._scratch
        self.m *= 0.9
        self.m += np.multiply(grad, 1.0 - 0.9, out=a)
        self.v *= 0.999
        np.multiply(grad, 1.0 - 0.999, out=a)
        self.v += np.multiply(a, grad, out=a)
        np.divide(self.m, 1.0 - 0.9**self.t, out=a)
        a *= self.lr
        np.divide(self.v, 1.0 - 0.999**self.t, out=b)
        np.sqrt(b, out=b)
        b += 1e-8
        params -= np.divide(a, b, out=a)
        return params


S = optim._SLICE


@pytest.mark.parametrize("size", [1, S - 1, S, S + 1, 3 * S + 5, (4, S + 3), (5, 7)])
def test_adam_in_slices_is_the_whole_vector_step_bit_for_bit(size, rng):
    adam, oracle = Adam(size, lr=3e-3), _WholeVectorAdam(size, lr=3e-3)
    params = rng.standard_normal(size)
    want = params.copy()
    for step in range(25):
        if step == 12 and params.ndim == 2:  # a stack drops rows midway, as fit_initials does
            rows = np.array([0, 2, 3])[: params.shape[0] - 1]
            adam.keep(rows)
            oracle.keep(rows)
            params, want = params[rows], want[rows]
        grad = rng.standard_normal(params.shape)
        assert adam.step(params, grad) is params
        oracle.step(want, grad)
        assert params.tobytes() == want.tobytes()
    assert adam.m.tobytes() == oracle.m.tobytes() and adam.v.tobytes() == oracle.v.tobytes()


def test_adam_holds_its_moments_and_less_than_two_slices(rng):
    # the heat1d control net's parameter count: the whole-vector step held
    # two scratch vectors of this size besides the moments
    size = cn.control_param_count(cn.ControlArch(input_dim=4, width=256, depth=3))
    assert size == 136452
    params, grad = rng.standard_normal(size), rng.standard_normal(size)
    tracemalloc.start()
    try:
        adam = Adam(size, lr=1e-3)
        moments = tracemalloc.get_traced_memory()[0]
        for _ in range(2):
            adam.step(params, grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the moments and two slices, with 16 KiB for the slice table
    assert 2 * size * 8 <= moments <= peak < (2 * size + 2 * S) * 8 + 16 * 1024


# ---------------------------------------------------------------------------
# what one training step holds


def test_a_train_step_holds_no_gates_and_no_parameter_sized_scratch(tmp_path, rng):
    # a heat-shaped problem (4 sine modes, pairs, a 4 -> W x 3 net): the
    # workspace holds 13 (n, W) arrays (A, Phi(R), T, H, and the reverse
    # pass's dH, dS, dR and scratch), the step 4 parameter vectors (the
    # trained xi, the gradient and ADAM's moments); storing the gates and
    # ADAM's whole-vector scratch took 2 more of each
    m, width, n_records, n_pairs = 4, 128, 48, 48
    thetas = sample_theta(Box(1.0, m), n_records, seed=0, purpose=Purpose.GRAM_THETA)
    path = tmp_path / "gram.bin"
    assembly.assemble_batch(fourier_sine_arch(m), thetas, pde_ops.Heat(), 64, 0, path, artifact_header("gram_cache"))
    cache = assembly.read_cache(path, artifact_header("gram_cache"), thetas)
    pairs = (rng.uniform(-1, 1, (n_pairs, m)), rng.standard_normal((n_pairs, m)))
    arch = cn.ControlArch(input_dim=m, width=width, depth=3)
    net = cn.ControlNet(arch, cn.init_control_params(arch, 0))
    n, P = n_records + n_pairs, cn.control_param_count(arch)
    tracemalloc.start()
    try:
        cn.train(net, cache.records, pairs, rows=cache.rows, lr=1e-3, zeta=0.5, batch_size=0, stop_loss=0.0,
                 max_steps=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # slack: ADAM's two slices, the (n, m) rows (TH, out, residual,
    # cotangent, squares and the pair minibatch), the chunk of n records,
    # the 64 KiB buffer of the ufunc that adds the strided bias view to A,
    # and 64 KiB of small objects
    slack = 2 * S * 8 + 8 * n * (7 * m + cache.records.shape[1]) + 128 * 1024
    assert peak <= (13 * n * width + 4 * P) * 8 + slack


def test_the_gram_chunk_holds_at_most_the_rows_its_caller_gathers(tmp_path, rng, monkeypatch):
    m = 4
    record_width = assembly._record_floats(m)
    arch = cn.ControlArch(input_dim=m, width=8, depth=3)
    # 2,621 heat records fit in the chunk's bytes; a step gathers at most n
    assert cn._CHUNK_BYTES // (8 * record_width) == 2621
    assert cn._Workspace(arch, 360, record_width).chunk.shape == (360, record_width)
    assert cn._Workspace(arch, 1, record_width).chunk.shape == (1, record_width)
    # residual_scan's chunk holds _SCAN_ROWS records, and its norms are
    # those of the chunk that fills _CHUNK_BYTES
    thetas = sample_theta(Box(1.0, m), 30, seed=0, purpose=Purpose.GRAM_THETA)
    path = tmp_path / "gram.bin"
    assembly.assemble_batch(fourier_sine_arch(m), thetas, pde_ops.Heat(), 64, 0, path, artifact_header("gram_cache"))
    records = assembly.read_cache(path, artifact_header("gram_cache"), thetas).records
    net = make_net(arch, jitter=0.3, rng=rng)
    monkeypatch.setattr(cn, "_SCAN_ROWS", 8)
    bufs, chunk_buffer = [], cn._chunk_buffer
    monkeypatch.setattr(cn, "_chunk_buffer", lambda *args: bufs.append(chunk_buffer(*args)) or bufs[-1])
    capped = cn.residual_scan(net, records)
    assert [buf.shape for buf in bufs] == [(8, record_width)]
    monkeypatch.setattr(cn, "_chunk_buffer", lambda width, rows: np.empty((cn._CHUNK_BYTES // (8 * width), width)))
    assert capped.tobytes() == cn.residual_scan(net, records).tobytes()
