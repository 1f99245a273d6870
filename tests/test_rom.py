import dataclasses

import numpy as np
import pytest

from pdecontrol import assembly, pde_ops, rom
from pdecontrol.errors import NonFiniteError
from pdecontrol.sampling import Purpose

from conftest import check_layout_table, fourier_sine_arch

FULL = rom.EvalFlags(value=True, grad_x=True, laplacian=True, grad_theta=True)
VAL = rom.EvalFlags(value=True)


def value_fn(arch, theta, X):
    return rom.eval_batch(rom.RomModel(arch, theta), X, VAL).value


def _frozen_shapes(arch):
    """The parameter layout as the rom module docstring freezes it:
    [W0, b0, W1, b1, ..., W_{L-1}, b_{L-1}, w_L, shift?], or the basis
    coefficients."""
    if arch.kind == rom.LINEAR_BASIS:
        return [(arch.n_modes,)]
    w, din = arch.width, arch.net_input_dim
    periodic = arch.kind == rom.RESNET_PERIODIC
    return [(w, din), (w,)] + [(w, w), (w,)] * (arch.depth - 1) + [(w,)] + [(arch.input_dim,)] * periodic


def test_param_count_examples(rng):
    assert rom.param_count(fourier_sine_arch(8)) == 8
    periodic = rom.RomArch("resnet_periodic", 1, 4, 3, "tanh")
    assert rom.param_count(periodic) == 57
    zero = rom.RomArch("resnet_zero_boundary", 2, 3, 2, "tanh")
    assert rom.param_count(zero) == 24
    nets = [
        arch
        for depth in (2, 3)
        for arch in (
            rom.RomArch("resnet_zero_boundary", 1, 5, depth, "tanh"),
            rom.RomArch("resnet_zero_boundary", 2, 4, depth, "tanh", lo=(-1.0, -1.0), hi=(1.0, 1.0)),
            rom.RomArch("resnet_periodic", 1, 6, depth, "relu"),
            rom.RomArch("resnet_periodic", 2, 4, depth, "tanh"),
        )
    ]
    for arch in nets + [fourier_sine_arch(5)]:
        table = rom._layout(arch)
        check_layout_table(table, _frozen_shapes(arch), rng)
        assert table[-1][0].stop == rom.param_count(arch)
        assert rom._layout(dataclasses.replace(arch)) is table  # one table per arch


def test_arch_validation():
    with pytest.raises(ValueError):
        rom.RomArch("resnet_zero_boundary", 1, 4, 1, "tanh")  # depth < 2
    with pytest.raises(ValueError):
        rom.RomArch("resnet_zero_boundary", 1, 4, 2, "relu")  # relu not periodic
    with pytest.raises(ValueError):
        rom.RomArch("linear_basis", 2, n_modes=1)  # 1-D only
    with pytest.raises(ValueError):
        rom.RomArch("linear_basis", 1)  # no modes
    with pytest.raises(ValueError):
        rom.RomArch("resnet_zero_boundary", 1, 4, 2, "tanh", lo=(1.0,), hi=(1.0,))  # empty box
    with pytest.raises(ValueError):
        rom.RomArch("resnet_zero_boundary", 2, 4, 2, "tanh", lo=(0.0,), hi=(1.0,))  # box of another dimension


def _random_cases():
    return [
        rom.RomArch("resnet_zero_boundary", 1, 5, 3, "tanh"),
        rom.RomArch("resnet_zero_boundary", 2, 4, 2, "tanh", lo=(-1.0, -1.0), hi=(1.0, 1.0)),
        rom.RomArch("resnet_periodic", 1, 6, 3, "tanh"),
        rom.RomArch("resnet_periodic", 2, 4, 2, "tanh"),
        fourier_sine_arch(6),
    ]


def test_gradient_consistency_with_finite_differences(rng):
    h = 1e-5
    for case in range(20):
        arch = _random_cases()[case % 5]
        theta = rom.init_params(arch, case) + 0.3 * rng.standard_normal(rom.param_count(arch))
        model = rom.RomModel(arch, theta)
        d = arch.input_dim
        lo, hi = (0.05, 0.95)
        if arch.lo[0] == -1.0:
            lo, hi = (-0.9, 0.9)
        X = rng.uniform(lo, hi, (3, d))
        ev = rom.eval_batch(model, X, FULL)

        for j in rng.choice(theta.size, size=min(5, theta.size), replace=False):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd = (value_fn(arch, tp, X) - value_fn(arch, tm, X)) / (2 * h)
            assert np.allclose(ev.grad_theta[:, j], fd, rtol=1e-5, atol=1e-7)

        for i in range(d):
            Xp, Xm = X.copy(), X.copy()
            Xp[:, i] += h
            Xm[:, i] -= h
            fd = (value_fn(arch, theta, Xp) - value_fn(arch, theta, Xm)) / (2 * h)
            assert np.allclose(ev.grad_x[:, i], fd, rtol=1e-5, atol=1e-7)

        # Richardson second differences for the laplacian
        def lap_fd(hh):
            acc = np.zeros(X.shape[0])
            base = value_fn(arch, theta, X)
            for i in range(d):
                Xp, Xm = X.copy(), X.copy()
                Xp[:, i] += hh
                Xm[:, i] -= hh
                acc += (value_fn(arch, theta, Xp) - 2 * base + value_fn(arch, theta, Xm)) / hh**2
            return acc

        rich = (4 * lap_fd(2e-3) - lap_fd(4e-3)) / 3
        assert np.allclose(ev.laplacian, rich, rtol=1e-5, atol=1e-6)


def test_relu_gradients_away_from_kinks(rng):
    arch = rom.RomArch("resnet_periodic", 1, 5, 2, "relu")
    theta = rom.init_params(arch, 3) + 0.2 * rng.standard_normal(rom.param_count(arch))
    X = rng.uniform(0.1, 0.9, (5, 1))
    ev = rom.eval_batch(rom.RomModel(arch, theta), X, rom.EvalFlags(value=True, grad_x=True, grad_theta=True))
    h = 1e-6
    fd = (value_fn(arch, theta, X + h) - value_fn(arch, theta, X - h)) / (2 * h)
    assert np.allclose(ev.grad_x[:, 0], fd, rtol=1e-4, atol=1e-6)


def test_boundary_exactness_zero_boundary(rng):
    arch = rom.RomArch("resnet_zero_boundary", 2, 5, 2, "tanh")
    model = rom.RomModel(arch, rom.init_params(arch, 1) + 0.5)
    edges = np.array([[0.0, 0.4], [1.0, 0.6], [0.3, 0.0], [0.7, 1.0]])
    vals = rom.eval_batch(model, edges, VAL).value
    assert np.all(vals == 0.0)


def alpha(X, lo, hi):
    """The zero-boundary factor the resnet_zero_boundary wrapper multiplies by."""
    return rom._alpha(X, np.array(lo), np.array(hi), 0)[0]


def test_allen_cahn_alpha_boundary():
    box = ([-1.0, -1.0], [1.0, 1.0])
    assert alpha(np.array([[1.0, 0.3]]), *box)[0] == 0.0
    assert alpha(np.array([[-1.0, -0.8]]), *box)[0] == 0.0


def test_heat_alpha_center():
    x = np.full((1, 10), 0.5)
    assert alpha(x, [0.0] * 10, [1.0] * 10)[0] == pytest.approx(1.0)


def _former_alpha(X, unit):
    """The zero-boundary factor as it was written for the two boxes it
    covered, 4(x - x^2) on (0,1)^d and 1 - x^2 on (-1,1)^d: the oracle."""
    f = 4.0 * (X - X * X) if unit else 1.0 - X * X
    n, d = X.shape
    prefix = np.ones((n, d + 1))
    for i in range(d):
        prefix[:, i + 1] = prefix[:, i] * f[:, i]
    suffix = np.ones((n, d + 1))
    for i in range(d - 1, -1, -1):
        suffix[:, i] = suffix[:, i + 1] * f[:, i]
    loo = prefix[:, :d] * suffix[:, 1:]
    df = 4.0 * (1.0 - 2.0 * X) if unit else -2.0 * X
    return prefix[:, d], df * loo, (-8.0 if unit else -2.0) * loo


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("unit", [True, False], ids=["unit_box", "sym_box"])
def test_box_factor_reproduces_the_former_closed_forms_bit_for_bit(rng, d, unit):
    # the presets' ROMs, caches and solutions stay byte-identical only if the
    # factor built from the box equals the former closed forms exactly
    lo, hi = (0.0, 1.0) if unit else (-1.0, 1.0)
    X = rng.uniform(lo, hi, (20_000, d))
    got = rom._alpha(X, np.full(d, lo), np.full(d, hi), 2)
    for a, b in zip(got, _former_alpha(X, unit)):
        assert a.tobytes() == b.tobytes()


def test_box_factor_on_a_general_box(rng):
    lo, hi = np.array([0.5, -2.0]), np.array([3.0, -1.0])
    edges = np.array([[0.5, -1.5], [3.0, -1.2], [1.0, -2.0], [2.9, -1.0]])
    assert np.all(rom._alpha(edges, lo, hi, 0)[0] == 0.0)
    assert rom._alpha(0.5 * (lo + hi)[None, :], lo, hi, 0)[0][0] == pytest.approx(1.0)
    X = rng.uniform(lo + 0.1, hi - 0.1, (4, 2))
    value, d1, d2 = rom._alpha(X, lo, hi, 2)
    h = 1e-5
    for i in range(2):
        step = np.zeros(2)
        step[i] = h
        plus, minus = rom._alpha(X + step, lo, hi, 0)[0], rom._alpha(X - step, lo, hi, 0)[0]
        assert np.allclose(d1[:, i], (plus - minus) / (2 * h), rtol=1e-6, atol=1e-9)
        assert np.allclose(d2[:, i], (plus - 2 * value + minus) / h**2, rtol=1e-4, atol=1e-5)


def test_beta_periodicity(rng):
    # the periodic features cos/sin 2pi(x - shift) make the model 1-periodic
    # for any trainable shift
    arch = rom.RomArch("resnet_periodic", 3, 4, 2, "tanh")
    theta = rom.init_params(arch, 6)
    theta[-3:] = rng.uniform(-1, 1, 3)
    X = rng.uniform(0, 1, (6, 3))
    b1 = value_fn(arch, theta, X)
    b2 = value_fn(arch, theta, X + 1.0)
    assert np.allclose(b1, b2, atol=1e-12)


def test_model_periodicity(rng):
    arch = rom.RomArch("resnet_periodic", 2, 5, 2, "tanh")
    model = rom.RomModel(arch, rom.init_params(arch, 4) + 0.1)
    X = rng.uniform(0, 1, (5, 2))
    v1 = rom.eval_batch(model, X, VAL).value
    v2 = rom.eval_batch(model, X + np.array([1.0, 0.0]), VAL).value
    v3 = rom.eval_batch(model, X + np.array([0.0, 1.0]), VAL).value
    assert np.allclose(v1, v2, atol=1e-12)
    assert np.allclose(v1, v3, atol=1e-12)


def _kernel_cases():
    return [
        rom.RomArch("resnet_periodic", 1, 6, 2, "relu"),
        rom.RomArch("resnet_periodic", 2, 5, 3, "tanh"),
        rom.RomArch("resnet_periodic", 10, 6, 2, "tanh"),
        rom.RomArch("resnet_zero_boundary", 2, 4, 3, "tanh", lo=(-1.0, -1.0), hi=(1.0, 1.0)),
        rom.RomArch("resnet_zero_boundary", 1, 5, 2, "tanh", lo=(0.5,), hi=(3.0,)),
    ]


@pytest.mark.parametrize("case", range(5))
def test_value_kernel_matches_the_derivative_path(rng, case):
    # value_at and the derivative path run the one forward pass, so a value
    # is the same bits on either
    arch = _kernel_cases()[case]
    lo, hi = arch.domain
    X = rng.uniform(lo, hi, (300, arch.input_dim))
    u_at = rom.value_at(arch, X)
    for seed in range(3):
        theta = rom.init_params(arch, seed) + 0.5 * rng.standard_normal(rom.param_count(arch))
        if arch.kind == rom.RESNET_PERIODIC:
            theta[-arch.input_dim:] = rng.choice([-1.0, 1.0], arch.input_dim) * rng.uniform(1.0, 4.0, arch.input_dim)
        want = rom.eval_batch(rom.RomModel(arch, theta), X, rom.EvalFlags(value=True, grad_theta=True)).value
        assert u_at(theta).tobytes() == want.tobytes()
        assert value_fn(arch, theta, X).tobytes() == want.tobytes()


def test_value_kernel_returns_a_fresh_array_per_call(rng):
    arch = rom.RomArch("resnet_periodic", 2, 5, 3, "tanh")
    u_at = rom.value_at(arch, rng.uniform(0, 1, (50, 2)))
    first = u_at(rom.init_params(arch, 0) + 0.3)
    kept = first.copy()
    second = u_at(rom.init_params(arch, 1) - 0.3)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()
    assert second.tobytes() != kept.tobytes()


def _reference_eval(arch, theta, X):
    """(grad_x, laplacian, grad_theta) of a net by a point-major
    derivative path, (n, width) per layer, written out on its own: the
    periodic features are taken at x - shift, grad_x and the Laplacian are
    forward-mode tangents, one pass per coordinate, and grad_theta is the
    per-point Jacobian in layout order by reverse accumulation."""
    W0, b0, blocks, w_out, shift = rom._unpack(arch, theta)
    n, d = X.shape
    if arch.kind == rom.RESNET_PERIODIC:
        arg = rom.TWO_PI * (X - shift)
        c, s = np.cos(arg), np.sin(arg)
        S = np.concatenate([c, s], axis=1)
        dS = np.concatenate([-rom.TWO_PI * s, rom.TWO_PI * c], axis=1)
        ddS = np.concatenate([-rom.TWO_PI * rom.TWO_PI * c, -rom.TWO_PI * rom.TWO_PI * s], axis=1)
        alpha = None
    else:
        S, dS, ddS = X, np.ones_like(X), np.zeros_like(X)
        alpha = rom._alpha(X, *arch.domain, 2)

    def act(A):
        # value, first and second derivative; relu's second taken as 0
        if arch.activation == "tanh":
            T = np.tanh(A)
            d1 = 1.0 - T * T
            return T, d1, -2.0 * T * d1
        return np.maximum(A, 0.0), (A > 0.0).astype(np.float64), np.zeros_like(A)

    A = S @ W0.T
    A += b0
    Z, d1, d2 = act(A)
    cache = [(S, d1, d2)]  # (layer input, act', act'') per layer
    for W, b in blocks:
        A = Z @ W.T
        A += b
        phi, d1, d2 = act(A)
        cache.append((Z, d1, d2))
        Z = Z + phi
    z = Z @ w_out

    zd, zdd = np.empty((n, d)), np.empty((n, d))
    owner = np.arange(S.shape[1]) % d  # the coordinate each feature depends on
    for i in range(d):
        Ad = np.where(owner == i, dS, 0.0) @ W0.T
        _, d1, d2 = cache[0]
        Zd = d1 * Ad
        Zdd = d2 * Ad * Ad + d1 * (np.where(owner == i, ddS, 0.0) @ W0.T)
        for (W, _), (_, d1k, d2k) in zip(blocks, cache[1:]):
            Ad = Zd @ W.T
            Zdd = Zdd + d2k * Ad * Ad + d1k * (Zdd @ W.T)
            Zd = Zd + d1k * Ad
        zd[:, i] = Zd @ w_out
        zdd[:, i] = Zdd @ w_out
    if alpha is None:
        scale = np.ones(n)
    else:  # product rule for u = alpha z
        a, da, dda = alpha
        scale = a
        zdd = dda * z[:, None] + 2.0 * da * zd + a[:, None] * zdd
        zd = da * z[:, None] + a[:, None] * zd

    G = scale[:, None] * w_out[None, :]  # d sum / d(block output)
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
        parts.append(-(gS[:, :d] * (-rom.TWO_PI * S[:, d:]) + gS[:, d:] * (rom.TWO_PI * S[:, :d])))
    grad_theta = np.concatenate([p.reshape(n, -1) for p in parts], axis=1)
    return zd, zdd.sum(axis=1), grad_theta


def _nets():
    return [arch for arch in _kernel_cases() + _random_cases() if arch.kind != rom.LINEAR_BASIS]


@pytest.mark.parametrize("case", range(len(_nets())))
def test_derivatives_match_the_point_major_oracle(rng, case):
    # the derivative path runs feature-major on the stored forward states and
    # folds the periodic shift into W0; the oracle does neither
    arch = _nets()[case]
    lo, hi = arch.domain
    X = rng.uniform(lo, hi, (200, arch.input_dim))
    for seed in range(2):
        theta = rom.init_params(arch, seed) + 0.5 * rng.standard_normal(rom.param_count(arch))
        if arch.kind == rom.RESNET_PERIODIC:
            theta[-arch.input_dim:] = rng.uniform(-4.0, 4.0, arch.input_dim)
        ev = rom.eval_batch(rom.RomModel(arch, theta), X, FULL)
        grad_x, laplacian, grad_theta = _reference_eval(arch, theta, X)
        for got, want in ((ev.grad_x, grad_x), (ev.laplacian, laplacian), (ev.grad_theta, grad_theta)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _pullback_arch(case, depth):
    return [
        rom.RomArch("resnet_zero_boundary", 1, 5, depth, "tanh"),
        rom.RomArch("resnet_zero_boundary", 2, 4, depth, "tanh", lo=(-1.0, -1.0), hi=(1.0, 1.0)),
        rom.RomArch("resnet_periodic", 1, 6, depth, "relu"),
        rom.RomArch("resnet_periodic", 2, 4, depth, "tanh"),
    ][case]


def _pullback_stack(rng, arch, k, n, spread):
    """k samples of n points and k parameter vectors, a nonzero shift on a
    periodic net."""
    lo, hi = arch.domain
    X = rng.uniform(lo, hi, (k, n, arch.input_dim))
    thetas = np.stack([rom.init_params(arch, seed) for seed in range(k)])
    thetas += spread * rng.standard_normal(thetas.shape)
    if arch.kind == rom.RESNET_PERIODIC:
        thetas[:, -arch.input_dim:] = rng.uniform(0.1, 0.4, (k, arch.input_dim))
    return X, thetas


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("case", range(4))
def test_pullback_equals_the_jacobian_transpose_product(rng, case, depth):
    # the fit's gradient: sum_n r_n grad_theta u(x_n) without the Jacobian,
    # per row of a stack on its own sample; each row's value is the value
    # kernel's and the derivative path's
    arch = _pullback_arch(case, depth)
    for _ in range(2):
        X, thetas = _pullback_stack(rng, arch, 3, 200, 0.3)
        u, pullback = rom.pullback_at(arch, X)(thetas)
        R = 2.0 * (u - rng.standard_normal(u.shape)) / X.shape[1]
        grads = pullback(R)
        assert u.shape == R.shape == (3, 200) and grads.shape == thetas.shape
        for x, theta, u_k, r, grad in zip(X, thetas, u, R, grads):
            ev = rom.eval_batch(rom.RomModel(arch, theta), x, rom.EvalFlags(value=True, grad_theta=True))
            want_rows = _reference_eval(arch, theta, x)[2]
            if arch.kind == rom.RESNET_PERIODIC:  # the shift enters as W0's rotation, not in the features
                assert np.abs(ev.grad_theta - want_rows).max() <= 1e-14 * np.abs(want_rows).max()
            else:
                assert ev.grad_theta.tobytes() == want_rows.tobytes()
            assert u_k.tobytes() == rom.value_at(arch, x)(theta).tobytes()
            assert u_k.tobytes() == ev.value.tobytes()
            want = ev.grad_theta.T @ r
            assert np.abs(grad - want).max() <= 1e-13 * np.abs(want).max()
        # the rows a caller keeps: their gradients alone, the same bits
        rows = np.array([0, 2])
        assert pullback(R[rows], rows).tobytes() == grads[rows].tobytes()


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("case", range(4))
def test_pullback_returns_fresh_arrays_that_a_later_call_leaves_unchanged(rng, case, depth):
    arch = _pullback_arch(case, depth)
    X, thetas = _pullback_stack(rng, arch, 3, 60, 0.3)
    at = rom.pullback_at(arch, X)
    u, pullback = at(thetas)
    R = rng.standard_normal(u.shape)
    grad = pullback(R)
    kept = u.copy(), grad.copy()
    again = pullback(R)
    assert again.tobytes() == grad.tobytes() and not np.shares_memory(again, grad)
    u2, pullback2 = at(thetas - 0.5)
    grad2 = pullback2(R)
    for fresh in (u2, grad2):
        assert not any(np.shares_memory(fresh, old) for old in (u, grad))
    assert u.tobytes() == kept[0].tobytes() and grad.tobytes() == kept[1].tobytes()
    for k in range(3):
        assert u2[k].tobytes() != kept[0][k].tobytes() and grad2[k].tobytes() != kept[1][k].tobytes()


def test_pullback_takes_a_net_only():
    with pytest.raises(ValueError, match="takes a net"):
        rom.pullback_at(fourier_sine_arch(3), [[[0.5]]])


def test_linear_basis_eigenfunction():
    arch = fourier_sine_arch(8)
    theta = np.zeros(8)
    theta[0] = 1.0
    b = rom.eval_batch(rom.RomModel(arch, theta), [[0.5]], rom.EvalFlags(value=True, laplacian=True))
    assert b.value[0] == pytest.approx(np.sqrt(2.0))
    assert b.laplacian[0] == pytest.approx(-np.pi**2 * np.sqrt(2.0))


def test_linear_basis_homogeneity(rng):
    arch = fourier_sine_arch(5)
    theta = rng.standard_normal(5)
    X = rng.uniform(0, 1, (7, 1))
    v1 = value_fn(arch, theta, X)
    v3 = value_fn(arch, 3.0 * theta, X)
    assert np.allclose(3.0 * v1, v3, rtol=1e-13)


def test_linear_basis_gram_identity_via_assembly():
    arch = fourier_sine_arch(6)
    theta = np.linspace(-1, 1, 6)
    rec = assembly.assemble_at(arch, theta, pde_ops.Heat(), 96, 0, Purpose.GRAM_POINTS, 0)
    assert np.abs(rec.gram - np.eye(6)).max() < 1e-10


def test_init_params_deterministic_and_bounded():
    arch = rom.RomArch("resnet_periodic", 2, 6, 3, "tanh")
    a = rom.init_params(arch, 9)
    b = rom.init_params(arch, 9)
    assert a.tobytes() == b.tobytes()
    W0, b0, blocks, w_out, shift = rom._unpack(arch, a)
    assert np.all(b0 == 0.0) and np.all(shift == 0.0)
    assert np.abs(W0).max() <= np.sqrt(1.0 / arch.net_input_dim)
    for W, bb in blocks:
        assert np.all(bb == 0.0)
        assert np.abs(W).max() <= np.sqrt(1.0 / arch.width)


def test_unrequested_fields_are_none():
    arch = fourier_sine_arch(3)
    batch = rom.eval_batch(rom.RomModel(arch, np.ones(3)), [[0.3]], rom.EvalFlags(value=True))
    assert batch.laplacian is None
    assert batch.grad_theta is None
    assert batch.grad_x is None


def _overflowing_net():
    # at x = 0 both units read tanh(10 cos 0), about 1, and the zero block
    # adds tanh(0) = 0; two output weights of 1e308 sum past the largest float
    arch = rom.RomArch("resnet_periodic", 1, 2, 2, "tanh")
    theta = np.zeros(rom.param_count(arch))
    theta[[0, 2]] = 10.0  # the cos column of W0
    theta[-3:-1] = 1e308
    return rom.RomModel(arch, theta), np.array([[0.0]])


def test_nonfinite_guard():
    # each term is about 1.4e308 at x = 0.25; their sum overflows
    basis = rom.RomModel(fourier_sine_arch(2), np.array([1e308, 1e308])), np.array([[0.25]])
    for model, X in (basis, _overflowing_net()):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            rom.eval_batch(model, X, VAL)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            rom.value_at(model.arch, X)(model.theta)
