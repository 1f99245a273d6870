import numpy as np
import pytest

from pdecontrol import assembly, pde_ops, rom
from pdecontrol.errors import NonFiniteError

from conftest import fourier_sine_arch

FULL = rom.EvalFlags(value=True, grad_x=True, laplacian=True, grad_theta=True)
VAL = rom.EvalFlags(value=True)


def value_fn(arch, theta, X):
    return rom.eval_batch(rom.RomModel(arch, theta), X, VAL).value


def test_param_count_examples():
    assert rom.param_count(fourier_sine_arch(8)) == 8
    periodic = rom.RomArch("resnet_periodic", 1, 4, 3, "tanh")
    assert rom.param_count(periodic) == 57
    zero = rom.RomArch("resnet_zero_boundary", 2, 3, 2, "tanh")
    assert rom.param_count(zero) == 24


def test_arch_validation():
    with pytest.raises(ValueError):
        rom.RomArch("resnet_zero_boundary", 1, 4, 1, "tanh")  # depth < 2
    with pytest.raises(ValueError):
        rom.RomArch("resnet_zero_boundary", 1, 4, 2, "relu")  # relu not periodic
    with pytest.raises(ValueError):
        rom.RomArch("linear_basis", 2, basis_spec=(("fourier_sine", 1),))  # 1-D only
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
    rec = assembly.assemble_at(arch, theta, pde_ops.Heat(), 96, 0, stream=0)
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
    assert not batch.flags.laplacian


def test_nonfinite_guard():
    # each term is about 1.4e308 at x = 0.25; their sum overflows
    model = rom.RomModel(fourier_sine_arch(2), np.array([1e308, 1e308]))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        rom.eval_batch(model, np.array([[0.25]]), VAL)


def test_arch_hash_stability():
    a1 = rom.RomArch("resnet_periodic", 1, 4, 2, "tanh")
    a2 = rom.RomArch("resnet_periodic", 1, 4, 2, "tanh")
    a3 = rom.RomArch("resnet_periodic", 1, 5, 2, "tanh")
    assert rom.arch_hash(a1) == rom.arch_hash(a2)
    assert rom.arch_hash(a1) != rom.arch_hash(a3)
