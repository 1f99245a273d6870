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
    zero = rom.RomArch("resnet_zero_boundary", 2, 3, 2, "tanh", {"family": "unit_box"})
    assert rom.param_count(zero) == 24


def test_arch_validation():
    with pytest.raises(ValueError):
        rom.RomArch("resnet_zero_boundary", 1, 4, 1, "tanh", {"family": "unit_box"})  # depth < 2
    with pytest.raises(ValueError):
        rom.RomArch("resnet_zero_boundary", 1, 4, 2, "relu", {"family": "unit_box"})  # relu not periodic
    with pytest.raises(ValueError):
        rom.RomArch("linear_basis", 2, basis_spec=(("fourier_sine", 1),))  # 1-D only
    with pytest.raises(ValueError):
        rom.RomArch("resnet_zero_boundary", 1, 4, 2, "tanh", {"family": "bogus"})


def _random_cases():
    return [
        rom.RomArch("resnet_zero_boundary", 1, 5, 3, "tanh", {"family": "unit_box"}),
        rom.RomArch("resnet_zero_boundary", 2, 4, 2, "tanh", {"family": "sym_box"}),
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
        if arch.kind == "resnet_zero_boundary" and arch.wrapper_spec.get("family") == "sym_box":
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
    arch = rom.RomArch("resnet_zero_boundary", 2, 5, 2, "tanh", {"family": "unit_box"})
    model = rom.RomModel(arch, rom.init_params(arch, 1) + 0.5)
    edges = np.array([[0.0, 0.4], [1.0, 0.6], [0.3, 0.0], [0.7, 1.0]])
    vals = rom.eval_batch(model, edges, VAL).value
    assert np.all(vals == 0.0)


def alpha(X, spec):
    """The zero-boundary factor the resnet_zero_boundary wrapper multiplies by."""
    return rom._alpha(X, spec, 0)[0]


def test_allen_cahn_alpha_boundary():
    spec = {"family": "sym_box"}
    assert alpha(np.array([[1.0, 0.3]]), spec)[0] == 0.0
    assert alpha(np.array([[-1.0, -0.8]]), spec)[0] == 0.0


def test_heat_alpha_center():
    spec = {"family": "unit_box"}
    x = np.full((1, 10), 0.5)
    assert alpha(x, spec)[0] == pytest.approx(1.0)


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


def test_linear_basis_gram_identity_via_assembly(unit_interval):
    arch = fourier_sine_arch(6)
    theta = np.linspace(-1, 1, 6)
    rec = assembly.assemble_at(arch, theta, pde_ops.Heat(), unit_interval, 96, 0, stream=0, quadrature="gauss")
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
    arch = rom.RomArch("linear_basis", 1, basis_spec=(("monomial", 8),))
    model = rom.RomModel(arch, np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        rom.eval_batch(model, np.array([[1e40]]), VAL)


def test_arch_hash_stability():
    a1 = rom.RomArch("resnet_periodic", 1, 4, 2, "tanh")
    a2 = rom.RomArch("resnet_periodic", 1, 4, 2, "tanh")
    a3 = rom.RomArch("resnet_periodic", 1, 5, 2, "tanh")
    assert rom.arch_hash(a1) == rom.arch_hash(a2)
    assert rom.arch_hash(a1) != rom.arch_hash(a3)
