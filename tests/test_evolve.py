import warnings

import numpy as np
import pytest

from pdecontrol import assembly, evolve, pde_ops
from pdecontrol.errors import CacheMismatch
from pdecontrol.sampling import Box, sample_theta

from conftest import fourier_sine_arch


def test_rk4_single_step_linear_decay():
    traj = evolve.solve_ivp(lambda th: -th, np.array([1.0]), 0.1, 1)
    assert traj.thetas[-1][0] == pytest.approx(0.9048375, abs=1e-7)
    assert abs(traj.thetas[-1][0] - np.exp(-0.1)) < 1e-7


def test_zero_field_constant_trajectory():
    theta0 = np.array([0.3, -0.7])
    traj = evolve.solve_ivp(lambda th: np.zeros_like(th), theta0, 1.0, 20)
    assert np.all(traj.thetas == theta0)


def _global_error(n):
    traj = evolve.solve_ivp(lambda th: -th, np.array([1.0]), 1.0, n)
    return abs(traj.thetas[-1][0] - np.exp(-1.0))


def test_rk4_fourth_order():
    hs = [1 / 25, 1 / 50, 1 / 100, 1 / 200, 1 / 400]
    errs = [_global_error(int(round(1 / h))) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 4.0) < 0.2


def test_euler_discrete_bound():
    # forward-Euler error against an RK4-fine path obeys pde_ops.euler_bound,
    # (L_V M_V |Omega| h / 2)(e^{L_V t} - 1), with the exact constants of
    # V = -theta: M_V = max |theta|, L_V = 1, and |Omega| = 1
    field = lambda th: -th
    m_v = float(np.abs(sample_theta(Box(1.0, 1), 512, seed=3)).max())
    h, n = 0.05, 20
    euler = [np.array([1.0])]
    for _ in range(n):
        euler.append(euler[-1] + h * field(euler[-1]))
    fine = evolve.solve_ivp(field, np.array([1.0]), 1.0, n * 20)
    for j, theta in enumerate(euler):
        err = float(np.abs(theta - fine.thetas[j * 20]).max())
        assert err <= pde_ops.euler_bound(1.0, m_v, 1.0, h, j * h) + 1e-12


def test_rk4_chaining_bit_exact():
    field = lambda th: np.sin(th) - 0.5 * th
    theta0 = np.array([0.9, -0.4])
    whole = evolve.solve_ivp(field, theta0, 1.0, 40)
    first = evolve.solve_ivp(field, theta0, 0.5, 20)
    second = evolve.solve_ivp(field, first.thetas[-1], 0.5, 20)
    chained = np.vstack([first.thetas, second.thetas[1:]])
    assert whole.thetas.tobytes() == chained.tobytes()


def test_gen_trajectory_heat_fourier_recursion():
    arch = fourier_sine_arch(8)
    rng = np.random.default_rng(1)
    theta0 = rng.uniform(-1, 1, 8)
    D = -(np.arange(1, 9) * np.pi) ** 2
    h = 1e-5
    traj = evolve.gen_trajectory(
        arch, theta0, pde_ops.Heat(), 10, h, 128, 0
    )
    for j in range(10):
        predicted = (1.0 + h * D) * traj.thetas[j]
        assert np.abs(traj.thetas[j + 1] - predicted).max() < 1e-8


def test_gen_trajectory_zero_initial_is_constant():
    arch = fourier_sine_arch(4)
    traj = evolve.gen_trajectory(
        arch, np.zeros(4), pde_ops.Heat(), 5, 0.01, 64, 0
    )
    assert np.all(traj.thetas == 0.0)
    assert np.all(traj.velocities == 0.0)


def test_gen_trajectory_single_step_contract():
    arch = fourier_sine_arch(3)
    theta0 = np.array([0.5, 0.0, 0.0])
    traj = evolve.gen_trajectory(
        arch, theta0, pde_ops.Heat(), 1, 0.01, 64, 0
    )
    assert traj.thetas.shape == (2, 3)
    assert np.allclose(traj.thetas[1], theta0 + 0.01 * traj.velocities[0])


def test_gen_trajectory_start_that_overflows_blows_up_at_step_0():
    # the Laplacian of the sine modes at theta = 1e307 is past float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolve.gen_trajectory(fourier_sine_arch(2), np.full(2, 1e307), pde_ops.Heat(), 3, 0.01, 16, 0)
    assert traj.blowup_step == 0
    assert traj.thetas.shape == traj.velocities.shape == (0, 2) and traj.times.shape == (0,)


def test_gen_trajectory_step_past_float64_keeps_the_finished_pair():
    theta0 = np.array([1.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolve.gen_trajectory(fourier_sine_arch(2), theta0, pde_ops.Heat(), 3, 1e308, 16, 0)
    assert traj.blowup_step == 1
    assert traj.thetas.tolist() == [theta0.tolist()] and traj.times.tolist() == [0.0]
    assert traj.velocities.shape == (1, 2) and np.all(np.isfinite(traj.velocities))


def test_blowup_guard_aborts_and_flags():
    field = lambda th: 10.0 * th  # exponential growth
    space = Box(1.0, 1)
    traj = evolve.solve_ivp(field, np.array([1.0]), 10.0, 200, theta_space=space)
    assert traj.blowup_step is not None
    assert traj.thetas.shape[0] < 201  # prefix only
    assert np.linalg.norm(traj.thetas[-1]) <= 10.0 * space.diameter() * 1.5
    assert traj.escape_step is not None  # left the box before aborting


def test_escape_flag_without_blowup():
    field = lambda th: np.ones_like(th)  # steady drift out of the box
    space = Box(1.0, 1)
    traj = evolve.solve_ivp(field, np.array([0.9]), 1.0, 10, theta_space=space)
    assert traj.blowup_step is None
    assert traj.escape_step == 2  # 0.9 -> 1.0 -> 1.1


def test_traj_cache_roundtrip(tmp_path):
    arch = fourier_sine_arch(3)
    op = pde_ops.Heat()
    starts = np.array([[0.4, 0.1, 0.0]] * 2)
    trajs = [
        evolve.gen_trajectory(arch, starts[i], op, 4, 0.01, 32, 0,
                              stream_base=100 * i)
        for i in range(2)
    ]
    path = tmp_path / "traj.bin"
    gram_header = assembly.cache_header(arch, op, 32, 0)
    header = evolve.traj_cache_header(gram_header, 0.01, 4, starts)
    evolve.write_traj_cache(path, header, trajs)
    assert [p.name for p in tmp_path.iterdir()] == ["traj.bin"]
    read, thetas, vels = evolve.read_traj_cache(path, header=header)
    assert read == dict(header, shape=[10, 6]) and read["op_tag"] == "heat" and read["n_traj"] == 2
    assert thetas.tobytes() == np.vstack([t.thetas for t in trajs]).tobytes()
    assert vels.tobytes() == np.vstack([t.velocities for t in trajs]).tobytes()
    other = fourier_sine_arch(4)
    with pytest.raises(CacheMismatch, match="arch_hash"):
        evolve.read_traj_cache(path, header=evolve.traj_cache_header(
            assembly.cache_header(other, op, 32, 0), 0.01, 4, np.zeros((2, 4))))
    with pytest.raises(CacheMismatch, match="starts_sha256"):
        evolve.read_traj_cache(path, header=evolve.traj_cache_header(gram_header, 0.01, 4, starts + 1.0))


def test_traj_cache_torn_line_names_the_remedy(tmp_path):
    arch = fourier_sine_arch(2)
    starts = np.array([[0.3, -0.2]])
    traj = evolve.gen_trajectory(arch, starts[0], pde_ops.Heat(), 3, 0.01, 16, 0)
    path = tmp_path / "traj.bin"
    header = evolve.traj_cache_header(assembly.cache_header(arch, pde_ops.Heat(), 16, 0),
                                      0.01, 3, starts)
    evolve.write_traj_cache(path, header, [traj])
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(CacheMismatch, match="holds .* rerun gen-trajectories"):
        evolve.read_traj_cache(path)
