import numpy as np
import pytest

from pdecontrol import control_net as cn, evolve, pde_ops, rom
from pdecontrol.errors import CacheMismatch
from pdecontrol.sampling import Box, sample_theta


def test_rk4_single_step_linear_decay():
    traj = evolve.solve_ivp(lambda th: -th, np.array([1.0]), 0.1, 1, scheme="rk4")
    assert traj.thetas[-1][0] == pytest.approx(0.9048375, abs=1e-7)
    assert abs(traj.thetas[-1][0] - np.exp(-0.1)) < 1e-7


def test_zero_field_constant_trajectory():
    theta0 = np.array([0.3, -0.7])
    traj = evolve.solve_ivp(lambda th: np.zeros_like(th), theta0, 1.0, 20)
    assert np.all(traj.thetas == theta0)


def _global_error(scheme, n):
    traj = evolve.solve_ivp(lambda th: -th, np.array([1.0]), 1.0, n, scheme=scheme)
    return abs(traj.thetas[-1][0] - np.exp(-1.0))


def test_euler_first_order():
    errs = [_global_error("euler", n) for n in (50, 100, 200, 400)]
    slopes = np.diff(np.log(errs)) / np.log(0.5)
    assert np.all(np.abs(np.array(slopes) - 1.0) < 0.1)


def test_rk4_fourth_order():
    hs = [1 / 25, 1 / 50, 1 / 100, 1 / 200, 1 / 400]
    errs = [_global_error("rk4", int(round(1 / h))) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 4.0) < 0.2


def test_euler_discrete_bound():
    # Euler error against an RK4-fine path obeys (h M_V / 2)(e^{L_V t} - 1)
    # with the exact constants of V = -theta: M_V = max |theta|, L_V = 1
    field = lambda th: -th
    m_v = float(np.abs(sample_theta(Box(1.0, 1), 512, seed=3).points).max())
    h, n = 0.05, 20
    euler = evolve.solve_ivp(field, np.array([1.0]), 1.0, n, scheme="euler")
    fine = evolve.solve_ivp(field, np.array([1.0]), 1.0, n * 20, scheme="rk4")
    for j, t in enumerate(euler.times):
        err = float(np.abs(euler.thetas[j] - fine.thetas[j * 20]).max())
        assert err <= 0.5 * h * m_v * np.expm1(t) + 1e-12


def test_euler_chaining_bit_exact():
    field = lambda th: np.sin(th) - 0.5 * th
    theta0 = np.array([0.9, -0.4])
    whole = evolve.solve_ivp(field, theta0, 1.0, 40, scheme="euler")
    first = evolve.solve_ivp(field, theta0, 0.5, 20, scheme="euler")
    second = evolve.solve_ivp(field, first.thetas[-1], 0.5, 20, scheme="euler")
    chained = np.vstack([first.thetas, second.thetas[1:]])
    assert whole.thetas.tobytes() == chained.tobytes()


def test_gen_trajectory_heat_fourier_recursion(unit_interval):
    arch = rom.fourier_sine_arch(8)
    rng = np.random.default_rng(1)
    theta0 = rng.uniform(-1, 1, 8)
    D = -(np.arange(1, 9) * np.pi) ** 2
    h = 1e-5
    traj = evolve.gen_trajectory(
        arch, theta0, pde_ops.Heat(), unit_interval, 10, h, 128, 0, lambda_reg=0.0, quadrature="gauss"
    )
    for j in range(10):
        predicted = (1.0 + h * D) * traj.thetas[j]
        assert np.abs(traj.thetas[j + 1] - predicted).max() < 1e-8


def test_gen_trajectory_zero_initial_is_constant(unit_interval):
    arch = rom.fourier_sine_arch(4)
    traj = evolve.gen_trajectory(
        arch, np.zeros(4), pde_ops.Heat(), unit_interval, 5, 0.01, 64, 0, lambda_reg=0.0, quadrature="gauss"
    )
    assert np.all(traj.thetas == 0.0)
    assert np.all(traj.velocities == 0.0)


def test_gen_trajectory_single_step_contract(unit_interval):
    arch = rom.fourier_sine_arch(3)
    theta0 = np.array([0.5, 0.0, 0.0])
    traj = evolve.gen_trajectory(
        arch, theta0, pde_ops.Heat(), unit_interval, 1, 0.01, 64, 0, lambda_reg=0.0, quadrature="gauss"
    )
    assert traj.thetas.shape == (2, 3)
    assert np.allclose(traj.thetas[1], theta0 + 0.01 * traj.velocities[0])


def test_field_stats_zero_and_constant():
    space = Box(1.0, 3)
    batch = sample_theta(space, 64, seed=0)
    arch = cn.ControlArch(input_dim=3, width=8, depth=2)
    xi = np.zeros(cn.control_param_count(arch))
    m_v, l_v = evolve.field_stats(cn.ControlNet(arch, xi), batch)
    assert (m_v, l_v) == (0.0, 0.0)
    c = np.array([1.0, -2.0, 2.0])
    xi[-3:] = c  # b_out: the constant field V = c
    m_v, l_v = evolve.field_stats(cn.ControlNet(arch, xi), batch)
    assert m_v == pytest.approx(3.0)
    assert l_v < 1e-6


def test_field_stats_linear_field(rng):
    A = rng.standard_normal((4, 4))
    sigma = np.linalg.svd(A, compute_uv=False)[0]
    space = Box(1.0, 4)
    batch = sample_theta(space, 128, seed=3)
    # V(theta) = A tanh(eps theta) / eps: zero gates leave eta = tanh(eps
    # theta), so V = A theta + O(eps^2) with |V(theta)| <= ||A|| |theta|
    eps = 1e-3
    arch = cn.ControlArch(input_dim=4, width=4, depth=2)
    xi = np.zeros(cn.control_param_count(arch))
    U0, _, _, W_out, _ = cn._unpack(arch, xi)
    U0[:] = eps * np.eye(4)
    W_out[:] = A / eps
    m_v, l_v = evolve.field_stats(cn.ControlNet(arch, xi), batch)
    assert m_v <= sigma * 2.0 + 1e-9  # |A theta| <= ||A|| |theta|, |theta| <= 2
    assert abs(l_v - sigma) / sigma < 0.1


def test_field_stats_on_control_net(rng):
    arch = cn.ControlArch(input_dim=3, width=8, depth=2)
    xi = cn.init_control_params(arch, 0) + 0.3 * rng.standard_normal(cn.control_param_count(arch))
    net = cn.ControlNet(arch, xi)
    batch = sample_theta(Box(1.0, 3), 64, seed=5)
    m_v, l_v = evolve.field_stats(net, batch)
    vals = cn.forward(net, batch.points)
    assert m_v == pytest.approx(np.linalg.norm(vals, axis=1).max())
    # compare against dense Jacobians from jvp columns
    worst = 0.0
    for p in batch.points[:16]:
        J = np.stack(
            [cn.jvp_theta(net, p[None, :], e[None, :])[0] for e in np.eye(3)], axis=1
        )
        worst = max(worst, np.linalg.svd(J, compute_uv=False)[0])
    assert l_v == pytest.approx(worst, rel=0.1)


def test_blowup_guard_aborts_and_flags():
    field = lambda th: 10.0 * th  # exponential growth
    space = Box(1.0, 1)
    traj = evolve.solve_ivp(field, np.array([1.0]), 10.0, 200, scheme="euler", theta_space=space)
    assert traj.blowup_step is not None
    assert traj.thetas.shape[0] < 201  # prefix only
    assert np.linalg.norm(traj.thetas[-1]) <= 10.0 * space.diameter() * 1.5
    assert traj.escape_step is not None  # left the box before aborting


def test_escape_flag_without_blowup():
    field = lambda th: np.ones_like(th)  # steady drift out of the box
    space = Box(1.0, 1)
    traj = evolve.solve_ivp(field, np.array([0.9]), 1.0, 10, theta_space=space)
    assert traj.blowup_step is None
    assert traj.escaped and traj.escape_step == 2  # 0.9 -> 1.0 -> 1.1


def test_traj_cache_roundtrip(tmp_path, unit_interval):
    arch = rom.fourier_sine_arch(3)
    op = pde_ops.Heat()
    trajs = [
        evolve.gen_trajectory(arch, np.array([0.4, 0.1, 0.0]), op, unit_interval, 4, 0.01, 32, 0,
                              lambda_reg=0.0, quadrature="gauss", stream_base=100 * i)
        for i in range(2)
    ]
    path = tmp_path / "traj.jsonl"
    evolve.write_traj_cache(path, evolve.traj_cache_header(arch, op, 0.01, 32, 0), trajs)
    header, thetas, vels = evolve.read_traj_cache(path, expect_arch=arch)
    assert header["op_tag"] == "heat"
    assert thetas.shape == (10, 3) and vels.shape == (10, 3)
    with pytest.raises(CacheMismatch):
        evolve.read_traj_cache(path, expect_arch=rom.fourier_sine_arch(4))
