import warnings

import numpy as np
import pytest

from pdecontrol import evolve, pde_ops
from pdecontrol import control_net as cn
from pdecontrol.errors import CacheMismatch, NonFiniteError
from pdecontrol.sampling import AnchorBalls, Box, Purpose, sample_theta

from conftest import artifact_header, fourier_sine_arch, whole_space


def test_rk4_single_step_linear_decay():
    traj = evolve.solve_ivp(lambda th: -th, np.array([1.0]), 0.1, 1, whole_space(1))
    assert traj.thetas[-1][0] == pytest.approx(0.9048375, abs=1e-7)
    assert abs(traj.thetas[-1][0] - np.exp(-0.1)) < 1e-7


def test_zero_field_constant_trajectory():
    theta0 = np.array([0.3, -0.7])
    traj = evolve.solve_ivp(lambda th: np.zeros_like(th), theta0, 1.0, 20, whole_space(2))
    assert np.all(traj.thetas == theta0)


def _global_error(n):
    traj = evolve.solve_ivp(lambda th: -th, np.array([1.0]), 1.0, n, whole_space(1))
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
    m_v = float(np.abs(sample_theta(Box(1.0, 1), 512, seed=3, purpose=Purpose.GRAM_THETA)).max())
    h, n = 0.05, 20
    euler = [np.array([1.0])]
    for _ in range(n):
        euler.append(euler[-1] + h * field(euler[-1]))
    fine = evolve.solve_ivp(field, np.array([1.0]), 1.0, n * 20, whole_space(1))
    for j, theta in enumerate(euler):
        err = float(np.abs(theta - fine.thetas[j * 20]).max())
        assert err <= pde_ops.euler_bound(1.0, m_v, 1.0, h, j * h) + 1e-12


def test_rk4_chaining_bit_exact():
    field = lambda th: np.sin(th) - 0.5 * th
    theta0 = np.array([0.9, -0.4])
    whole = evolve.solve_ivp(field, theta0, 1.0, 40, whole_space(2))
    first = evolve.solve_ivp(field, theta0, 0.5, 20, whole_space(2))
    second = evolve.solve_ivp(field, first.thetas[-1], 0.5, 20, whole_space(2))
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


def _textbook_solve_ivp(V, theta0, horizon, n_steps, theta_space):
    # the RK4 loop with a fresh array per stage and per state
    max_norm = evolve.GUARD_DIAMETER_FACTOR * theta_space.diameter()
    h = horizon / n_steps
    theta = np.ascontiguousarray(theta0, dtype=np.float64).copy()
    thetas = np.empty((n_steps + 1, theta.shape[0]))
    thetas[0] = theta
    blowup = None
    count = 1
    for j in range(n_steps):
        try:
            k1 = V(theta)
            k2 = V(theta + 0.5 * h * k1)
            k3 = V(theta + 0.5 * h * k2)
            k4 = V(theta + h * k3)
            theta = theta + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        except NonFiniteError:
            blowup = j + 1
            break
        if not np.all(np.isfinite(theta)) or np.linalg.norm(theta) > max_norm:
            blowup = j + 1
            break
        thetas[count] = theta
        count += 1
    return thetas[:count], blowup, evolve._first_escape(thetas[:count], theta_space)


def _raises_past(limit):
    def field(th):
        if th[0] > limit:
            raise NonFiniteError("past the limit")
        return 0.8 * th
    return field


def _overflowing_net():
    # a drift of 1 along theta_0 plus one gate that opens at theta_0 = 0.63
    # (the pass's Phi(theta_0 - 9) is exactly 0 below): its GeLU R Phi(R) times
    # tanh(1) times W_out = -1e308 sends theta_0 far out, where the output
    # overflows to -inf
    arch = cn.ControlArch(input_dim=2, width=4, depth=2)
    xi = np.zeros(cn.control_param_count(arch))
    _, _, [(_, b, Ubar, bbar)], W_out, b_out = cn._unpack(arch, xi)
    b[:], Ubar[:, 0], bbar[:], W_out[:], b_out[0] = 1.0, 1.0, -9.0, -1e308, 1.0
    return cn.ControlNet(arch, xi)


def _rk4_case(kind, rng):
    """(field, theta0, horizon, n_steps, theta_space); whole_space, whose
    guard norm is infinite, where only a non-finite state may stop the
    solve."""
    if kind == "control_net":
        arch = cn.ControlArch(input_dim=5, width=16, depth=3)
        xi = cn.init_control_params(arch, 0) + 0.3 * rng.standard_normal(cn.control_param_count(arch))
        return cn.ControlNet(arch, xi), rng.uniform(-0.5, 0.5, 5), 0.5, 40, Box(5.0, 5)
    if kind == "control_net_overflows":
        return _overflowing_net(), np.array([-0.5, 0.25]), 2.0, 40, whole_space(2)
    if kind == "control_net_overflows_in_a_box":
        return _overflowing_net(), np.array([-0.5, 0.25]), 2.0, 40, Box(1.0, 2)
    if kind == "squares_past_float64":
        # |theta|^2 overflows from 1e154 on while theta stays finite
        return (lambda th: th), np.array([1e153, -1e153]), 3.0, 30, whole_space(2)
    if kind == "raises_mid_step":
        return _raises_past(1.3), np.array([1.0, -0.5]), 1.0, 20, whole_space(2)
    if kind == "overflows_to_inf":
        return (lambda th: th * th), np.array([1.0, 0.5]), 2.0, 50, whole_space(2)
    if kind == "escapes_the_box":
        return (lambda th: np.full_like(th, 0.7)), np.array([0.5, -0.2]), 2.0, 20, Box(1.0, 2)
    # guard-norm abort on a field that returns its own input
    return (lambda th: th), np.array([0.5, 0.5]), 10.0, 100, Box(1.0, 2)


@pytest.mark.parametrize("kind", ["control_net", "control_net_overflows", "control_net_overflows_in_a_box",
                                  "raises_mid_step", "overflows_to_inf", "squares_past_float64", "escapes_the_box",
                                  "guard_norm"])
def test_rk4_in_buffers_equals_the_textbook_loop(rng, kind):
    field, theta0, horizon, n_steps, space = _rk4_case(kind, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid-value warning leaves the solve
        traj = evolve.solve_ivp(field, theta0, horizon, n_steps, theta_space=space)
    with np.errstate(over="ignore", invalid="ignore"):
        thetas, blowup, escape = _textbook_solve_ivp(field, theta0, horizon, n_steps, theta_space=space)
        squares = thetas[-1].dot(thetas[-1])
    assert np.array_equal(traj.thetas, thetas)
    assert traj.blowup_step == blowup and traj.escape_step == escape
    assert (blowup is None) == (kind in ("control_net", "squares_past_float64", "escapes_the_box"))
    assert (escape is None) == (kind != "escapes_the_box" and kind != "guard_norm")
    # the net blows up mid-solve, where the box's guard stops it a step
    # earlier; the last state's squares overflow, a blow-up only in a box of
    # finite width
    assert not kind.startswith("control_net_overflows") or 1 < blowup < n_steps
    assert kind != "squares_past_float64" or squares == np.inf


def test_a_solve_on_a_control_net_calls_forward_four_times_a_step(rng, monkeypatch):
    # the benchmark's tracer counts control_net.forward's calls, rows and time
    arch = cn.ControlArch(input_dim=3, width=8, depth=3)
    net = cn.ControlNet(arch, cn.init_control_params(arch, 0) + 0.3 * rng.standard_normal(cn.control_param_count(arch)))
    rows = []
    forward = cn.forward

    def counted(net, theta):
        rows.append(np.shape(theta))
        return forward(net, theta)

    monkeypatch.setattr(cn, "forward", counted)
    traj = evolve.solve_ivp(net, rng.uniform(-0.5, 0.5, 3), 0.5, 7, whole_space(3))
    assert traj.blowup_step is None and traj.thetas.shape == (8, 3)
    assert rows == [(3,)] * 4 * 7


def _per_row_escape(thetas, space):
    # the scan one row at a time, with the membership formulas written out
    for j, theta in enumerate(thetas):
        if isinstance(space, Box):
            inside = np.all(np.abs(theta) <= space.half_width)
        else:
            inside = np.linalg.norm(space.anchors - theta[None, :], axis=1).min() <= space.radius
        if not inside:
            return j
    return None


def _escape_cases(rng, kind):
    """(space, rows inside it with some exactly on its boundary, a row
    outside)."""
    m = 5
    if kind == "box":
        space = Box(0.5, m)
        rows = rng.uniform(-0.45, 0.45, (9, m))
        rows[2, 1] = 0.5
        rows[5, [0, 4]] = -0.5
        return space, rows, np.full(m, np.nextafter(0.5, 1.0))
    anchors = rng.uniform(-2, 2, (4, m))
    rows = anchors[rng.integers(0, 4, 9)] + rng.uniform(-0.3, 0.3, (9, m))
    # the radius is row 4's distance as the per-row formula computes it, so
    # row 4 lies exactly on the boundary
    radius = np.linalg.norm(anchors - rows[4][None, :], axis=1).min()
    space = AnchorBalls(anchors, radius)
    inside = [np.linalg.norm(anchors - r[None, :], axis=1).min() <= radius for r in rows]
    return space, rows[inside], anchors[0] + 10.0 * radius


@pytest.mark.parametrize("kind", ["box", "anchor_balls"])
def test_escape_step_equals_the_per_row_scan(rng, kind):
    space, rows, outside = _escape_cases(rng, kind)
    n = rows.shape[0]
    assert n >= 4
    cases = [rows, np.vstack([outside, rows]), np.vstack([rows, outside]),
             np.vstack([rows[:2], outside, rows[2:], outside])]
    want = [None, 0, n, 2]
    for thetas, expect in zip(cases, want):
        assert _per_row_escape(thetas, space) == expect
        assert evolve._first_escape(thetas, space) == expect
    assert evolve._first_escape(np.vstack([rows, outside]), whole_space(rows.shape[1])) is None


def test_traj_cache_roundtrip(tmp_path):
    arch = fourier_sine_arch(3)
    op = pde_ops.Heat()
    starts = np.array([[0.4, 0.1, 0.0]] * 2)
    trajs = [
        evolve.gen_trajectory(arch, starts[i], op, 4, 0.01, 32, 0, index=i)
        for i in range(2)
    ]
    path = tmp_path / "traj.bin"
    record = artifact_header("traj_cache", {"counts.n_traj": 2, "counts.n_t": 4})
    evolve.write_traj_cache(path, dict(record, m=3, h=0.01), trajs)
    assert [p.name for p in tmp_path.iterdir()] == ["traj.bin"]
    read, thetas, vels = evolve.read_traj_cache(path, record)
    assert read == {**record, "m": 3, "h": 0.01, "shape": [10, 6]}
    assert thetas.tobytes() == np.vstack([t.thetas for t in trajs]).tobytes()
    assert vels.tobytes() == np.vstack([t.velocities for t in trajs]).tobytes()
    with pytest.raises(CacheMismatch, match="'counts.n_t' .* rerun gen-trajectories"):
        evolve.read_traj_cache(path, artifact_header("traj_cache", {"counts.n_traj": 2, "counts.n_t": 5}))


def test_traj_cache_torn_line_names_the_remedy(tmp_path):
    arch = fourier_sine_arch(2)
    starts = np.array([[0.3, -0.2]])
    traj = evolve.gen_trajectory(arch, starts[0], pde_ops.Heat(), 3, 0.01, 16, 0)
    path = tmp_path / "traj.bin"
    evolve.write_traj_cache(path, dict(artifact_header("traj_cache"), m=2, h=0.01), [traj])
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(CacheMismatch, match="holds .* rerun gen-trajectories"):
        evolve.read_traj_cache(path, artifact_header("traj_cache"))
