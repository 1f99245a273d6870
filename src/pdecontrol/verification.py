"""Self-contained verification suites behind the `verify` command: derivative
checks, solver-order measurements, projection oracles, the descent-lemma
bound, the Gronwall/Euler bound checks, and determinism/resume contracts.

Each check returns a VerifyResult; the CLI prints one line per check and
fails with a dedicated exit code if any is false.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import assembly, control_net as cn, evolve, linalg, pde_ops, reference, rom
from .sampling import Box, rng_for, sample_theta


@dataclass
class VerifyResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return VerifyResult(name=name, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------------------
# derivative checks


def check_rom_gradients(n_cases: int = 100, seed: int = 0, tol: float = 1e-4) -> VerifyResult:
    """grad_theta, grad_x, laplacian vs central finite differences."""
    rng = rng_for(seed, stream=21)
    archs = [
        rom.RomArch("resnet_zero_boundary", 1, 5, 3, "tanh", {"family": "unit_box"}),
        rom.RomArch("resnet_zero_boundary", 2, 4, 2, "tanh", {"family": "sym_box"}),
        rom.RomArch("resnet_periodic", 1, 5, 3, "tanh"),
        rom.RomArch("resnet_periodic", 2, 4, 2, "relu"),
        rom.fourier_sine_arch(6),
    ]
    worst = 0.0
    flags = rom.EvalFlags(value=True, grad_x=True, laplacian=True, grad_theta=True)
    for case in range(n_cases):
        arch = archs[case % len(archs)]
        use_lap = arch.activation != "relu"
        theta = rom.init_params(arch, seed + case) + 0.25 * rng.standard_normal(rom.param_count(arch))
        model = rom.RomModel(arch, theta)
        d = arch.input_dim
        if arch.kind == "resnet_zero_boundary" and arch.wrapper_spec.get("family") == "sym_box":
            x = rng.uniform(-0.9, 0.9, (1, d))
        else:
            x = rng.uniform(0.07, 0.93, (1, d))
        ev = rom.eval_batch(model, x, flags)

        def val_at(th, pts):
            return rom.eval_batch(rom.RomModel(arch, th), pts, rom.EvalFlags(value=True)).value

        h = 1e-5
        picks = rng.choice(theta.size, size=min(6, theta.size), replace=False)
        for j in picks:
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd = (val_at(tp, x) - val_at(tm, x))[0] / (2 * h)
            scale = max(abs(fd), 1e-2)
            worst = max(worst, abs(ev.grad_theta[0, j] - fd) / scale)
        for i in range(d):
            xp, xm = x.copy(), x.copy()
            xp[0, i] += h
            xm[0, i] -= h
            fd = (val_at(theta, xp) - val_at(theta, xm))[0] / (2 * h)
            scale = max(abs(fd), 1e-2)
            worst = max(worst, abs(ev.grad_x[0, i] - fd) / scale)
        if use_lap:
            lap_fd = _laplacian_fd(lambda pts: val_at(theta, pts), x)
            scale = max(abs(lap_fd), 1e-1)
            worst = max(worst, abs(ev.laplacian[0] - lap_fd) / scale)
    return _result("rom-gradients-vs-fd", worst < tol, f"max rel err {worst:.3e} (tol {tol:g})")


def _laplacian_fd(f, x: np.ndarray) -> float:
    """Richardson-extrapolated central second difference, summed over axes."""
    def second(hh):
        acc = 0.0
        base = f(x)[0]
        for i in range(x.shape[1]):
            xp, xm = x.copy(), x.copy()
            xp[0, i] += hh
            xm[0, i] -= hh
            acc += (f(xp)[0] - 2 * base + f(xm)[0]) / hh**2
        return acc

    c1, c2 = second(4e-3), second(2e-3)
    return (4.0 * c2 - c1) / 3.0


def check_control_gradients(n_cases: int = 100, seed: int = 1, tol: float = 1e-4) -> VerifyResult:
    """Analytic xi-gradients of both losses vs central finite differences."""
    rng = rng_for(seed, stream=22)
    arch = cn.ControlArch(input_dim=5, width=8, depth=3)
    size = cn.control_param_count(arch)
    worst = 0.0
    for case in range(n_cases):
        xi = cn.init_control_params(arch, seed + case) + 0.2 * rng.standard_normal(size)
        net = cn.ControlNet(arch, xi)
        A = rng.standard_normal((5, 5))
        draws = [(rng.uniform(-1, 1, 5), rng.standard_normal(5)) for _ in range(2)]
        gram = (np.array([th for th, _ in draws]), np.stack([A @ A.T / 5.0] * 2), np.array([p for _, p in draws]))
        pairs = (rng.uniform(-1, 1, (3, 5)), rng.standard_normal((3, 5)))
        _, g1 = cn.loss_l1(net, *gram)
        _, g2 = cn.loss_l2(net, pairs)
        h = 1e-6
        for j in rng.choice(size, size=4, replace=False):
            xp, xm = xi.copy(), xi.copy()
            xp[j] += h
            xm[j] -= h
            f1p, _ = cn.loss_l1(cn.ControlNet(arch, xp), *gram)
            f1m, _ = cn.loss_l1(cn.ControlNet(arch, xm), *gram)
            fd1 = (f1p - f1m) / (2 * h)
            worst = max(worst, abs(g1[j] - fd1) / max(abs(fd1), 1e-2))
            f2p, _ = cn.loss_l2(cn.ControlNet(arch, xp), pairs)
            f2m, _ = cn.loss_l2(cn.ControlNet(arch, xm), pairs)
            fd2 = (f2p - f2m) / (2 * h)
            worst = max(worst, abs(g2[j] - fd2) / max(abs(fd2), 1e-2))
    return _result("control-loss-gradients-vs-fd", worst < tol, f"max rel err {worst:.3e} (tol {tol:g})")


# ---------------------------------------------------------------------------
# solver orders and discrete bound


def _order_slope(scheme: str) -> float:
    hs = np.array([1.0 / 25, 1.0 / 50, 1.0 / 100, 1.0 / 200, 1.0 / 400])
    errs = []
    for h in hs:
        n = int(round(1.0 / h))
        traj = evolve.solve_ivp(lambda th: -th, np.array([1.0]), 1.0, n, scheme=scheme)
        errs.append(abs(traj.thetas[-1][0] - np.exp(-1.0)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)


def check_solver_orders() -> VerifyResult:
    s_rk4 = _order_slope("rk4")
    s_euler = _order_slope("euler")
    ok = abs(s_rk4 - 4.0) <= 0.2 and abs(s_euler - 1.0) <= 0.1
    return _result("ode-solver-orders", ok, f"rk4 slope {s_rk4:.3f}, euler slope {s_euler:.3f}")


def check_euler_discrete_bound() -> VerifyResult:
    """Euler error against an RK4-fine path obeys (h M_V / 2)(e^{L_V t} - 1)."""
    field = lambda th: -th
    theta0 = np.array([1.0])
    space = Box(half_width=1.0, dim=1)
    batch = sample_theta(space, 512, seed=3)
    # the exact constants of V = -theta: |V(theta)| = |theta| and L_V = 1
    m_v, l_v = float(np.abs(batch.points).max()), 1.0
    h = 0.05
    n = int(round(1.0 / h))
    euler = evolve.solve_ivp(field, theta0, 1.0, n, scheme="euler")
    fine = evolve.solve_ivp(field, theta0, 1.0, n * 20, scheme="rk4")
    ok = True
    worst = -np.inf
    for j, t in enumerate(euler.times):
        ref = fine.thetas[j * 20]
        err = float(np.abs(euler.thetas[j] - ref).max())
        bound = 0.5 * h * m_v * np.expm1(l_v * t)
        worst = max(worst, err - bound)
        if err > bound + 1e-12:
            ok = False
    return _result(
        "euler-discrete-bound",
        ok,
        f"max (err - bound) = {worst:.3e}; M_V={m_v:.3f}, L_V={l_v:.3f}",
    )


# ---------------------------------------------------------------------------
# projection oracles


def check_gram_oracles() -> VerifyResult:
    dom = (np.array([0.0]), np.array([1.0]))
    arch = rom.fourier_sine_arch(4)
    theta = np.array([1.0, 0.0, 0.0, 0.0])
    rec = assembly.assemble_at(arch, theta, pde_ops.Heat(), dom, 96, 0, stream=0, quadrature="gauss")
    err_g = np.abs(rec.gram - np.eye(4)).max()
    expect_p = np.array([-np.pi**2, 0.0, 0.0, 0.0])
    err_p = np.abs(rec.rhs - expect_p).max()

    mono = rom.RomArch("linear_basis", 1, basis_spec=(("monomial", 1), ("monomial", 2)))
    rec2 = assembly.assemble_at(mono, np.array([1.0, 0.0]), pde_ops.Heat(), dom, 16, 0, stream=0, quadrature="gauss")
    expect_g = np.array([[1 / 3, 1 / 4], [1 / 4, 1 / 5]])
    err_m = np.abs(rec2.gram - expect_g).max()
    ok = err_g < 1e-10 and err_p < 1e-10 and err_m < 1e-12
    return _result(
        "gram-oracles",
        ok,
        f"|G-I|={err_g:.2e}, |p-(-pi^2)e1|={err_p:.2e}, monomial gram err={err_m:.2e}",
    )


def check_descent_lemma(n_quadratics: int = 200, seed: int = 5) -> VerifyResult:
    """Gradient descent on psi(w) = w^T G w - 2 w^T p from w = 0 obeys
    psi(w_K) - psi(v*) <= |v*|^2 / (2 K h) for K = 1..100, zero violations."""
    rng = rng_for(seed, stream=23)
    violations = 0
    for _ in range(n_quadratics):
        m = int(rng.integers(2, 7))
        A = rng.standard_normal((m, m))
        G = A @ A.T / m + 0.05 * np.eye(m)
        p = rng.standard_normal(m)
        lam = linalg.sym_eig_max(G)
        h = float(rng.uniform(0.05, 0.95)) / lam
        v_star = linalg.ridge_solve(G, p, 0.0)
        psi_star = float(v_star @ (G @ v_star) - 2.0 * v_star @ p)
        w = np.zeros(m)
        for k in range(1, 101):
            w = w - h * 2.0 * (G @ w - p)
            gap = float(w @ (G @ w) - 2.0 * w @ p) - psi_star
            bound = float(v_star @ v_star) / (2.0 * k * h)
            if gap > bound + 1e-10:
                violations += 1
    return _result("descent-lemma-bound", violations == 0, f"{violations} violations over {n_quadratics} quadratics")


def check_theory_bound_shape() -> VerifyResult:
    """Monotone growth when the rate is nonnegative; t=0 returns eps0."""
    op = pde_ops.AllenCahn(epsilon=1e-4)
    ts = np.linspace(0.0, 2.0, 40)
    vals = [pde_ops.theory_bound(op, 1.0, 0.02, 0.1, t) for t in ts]
    monotone = all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    at0 = pde_ops.theory_bound(pde_ops.Heat(), 0.5, 0.37, 1.0, 0.0)
    return _result("theory-bound-shape", monotone and abs(at0 - 0.37) < 1e-15, f"monotone={monotone}")


# ---------------------------------------------------------------------------
# determinism and resume


def check_cache_determinism(tmp_dir: str | None = None) -> VerifyResult:
    """assemble_batch: rerun is a no-op; 1 thread vs 4 threads byte-identical."""
    dom = (np.array([0.0]), np.array([1.0]))
    arch = rom.RomArch("resnet_zero_boundary", 1, 4, 2, "tanh", {"family": "unit_box"})
    thetas = sample_theta(Box(half_width=1.0, dim=rom.param_count(arch)), 12, seed=9)
    ctx = tempfile.TemporaryDirectory() if tmp_dir is None else None
    root = tmp_dir or ctx.name
    try:
        p1 = os.path.join(root, "a.bin")
        p2 = os.path.join(root, "b.bin")
        assembly.assemble_batch(arch, thetas, pde_ops.Heat(), 64, 3, p1, dom, threads=1)
        b1 = open(p1, "rb").read()
        assembly.assemble_batch(arch, thetas, pde_ops.Heat(), 64, 3, p1, dom, threads=1)
        b1_rerun = open(p1, "rb").read()
        assembly.assemble_batch(arch, thetas, pde_ops.Heat(), 64, 3, p2, dom, threads=4)
        b2 = open(p2, "rb").read()
        resume_ok = b1 == b1_rerun
        thread_ok = b1 == b2
        # partial resume: cut the file inside the seventh record and rerun
        m = rom.param_count(arch)
        record = 8 * (2 * m + m * m + 1)
        with open(p1, "wb") as fh:
            fh.write(b1[: len(b1) - 6 * record + 100])
        assembly.assemble_batch(arch, thetas, pde_ops.Heat(), 64, 3, p1, dom, threads=2)
        resume_partial_ok = open(p1, "rb").read() == b1
    finally:
        if ctx is not None:
            ctx.cleanup()
    ok = resume_ok and thread_ok and resume_partial_ok
    return _result(
        "cache-determinism-resume",
        ok,
        f"rerun no-op={resume_ok}, threads byte-identical={thread_ok}, partial resume={resume_partial_ok}",
    )


def check_csv_determinism(tmp_dir: str | None = None) -> VerifyResult:
    """Identical seeds give byte-identical error-curve CSVs."""
    arch = rom.fourier_sine_arch(3)
    theta0 = np.array([0.7, -0.2, 0.1])
    dom = (np.array([0.0]), np.array([1.0]))
    traj = evolve.gen_trajectory(arch, theta0, pde_ops.Heat(), dom, 20, 1e-3, 64, 2, lambda_reg=0.0, quadrature="gauss")
    s2 = np.sqrt(2.0)
    ref = reference.HeatSeries(modes=(((1,), 0.7 * s2), ((2,), -0.2 * s2), ((3,), 0.1 * s2)))
    ctx = tempfile.TemporaryDirectory() if tmp_dir is None else None
    root = tmp_dir or ctx.name
    try:
        pa, pb = os.path.join(root, "c1.csv"), os.path.join(root, "c2.csv")
        for path in (pa, pb):
            curve = reference.error_curve(arch, traj, ref, dom, 512, seed=13)
            reference.save_error_curve(curve, path)
        ok = open(pa, "rb").read() == open(pb, "rb").read()
    finally:
        if ctx is not None:
            ctx.cleanup()
    return _result("csv-determinism", ok, "two runs byte-identical" if ok else "curves differ")


ALL_CHECKS = (
    check_rom_gradients,
    check_control_gradients,
    check_solver_orders,
    check_euler_discrete_bound,
    check_gram_oracles,
    check_descent_lemma,
    check_theory_bound_shape,
    check_cache_determinism,
    check_csv_determinism,
)


def run_all(checks=ALL_CHECKS) -> list[VerifyResult]:
    return [check() for check in checks]


def write_report(results: list[VerifyResult], path) -> None:
    doc = {
        "passed": all(r.passed for r in results),
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
