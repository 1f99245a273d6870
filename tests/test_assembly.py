import json

import numpy as np
import pytest

from pdecontrol import assembly, linalg, pde_ops, rom
from pdecontrol.errors import CacheMismatch, MissingArtifact, PdeControlError
from pdecontrol.sampling import Box, sample_omega, sample_theta

from conftest import fourier_sine_arch


# Unrolled gradient descent on the projection quadratic: the oracle the
# descent-lemma tests check the ridge solve and the projection system against.


class StepTooLarge(ValueError):
    """Gradient-descent step size violates the stability bound h < 1/lambda_max."""


def quadratic_objective(record: assembly.GramRecord, w: np.ndarray, constant: float = 0.0) -> float:
    """psi(w) = w^T G w - 2 w^T p (+ constant; the |F|^2 term is w-free)."""
    return float(w @ (record.gram @ w) - 2.0 * w @ record.rhs + constant)


def gd_projection_field(record: assembly.GramRecord, n_steps: int, h: float) -> np.ndarray:
    """K-step gradient descent on the projection quadratic from w = 0.

    Requires 0 < h < 1/lambda_max(G); grad psi(w) = 2(Gw - p).
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    lam = np.linalg.eigvalsh(record.gram)[-1]
    if h <= 0 or (lam > 0 and h >= 1.0 / lam):
        raise StepTooLarge(f"need 0 < h < 1/lambda_max = {1.0 / lam if lam > 0 else np.inf:g}")
    w = np.zeros_like(record.rhs)
    G, p = record.gram, record.rhs
    for _ in range(n_steps):
        w = w - h * 2.0 * (G @ w - p)
    return w


def test_fourier_gram_is_identity():
    arch = fourier_sine_arch(4)
    rec = assembly.assemble_at(
        arch, np.array([0.3, -0.2, 0.9, 0.0]), pde_ops.Heat(), 96, 0, stream=0
    )
    assert np.abs(rec.gram - np.eye(4)).max() < 1e-10


def test_net_gram_is_the_mean_outer_product_at_its_points(rng):
    # a net's G is no identity: it is mean g g^T over the record's own Monte-Carlo points
    arch = rom.RomArch("resnet_zero_boundary", 1, 4, 2, "tanh")
    theta = rom.init_params(arch, 0) + 0.3 * rng.standard_normal(rom.param_count(arch))
    rec = assembly.assemble_at(arch, theta, pde_ops.Heat(), 64, 7, stream=3)
    X = sample_omega(arch.domain, 64, 7, stream=3)
    ev = rom.eval_batch(rom.RomModel(arch, theta), X, rom.EvalFlags(laplacian=True, grad_theta=True))
    gt = ev.grad_theta
    assert np.allclose(rec.gram, gt.T @ gt / 64, rtol=1e-12, atol=1e-15)
    assert np.allclose(rec.rhs, gt.T @ ev.laplacian / 64, rtol=1e-12, atol=1e-15)
    assert np.abs(rec.gram - np.diag(np.diag(rec.gram))).max() > 1e-3


def test_heat_rhs_eigenmode():
    arch = fourier_sine_arch(4)
    theta = np.array([1.0, 0.0, 0.0, 0.0])
    rec = assembly.assemble_at(arch, theta, pde_ops.Heat(), 96, 0, stream=0)
    assert np.allclose(rec.rhs, [-np.pi**2, 0.0, 0.0, 0.0], atol=1e-10)


def test_gram_exactly_symmetric_and_psd(rng, unit_interval):
    arch = rom.RomArch("resnet_zero_boundary", 1, 5, 2, "tanh")
    theta = rom.init_params(arch, 0) + 0.3 * rng.standard_normal(rom.param_count(arch))
    xs = sample_omega(unit_interval, 64, seed=4)
    rec = assembly.assemble(rom.RomModel(arch, theta), pde_ops.Heat(), xs)
    assert np.array_equal(rec.gram, rec.gram.T)
    for _ in range(20):
        v = rng.standard_normal(rec.gram.shape[0])
        assert v @ rec.gram @ v >= -1e-12


def test_monte_carlo_consistency_rate(unit_interval):
    # || G_tilde - I ||_max should roughly halve when N_x quadruples
    arch = fourier_sine_arch(4)
    theta = np.array([0.5, 0.5, 0.0, -0.5])
    errs = []
    for n_x in (250, 1000, 4000):
        trials = []
        for seed in range(8):
            xs = sample_omega(unit_interval, n_x, seed=seed)
            rec = assembly.assemble(rom.RomModel(arch, theta), pde_ops.Heat(), xs)
            trials.append(np.abs(rec.gram - np.eye(4)).max())
        errs.append(np.mean(trials))
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]
    assert errs[2] < errs[0] / 4.0 * 3.0  # ~1/2 per quadrupling, 3x slack


def test_cache_resume_determinism(tmp_path):
    arch = rom.RomArch("resnet_zero_boundary", 1, 4, 2, "tanh")
    thetas = sample_theta(Box(1.0, rom.param_count(arch)), 10, seed=1)
    p1 = tmp_path / "cache1.bin"
    stats = assembly.assemble_batch(arch, thetas, pde_ops.Heat(), 32, 7, p1)
    assert stats["computed"] == 10
    payload = p1.read_bytes()

    stats2 = assembly.assemble_batch(arch, thetas, pde_ops.Heat(), 32, 7, p1)
    assert stats2["computed"] == 0 and stats2["resumed"] == 10
    assert p1.read_bytes() == payload

    # a run cut after four records, resumed over all ten
    p2 = tmp_path / "cache2.bin"
    assembly.assemble_batch(arch, thetas[:4], pde_ops.Heat(), 32, 7, p2)
    stats3 = assembly.assemble_batch(arch, thetas, pde_ops.Heat(), 32, 7, p2)
    assert stats3["resumed"] == 4 and stats3["computed"] == 6
    assert p2.read_bytes() == payload

    p3 = tmp_path / "cache3.bin"
    assembly.assemble_batch(arch, thetas, pde_ops.Heat(), 32, 7, p3)
    assert p3.read_bytes() == payload


def test_cache_header_mismatch(tmp_path):
    arch = fourier_sine_arch(3)
    thetas = sample_theta(Box(1.0, 3), 2, seed=0)
    path = tmp_path / "c.bin"
    assembly.assemble_batch(arch, thetas, pde_ops.Heat(), 16, 0, path)
    with pytest.raises(CacheMismatch):
        assembly.assemble_batch(arch, thetas, pde_ops.Heat(), 32, 0, path)
    other = fourier_sine_arch(4)
    with pytest.raises(CacheMismatch, match="arch_hash"):
        assembly.read_cache(path, assembly.cache_header(other, pde_ops.Heat(), 16, 0))


def test_empty_batch_cache(tmp_path):
    arch = fourier_sine_arch(2)
    empty = sample_theta(Box(1.0, 2), 1, seed=0)[:0]
    path = tmp_path / "empty.bin"
    stats = assembly.assemble_batch(arch, empty, pde_ops.Heat(), 16, 0, path)
    assert stats["total"] == 0
    cache = assembly.read_cache(path)
    assert cache.header["kind"] == "gram_cache" and cache.rows.size == 0
    assert cache.theta.shape == (0, 2) and cache.gram.shape == (0, 2, 2)


def test_nonfinite_records_skipped(tmp_path):
    # sine coefficients of 1e300 overflow in the Allen-Cahn term u^3, so F and p go non-finite
    arch = fourier_sine_arch(2)
    thetas = sample_theta(Box(1.0, 2), 3, seed=0)
    thetas[1] = np.array([1e300, 1e300])
    path = tmp_path / "skip.bin"
    with np.errstate(over="ignore", invalid="ignore"):
        stats = assembly.assemble_batch(arch, thetas, pde_ops.AllenCahn(1e-4), 16, 0, path)
    assert stats["skipped"] == 1
    cache = assembly.read_cache(path)
    assert cache.theta.shape[0] == 3
    assert cache.rows.tolist() == [0, 2]
    assert np.array_equal(cache.theta[1], thetas[1])


def _small_cache(tmp_path, n=6, name="c.bin", half_width=1.0):
    arch = rom.RomArch("resnet_zero_boundary", 1, 3, 2, "tanh")
    thetas = sample_theta(Box(half_width, rom.param_count(arch)), n, seed=2)
    path = tmp_path / name
    stats = assembly.assemble_batch(arch, thetas, pde_ops.Heat(), 24, 5, path)
    return arch, thetas, path, stats


def test_cache_roundtrip_exact_and_mapped(tmp_path):
    arch, thetas, path, _ = _small_cache(tmp_path)
    m = rom.param_count(arch)
    cache = assembly.read_cache(path, assembly.cache_header(arch, pde_ops.Heat(), 24, 5), thetas)
    record_bytes = 8 * (2 * m + m * m + 1)
    # views into the mapped records, not copies
    for a in (cache.theta, cache.gram, cache.rhs):
        assert isinstance(a, np.memmap) and a.strides[0] == record_bytes
    header_bytes = path.stat().st_size - 6 * record_bytes
    assert header_bytes > 0 and header_bytes % 64 == 0
    assert cache.rows.tolist() == list(range(6))
    for i in range(6):
        rec = assembly.assemble_at(arch, thetas[i], pde_ops.Heat(), 24, 5, stream=i + 1)
        assert cache.theta[i].tobytes() == rec.theta.tobytes()
        assert cache.gram[i].tobytes() == rec.gram.tobytes()
        assert cache.rhs[i].tobytes() == rec.rhs.tobytes()


def test_cache_torn_tail_is_recomputed(tmp_path):
    _, _, clean, _ = _small_cache(tmp_path, name="clean.bin")
    payload = clean.read_bytes()
    arch, thetas, torn, _ = _small_cache(tmp_path, name="torn.bin")
    torn.write_bytes(payload[:-37])
    with pytest.raises(PdeControlError):
        assembly.read_cache(torn)
    stats = assembly.assemble_batch(arch, thetas, pde_ops.Heat(), 24, 5, torn)
    assert stats["computed"] == 1 and stats["resumed"] == 5
    assert torn.read_bytes() == payload
    # a record whose status word never landed (zero-filled tail) is not finished
    torn.write_bytes(payload[:-8] + bytes(8))
    with pytest.raises(CacheMismatch):
        assembly.read_cache(torn)
    stats = assembly.assemble_batch(arch, thetas, pde_ops.Heat(), 24, 5, torn)
    assert stats["computed"] == 1 and torn.read_bytes() == payload


def test_cache_rejects_changed_theta(tmp_path):
    _small_cache(tmp_path, n=4)
    with pytest.raises(CacheMismatch, match="different theta"):
        _small_cache(tmp_path, n=4, half_width=5.0)
    # a longer run over the same thetas extends the cache
    _, _, path, stats = _small_cache(tmp_path, n=6)
    assert stats["resumed"] == 4 and stats["computed"] == 2


def test_read_cache_first_n_records(tmp_path):
    arch, thetas, path, _ = _small_cache(tmp_path, n=6)
    cache = assembly.read_cache(path, thetas=thetas[:4])
    assert cache.theta.shape[0] == 4 and cache.rows.tolist() == [0, 1, 2, 3]
    assert np.array_equal(cache.theta, thetas[:4])
    more = sample_theta(Box(1.0, rom.param_count(arch)), 7, seed=2)
    assert np.array_equal(more[:6], thetas)
    with pytest.raises(MissingArtifact):
        assembly.read_cache(path, thetas=more)
    with pytest.raises(CacheMismatch, match="different theta"):
        assembly.read_cache(path, thetas=thetas[:4] + 1.0)


def test_old_json_cache_rejected(tmp_path):
    arch = fourier_sine_arch(2)
    path = tmp_path / "gram.jsonl"
    old = {"format_version": 1, "kind": "gram_cache", "arch_hash": rom.arch_hash(arch), "op_tag": "heat",
           "n_x": 16, "m": 2, "seed": 0}
    path.write_text(json.dumps(old) + "\n" + json.dumps({"index": 0, "theta": [0.1, 0.2]}) + "\n")
    with pytest.raises(CacheMismatch, match="rerun sample-gram"):
        assembly.read_cache(path)
    thetas = sample_theta(Box(1.0, 2), 2, seed=0)
    with pytest.raises(CacheMismatch, match="rerun sample-gram"):
        assembly.assemble_batch(arch, thetas, pde_ops.Heat(), 16, 0, path)


def test_gd_projection_identity_gram():
    rec = assembly.GramRecord(theta=np.zeros(2), gram=np.eye(2), rhs=np.array([2.0, -1.0]))
    w1 = gd_projection_field(rec, 1, 0.4)
    assert np.allclose(w1, 0.8 * rec.rhs, atol=1e-14)
    w_many = gd_projection_field(rec, 200, 0.4)
    assert np.allclose(w_many, rec.rhs, atol=1e-12)


def test_gd_projection_zero_rhs_fixed_point(rng):
    A = rng.standard_normal((4, 4))
    rec = assembly.GramRecord(theta=np.zeros(4), gram=A @ A.T, rhs=np.zeros(4))
    lam = np.linalg.eigvalsh(rec.gram)[-1]
    w = gd_projection_field(rec, 50, 0.5 / lam)
    assert np.all(w == 0.0)


def test_gd_projection_step_too_large(rng):
    rec = assembly.GramRecord(theta=np.zeros(2), gram=np.eye(2), rhs=np.ones(2))
    with pytest.raises(StepTooLarge):
        gd_projection_field(rec, 5, 1.0)  # 1/lambda_max = 1


def test_gd_objective_descent(rng):
    for trial in range(10):
        m = int(rng.integers(2, 6))
        A = rng.standard_normal((m, m))
        G = A @ A.T
        p = rng.standard_normal(m)
        rec = assembly.GramRecord(theta=np.zeros(m), gram=G, rhs=p)
        lam = np.linalg.eigvalsh(G)[-1]
        h = float(rng.uniform(0.1, 0.9)) / max(lam, 1e-12)
        psi0 = quadratic_objective(rec, np.zeros(m))
        for K in (1, 3, 10, 40):
            w = gd_projection_field(rec, K, h)
            assert quadratic_objective(rec, w) <= psi0 + 1e-12


def test_descent_lemma_bound(rng):
    # psi(w_K) - psi(v*) <= |v*|^2 / (2 K h)
    for trial in range(25):
        m = int(rng.integers(2, 7))
        A = rng.standard_normal((m, m))
        G = A @ A.T / m + 0.05 * np.eye(m)
        p = rng.standard_normal(m)
        rec = assembly.GramRecord(theta=np.zeros(m), gram=G, rhs=p)
        lam = np.linalg.eigvalsh(G)[-1]
        h = float(rng.uniform(0.05, 0.95)) / lam
        v_star = linalg.ridge_solve(G, p, 0.0)
        psi_star = quadratic_objective(rec, v_star)
        for K in (1, 2, 5, 20, 100):
            w = gd_projection_field(rec, K, h)
            gap = quadratic_objective(rec, w) - psi_star
            assert gap <= (v_star @ v_star) / (2 * K * h) + 1e-10


def test_gd_converges_to_ridge_solution(rng):
    A = rng.standard_normal((5, 5))
    G = A @ A.T + 0.5 * np.eye(5)
    p = rng.standard_normal(5)
    rec = assembly.GramRecord(theta=np.zeros(5), gram=G, rhs=p)
    lam = np.linalg.eigvalsh(G)[-1]
    w = gd_projection_field(rec, 4000, 0.9 / lam)
    v = linalg.ridge_solve(G, p, 0.0)
    assert np.abs(w - v).max() < 1e-6
