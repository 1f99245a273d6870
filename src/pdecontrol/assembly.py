"""Monte-Carlo assembly of the tangent-space projection system.

For a model at parameters theta and operator F, the empirical system is
    G = (1/N) sum_i  g_i g_i^T,      p = (1/N) sum_i  g_i F[u_theta](x_i),
with g_i = grad_theta u_theta(x_i). Records are cached as fixed-size float64
rows after a JSON header line (layout below), so long sampling runs are
resumable and byte-reproducible on rerun and resume, and the trainer reads
minibatches straight from the memory-mapped file.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from . import binfile, pde_ops, rom
from .errors import CacheMismatch, MissingArtifact, NonFiniteError
from .sampling import SampleBatch, sample_omega

CACHE_FORMAT_VERSION = 2


@dataclass
class GramRecord:
    theta: np.ndarray
    gram: np.ndarray  # (m, m), exactly symmetric
    rhs: np.ndarray  # (m,)
    n_x: int
    seed: int


@functools.lru_cache(maxsize=None)
def _leggauss(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights on [-1, 1]; they cost more than a small record."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre_batch(domain, n_nodes: int) -> tuple[SampleBatch, np.ndarray]:
    """Gauss-Legendre nodes/weights on a 1-D interval, packaged like a sample
    batch. Weights are normalized to integrate the uniform density (mean
    convention), so assembly code can treat quadrature and MC uniformly."""
    lo, hi = float(domain[0][0]), float(domain[1][0])
    x, w = _leggauss(n_nodes)
    pts = 0.5 * (hi - lo) * (x + 1.0) + lo
    weights = 0.5 * w  # integrates f over (lo,hi)/|domain| like a mean
    batch = SampleBatch(points=pts[:, None], seed=0, generator_tag=f"gauss/{n_nodes}")
    return batch, weights


def assemble(
    model: rom.RomModel,
    op: pde_ops.PdeOperator,
    xs: SampleBatch,
    weights: np.ndarray | None = None,
) -> GramRecord:
    """One projection record at model.theta from the given spatial sample.

    With weights=None each point carries mass 1/N (Monte-Carlo mean);
    explicit weights enable exact quadrature for 1-D linear bases.
    """
    X = xs.points
    if X.shape[0] == 0:
        raise ValueError("empty sample batch")
    flags_needed = pde_ops.required_flags(op)
    need = rom.EvalFlags(
        value=flags_needed["value"],
        grad_x=flags_needed["grad_x"],
        laplacian=flags_needed["laplacian"],
        grad_theta=True,
    )
    ev = rom.eval_batch(model, X, need)
    f_vals = pde_ops.apply_operator_arrays(op, ev.value, ev.grad_x, ev.laplacian)
    gt = ev.grad_theta  # (n, m)
    if weights is None:
        n = X.shape[0]
        gram = gt.T @ gt / n
        rhs = gt.T @ f_vals / n
    else:
        wg = gt * weights[:, None]
        gram = wg.T @ gt
        rhs = wg.T @ f_vals
    gram = 0.5 * (gram + gram.T)  # exact symmetry
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        raise NonFiniteError("assembly produced non-finite entries")
    return GramRecord(theta=model.theta.copy(), gram=gram, rhs=rhs, n_x=X.shape[0], seed=xs.seed)


def assemble_at(
    arch: rom.RomArch,
    theta: np.ndarray,
    op: pde_ops.PdeOperator,
    domain,
    n_x: int,
    seed: int,
    stream: int,
    quadrature: str = "mc",
) -> GramRecord:
    """Assemble at one parameter point with a stream-split x-sample."""
    model = rom.RomModel(arch, theta)
    if quadrature == "gauss":
        xs, w = gauss_legendre_batch(domain, n_x)
        return assemble(model, op, xs, weights=w)
    xs = sample_omega(domain, n_x, seed, stream=stream)
    return assemble(model, op, xs)


# ---------------------------------------------------------------------------
# cache
#
# Layout (see binfile): a JSON header line, then one record of
# 2m + m*m + 1 little-endian float64 per theta index, in index order:
#     theta (m), rhs (m), gram (m*m, row-major), status.
# The status word is written last, so a record cut short never reads as
# finished: STATUS_OK marks an assembled record, STATUS_SKIPPED one whose
# assembly went non-finite (its rhs and gram are zeros).

STATUS_OK = 1.0
STATUS_SKIPPED = 2.0
_RERUN = "rerun sample-gram"


@dataclass
class GramCache:
    """Memory-mapped cache contents; theta/gram/rhs are views into the file."""

    header: dict
    theta: np.ndarray  # (n, m)
    gram: np.ndarray  # (n, m, m)
    rhs: np.ndarray  # (n, m)
    rows: np.ndarray  # indices of the STATUS_OK records


def cache_header(arch: rom.RomArch, op: pde_ops.PdeOperator, n_x: int, seed: int, quadrature: str) -> dict:
    """Every input that shapes a record; theta itself is checked per record."""
    return {
        "format_version": CACHE_FORMAT_VERSION,
        "kind": "gram_cache",
        "arch_hash": rom.arch_hash(arch),
        "op_tag": op.tag,
        "m": rom.param_count(arch),
        "n_x": n_x,
        "seed": seed,
        "quadrature": quadrature,
    }


def _record_floats(m: int) -> int:
    return 2 * m + m * m + 1


def _map_records(cache_path, header: dict, offset: int):
    """(records, torn): the whole records as an (n, 2m+m*m+1) read-only
    memmap and whether bytes of a partial record follow them."""
    width = _record_floats(header["m"])
    data_bytes = os.path.getsize(cache_path) - offset
    n, tail = divmod(data_bytes, width * binfile.DTYPE.itemsize)
    if n == 0:
        return np.zeros((0, width), dtype=binfile.DTYPE), tail > 0
    return np.memmap(cache_path, dtype=binfile.DTYPE, mode="r", offset=offset, shape=(n, width)), tail > 0


def _finished(status: np.ndarray) -> int:
    """Length of the leading run of finished (assembled or skipped) records."""
    bad = np.flatnonzero((status != STATUS_OK) & (status != STATUS_SKIPPED))
    return int(bad[0]) if bad.size else status.shape[0]


def _check_cache(cache_path, header: dict | None, thetas: np.ndarray | None):
    """(header, offset, records, torn, done) of an existing cache, after the
    check sample-gram and the readers share: the expected header, and each
    finished record's theta against the one sampled for its index."""
    existing, offset = binfile.read_header(cache_path, "gram_cache", CACHE_FORMAT_VERSION, _RERUN)
    binfile.check_header(cache_path, existing, header, f"delete it and {_RERUN}")
    records, torn = _map_records(cache_path, existing, offset)
    done = _finished(records[:, -1])
    if thetas is not None:
        check = min(done, thetas.shape[0])
        stale = np.flatnonzero(np.any(records[:check, : existing["m"]] != thetas[:check], axis=1))
        if stale.size:
            raise CacheMismatch(
                f"record {int(stale[0])} of {cache_path} was assembled at a different theta "
                f"(theta_space or anchors changed); delete it and {_RERUN}"
            )
    return existing, offset, records, torn, done


def _record_bytes(theta: np.ndarray, rec: GramRecord | None) -> bytes:
    m = theta.shape[0]
    out = np.zeros(_record_floats(m), dtype=binfile.DTYPE)
    out[:m] = theta
    if rec is None:
        out[-1] = STATUS_SKIPPED
    else:
        out[m : 2 * m] = rec.rhs
        out[2 * m : -1] = rec.gram.ravel()
        out[-1] = STATUS_OK
    return out.tobytes()


def assemble_batch(
    arch: rom.RomArch,
    thetas: SampleBatch,
    op: pde_ops.PdeOperator,
    n_x: int,
    seed: int,
    cache_path,
    domain,
    quadrature: str = "mc",
) -> dict:
    """Assemble records for every theta in order, appending to cache_path.

    Resumable: finished records whose header and theta match are kept (the
    file is extended, not rewritten) and a torn final record is cut off and
    recomputed. Per-record sample streams depend only on (seed, index), so
    reruns and resumed runs produce byte-identical files.
    Non-finite records are stored as skipped; returns summary stats.
    """
    header = cache_header(arch, op, n_x, seed, quadrature)
    points = thetas.points
    done, mode = 0, "wb"
    if os.path.exists(cache_path) and os.path.getsize(cache_path) > 0:
        _, offset, records, _, done = _check_cache(cache_path, header, points)
        del records
        end = offset + done * _record_floats(header["m"]) * binfile.DTYPE.itemsize
        if os.path.getsize(cache_path) != end:
            os.truncate(cache_path, end)  # cut off a torn tail
        mode = "ab"

    todo = range(done, points.shape[0])
    skipped = 0
    with open(cache_path, mode) as fh:
        if mode == "wb":
            fh.write(binfile.encode_header(header))
        for index in todo:
            try:
                rec = assemble_at(arch, points[index], op, domain, n_x, seed, stream=index + 1, quadrature=quadrature)
            except NonFiniteError:
                rec = None
                skipped += 1
            fh.write(_record_bytes(points[index], rec))
    return {"total": points.shape[0], "computed": len(todo), "resumed": min(done, points.shape[0]), "skipped": skipped}


def read_cache(cache_path, header: dict | None = None, thetas: np.ndarray | None = None) -> GramCache:
    """Memory-map a Gram cache. Given the expected cache_header and the theta
    sampled for each wanted record, check both as sample-gram does and take
    exactly the first len(thetas) records.

    Raises CacheMismatch for a foreign, old-format, torn or stale cache, and
    MissingArtifact when fewer than len(thetas) records are finished.
    """
    header, _, records, torn, done = _check_cache(cache_path, header, thetas)
    if torn or done < records.shape[0]:
        raise CacheMismatch(f"{cache_path} holds a partly written record; {_RERUN} to repair it")
    if thetas is not None:
        if done < thetas.shape[0]:
            raise MissingArtifact(f"{cache_path} has {done} of {thetas.shape[0]} records; {_RERUN}")
        records = records[: thetas.shape[0]]
    m = header["m"]
    return GramCache(
        header=header,
        theta=records[:, :m],
        rhs=records[:, m : 2 * m],
        gram=records[:, 2 * m : -1].reshape(-1, m, m),
        rows=np.flatnonzero(records[:, -1] == STATUS_OK),
    )
