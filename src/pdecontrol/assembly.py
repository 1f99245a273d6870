"""Monte-Carlo assembly of the tangent-space projection system.

For a model at parameters theta and operator F, the empirical system is
    G = (1/N) sum_i  g_i g_i^T,      p = (1/N) sum_i  g_i F[u_theta](x_i),
with g_i = grad_theta u_theta(x_i); a 1-D linear basis is instead assembled
exactly at Gauss-Legendre nodes (assemble_at). Records are cached as
fixed-size float64 rows after a JSON header line (layout below), so long
sampling runs are resumable and byte-reproducible on rerun and resume, and
the trainer reads minibatches straight from the memory-mapped file.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from . import binfile, pde_ops, rom
from .errors import CacheMismatch, MissingArtifact, NonFiniteError
from .sampling import Purpose, sample_omega


@dataclass
class GramRecord:
    theta: np.ndarray
    gram: np.ndarray  # (m, m), exactly symmetric
    rhs: np.ndarray  # (m,)


@functools.lru_cache(maxsize=None)
def _leggauss(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights on [-1, 1]; they cost more than a small record."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def assemble(
    model: rom.RomModel,
    op: pde_ops.PdeOperator,
    X: np.ndarray,
    weights: np.ndarray | None = None,
) -> GramRecord:
    """One projection record at model.theta from the spatial points X (n, d).

    With weights=None each point carries mass 1/N (Monte-Carlo mean);
    explicit weights enable exact quadrature for 1-D linear bases.
    """
    if X.shape[0] == 0:
        raise ValueError("empty sample batch")
    need = rom.EvalFlags(**pde_ops.required_flags(op), grad_theta=True)
    # a huge theta overflows in here; the check below reports it as NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
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
    return GramRecord(theta=model.theta.copy(), gram=gram, rhs=rhs)


def assemble_at(
    arch: rom.RomArch,
    theta: np.ndarray,
    op: pde_ops.PdeOperator,
    n_x: int,
    seed: int,
    purpose: Purpose,
    index: int,
) -> GramRecord:
    """Assemble at one parameter point over the arch's box: a linear basis
    (1-D) at n_x Gauss-Legendre nodes, whose weights integrate the uniform
    density, so the record is exact; a net at a Monte-Carlo sample of n_x
    points drawn for (purpose, index)."""
    model = rom.RomModel(arch, theta)
    if arch.kind == rom.LINEAR_BASIS:
        (lo,), (hi,) = arch.lo, arch.hi
        x, w = _leggauss(n_x)
        return assemble(model, op, (0.5 * (hi - lo) * (x + 1.0) + lo)[:, None], weights=0.5 * w)
    return assemble(model, op, sample_omega(arch.domain, n_x, seed, purpose, index))


# ---------------------------------------------------------------------------
# cache
#
# Layout (see binfile): a JSON header line, then one record of
# little-endian float64 per theta index, in index order, whose parts
# _record_layout(m) tables:
#     theta (m), rhs (m), gram (m, m), status ().
# The status word is written last, so a record cut short never reads as
# finished: STATUS_OK marks an assembled record, STATUS_SKIPPED one whose
# assembly went non-finite (its rhs and gram are zeros).

STATUS_OK = 1.0
STATUS_SKIPPED = 2.0


@dataclass
class GramCache:
    """Memory-mapped cache contents; records is a view into the file,
    split into its parts by _record_layout(header["m"])."""

    header: dict
    records: np.ndarray  # (n, record floats), C-contiguous, in the layout above
    rows: np.ndarray  # indices of the STATUS_OK records


@functools.lru_cache(maxsize=None)
def _record_layout(m: int) -> tuple[tuple[slice, tuple[int, ...]], ...]:
    """The rom._table of a record for m parameters, built once per m."""
    return rom._table([(m,), (m,), (m, m), ()])


def _record_floats(m: int) -> int:
    return _record_layout(m)[-1][0].stop


def _map_records(cache_path, header: dict, offset: int):
    """(records, torn): the whole records as an (n, record floats)
    read-only memmap and whether bytes of a partial record follow them."""
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


def _check_cache(cache_path, header: dict, thetas: np.ndarray):
    """(header, offset, records, torn, done) of an existing cache, after the
    check sample-gram and the readers share: the expected header (the
    pipeline's, of what shapes a record) with the parameter count of
    thetas, and each finished record's theta against the one sampled for
    its index."""
    existing, offset = binfile.read_header(cache_path, header)
    binfile.check_header(cache_path, existing, {**header, "m": thetas.shape[1]})
    records, torn = _map_records(cache_path, existing, offset)
    theta, _, _, status = rom._split(records, _record_layout(existing["m"]))
    done = _finished(status)
    check = min(done, thetas.shape[0])
    stale = np.flatnonzero(np.any(theta[:check] != thetas[:check], axis=1))
    if stale.size:
        raise CacheMismatch(
            f"record {int(stale[0])} of {cache_path} was assembled at a different theta "
            f"(theta_space or anchors changed); delete it and {binfile.remedy(header)}"
        )
    return existing, offset, records, torn, done


def _record_bytes(theta: np.ndarray, rec: GramRecord | None) -> bytes:
    m = theta.shape[0]
    out = np.zeros(_record_floats(m), dtype=binfile.DTYPE)
    theta_part, rhs, gram, status = rom._split(out, _record_layout(m))
    theta_part[...] = theta
    if rec is None:
        status[...] = STATUS_SKIPPED
    else:
        rhs[...] = rec.rhs
        gram[...] = rec.gram
        status[...] = STATUS_OK
    return out.tobytes()


def assemble_batch(
    arch: rom.RomArch,
    thetas: np.ndarray,
    op: pde_ops.PdeOperator,
    n_x: int,
    seed: int,
    cache_path,
    header: dict,
) -> dict:
    """Assemble records for every row of thetas in order, appending to
    cache_path, whose header is header (the pipeline's, of what shapes a
    record) with the parameter count m.

    Resumable: finished records whose header fields and theta match are kept
    (the file is extended, not rewritten) and a torn final record is cut off
    and recomputed. Record index draws its points for (Purpose.GRAM_POINTS,
    index) alone, so reruns and resumed runs produce byte-identical files.
    Non-finite records are stored as skipped; returns summary stats.
    """
    m = rom.param_count(arch)
    done, mode = 0, "wb"
    if os.path.exists(cache_path) and os.path.getsize(cache_path) > 0:
        _, offset, records, _, done = _check_cache(cache_path, header, thetas)
        del records
        end = offset + done * _record_floats(m) * binfile.DTYPE.itemsize
        if os.path.getsize(cache_path) != end:
            os.truncate(cache_path, end)  # cut off a torn tail
        mode = "ab"

    todo = range(done, thetas.shape[0])
    skipped = 0
    with open(cache_path, mode) as fh:
        if mode == "wb":
            fh.write(binfile.encode_header({**header, "m": m}))
        for index in todo:
            try:
                rec = assemble_at(arch, thetas[index], op, n_x, seed, Purpose.GRAM_POINTS, index)
            except NonFiniteError:
                rec = None
                skipped += 1
            fh.write(_record_bytes(thetas[index], rec))
    return {"total": thetas.shape[0], "computed": len(todo), "resumed": min(done, thetas.shape[0]), "skipped": skipped}


def read_cache(cache_path, header: dict, thetas: np.ndarray) -> GramCache:
    """Memory-map the first len(thetas) records of a Gram cache, after
    checking the expected header and the theta sampled for each record as
    sample-gram does.

    Raises CacheMismatch for a foreign, old-format, torn or stale cache, and
    MissingArtifact for a missing cache or when fewer than len(thetas)
    records are finished.
    """
    rerun = binfile.remedy(header)
    header, _, records, torn, done = _check_cache(cache_path, header, thetas)
    if torn or done < records.shape[0]:
        raise CacheMismatch(f"{cache_path} holds a partly written record; {rerun} to repair it")
    if done < thetas.shape[0]:
        raise MissingArtifact(f"{cache_path} has {done} of {thetas.shape[0]} records; {rerun}")
    records = records[: thetas.shape[0]]
    status = rom._split(records, _record_layout(header["m"]))[-1]
    return GramCache(header=header, records=records, rows=np.flatnonzero(status == STATUS_OK))
