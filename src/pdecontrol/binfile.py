"""File handling shared by the artifacts.

A binfile is one JSON header line, space-padded so that the data starts at
a multiple of 64 bytes, followed by little-endian float64 data. Every
reader passes the header it expects (config.RunConfig.header, plus any
digests it checks): its kind, format version and config record are checked,
and every remedy is built from its writer, "rerun <writer>". The Gram
cache appends fixed-size records that readers memory-map in place; every
other array the pipeline reads back (anchor store, trajectory cache, control
checkpoint, loss history, solutions, error curves, IMEX references) is
written by save and read by load. Every artifact written whole (all but the
appended Gram cache) goes through atomic_write, so a cut run leaves either
the previous file or the new one, never a torn one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager

import numpy as np

from .errors import CacheMismatch, MissingArtifact

DTYPE = np.dtype("<f8")
ALIGN = 64
# read_header reads at most this many bytes, so a file that is not a binfile
# costs at most this much; encode_header refuses a longer header (16 MB holds
# the specs of about 98,000 Chebyshev anchors)
_MAX_HEADER = 1 << 24


def encode_header(header: dict) -> bytes:
    text = json.dumps(header)
    pad = -(len(text) + 1) % ALIGN
    if len(text) + pad + 1 > _MAX_HEADER:
        raise ValueError(f"a header of {len(text)} bytes exceeds the {_MAX_HEADER}-byte limit")
    return (text + " " * pad + "\n").encode()


def remedy(expected: dict) -> str:
    """What to do about a missing or stale artifact whose expected header
    (config.RunConfig.header) is expected: rerun the command that writes it."""
    return f"rerun {expected['writer']}"


def read_header(path, expected: dict) -> tuple[dict, int]:
    """The parsed header and the byte offset of the data.

    Raises MissingArtifact if there is no file, and CacheMismatch for
    anything that is not a file of the expected header's kind and format
    version, the older JSON artifacts included; both name the remedy.
    """
    if not os.path.exists(path):
        raise MissingArtifact(f"{path} not found; {remedy(expected)}")
    with open(path, "rb") as fh:
        line = fh.readline(_MAX_HEADER)
    try:
        header = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError):
        header = None
    kind, version = expected["kind"], expected["format_version"]
    if (
        not isinstance(header, dict)
        or header.get("kind") != kind
        or header.get("format_version") != version
        or not line.endswith(b"\n")
        or len(line) % ALIGN
    ):
        raise CacheMismatch(
            f"{path} is not a {kind} in format version {version} "
            f"(older JSON artifacts are not read); delete it and {remedy(expected)}"
        )
    return header, len(line)


def check_header(path, existing: dict, expected: dict) -> None:
    """Raise CacheMismatch, naming the first differing field, unless existing
    carries every field of expected with the same value; the file is to be
    deleted and rewritten, as the Gram cache's writer refuses to append to it.
    The config record (config.RunConfig.header) is compared whole, and the
    message names its first leaf that both sides hold with other values,
    else its first leaf that only one side holds."""
    for key, value in expected.items():
        got = existing.get(key)
        if key == "config" and isinstance(got, dict):
            changed = [leaf for leaf in value if leaf in got and value[leaf] != got[leaf]]
            changed += [leaf for leaf in {**value, **got} if (leaf in value) != (leaf in got)]
            if not changed:
                continue
            key = changed[0]
        elif got == value:
            continue
        raise CacheMismatch(f"header mismatch on {key!r} in {path}; delete it and {remedy(expected)}")


@contextmanager
def atomic_write(path, mode: str = "w"):
    """A handle on a temporary file that replaces path (os.replace) when the
    block completes; if the block fails, path is left as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save(path, header: dict, array) -> None:
    """Write header, with the array's shape added, and the array as float64
    through atomic_write."""
    array = np.ascontiguousarray(array, dtype=DTYPE)
    with atomic_write(path, "wb") as fh:
        fh.write(encode_header({**header, "shape": list(array.shape)}))
        fh.write(array.tobytes())


def digest(array: np.ndarray) -> str:
    """sha256 of an array's bytes, as headers record an array they do not
    hold (the start thetas of a trajectory cache, a checkpoint's xi, a
    solution's control field and an error curve's solution rows)."""
    return hashlib.sha256(np.ascontiguousarray(array)).hexdigest()


def load_header(path, expected: dict) -> tuple[dict, int]:
    """read_header and check_header of a file written by save, without its
    data; raises as they do."""
    header, offset = read_header(path, expected)
    check_header(path, header, expected)
    return header, offset


def load(path, expected: dict) -> tuple[dict, np.ndarray]:
    """The header and the array of a file written by save. Raises as
    load_header does, and CacheMismatch for data that is not exactly the
    header's shape."""
    header, offset = load_header(path, expected)
    shape = header.get("shape")
    nbytes = os.path.getsize(path) - offset
    if not (
        isinstance(shape, list)
        and all(isinstance(n, int) and n >= 0 for n in shape)
        and nbytes == math.prod(shape) * DTYPE.itemsize
    ):
        raise CacheMismatch(f"{path} holds {nbytes} data bytes, not a float64 array of shape {shape}; "
                            f"delete it and {remedy(expected)}")
    return header, np.fromfile(path, dtype=DTYPE, offset=offset).reshape(shape)
