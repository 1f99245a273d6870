"""File handling shared by the artifacts.

A binary artifact (Gram cache, control checkpoint) is one JSON header line,
space-padded so that the data starts at a multiple of 64 bytes, followed by
fixed-size little-endian float64 data that readers memory-map in place. The
JSON-lines artifacts (trajectory cache, anchor store) are moved into place
whole, so a cut run never leaves a torn one.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import CacheMismatch

DTYPE = np.dtype("<f8")
ALIGN = 64
_MAX_HEADER = 1 << 16


def encode_header(header: dict) -> bytes:
    text = json.dumps(header)
    pad = -(len(text) + 1) % ALIGN
    return (text + " " * pad + "\n").encode()


def read_header(path, kind: str, format_version: int, remedy: str) -> tuple[dict, int]:
    """The parsed header and the byte offset of the data.

    Raises CacheMismatch, naming the remedy, for anything that is not a
    `kind` file of this format version, the older JSON artifacts included.
    """
    with open(path, "rb") as fh:
        line = fh.readline(_MAX_HEADER)
    try:
        header = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError):
        header = None
    if (
        not isinstance(header, dict)
        or header.get("kind") != kind
        or header.get("format_version") != format_version
        or not line.endswith(b"\n")
        or len(line) % ALIGN
    ):
        raise CacheMismatch(
            f"{path} is not a {kind} in format version {format_version} "
            f"(older JSON artifacts are not read); delete it and {remedy}"
        )
    return header, len(line)


def check_header(path, existing: dict, expected: dict | None, remedy: str) -> None:
    """Raise CacheMismatch, naming the first differing field and the remedy,
    unless existing carries every field of expected with the same value."""
    for key, value in (expected or {}).items():
        if existing.get(key) != value:
            raise CacheMismatch(f"header mismatch on {key!r} in {path}; {remedy}")


def write_json_lines(path, docs) -> None:
    """One JSON document per line, via a temporary file and os.replace."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")
    os.replace(tmp, path)


def read_json_lines(path, remedy: str) -> list:
    """The documents of a JSON-lines file, blank lines skipped; a line that
    does not parse raises CacheMismatch naming the remedy."""
    docs = []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                docs.append(json.loads(line))
            except json.JSONDecodeError:
                raise CacheMismatch(f"line {n} of {path} does not parse; {remedy}") from None
    return docs
