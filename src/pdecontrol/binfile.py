"""Layout shared by the binary artifacts (Gram cache, control checkpoint).

A file is one JSON header line, space-padded so that the data starts at a
multiple of 64 bytes, followed by fixed-size little-endian float64 data. The
header says what the data is; readers memory-map the data in place.
"""

from __future__ import annotations

import json

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
