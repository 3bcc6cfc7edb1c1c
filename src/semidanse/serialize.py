"""Single-file container format for datasets and parameter checkpoints.

Layout: 4-byte magic, u32 little-endian header length, UTF-8 JSON header,
raw little-endian float64 payload blocks in header order, and a trailing
CRC32 of everything before it. The format is deliberately dumb: language
portable, streamable, and bit-exact for round-trip tests.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

from .exceptions import ChecksumError, FormatVersionError

MAGIC = b"SDNC"
FORMAT_VERSION = 1
_DTYPE = "<f8"


def write_atomic(path: str, data: bytes | str) -> None:
    """Write `data` (str as UTF-8) to `path` through a temp file and a rename.

    The temp file is per process and sits next to the target, so a reader
    never sees a partial file; it is opened with `open`, so the umask sets the
    file's mode.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_container(path: str, kind: str, meta: dict, blocks: list[tuple[str, np.ndarray]]) -> None:
    """Write one container file atomically (`write_atomic`)."""
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "meta": meta,
        "blocks": [
            {"name": name, "shape": list(np.asarray(arr).shape), "dtype": _DTYPE}
            for name, arr in blocks
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = bytearray(MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes)
    for _, arr in blocks:
        body += np.ascontiguousarray(arr, dtype=_DTYPE).tobytes()
    body += struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    write_atomic(path, body)


def read_container(path: str, expected_kind: str | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    """Read and verify a container; returns (meta, {block name: array}).

    The file is read into one buffer; the CRC runs over a view of it and each
    block is copied out of it exactly once.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise ChecksumError(f"{path}: not a container file")
    body_len = len(raw) - 4
    (crc_stored,) = struct.unpack_from("<I", raw, body_len)
    if zlib.crc32(memoryview(raw)[:body_len]) & 0xFFFFFFFF != crc_stored:
        raise ChecksumError(f"{path}: CRC mismatch, file is corrupted")
    (header_len,) = struct.unpack_from("<I", raw, 4)
    header = json.loads(raw[8 : 8 + header_len].decode("utf-8"))
    version = header.get("format_version")
    if not isinstance(version, int) or version > FORMAT_VERSION:
        raise FormatVersionError(
            f"{path}: format version {version} is newer than supported {FORMAT_VERSION}"
        )
    if expected_kind is not None and header.get("kind") != expected_kind:
        raise ChecksumError(
            f"{path}: container kind {header.get('kind')!r}, expected {expected_kind!r}"
        )
    blocks: dict[str, np.ndarray] = {}
    offset = 8 + header_len
    for spec in header["blocks"]:
        shape = tuple(spec["shape"])
        count = int(np.prod(shape)) if shape else 1
        if offset + count * 8 > body_len:
            raise ChecksumError(f"{path}: truncated payload for block {spec['name']!r}")
        block = np.frombuffer(raw, dtype=_DTYPE, count=count, offset=offset)
        blocks[spec["name"]] = block.reshape(shape).copy()
        offset += count * 8
    if offset != body_len:
        raise ChecksumError(f"{path}: trailing bytes after declared blocks")
    return header["meta"], blocks
