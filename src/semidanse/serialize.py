"""Single-file container format for datasets and parameter checkpoints.

Layout: 4-byte magic, u32 little-endian header length, UTF-8 JSON header,
raw little-endian float64 payload blocks in header order, and a trailing
CRC32 of everything before it. The format is deliberately dumb: language
portable, streamable, and bit-exact for round-trip tests.

Both directions stream block by block: the writer hands each block's own
buffer to the file and the reader fills each block's own array from it, so
neither holds a second copy of the payload.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib

import numpy as np

from .exceptions import ChecksumError, FormatVersionError

MAGIC = b"SDNC"
FORMAT_VERSION = 1
_DTYPE = "<f8"
_CHUNK = 1 << 16  # bytes read at a time when the CRC covers bytes no block receives


def write_atomic(path: str, data: str | bytes | list) -> None:
    """Write `data` to `path` through a temp file and a rename.

    `data` is a str (written as UTF-8), one bytes-like buffer, or a sequence of
    buffers written back to back. The temp file is per process and sits next
    to the target, so a reader never sees a partial file; it is opened with
    `open`, so the umask sets the file's mode.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    chunks = [data] if isinstance(data, (bytes, bytearray, memoryview)) else data
    os.makedirs(os.path.dirname(os.path.abspath(path)) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_container(path: str, kind: str, meta: dict, blocks: list[tuple[str, np.ndarray]]) -> None:
    """Write one container file atomically (`write_atomic`).

    A C-contiguous float64 block is written from its own buffer: the CRC and
    the file both read it in place.
    """
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
    chunks = [MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes]
    chunks += [np.ascontiguousarray(arr, dtype=_DTYPE) for _, arr in blocks]
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    write_atomic(path, chunks + [struct.pack("<I", crc)])


def _layout(path: str, head: bytes, header_len: int, payload_len: int,
            expected_kind: str | None) -> tuple[dict, list[tuple[str, tuple]]]:
    """(meta, [(block name, shape)]) of a header whose blocks fill payload_len bytes exactly."""
    if len(head) < header_len:
        raise ChecksumError(f"{path}: truncated header")
    header = json.loads(head.decode("utf-8"))
    version = header.get("format_version")
    if not isinstance(version, int) or version > FORMAT_VERSION:
        raise FormatVersionError(
            f"{path}: format version {version} is newer than supported {FORMAT_VERSION}"
        )
    if expected_kind is not None and header.get("kind") != expected_kind:
        raise ChecksumError(
            f"{path}: container kind {header.get('kind')!r}, expected {expected_kind!r}"
        )
    layout = []
    offset = 0
    for spec in header["blocks"]:
        shape = tuple(spec["shape"])
        offset += 8 * math.prod(shape)
        if offset > payload_len:
            raise ChecksumError(f"{path}: truncated payload for block {spec['name']!r}")
        layout.append((spec["name"], shape))
    if offset != payload_len:
        raise ChecksumError(f"{path}: trailing bytes after declared blocks")
    return header["meta"], layout


def _fold_crc(fh, end: int, crc: int) -> int:
    """Fold the file's bytes from the current position up to `end` into `crc`, a chunk at a time."""
    remaining = end - fh.tell()
    buf = memoryview(bytearray(min(_CHUNK, remaining)))
    while remaining > 0:
        n = fh.readinto(buf[:remaining])
        if not n:
            break  # the file shrank; the stored CRC then cannot match
        crc = zlib.crc32(buf[:n], crc)
        remaining -= n
    return crc


def _verify_crc(path: str, fh, crc: int) -> None:
    stored = fh.read(4)
    if len(stored) != 4 or struct.unpack("<I", stored)[0] != crc:
        raise ChecksumError(f"{path}: CRC mismatch, file is corrupted")


def read_container(path: str, expected_kind: str | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    """Read and verify a container; returns (meta, {block name: array}).

    The prefix and header are read first and every declared block is checked
    against the file size before anything is allocated; each block is then
    read straight into its own array. The CRC is checked before any error the
    header reveals is raised, so a corrupted file is always a CRC mismatch.
    """
    with open(path, "rb") as fh:
        body_len = os.fstat(fh.fileno()).st_size - 4
        prefix = fh.read(8)
        if body_len < 8 or prefix[:4] != MAGIC:
            raise ChecksumError(f"{path}: not a container file")
        (header_len,) = struct.unpack_from("<I", prefix, 4)
        head = fh.read(min(header_len, body_len - 8))
        crc = zlib.crc32(head, zlib.crc32(prefix))
        try:
            meta, layout = _layout(path, head, header_len, body_len - 8 - header_len,
                                   expected_kind)
        except Exception:  # whatever the header's fault, a corrupted file is a CRC mismatch
            _verify_crc(path, fh, _fold_crc(fh, body_len, crc))
            raise
        blocks: dict[str, np.ndarray] = {}
        for name, shape in layout:
            block = np.empty(shape, dtype=_DTYPE)
            if fh.readinto(block) != block.nbytes:
                raise ChecksumError(f"{path}: truncated payload for block {name!r}")
            crc = zlib.crc32(block, crc)
            blocks[name] = block
        _verify_crc(path, fh, crc)
    return meta, blocks
