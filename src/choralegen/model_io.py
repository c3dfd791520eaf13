"""Binary model persistence.

Layout (little-endian):
    magic  "CHLF"
    u32    format version (1)
    u32    num_inputs, u32 num_blocks, u32 num_outputs
    u64    parameter count
    f64[]  parameters flattened in PARAM_FIELDS order, C-contiguous
    u32    CRC-32 of everything after the magic and before the checksum

Round trips are bit-exact for all finite parameter values.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import ChecksumMismatch, VersionMismatch
from .network import NetworkConfig, NetworkParams, param_count

MAGIC = b"CHLF"
VERSION = 1
_HEADER = struct.Struct("<IIIIQ")  # version, inputs, blocks, outputs, count


def serialize_model(params: NetworkParams) -> bytes:
    # The 14 views are checksummed and joined in place, so the join is the one
    # copy; only a strided or big-endian view is copied first.
    arrays = [np.ascontiguousarray(a, "<f8") for a in params.arrays()]
    header = _HEADER.pack(VERSION, params.num_inputs, params.num_blocks,
                          params.num_outputs, params.size())
    checksum = zlib.crc32(header)
    for a in arrays:
        checksum = zlib.crc32(a, checksum)
    return b"".join([MAGIC, header, *arrays, struct.pack("<I", checksum)])


def deserialize_model(data: bytes) -> NetworkParams:
    if len(data) < len(MAGIC) + _HEADER.size + 4:
        raise ChecksumMismatch("file too short")
    if data[:4] != MAGIC:
        raise VersionMismatch("bad magic")
    (checksum,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(memoryview(data)[4:-4]) != checksum:
        raise ChecksumMismatch("CRC-32 does not validate")
    version, n_in, n_b, n_out, count = _HEADER.unpack_from(data, 4)
    if version != VERSION:
        raise VersionMismatch(f"unsupported version {version}")
    # Header sizes are checked against each other and the payload before
    # anything is allocated from them.
    try:
        config = NetworkConfig(num_inputs=n_in, num_blocks=n_b, num_outputs=n_out)
    except ValueError as exc:
        raise ChecksumMismatch(f"header layer sizes rejected: {exc}") from None
    if param_count(config) != count:
        raise ChecksumMismatch("header count inconsistent with layer sizes")
    start = 4 + _HEADER.size
    if len(data) - start - 4 != 8 * count:
        raise ChecksumMismatch("payload length does not match header count")
    flat = np.frombuffer(data, dtype="<f8", count=count, offset=start)
    params = NetworkParams(np.empty(count), n_in, n_b, n_out)
    pos = 0
    for view in params.arrays():
        view[...] = flat[pos : pos + view.size].reshape(view.shape)
        pos += view.size
    return params


def save_model(path: str, params: NetworkParams):
    with open(path, "wb") as fh:
        fh.write(serialize_model(params))


def load_model(path: str) -> NetworkParams:
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())
