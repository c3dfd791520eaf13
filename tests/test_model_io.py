import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choralegen import model_io, network
from choralegen.errors import ChecksumMismatch, VersionMismatch
from choralegen.model_io import (deserialize_model, load_model, save_model,
                                 serialize_model)
from choralegen.network import NetworkConfig, init_params

from conftest import traced_peak


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "model_v1.chlf")


def params_fixture():
    return init_params(NetworkConfig(num_inputs=5, num_blocks=4,
                                     num_outputs=3, rng_seed=11))


def test_round_trip_bit_exact(tmp_path):
    params = params_fixture()
    path = str(tmp_path / "model.chlf")
    save_model(path, params)
    loaded = load_model(path)
    assert np.array_equal(loaded.flatten(), params.flatten())
    assert loaded.num_inputs == 5 and loaded.num_blocks == 4


def test_serialization_deterministic():
    assert serialize_model(params_fixture()) == serialize_model(params_fixture())


def test_wrong_magic():
    data = serialize_model(params_fixture())
    with pytest.raises(VersionMismatch):
        deserialize_model(b"XXXX" + data[4:])


def test_unsupported_version():
    data = bytearray(serialize_model(params_fixture()))
    data[4] = 99
    # version byte is covered by the checksum, so fix it up
    body = bytes(data[4:-4])
    with pytest.raises(VersionMismatch):
        deserialize_model(data[:4] + body + struct.pack("<I", zlib.crc32(body)))


def test_truncated_file():
    data = serialize_model(params_fixture())
    with pytest.raises(ChecksumMismatch):
        deserialize_model(data[:-9])


def test_tampered_payload():
    data = bytearray(serialize_model(params_fixture()))
    data[40] ^= 0xFF
    with pytest.raises(ChecksumMismatch):
        deserialize_model(bytes(data))


def test_extreme_values_survive(tmp_path):
    params = params_fixture()
    params.w_out[0, 0] = 1e308
    params.b_out[0] = -5e-324  # smallest subnormal
    path = str(tmp_path / "model.chlf")
    save_model(path, params)
    assert np.array_equal(load_model(path).flatten(), params.flatten())


def test_golden_v1_file_loads_and_reproduces():
    # Written by the original field-by-field implementation.
    with open(GOLDEN, "rb") as fh:
        golden = fh.read()
    params = params_fixture()
    assert serialize_model(params) == golden
    loaded = deserialize_model(golden)
    for mine, theirs in zip(loaded.arrays(), params.arrays()):
        assert mine.tobytes() == theirs.tobytes()


def test_serialize_writes_the_file_in_one_copy():
    # The parameter views are joined into the file as they are: no gathered
    # copy of the parameter vector beside the bytes returned.
    params = init_params(NetworkConfig(num_blocks=64, rng_seed=0))
    size = len(serialize_model(params))
    assert traced_peak(serialize_model, params) <= 1.1 * size


def test_serialize_reads_a_strided_parameter_vector():
    params = params_fixture()
    strided = params.with_flat(np.repeat(params.vector, 2)[::2])
    assert serialize_model(strided) == serialize_model(params)


def with_header(num_inputs, num_blocks, num_outputs, count):
    body = struct.pack("<IIIIQ", 1, num_inputs, num_blocks, num_outputs, count)
    return b"CHLF" + body + struct.pack("<I", zlib.crc32(body))


def refuse_to_build(*args):
    raise AssertionError("parameters built from an unchecked header")


@pytest.mark.parametrize("sizes", [(88, 10**6, 88, 0), (0, 4, 3, 0), (5, 0, 3, 15),
                                   (5, 4, 3, 10**12), (88, 2048, 88, 17_686_616)])
def test_bad_header_rejected_before_allocation(monkeypatch, sizes):
    for module in (model_io, network):
        monkeypatch.setattr(module, "NetworkParams", refuse_to_build)
    with pytest.raises(ChecksumMismatch):
        deserialize_model(with_header(*sizes))


def sealed(body):
    return b"CHLF" + body + struct.pack("<I", zlib.crc32(body))


def test_payload_longer_than_header_count_rejected():
    body = serialize_model(params_fixture())[4:-4]
    with pytest.raises(ChecksumMismatch, match="payload length"):
        deserialize_model(sealed(body + bytes(8)))


HEADERS = st.builds(lambda v, n_in, n_b, n_out, count, tail: struct.pack(
    "<IIIIQ", v, n_in, n_b, n_out, count) + tail,
    st.sampled_from([1, 1, 0, 2]), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1), st.binary(max_size=64))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=80), st.binary(max_size=80).map(sealed),
                 HEADERS.map(sealed),
                 st.binary(max_size=40).map(lambda b: serialize_model(params_fixture())[:len(b)] + b)))
def test_arbitrary_bytes_load_or_raise_documented_errors(data):
    try:
        params = deserialize_model(data)
    except (VersionMismatch, ChecksumMismatch):
        return
    assert len(data) == 4 + 24 + 8 * params.size() + 4
