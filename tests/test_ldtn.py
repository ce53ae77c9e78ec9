import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langaug.errors import TensorFormatError, TensorPayloadError
from langaug.ldtn import read_meta, read_tensor, write_csv, write_json, write_meta, write_tensor


@given(st.lists(st.integers(0, 5), min_size=0, max_size=4), st.sampled_from([np.float32, np.float64]))
@settings(max_examples=40, deadline=None)
def test_round_trip(tmp_path_factory, shape, dtype):
    path = tmp_path_factory.mktemp("ldtn") / "t.ldtn"
    rng = np.random.default_rng(1)
    arr = rng.standard_normal(shape).astype(dtype)
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == dtype
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_bit_exact_float64(tmp_path):
    arr = np.array([0.1, -1e-300, np.pi, 1e300])
    write_tensor(tmp_path / "t.ldtn", arr)
    back = read_tensor(tmp_path / "t.ldtn")
    assert back.tobytes() == arr.tobytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "t.ldtn"
    write_tensor(path, np.zeros(3))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(TensorFormatError, match="LDTN"):
        read_tensor(path)


def test_bad_version(tmp_path):
    path = tmp_path / "t.ldtn"
    write_tensor(path, np.zeros(3))
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(TensorFormatError, match="version"):
        read_tensor(path)


def test_bad_dtype_byte(tmp_path):
    path = tmp_path / "t.ldtn"
    write_tensor(path, np.zeros(3))
    blob = bytearray(path.read_bytes())
    blob[5] = 7
    path.write_bytes(bytes(blob))
    with pytest.raises(TensorFormatError, match="dtype"):
        read_tensor(path)


@pytest.mark.parametrize("edit, length", [(lambda blob: blob[:-8], 40),
                                          (lambda blob: blob + bytes(8), 56)],
                         ids=["cut", "appended"])
def test_truncated_payload(tmp_path, edit, length):
    # the 48-byte payload of a (2, 3) float64 tensor, 8 bytes short or 8 bytes long
    path = tmp_path / "t.ldtn"
    write_tensor(path, np.zeros((2, 3)))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(TensorPayloadError, match=f"payload length {length} does not match"):
        read_tensor(path)


def test_dims_payload_mismatch(tmp_path):
    # header claims 4 entries, payload carries 3
    path = tmp_path / "t.ldtn"
    write_tensor(path, np.zeros(3))
    blob = bytearray(path.read_bytes())
    blob[8] = 4
    path.write_bytes(bytes(blob))
    with pytest.raises(TensorPayloadError, match="payload"):
        read_tensor(path)


def test_tensor_io_stages_no_copy(tmp_path):
    # an 8 MiB payload is written from the array's own buffer and read straight
    # into the returned array: the traced peak grows by that array alone
    arr = np.arange(1 << 20, dtype=np.float64)
    path = tmp_path / "t.ldtn"
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_tensor(path, arr)
        write_peak = tracemalloc.get_traced_memory()[1] - start
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        back = read_tensor(path)
        read_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, arr)
    assert write_peak < 1 << 20
    assert read_peak < 9 << 20


def test_writers_create_the_parent_directory(tmp_path):
    write_tensor(tmp_path / "a" / "t.ldtn", np.zeros(2))
    write_json(tmp_path / "b" / "c" / "d.json", {})
    write_csv(tmp_path / "e" / "f.csv", ["x"], [])
    write_meta(tmp_path / "g" / "h", {"k": 1})
    assert read_tensor(tmp_path / "a" / "t.ldtn").shape == (2,)
    assert (tmp_path / "b" / "c" / "d.json").read_bytes() == b"{}"
    assert (tmp_path / "e" / "f.csv").read_bytes() == b"x\r\n"
    assert read_meta(tmp_path / "g" / "h") == {"k": 1}


def test_json_format(tmp_path):
    # sorted keys at every depth, a two-space indent, no trailing newline
    write_json(tmp_path / "d.json", {"b": [1, 0.5], "a": {"z": None, "y": "s"}})
    assert (tmp_path / "d.json").read_bytes() == (
        b'{\n  "a": {\n    "y": "s",\n    "z": null\n  },\n'
        b'  "b": [\n    1,\n    0.5\n  ]\n}')
    write_meta(tmp_path / "m", {"b": 1, "a": 2})
    assert (tmp_path / "m.meta.json").read_bytes() == b'{\n  "a": 2,\n  "b": 1\n}'


def test_csv_format(tmp_path):
    # the header row first, then the rows as given, each ended by \r\n;
    # values are written as the caller formatted them
    write_csv(tmp_path / "t.csv", ["fold", "dice"],
              ([i, repr(v)] for i, v in enumerate([0.1, 1 / 3])))
    assert (tmp_path / "t.csv").read_bytes() == (
        b"fold,dice\r\n0,0.1\r\n1,0.3333333333333333\r\n")
