import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pointlabel.container import (ContainerError, read_container,
                                  write_container)


def roundtrip(layers, tensors):
    buf = io.BytesIO()
    write_container(buf, layers, tensors)
    buf.seek(0)
    return read_container(buf)


def test_roundtrip_preserves_values_and_order(rng):
    tensors = [("w", rng.standard_normal((3, 4)).astype(np.float32)),
               ("b", rng.standard_normal(4).astype(np.float32))]
    layers, out = roundtrip(2, tensors)
    assert layers == 2
    assert list(out) == ["w", "b"]
    assert np.array_equal(out["w"], tensors[0][1])
    assert np.array_equal(out["b"], tensors[1][1].reshape(1, -1))


def test_layout_is_exact(rng):
    buf = io.BytesIO()
    arr = np.array([[1.0, 2.0]], dtype=np.float32)
    write_container(buf, 1, [("t", arr)])
    raw = buf.getvalue()
    assert raw.startswith(b"PTLBL1\nlayers 1\ntensor t 1 2\n")
    assert raw.endswith(b"end\n")
    payload = raw[len(b"PTLBL1\nlayers 1\ntensor t 1 2\n"):-len(b"end\n")]
    assert payload == arr.astype("<f4").tobytes()


def test_deterministic_bytes(rng):
    arr = rng.standard_normal((5, 5)).astype(np.float32)
    a, b = io.BytesIO(), io.BytesIO()
    write_container(a, 1, [("x", arr)])
    write_container(b, 1, [("x", arr.copy())])
    assert a.getvalue() == b.getvalue()


def test_bad_magic_rejected():
    with pytest.raises(ContainerError, match="magic"):
        read_container(io.BytesIO(b"NOPE!!\n"))


def test_truncated_payload_rejected():
    buf = io.BytesIO()
    write_container(buf, 1, [("t", np.ones((2, 2), dtype=np.float32))])
    clipped = io.BytesIO(buf.getvalue()[:-10])
    with pytest.raises(ContainerError):
        read_container(clipped)


def test_truncated_header_line_rejected():
    buf = io.BytesIO()
    write_container(buf, 1, [("t", np.ones((2, 2), dtype=np.float32))])
    raw = buf.getvalue()
    cut = raw.index(b"tensor t 2 2\n") + len(b"tensor t 2")
    with pytest.raises(ContainerError, match="unexpected end"):
        read_container(io.BytesIO(raw[:cut]))


def test_whitespace_in_name_rejected():
    with pytest.raises(ValueError, match="whitespace"):
        write_container(io.BytesIO(), 1, [("a b", np.ones((1, 1)))])


# float32 bit patterns, with -0.0, NaN and both infinities drawn often
SPECIAL_BITS = [int(np.array(v, dtype=np.float32).view(np.uint32))
                for v in (-0.0, np.nan, np.inf, -np.inf)]
float32_bits = st.one_of(st.integers(0, 2 ** 32 - 1), st.sampled_from(SPECIAL_BITS))
shapes = st.one_of(st.tuples(st.integers(0, 6)),
                   st.tuples(st.integers(0, 4), st.integers(0, 4)))
tensor_lists = st.lists(
    st.tuples(st.text(st.characters(min_codepoint=33, max_codepoint=126),
                      min_size=1, max_size=8),
              shapes.flatmap(lambda s: hnp.arrays(np.uint32, s,
                                                  elements=float32_bits))),
    max_size=5, unique_by=lambda t: t[0])


@settings(max_examples=100, deadline=None)
@given(layers=st.integers(0, 10 ** 6), tensors=tensor_lists)
def test_roundtrip_property(layers, tensors):
    tensors = [(name, bits.view(np.float32)) for name, bits in tensors]
    buf = io.BytesIO()
    write_container(buf, layers, tensors)
    raw = buf.getvalue()
    got_layers, out = read_container(io.BytesIO(raw))
    assert got_layers == layers
    assert list(out) == [name for name, _ in tensors]
    for name, arr in tensors:
        want_shape = (1, arr.size) if arr.ndim == 1 else arr.shape
        assert out[name].shape == want_shape
        assert out[name].dtype == np.float32
        assert out[name].tobytes() == arr.tobytes()
    for cut in range(len(raw)):
        with pytest.raises(ContainerError):
            read_container(io.BytesIO(raw[:cut]))
