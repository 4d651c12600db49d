"""Tensor container used for checkpoints and preprocessed block payloads.

Layout (mixed text/binary):

    PTLBL1\n
    layers <n>\n
    tensor <name> <rows> <cols>\n<rows*cols*4 bytes of little-endian float32>
    ...
    end\n

Tensor names may not contain whitespace. Order is preserved on read.
"""

import numpy as np

MAGIC = b"PTLBL1"

__all__ = ["ContainerError", "write_container", "read_container"]


class ContainerError(ValueError):
    """Malformed container stream."""


def write_container(fh, layers, tensors):
    """Write tensors to a binary file object.

    tensors is an iterable of (name, array) pairs; each array is stored
    as float32 with vectors written as a 1-row matrix. Returns {name:
    byte offset of the tensor's header line}.
    """
    offsets = {}
    fh.write(MAGIC + b"\n")
    fh.write(f"layers {int(layers)}\n".encode("ascii"))
    for name, arr in tensors:
        if any(c.isspace() for c in name):
            raise ValueError(f"tensor name may not contain whitespace: {name!r}")
        a = np.asarray(arr, dtype=np.float32)
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if a.ndim != 2:
            raise ValueError(f"tensor {name!r} must be 1-D or 2-D, got shape {a.shape}")
        offsets[name] = fh.tell()
        fh.write(f"tensor {name} {a.shape[0]} {a.shape[1]}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(a).astype("<f4", copy=False).tobytes())
    fh.write(b"end\n")
    return offsets


def _read_line(fh):
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise ContainerError("unexpected end of container")
    return line[:-1]


def read_container(fh):
    """Read a container stream; returns (layers, {name: float32 array})."""
    if fh.read(len(MAGIC) + 1) != MAGIC + b"\n":
        raise ContainerError("bad magic, not a PTLBL1 container")
    parts = _read_line(fh).split()
    if len(parts) != 2 or parts[0] != b"layers":
        raise ContainerError("missing 'layers' line")
    layers = int(parts[1])
    tensors = {}
    while True:
        line = _read_line(fh)
        if line == b"end":
            return layers, tensors
        parts = line.split()
        if len(parts) != 4 or parts[0] != b"tensor":
            raise ContainerError(f"malformed tensor line: {line!r}")
        name = parts[1].decode("ascii")
        rows, cols = int(parts[2]), int(parts[3])
        nbytes = rows * cols * 4
        payload = fh.read(nbytes)
        if len(payload) != nbytes:
            raise ContainerError(f"truncated payload for tensor {name!r}")
        tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).copy()


def write_container_file(path, layers, tensors):
    with open(path, "wb") as fh:
        return write_container(fh, layers, tensors)


def read_container_file(path):
    with open(path, "rb") as fh:
        return read_container(fh)
