"""Binary checkpoint container for named float64 arrays.

Layout (all integers little-endian):

    magic   4 bytes  b"FAFW"
    version u16      currently 1
    record* repeated until EOF:
        name_len u16
        name     UTF-8, name_len bytes
        rank     u8
        dims     u32 * rank
        data     f64 * prod(dims)

Bitwise round-trip is guaranteed: save(load(path)) reproduces the file
byte for byte because record order is the caller's dict order and f64
payloads are written verbatim.
"""

import struct

import numpy as np

from .errors import FormatError

MAGIC = b"FAFW"
VERSION = 1
_MAX_RANK = 64  # numpy's limit on array dimensions


def save_arrays(path, arrays):
    """Write a name->ndarray mapping; values are cast to float64."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype=np.float64)
            nb = name.encode("utf-8")
            if len(nb) > 0xFFFF:
                raise FormatError(f"array name too long: {len(nb)} bytes")
            if arr.ndim > 0xFF:
                raise FormatError(f"array rank too large: {arr.ndim}")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def load_arrays(path):
    """Read a checkpoint back into a dict, preserving record order.

    A malformed file raises FormatError with the byte offset of the bad
    field: bad magic or version, a truncated header, name, dims or
    payload, a name that is not UTF-8 or repeats an earlier record's,
    a rank above numpy's 64 dimensions, or dims too big for numpy.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    if len(blob) < 6 or blob[:4] != MAGIC:
        raise FormatError("bad magic, not a checkpoint file", offset=0)
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)

    out = {}
    pos = 6
    n = len(blob)
    while pos < n:
        if pos + 2 > n:
            raise FormatError("truncated record header", offset=pos)
        (name_len,) = struct.unpack_from("<H", blob, pos)
        pos += 2
        if pos + name_len > n:
            raise FormatError("truncated array name", offset=pos)
        try:
            name = blob[pos : pos + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("array name is not valid UTF-8", offset=pos) from None
        if name in out:
            raise FormatError(f"duplicate record {name!r}", offset=pos)
        pos += name_len
        if pos + 1 > n:
            raise FormatError("truncated rank byte", offset=pos)
        rank = blob[pos]
        if rank > _MAX_RANK:
            raise FormatError(f"rank {rank} of {name!r} is above {_MAX_RANK}", offset=pos)
        pos += 1
        if pos + 4 * rank > n:
            raise FormatError("truncated dims", offset=pos)
        dims = struct.unpack_from(f"<{rank}I", blob, pos)
        pos += 4 * rank
        count = 1
        for d in dims:
            count *= d
        nbytes = 8 * count
        if pos + nbytes > n:
            raise FormatError(f"truncated data for {name!r}", offset=pos)
        try:
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=pos).reshape(dims)
        except ValueError:  # an empty array whose other dims overflow numpy's size
            raise FormatError(f"dims {dims} of {name!r} are too big",
                              offset=pos - 4 * rank) from None
        out[name] = arr.astype(np.float64)
        pos += nbytes
    return out


def save_model(path, named_params, extra=None):
    """Serialize model parameters (name -> Tensor) plus optional raw arrays."""
    arrays = {name: p.data for name, p in named_params.items()}
    if extra:
        for k, v in extra.items():
            if k in arrays:
                raise FormatError(f"duplicate checkpoint record {k!r}")
            arrays[k] = v
    save_arrays(path, arrays)


def load_model(path, named_params):
    """Load a checkpoint file into existing parameter tensors in place.

    Returns the leftover records (e.g. optimizer state) that did not
    match any parameter name.
    """
    return load_params(load_arrays(path), named_params)


def load_params(arrays, named_params):
    """Move the records of ``arrays`` named like parameters into them.

    ``arrays`` is a dict as `load_arrays` returns it; the matched records
    are popped from it, and the rest are returned.
    """
    missing = [k for k in named_params if k not in arrays]
    if missing:
        raise FormatError(f"checkpoint is missing parameters: {missing[:4]}")
    for name, p in named_params.items():
        arr = arrays.pop(name)
        if arr.shape != p.data.shape:
            raise FormatError(
                f"shape mismatch for {name!r}: file has {arr.shape}, model has {p.data.shape}"
            )
        p.data = arr
    return arrays
