"""Native on-disk tensor format.

Layout: 4-byte magic ``HSRT``, 1-byte format version (1), three 64-bit
little-endian unsigned dims I, J, K, then I*J*K finite IEEE-754 doubles,
little endian, with index i varying fastest, then j, then k (column-major
order).  :func:`read_tensor` refuses a payload that holds NaN or Inf;
:func:`write_tensor` writes what it is given.  Writes go through a temporary
file in the destination directory followed by an atomic rename, so readers
never observe a partial file.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .errors import FormatError
from .tensor_ops import _check_tensor3

__all__ = ["MAGIC", "VERSION", "read_tensor", "write_tensor"]

MAGIC = b"HSRT"
VERSION = 1
_HEADER = struct.Struct("<4sBQQQ")  # magic, version, I, J, K


def write_tensor(path, t) -> None:
    """Write a 3-d float array to ``path`` atomically.

    A column-major ``t`` (what ``btd_reconstruct``, ``mode_product`` and
    :func:`read_tensor` give) is written as it is; other layouts are copied.
    """
    t = _check_tensor3(t)
    path = os.fspath(path)
    header = _HEADER.pack(MAGIC, VERSION, *t.shape)
    # column-major little-endian doubles, copied only when t is not laid out
    # that way already (the ravel of a Fortran-ordered array is a view)
    payload = np.asfortranarray(t, dtype="<f8").ravel(order="F")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_tensor(path) -> np.ndarray:
    """Read a tensor written by :func:`write_tensor`, verifying the header.

    A payload that holds NaN or Inf is refused with :class:`FormatError`:
    every command that reads a tensor file needs finite data.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"{path}: truncated header ({len(head)} bytes)")
        magic, version, i, j, k = _HEADER.unpack(head)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        if min(i, j, k) < 1:
            raise FormatError(f"{path}: invalid dims {(i, j, k)}")
        n = i * j * k
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER.size + 8 * n
        if size != expected:
            raise FormatError(
                f"{path}: payload is {size - _HEADER.size} bytes, dims {(i, j, k)} "
                f"require {8 * n}"
            )
        out = np.empty(n, dtype="<f8")
        got = fh.readinto(memoryview(out).cast("B"))
    if got != 8 * n:
        raise FormatError(f"{path}: short read of payload")
    bad = n - int(np.count_nonzero(np.isfinite(out)))
    if bad:
        raise FormatError(f"{path}: {bad} non-finite entries (NaN or Inf)")
    return out.astype(np.float64, copy=False).reshape((i, j, k), order="F")
