"""Small IO helpers shared across modules, and the one array-archive codec.

Weights files and checkpoint optimizer state are np.savez archives:
write_archive writes one atomically, read_archive reads it back as
{name: ndarray} and reports any damaged or foreign file through the
caller's error class.
"""

from __future__ import annotations

import io
import os
import zipfile

import numpy as np
from numpy.lib.npyio import NpzFile

# What np.load and NpzFile raise on a damaged or foreign archive
# (NotImplementedError: a zip feature or version zipfile lacks; MemoryError:
# np.load allocates an entry's declared shape before reading it). np.savez
# writes stored, unencrypted entries; read_archive rejects any other entry
# before reading it, since zipfile raises RuntimeError for encrypted
# entries (flag bit 0), NotImplementedError for flag bits 5 and 6, and
# codec-specific errors for compressed data.
_ARCHIVE_ERRORS = (zipfile.BadZipFile, EOFError, ValueError, OSError, NotImplementedError, MemoryError)
_ZIP_UNREADABLE_FLAGS = 0x01 | 0x20 | 0x40


def atomic_write_bytes(path, data: bytes) -> None:
    """Write a file via temp-and-rename so readers never see partial output."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_archive(path, entries: dict) -> None:
    """np.savez the {name: array} entries to path, atomically."""
    buffer = io.BytesIO()
    np.savez(buffer, **entries)
    atomic_write_bytes(path, buffer.getvalue())


def read_archive(path, error) -> dict:
    """{name: ndarray} of an np.savez archive; raises error(f"{path}: ...") otherwise.

    Pickled objects, bare .npy files and compressed, encrypted or flagged
    zip entries are all rejected.
    """
    try:
        payload = np.load(path, allow_pickle=False)
        if not isinstance(payload, NpzFile):
            raise error(f"{path}: not an np.savez archive")
        with payload:
            for info in payload.zip.infolist():
                if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & _ZIP_UNREADABLE_FLAGS:
                    raise error(f"{path}: entry {info.filename!r} is compressed or encrypted")
            entries = {key: payload[key] for key in payload.files}
    except _ARCHIVE_ERRORS as exc:
        raise error(f"{path}: unreadable archive: {exc}") from exc
    for key, arr in entries.items():
        if not isinstance(arr, np.ndarray):  # a member not written by np.save
            raise error(f"{path}: entry {key!r} is not an array")
    return entries


def fmt(x: float) -> str:
    """Shortest decimal for a float that round-trips exactly via float()."""
    return repr(float(x))
