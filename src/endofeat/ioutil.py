"""Small IO helpers shared across modules, the one array-archive codec and
the one text-record reader.

Weights files and checkpoint optimizer state are np.savez archives:
write_archive writes one atomically, read_archive reads it back as
{name: ndarray} and reports any damaged or foreign file through the
caller's error class.

Label, pose, intrinsics and feature files are UTF-8 text read by
read_records: one record per line, blank and '#' lines skipped, fields of
plain ASCII without '_', and every error names the file (and the line, for
a bad record) as a ValueError. read_float_records reads a plainly
well-formed file of finite float records in one pass, and hands any other
file back to read_records.
"""

from __future__ import annotations

import io
import os
import re
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


def atomic_write_bytes(path, data) -> None:
    """Write data, any bytes-like object (bytes, a memoryview, a C-contiguous
    array's buffer), via temp-and-rename so readers never see partial output."""
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
    atomic_write_bytes(path, buffer.getbuffer())


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


def read_records(path, usage: str, parse, header=None):
    """Yield parse(fields) for each record of the UTF-8 text file at path.

    A record is a line that is neither blank nor a '#' comment; lines count
    from 1. Every error is a ValueError that names the file:
    - a record field that is not ASCII or holds '_' raises
      f"{path}:{line}: ...", since int() and float() would read '1_0' as
      10 and non-ASCII digits as numbers;
    - a record whose field count differs from usage's ('x y score': three)
      raises f"{path}:{line}: expected {usage!r}";
    - a ValueError from parse is re-raised as f"{path}:{line}: {msg}";
    - a file that is not UTF-8 raises f"{path}: not UTF-8 text: ...".
    With header, the first record is yielded as header(text) instead, where
    text is its line without the newline; header checks its own fields, and
    its ValueError is re-raised as f"{path}: {msg}".

    This is the per-line path, and the one that words every error:
    read_float_records parses a plainly well-formed file of float records
    in one pass, and its caller comes here for any other file.
    """
    n_fields = len(usage.split())
    try:
        with open(path, "r", encoding="utf-8") as f:
            for ln, line in enumerate(f, 1):
                fields = line.split()
                if not fields or fields[0].startswith("#"):
                    continue
                if not line.isascii() or "_" in line:  # rare: find the field at fault
                    bad = next((x for x in fields if not x.isascii() or "_" in x), None)
                    if bad is not None:
                        raise ValueError(f"{path}:{ln}: field {bad!r} is not ASCII without '_'")
                if header is not None:
                    try:
                        record = header(line.rstrip("\n"))
                    except ValueError as exc:
                        raise ValueError(f"{path}: {exc}") from exc
                    header = None
                elif len(fields) != n_fields:
                    raise ValueError(f"{path}:{ln}: expected {usage!r}")
                else:
                    try:
                        record = parse(fields)
                    except ValueError as exc:
                        raise ValueError(f"{path}:{ln}: {exc}") from exc
                yield record
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc


# A plain line: fields of printable ASCII apart by spaces or tabs, ended by
# "\n"; %s repeats the fields after the first.
_PLAIN_LINE = rb"[ \t]*[!-~]+(?:[ \t]+[!-~]+)%s[ \t]*\n"


def read_float_records(path, usage: str, header):
    """(header(text), (n, k) float64 array) of a header line and finite float
    records, read in one pass; None when the file is not plainly well formed.

    Plainly well formed: every line, the last included, ends in "\n" and
    holds only printable ASCII fields apart by spaces or tabs, with no '#'
    or '_'; the first line is a header that header(text) accepts, and each
    later line holds one record of usage's k fields, each a float() token
    whose value is finite. The whole text is tokenised once and converted
    by one float() map, so each value is the one read_records' parse reads
    from the same token. A None asks the caller to read the file with
    read_records, so every error keeps the message that names its line.
    """
    k = len(usage.split())
    with open(path, "rb") as f:
        raw = f.read()
    header_line, record_line = _PLAIN_LINE % b"*", _PLAIN_LINE % (b"{%d}" % (k - 1))
    if b"#" in raw or b"_" in raw or re.fullmatch(b"%s(?:%s)*" % (header_line, record_line), raw) is None:
        return None
    head, _, body = raw.decode("ascii").partition("\n")
    tokens = body.split()
    try:
        record = header(head)
        values = np.fromiter(map(float, tokens), np.float64, count=len(tokens))
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return record, values.reshape(-1, k)


def fmt(x: float) -> str:
    """Shortest decimal for a float that round-trips exactly via float()."""
    return repr(float(x))
