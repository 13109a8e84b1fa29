"""CRC32-framed, length-prefixed write-ahead journal files.

The on-disk format is built for crash consistency by construction:

* the file opens with an 8-byte preamble ``b"SCRJRNL1"`` (magic + format
  version) written in the same first ``write`` as the header frame;
* every frame is ``<u32 length><u32 crc32(payload)><payload>`` with both
  integers little-endian and the payload a compact, sorted-keys JSON
  document (UTF-8);
* frames are only ever appended.

A process killed mid-write can therefore leave exactly one kind of
damage: a *torn tail* — a final frame whose length prefix promises more
bytes than the file holds, or whose payload fails the CRC.  Readers
detect that, drop the tail, and report ``torn=True``; every frame before
the tear is intact because it was fully framed before the next append
began.  Anything wrong *before* the tail (bad magic, unreadable header,
unsupported version) is structural and raises
:class:`~repro.errors.JournalError` instead.

Durability: the writer buffers through a regular file object;
``sync()`` flushes and ``fsync``\\ s it, and ``close()`` syncs.  The
writer counts the frames, bytes and fsyncs it wrote.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import zlib
from typing import Any, Iterator

from ..errors import JournalError

#: File preamble: magic + format version.  Bump the digit on breaking
#: format changes; readers reject versions they do not understand.
MAGIC = b"SCRJRNL1"

#: ``<u32 length><u32 crc32>`` little-endian frame prefix.
_PREFIX = struct.Struct("<II")

#: Upper bound on a single frame's payload; anything larger is treated as
#: corruption (a torn length prefix can decode to garbage in the GBs).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Well-known frame kinds (the ``"k"`` key of every payload).
HEADER = "header"
EVENT = "event"
DECISION = "decision"
SNAPSHOT = "snapshot"
END = "end"


#: The one payload encoder.  ``json.dumps`` with these non-default
#: settings would build a new ``JSONEncoder`` for every frame.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_frame(record: dict[str, Any]) -> bytes:
    """Serialize one record into a length-prefixed, CRC-framed blob."""
    payload = _ENCODER.encode(record).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise JournalError(f"frame payload of {len(payload)} bytes exceeds "
                           f"the {MAX_FRAME_BYTES}-byte frame limit")
    return _PREFIX.pack(len(payload), zlib.crc32(payload)) + payload


class JournalWriter:
    """Append-only writer for one journal file.

    The first appended record must be the header (``{"k": "header", ...}``);
    the writer stamps the preamble in front of it.  Use as a context
    manager or call :meth:`close` explicitly.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._handle = open(self.path, "wb")
        self._handle.write(MAGIC)
        self.frames_written = 0
        self.bytes_written = len(MAGIC)
        self.fsyncs = 0

    def append(self, record: dict[str, Any]) -> int:
        """Frame and buffer one record; returns the frame's byte size."""
        if self._handle is None:
            raise JournalError(f"journal {self.path} is closed")
        if self.frames_written == 0 and record.get("k") != HEADER:
            raise JournalError("the first journal frame must be the header")
        blob = encode_frame(record)
        self._handle.write(blob)
        self.frames_written += 1
        self.bytes_written += len(blob)
        return len(blob)

    def sync(self) -> None:
        """Flush and ``fsync``: frames so far survive a machine crash."""
        if self._handle is None:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.fsyncs += 1

    def close(self) -> None:
        """Flush, sync and close (idempotent)."""
        if self._handle is None:
            return
        self.sync()
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


@dataclasses.dataclass(slots=True)
class JournalDocument:
    """A fully read journal: header, intact frames, and tear diagnostics.

    ``frames`` excludes the header.  ``torn`` is True when trailing bytes
    failed the length/CRC check and were dropped; ``torn_reason`` says
    why and ``dropped_bytes`` how many bytes the tear cost.
    """

    path: str
    header: dict[str, Any]
    frames: list[dict[str, Any]]
    torn: bool = False
    torn_reason: str = ""
    dropped_bytes: int = 0

    @property
    def complete(self) -> bool:
        """True when the journal ends with an intact ``end`` frame."""
        return (not self.torn and bool(self.frames)
                and self.frames[-1].get("k") == END)

    def of_kind(self, kind: str) -> list[dict[str, Any]]:
        """All intact frames of one kind, in journal order."""
        return [frame for frame in self.frames if frame.get("k") == kind]


def _iter_frames(blob: bytes) -> Iterator[tuple[dict[str, Any], int]]:
    """Yield ``(record, end_offset)`` for each intact frame in ``blob``.

    Stops silently at the first torn frame; the caller compares the last
    yielded ``end_offset`` against ``len(blob)`` to detect the tear.
    """
    offset = 0
    size = len(blob)
    while offset < size:
        if size - offset < _PREFIX.size:
            return  # torn: partial prefix
        length, crc = _PREFIX.unpack_from(blob, offset)
        start = offset + _PREFIX.size
        if length > MAX_FRAME_BYTES or start + length > size:
            return  # torn: truncated payload (or garbage length)
        payload = blob[start:start + length]
        if zlib.crc32(payload) != crc:
            return  # torn: payload corrupted
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return  # torn: CRC collision over garbage; treat as a tear
        if not isinstance(record, dict):
            return
        offset = start + length
        yield record, offset


def read_journal(path: str | os.PathLike) -> JournalDocument:
    """Read and validate a journal; drop a torn tail instead of raising.

    Raises :class:`JournalError` only for structural damage that no crash
    can explain: missing/incorrect magic, an unsupported version, or a
    missing/unreadable header frame.
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < len(MAGIC) or blob[:len(MAGIC) - 1] != MAGIC[:-1]:
        raise JournalError(f"{path}: not a journal (bad magic)")
    if blob[:len(MAGIC)] != MAGIC:
        raise JournalError(
            f"{path}: unsupported journal version "
            f"{blob[len(MAGIC) - 1:len(MAGIC)]!r} (expected {MAGIC[-1:]!r})")
    body = blob[len(MAGIC):]
    records: list[dict[str, Any]] = []
    consumed = 0
    for record, end in _iter_frames(body):
        records.append(record)
        consumed = end
    torn = consumed < len(body)
    if not records or records[0].get("k") != HEADER:
        raise JournalError(f"{path}: missing or unreadable header frame")
    return JournalDocument(
        path=path, header=records[0], frames=records[1:], torn=torn,
        torn_reason="trailing bytes failed the length/CRC frame check"
        if torn else "",
        dropped_bytes=len(body) - consumed)
