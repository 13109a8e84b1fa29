"""Journal file format: framing, torn tails, CRC, structural errors."""

import json
import struct
import zlib

import pytest

from repro.errors import JournalError
from repro.persist.journal import (END, HEADER, MAGIC, MAX_FRAME_BYTES,
                                   JournalWriter, encode_frame, read_journal)


def write_simple(path, frames=3):
    """A header plus ``frames`` event frames; returns the writer's stats."""
    with JournalWriter(path) as writer:
        writer.append({"k": HEADER, "version": 1, "seed": 0,
                       "scenario": "t", "options": {}, "snapshot_every": 64})
        for i in range(frames):
            writer.append({"k": "event", "seq": i, "kind": "comm"})
        writer.append({"k": END, "status": "ok", "commits": frames})
        return writer.frames_written, writer.bytes_written


def test_encode_frame_roundtrips():
    record = {"k": "event", "seq": 7, "d": {"x": [1, 2], "é": None,
                                             "b": (True, 0.5, "☃")}}
    blob = encode_frame(record)
    length, crc = struct.unpack_from("<II", blob)
    payload = blob[8:]
    assert length == len(payload)
    assert crc == zlib.crc32(payload)
    # Canonical form: sorted keys, no whitespace — byte-stable across runs.
    assert payload == encode_frame(record)[8:]
    assert payload == json.dumps(record, sort_keys=True,
                                 separators=(",", ":")).encode("utf-8")


def test_encode_frame_rejects_oversize():
    with pytest.raises(JournalError, match="frame limit"):
        encode_frame({"k": "event", "d": "x" * (MAX_FRAME_BYTES + 1)})


def test_writer_requires_header_first(tmp_path):
    writer = JournalWriter(tmp_path / "j.jrnl")
    with pytest.raises(JournalError, match="header"):
        writer.append({"k": "event"})
    writer.close()


def test_writer_rejects_append_after_close(tmp_path):
    path = tmp_path / "j.jrnl"
    write_simple(path)
    writer = JournalWriter(tmp_path / "k.jrnl")
    writer.close()
    with pytest.raises(JournalError, match="closed"):
        writer.append({"k": HEADER})


def test_read_journal_roundtrips(tmp_path):
    path = tmp_path / "j.jrnl"
    frames, size = write_simple(path, frames=5)
    doc = read_journal(path)
    assert doc.header["scenario"] == "t"
    assert len(doc.frames) == frames - 1          # header excluded
    assert not doc.torn and doc.complete
    assert doc.dropped_bytes == 0
    assert [f["seq"] for f in doc.of_kind("event")] == list(range(5))


def test_torn_tail_truncated_payload(tmp_path):
    path = tmp_path / "j.jrnl"
    write_simple(path, frames=4)
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(size - 5)                 # mid-frame tear
    doc = read_journal(path)
    assert doc.torn and not doc.complete
    assert doc.dropped_bytes > 0
    # Everything before the tear is intact.
    assert len(doc.of_kind("event")) == 4
    assert not doc.of_kind(END)


def test_torn_tail_partial_prefix(tmp_path):
    path = tmp_path / "j.jrnl"
    write_simple(path, frames=2)
    with open(path, "ab") as handle:
        handle.write(b"\x03\x00")                 # 2 of 8 prefix bytes
    doc = read_journal(path)
    assert doc.torn
    assert len(doc.of_kind("event")) == 2


def test_torn_tail_crc_mismatch(tmp_path):
    path = tmp_path / "j.jrnl"
    write_simple(path, frames=3)
    data = bytearray(path.read_bytes())
    data[-2] ^= 0xFF                              # corrupt the end frame
    path.write_bytes(bytes(data))
    doc = read_journal(path)
    assert doc.torn and not doc.complete
    assert "CRC" in doc.torn_reason
    assert len(doc.of_kind("event")) == 3


def test_garbage_length_prefix_reads_as_tear(tmp_path):
    path = tmp_path / "j.jrnl"
    write_simple(path, frames=1)
    with open(path, "ab") as handle:
        # A length prefix promising gigabytes: treated as corruption, not
        # an allocation attempt.
        handle.write(struct.pack("<II", 1 << 31, 0) + b"oops")
    doc = read_journal(path)
    assert doc.torn
    assert len(doc.of_kind("event")) == 1


def test_bad_magic_is_structural(tmp_path):
    path = tmp_path / "not.jrnl"
    path.write_bytes(b"GARBAGE!" + b"\x00" * 32)
    with pytest.raises(JournalError, match="bad magic"):
        read_journal(path)


def test_unsupported_version_is_structural(tmp_path):
    path = tmp_path / "v9.jrnl"
    data = bytearray(MAGIC)
    data[-1] = ord("9")
    path.write_bytes(bytes(data))
    with pytest.raises(JournalError, match="version"):
        read_journal(path)


def test_missing_header_is_structural(tmp_path):
    path = tmp_path / "h.jrnl"
    path.write_bytes(MAGIC)                       # preamble, zero frames
    with pytest.raises(JournalError, match="header"):
        read_journal(path)


def test_fsync_cadence_counts_syncs(tmp_path):
    # Appends never sync; sync() and close() do, and each one counts.
    path = tmp_path / "j.jrnl"
    with JournalWriter(path) as writer:
        writer.append({"k": HEADER, "version": 1, "seed": 0,
                       "scenario": "t", "options": {}, "snapshot_every": 64})
        writer.append({"k": "event", "seq": 0})
        assert writer.fsyncs == 0
        writer.sync()
        writer.sync()
        assert writer.fsyncs == 2
    assert writer.fsyncs == 3                     # close syncs once more
    writer.sync()                                 # closed: nothing to sync
    assert writer.fsyncs == 3
