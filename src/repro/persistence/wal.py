"""Per-shard append-only write-ahead log.

Record stream: ``[u32 payload length][u32 crc32(payload)][payload]`` frames,
little-endian.  A frame's payload is a *sequence* of ops, each starting
with its opcode byte:

* ``T`` — dictionary segment: ``varint id`` + one encoded term.  The term
  dictionary is append-only, so replaying ``T`` records in order reproduces
  the exact id assignment; every triple op only references ids defined by
  an earlier ``T`` record or by the snapshot the segment is based on.
* ``A`` / ``R`` — add / remove of one encoded triple: three fixed-width
  little-endian u32 ids (dictionary ids are dense list indexes, so u32
  cannot overflow for an in-memory store; the fixed layout packs and
  unpacks in one C call on the hottest path of the whole subsystem).
* ``C`` — clear: the indexes empty, the dictionary is *kept* (mirroring
  :meth:`~repro.semantics.rdf.graph.Graph.clear`'s id-stability contract).

Frame granularity follows the durability policy: under ``"always"`` every
op is sealed (crc + length) and fsynced as its own frame, while under
``"batch"`` / ``"never"`` ops accumulate in one open frame that is sealed
at :meth:`commit` — the checksum then covers the whole batch at C speed
instead of taxing every mutation, and a torn frame loses exactly the batch
that was never durable in the first place.

Replay (:func:`replay_wal`) is tolerant of a **torn tail**: a crash can cut
the final frame anywhere (short header, short payload, failed checksum) and
recovery simply stops at the last intact frame — the log's length prefix +
checksum make "intact" decidable without trusting the file size.

Durability policy (``fsync``):

* ``"always"`` — every append is written and fsynced before returning.
* ``"batch"`` (default) — appends accumulate in a buffer; :meth:`commit`
  writes and fsyncs.  A shard commits after every write op (an ingest
  batch's share, a reasoner top-up), so a crash loses at most the op in
  flight.
* ``"never"`` — :meth:`commit` writes to the OS but never fsyncs; a crash
  of the *process* still loses only the op in flight, a crash of the
  *machine* may lose what the kernel had not flushed.

The file is opened unbuffered and the buffer is this module's own, so
dropping a :class:`WriteAheadLog` without :meth:`commit` models a process
kill exactly: nothing buffered reaches the file behind the crash's back.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import List, Tuple, Union

from repro.persistence.codec import (
    decode_term,
    encode_term_into,
    read_uvarint,
    write_uvarint,
)
from repro.semantics.rdf.dictionary import TripleIds
from repro.semantics.rdf.graph import Graph
from repro.semantics.rdf.term import Term

_FRAME = struct.Struct("<II")  # payload length, crc32
_HEADER_SIZE = _FRAME.size
_FRAME_HOLE = bytes(_HEADER_SIZE)

# a whole triple op — opcode + three fixed u32 ids — packs in one C call;
# dictionary ids are dense list indexes, so u32 can never overflow in RAM
_TRIPLE_OP = struct.Struct("<BIII")
_TRIPLE_IDS = struct.Struct("<III")

#: An op produced by :func:`replay_wal`.
#: ``("term", id, Term)`` | ``("add", s, p, o)`` | ``("remove", s, p, o)``
#: | ``("clear",)``
WalOp = Tuple[object, ...]

_OP_TERM = ord("T")
_OP_ADD = ord("A")
_OP_REMOVE = ord("R")
_OP_CLEAR = ord("C")

#: Upper bound on a single record payload; anything larger is corruption.
_MAX_PAYLOAD = 1 << 28

#: Soft cap on the in-memory buffer before it spills to the OS (without
#: fsync) even under the "batch" / "never" policies.
_SPILL_BYTES = 1 << 20

FSYNC_POLICIES = ("always", "batch", "never")


class WriteAheadLog:
    """An append-only framed record log with a configurable fsync policy."""

    def __init__(self, path: Union[str, Path], fsync: str = "batch", fault_hook=None):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        self.path = Path(path)
        self.fsync = fsync
        self._fsync_always = fsync == "always"
        #: Optional fault-injection hook called before writes and fsyncs
        #: (``hook(event, buffer=..., fh=...)``); raising ``OSError`` from it
        #: models a full disk, and it may write a partial frame first to
        #: model a torn tail.  See :mod:`repro.core.faults`.
        self.fault_hook = fault_hook
        self._file = open(self.path, "ab", buffering=0)
        # the buffer always carries an OPEN frame: an 8-byte header hole
        # at _frame_start with ops accumulating after it.  Keeping the
        # hole pre-opened means the append paths never branch on frame
        # state — they just push bytes.
        self._buffer = bytearray(_FRAME_HOLE)
        self._frame_start = 0
        #: Records appended to this segment (including replayed ones when
        #: the caller seeds it after recovery) — drives checkpoint cadence.
        self.records = 0

    # -- framing ------------------------------------------------------- #
    #
    # Ops are encoded straight into the shared buffer behind the open
    # frame's header hole; the length + crc are patched in when the frame
    # seals (per op under "always", per commit otherwise).  One pass, no
    # per-record allocation: this is the hottest path of the whole
    # persistence layer — it rides every graph mutation of every shard.

    def _seal_frame(self) -> None:
        buffer = self._buffer
        start = self._frame_start
        begin = start + _HEADER_SIZE
        if len(buffer) == begin:
            # nothing was appended: drop the empty frame instead of
            # writing a zero-length record
            del buffer[start:]
            return
        crc = zlib.crc32(memoryview(buffer)[begin:])
        _FRAME.pack_into(buffer, start, len(buffer) - begin, crc)

    def _open_frame(self) -> None:
        self._frame_start = len(self._buffer)
        self._buffer += _FRAME_HOLE

    def _flush_always(self) -> None:
        """Seal + write + fsync one op's frame (the ``"always"`` policy)."""
        self._seal_frame()
        self._write_out()
        if self.fault_hook is not None:
            self.fault_hook("fsync", fh=self._file)
        os.fsync(self._file.fileno())
        self._open_frame()

    def _spill(self) -> None:
        """Push an oversized batch frame to the OS without fsync."""
        self._seal_frame()
        self._write_out()
        self._open_frame()

    def _after_op(self) -> None:
        self.records += 1
        if self._fsync_always:
            self._flush_always()
        elif len(self._buffer) >= _SPILL_BYTES:
            self._spill()

    def _write_out(self) -> None:
        if not self._buffer:
            return
        if self.fault_hook is not None:
            self.fault_hook("write", buffer=self._buffer, fh=self._file)
            if not self._buffer:
                # the hook consumed the frame (torn-write injection)
                return
        view = memoryview(self._buffer)
        while view:
            written = self._file.write(view)
            view = view[written:]
        view.release()
        # clear in place: the buffer object's identity is part of the API
        # (GraphWal caches it to journal without an attribute/method hop)
        del self._buffer[:]

    # -- the op vocabulary --------------------------------------------- #

    def append_term(self, term_id: int, term: Term) -> None:
        """Log one dictionary segment entry (``id -> term``)."""
        buffer = self._buffer
        buffer.append(_OP_TERM)
        write_uvarint(buffer, term_id)
        encode_term_into(buffer, term)
        self._after_op()

    def append_terms(self, start_id: int, terms) -> None:
        """Log a run of consecutive dictionary entries in one call.

        Equivalent to ``append_term`` per entry (one ``T`` op each) but
        pays the durability-policy check once, with the id varint written
        inline — the shape :class:`GraphWal` hits before every triple of
        a fresh observation.
        """
        buffer = self._buffer
        term_id = start_id
        for term in terms:
            buffer.append(_OP_TERM)
            value = term_id
            while value > 0x7F:
                buffer.append((value & 0x7F) | 0x80)
                value >>= 7
            buffer.append(value)
            encode_term_into(buffer, term)
            term_id += 1
        self.records += term_id - start_id
        if self._fsync_always:
            self._flush_always()
        elif len(buffer) >= _SPILL_BYTES:
            self._spill()

    def append_add(self, ids: TripleIds) -> None:
        """Log the insertion of one encoded triple."""
        # one C-level pack for the whole op, no frame-state branch: this
        # method rides every triple insert of every shard
        self._buffer += _TRIPLE_OP.pack(_OP_ADD, ids[0], ids[1], ids[2])
        self._after_op()

    def append_remove(self, ids: TripleIds) -> None:
        """Log the removal of one encoded triple."""
        self._buffer += _TRIPLE_OP.pack(_OP_REMOVE, ids[0], ids[1], ids[2])
        self._after_op()

    def append_clear(self) -> None:
        """Log a clear (indexes emptied, dictionary kept)."""
        self._buffer.append(_OP_CLEAR)
        self._after_op()

    # -- durability ---------------------------------------------------- #

    def commit(self) -> None:
        """Seal the open frame, flush it to the file, fsync per policy."""
        self._seal_frame()
        self._write_out()
        if self.fsync != "never":
            if self.fault_hook is not None:
                self.fault_hook("fsync", fh=self._file)
            os.fsync(self._file.fileno())
        self._open_frame()

    def close(self) -> None:
        """Commit and close (a graceful shutdown, not a crash)."""
        if self._file.closed:
            return
        self.commit()
        self._file.close()

    def kill(self) -> None:
        """Drop the buffer and the file handle *without* flushing.

        Models a ``SIGKILL`` for the crash-recovery tests: whatever
        :meth:`commit` had not pushed to the file never existed.
        """
        self._buffer = bytearray(_FRAME_HOLE)
        self._frame_start = 0
        if not self._file.closed:
            self._file.close()

    def __repr__(self) -> str:
        return f"<WriteAheadLog {self.path} records={self.records} fsync={self.fsync}>"


def _decode_op(payload: bytes, offset: int) -> Tuple[WalOp, int]:
    opcode = payload[offset]
    offset += 1
    if opcode == _OP_ADD or opcode == _OP_REMOVE:
        end = offset + _TRIPLE_IDS.size
        if end > len(payload):
            raise ValueError("truncated triple op")
        s, p, o = _TRIPLE_IDS.unpack_from(payload, offset)
        return ("add" if opcode == _OP_ADD else "remove", s, p, o), end
    if opcode == _OP_TERM:
        term_id, offset = read_uvarint(payload, offset)
        term, offset = decode_term(payload, offset)
        return ("term", term_id, term), offset
    if opcode == _OP_CLEAR:
        return ("clear",), offset
    raise ValueError(f"unknown WAL opcode {opcode}")


def replay_wal(path: Union[str, Path]) -> Tuple[List[WalOp], int]:
    """Read every intact record of a WAL segment.

    Returns ``(ops, valid_length)`` where ``valid_length`` is the byte
    offset just past the last intact record.  A torn or corrupt tail —
    short frame header, short payload, checksum failure, undecodable
    payload — ends the replay silently: everything at or after the first
    bad frame is treated as never written.  Callers re-opening the segment
    for appending must truncate it to ``valid_length`` first.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    data = path.read_bytes()
    ops: List[WalOp] = []
    offset = 0
    size = len(data)
    header = _FRAME.size
    while offset + header <= size:
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + header
        end = start + length
        if length > _MAX_PAYLOAD or end > size:
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break
        # a frame holds 1+ ops; keep all or none — a decode failure inside
        # a checksum-valid frame means the frame was never fully written
        frame_ops: List[WalOp] = []
        position = 0
        try:
            while position < length:
                op, position = _decode_op(payload, position)
                frame_ops.append(op)
        except (ValueError, IndexError):
            break
        ops.extend(frame_ops)
        offset = end
    return ops, offset


def apply_ops(graph: Graph, ops: List[WalOp]) -> None:
    """Replay decoded WAL ops onto ``graph`` (snapshot state loaded first)."""
    dictionary = graph.dictionary
    for op in ops:
        kind = op[0]
        if kind == "add":
            graph.add_encoded(op[1], op[2], op[3])
        elif kind == "remove":
            graph.remove(dictionary.decode_triple((op[1], op[2], op[3])))
        elif kind == "term":
            dictionary.define(op[1], op[2])
        else:  # "clear"
            graph.clear()


class GraphWal:
    """The journal sink binding one :class:`Graph` to one WAL segment.

    Registered via :meth:`Graph.attach_journal`, it receives every mutation
    *in order* (unlike a :class:`~repro.semantics.rdf.graph.ChangeTracker`,
    whose drained delta folds adds and retractions together and therefore
    cannot express ``add a; clear; add b``).  Before each triple op it logs
    the dictionary's growth since the last op as ``T`` records, so the
    replayed dictionary always assigns exactly the original ids.
    """

    __slots__ = (
        "graph",
        "wal",
        "_buffer",
        "_always",
        "_terms",
        "_terms_logged",
    )

    def __init__(self, graph: Graph, wal: WriteAheadLog):
        self.graph = graph
        self.wal = wal
        # the dictionary's term list is append-only and mutated in place,
        # so caching the list object keeps the per-op staleness check at
        # one C-level len(); the WAL's buffer identity is likewise stable
        # for the life of a segment, letting log_add/log_remove journal
        # without an extra method call per mutation
        self._buffer = wal._buffer
        self._always = wal._fsync_always
        self._terms = graph.dictionary.terms
        self._terms_logged = len(self._terms)
        graph.attach_journal(self)

    def _sync_terms(self) -> None:
        terms = self._terms
        logged = self._terms_logged
        self.wal.append_terms(logged, terms[logged:])
        self._terms_logged = len(terms)

    # -- the Graph journal protocol ------------------------------------ #

    def log_add(self, ids: TripleIds) -> None:
        # inlined WriteAheadLog.append_add: one mutation = one call here,
        # and the journal rides every graph mutation of every shard
        if len(self._terms) != self._terms_logged:
            self._sync_terms()
        buffer = self._buffer
        buffer += _TRIPLE_OP.pack(_OP_ADD, ids[0], ids[1], ids[2])
        wal = self.wal
        wal.records += 1
        if self._always:
            wal._flush_always()
        elif len(buffer) >= _SPILL_BYTES:
            wal._spill()

    def log_remove(self, ids: TripleIds) -> None:
        if len(self._terms) != self._terms_logged:
            self._sync_terms()
        buffer = self._buffer
        buffer += _TRIPLE_OP.pack(_OP_REMOVE, ids[0], ids[1], ids[2])
        wal = self.wal
        wal.records += 1
        if self._always:
            wal._flush_always()
        elif len(buffer) >= _SPILL_BYTES:
            wal._spill()

    def log_clear(self) -> None:
        self.wal.append_clear()

    # -- segment rotation ---------------------------------------------- #

    def rotate(self, wal: WriteAheadLog) -> None:
        """Switch to a fresh segment after a snapshot captured the state.

        The snapshot holds the full dictionary, so term logging restarts
        from the dictionary's current length.
        """
        self.wal = wal
        self._buffer = wal._buffer
        self._always = wal._fsync_always
        self._terms_logged = len(self._terms)

    def detach(self) -> None:
        """Stop observing the graph (idempotent)."""
        self.graph.detach_journal(self)
