"""Durable storage for the dictionary-encoded graph store.

Everything else in the middleware is an in-memory object: a process death
loses every district's annotations, closure and standing view.  This
package is the fix — a per-shard append-only **write-ahead log** of encoded
``(int, int, int)`` add/remove deltas (the same shape the
:class:`~repro.semantics.rdf.graph.ChangeTracker` journal already buffers)
interleaved with ``(id, term)`` dictionary segments, plus periodic compact
**snapshots** of dictionary + SPO index with checksums, and crash-recovery
replay: load the newest valid snapshot, then replay the WAL tail, stopping
cleanly at a torn final record.

Layout::

    data_dir/
        meta.json            # shard count + backend (re-sharding is refused)
        views.json           # standing-view registrations, replayed on restart
        shard-0000/
            snap-<gen>.bin   # checksummed snapshot (dictionary + triples)
            wal-<gen>.log    # ops since snap-<gen>
        shard-0001/ ...

See :mod:`repro.persistence.wal` for the record format,
:mod:`repro.persistence.snapshot` for the snapshot format and
:mod:`repro.persistence.store` for segment rotation and recovery.
"""

from repro.persistence.dead_letter import DeadLetterJournal
from repro.persistence.snapshot import load_snapshot, restore_graph, write_snapshot
from repro.persistence.store import (
    ShardPersistence,
    StoreMetadataError,
    StorePersistence,
)
from repro.persistence.wal import GraphWal, WriteAheadLog, replay_wal

__all__ = [
    "DeadLetterJournal",
    "GraphWal",
    "ShardPersistence",
    "StoreMetadataError",
    "StorePersistence",
    "WriteAheadLog",
    "load_snapshot",
    "replay_wal",
    "restore_graph",
    "write_snapshot",
]
