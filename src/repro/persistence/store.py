"""Segment rotation, crash recovery, and the multi-shard manager.

One shard's durable state is a *generation*: ``snap-<gen>.bin`` (the state
at checkpoint time) plus ``wal-<gen>.log`` (every op since).  A checkpoint
advances the generation with a strict ordering that keeps every instant
crash-recoverable:

1. write ``snap-<gen+1>.bin`` (itself atomic: tmp + fsync + rename),
2. open ``wal-<gen+1>.log`` and rotate the graph's journal onto it,
3. delete the old generation's files *last*.

A crash before (1) completes leaves the old generation intact; a crash
between (1) and (3) leaves both generations, and recovery simply picks the
newest valid snapshot.  Recovery replays the matching WAL, truncates any
torn tail, and re-opens the segment for appending.

:class:`ShardPersistence` is one shard's segment, opened, committed and
rolled by the :class:`~repro.core.shard.Shard` that owns it — once a
commit leaves ``snapshot_interval`` records behind the snapshot, the
commit itself checkpoints.  :class:`StorePersistence` is the directory
around the segments of a layer (or a single graph — a one-shard store):
``meta.json`` (the shard count is fixed when the store is created;
re-sharding an existing data dir is refused), ``views.json``
(standing-view registrations replayed on restart) and the factory every
shard opens its segment through.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ReproError
from repro.persistence.snapshot import load_snapshot, restore_graph, write_snapshot
from repro.persistence.wal import GraphWal, WriteAheadLog, apply_ops, replay_wal
from repro.semantics.rdf.graph import Graph

_SNAP_RE = re.compile(r"^snap-(\d{8})\.bin$")
_WAL_RE = re.compile(r"^wal-(\d{8})\.log$")

#: Default WAL records per segment before :meth:`ShardPersistence.commit`
#: rolls a new snapshot.
DEFAULT_SNAPSHOT_INTERVAL = 50_000


def _snap_name(gen: int) -> str:
    return f"snap-{gen:08d}.bin"


def _wal_name(gen: int) -> str:
    return f"wal-{gen:08d}.log"


class StoreMetadataError(ReproError, RuntimeError):
    """``meta.json`` is missing, corrupt, or not a store description.

    Raised instead of a raw ``JSONDecodeError``/``KeyError`` so callers can
    distinguish "this directory is damaged" from a programming error.  The
    meta file is written atomically (tmp + fsync + rename), so corruption
    here means external interference, not a crash mid-write.  Keeps
    :class:`RuntimeError` in its bases for pre-hierarchy callers; the
    stable code ``store_metadata`` feeds the gateway's status table.
    """

    code = "store_metadata"


def _atomic_write_json(path: Path, payload: object) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class ShardPersistence:
    """Durability for one shard: a snapshot generation plus its WAL."""

    def __init__(
        self,
        shard_dir: Union[str, Path],
        fsync: str = "batch",
        fault_hook=None,
        snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL,
    ):
        self.shard_dir = Path(shard_dir)
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.snapshot_interval = snapshot_interval
        #: Passed through to every WAL segment (fault injection; see
        #: :class:`repro.core.faults.FaultInjector`).
        self.fault_hook = fault_hook
        self.generation = 0
        self.graph: Optional[Graph] = None
        self.wal: Optional[WriteAheadLog] = None
        self.graph_wal: Optional[GraphWal] = None
        #: Ops replayed from the WAL tail during the last :meth:`recover`.
        self.replayed_ops = 0
        #: Optional callable returning the standing-view rows to persist in
        #: the next checkpoint's snapshot, as ``(name, text, bases)``
        #: tuples; the caller must refresh the views first so the rows
        #: match the snapshotted graph state.
        self.view_source = None
        #: View-rows section of the snapshot the last :meth:`recover` chose.
        self._recovered_views: list = []

    # -- directory scanning -------------------------------------------- #

    def _generations(self, pattern: "re.Pattern[str]") -> List[int]:
        gens = []
        for entry in self.shard_dir.iterdir():
            match = pattern.match(entry.name)
            if match:
                gens.append(int(match.group(1)))
        gens.sort()
        return gens

    # -- cold start ----------------------------------------------------- #

    def attach(self, graph: Graph) -> None:
        """Start journalling a fresh (never-persisted) graph.

        Writes the current generation's snapshot of the graph's state —
        typically the replicated ontology axioms — then opens the WAL, so
        a crash before the first commit still recovers to the base state.
        """
        self.graph = graph
        write_snapshot(graph, self.shard_dir / _snap_name(self.generation))
        self.wal = WriteAheadLog(
            self.shard_dir / _wal_name(self.generation),
            fsync=self.fsync,
            fault_hook=self.fault_hook,
        )
        self.graph_wal = GraphWal(graph, self.wal)

    # -- recovery ------------------------------------------------------- #

    def recover(self) -> Graph:
        """Rebuild the shard's graph from the newest valid generation.

        Loads the newest snapshot that validates, replays its WAL tail up
        to the last intact record, truncates the torn remainder, and
        re-opens the segment for appending.  When no snapshot validates at
        all, recovery starts from an empty graph on a generation past
        anything on disk — a stale WAL must not be replayed against a
        dictionary it was not written for.
        """
        snap_gens = self._generations(_SNAP_RE)
        wal_gens = self._generations(_WAL_RE)
        graph: Optional[Graph] = None
        chosen: Optional[int] = None
        for gen in reversed(snap_gens):
            data = load_snapshot(self.shard_dir / _snap_name(gen))
            if data is not None:
                graph = restore_graph(data)
                chosen = gen
                self._recovered_views = data.views
                break
        self.replayed_ops = 0
        if graph is None:
            graph = Graph()
            self.generation = max(snap_gens + wal_gens, default=-1) + 1
            self.attach(graph)
            return graph
        self.generation = chosen
        wal_path = self.shard_dir / _wal_name(chosen)
        ops, valid_bytes = replay_wal(wal_path)
        apply_ops(graph, ops)
        self.replayed_ops = len(ops)
        if wal_path.exists() and wal_path.stat().st_size > valid_bytes:
            os.truncate(wal_path, valid_bytes)
        self.graph = graph
        self.wal = WriteAheadLog(
            wal_path, fsync=self.fsync, fault_hook=self.fault_hook
        )
        self.wal.records = len(ops)
        self.graph_wal = GraphWal(graph, self.wal)
        # newer-but-corrupt generations (a snapshot that failed validation)
        # are dead weight; drop them so the directory converges
        for gen in snap_gens:
            if gen > chosen:
                (self.shard_dir / _snap_name(gen)).unlink(missing_ok=True)
        for gen in wal_gens:
            if gen > chosen:
                (self.shard_dir / _wal_name(gen)).unlink(missing_ok=True)
        return graph

    # -- steady state --------------------------------------------------- #

    def commit(self) -> bool:
        """Make everything journalled so far durable (per the fsync policy).

        A segment that has reached ``snapshot_interval`` records is then
        rolled into a new generation; returns whether that happened.
        """
        if self.wal is None:
            return False
        self.wal.commit()
        if self.wal.records < self.snapshot_interval:
            return False
        self.checkpoint()
        return True

    def checkpoint(self) -> None:
        """Roll a new generation: snapshot, fresh WAL, then prune the old."""
        if self.graph is None or self.wal is None or self.graph_wal is None:
            raise RuntimeError("checkpoint before attach/recover")
        old_gen = self.generation
        new_gen = old_gen + 1
        views = self.view_source() if self.view_source is not None else None
        write_snapshot(self.graph, self.shard_dir / _snap_name(new_gen), views=views)
        old_wal = self.wal
        self.wal = WriteAheadLog(
            self.shard_dir / _wal_name(new_gen),
            fsync=self.fsync,
            fault_hook=self.fault_hook,
        )
        self.graph_wal.rotate(self.wal)
        self.generation = new_gen
        old_wal.close()
        (self.shard_dir / _wal_name(old_gen)).unlink(missing_ok=True)
        (self.shard_dir / _snap_name(old_gen)).unlink(missing_ok=True)

    def close(self) -> None:
        """Graceful shutdown: commit, detach the journal, release the file."""
        if self.graph_wal is not None:
            self.graph_wal.detach()
            self.graph_wal = None
        if self.wal is not None:
            self.wal.close()
            self.wal = None

    def kill(self) -> None:
        """Simulate a process kill: uncommitted buffered records vanish."""
        if self.graph_wal is not None:
            self.graph_wal.detach()
            self.graph_wal = None
        if self.wal is not None:
            self.wal.kill()
            self.wal = None

    # -- recovered standing-view rows ----------------------------------- #

    def view_seed(self, name: str, text: str):
        """The recovered row seed for one standing view, if still valid.

        Returns the ``base -> rows`` mapping persisted in the recovered
        snapshot, or ``None`` when the view must re-materialize: the
        stored query text no longer matches the registration, or the
        recovery replayed WAL ops on top of the snapshot (the stored rows
        describe snapshot-time state, not the replayed graph).
        """
        if self.replayed_ops != 0:
            return None
        for stored_name, stored_text, bases in self._recovered_views:
            if stored_name == name:
                if stored_text != text:
                    return None
                return bases
        return None

    def __repr__(self) -> str:
        return f"<ShardPersistence {self.shard_dir} gen={self.generation}>"


class StorePersistence:
    """One data directory holding every shard of a store, plus metadata.

    Nothing here journals: each :class:`~repro.core.shard.Shard` opens its
    own segment through :meth:`segment` and commits it per write op.
    """

    def __init__(
        self,
        data_dir: Union[str, Path],
        fsync: str = "batch",
        snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL,
    ):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.snapshot_interval = snapshot_interval
        #: shard index -> the segments opened *in this process*; a forked
        #: worker's segment lives in the worker's copy of this object, so
        #: the process backend's parent holds none
        self.segments: Dict[int, ShardPersistence] = {}
        #: Optional callable invoked by :meth:`kill` before the local
        #: segments are killed — the process backend hooks this to SIGKILL
        #: semantics for its workers (tests only).
        self.kill_hook = None

    # -- metadata ------------------------------------------------------- #

    @property
    def meta_path(self) -> Path:
        return self.data_dir / "meta.json"

    @property
    def views_path(self) -> Path:
        return self.data_dir / "views.json"

    @property
    def recoverable(self) -> bool:
        """Whether this directory holds a previously-persisted store."""
        return self.meta_path.exists()

    def _read_meta(self) -> Dict[str, object]:
        try:
            with open(self.meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreMetadataError(
                f"{self.meta_path} is corrupt ({exc}); the store cannot be "
                "recovered until the metadata is restored or the directory "
                "is re-initialised"
            ) from exc
        except OSError as exc:
            raise StoreMetadataError(
                f"{self.meta_path} is unreadable ({exc})"
            ) from exc
        if not isinstance(meta, dict) or not isinstance(meta.get("shards"), int):
            raise StoreMetadataError(
                f"{self.meta_path} does not describe a persisted store "
                f"(missing integer 'shards' field): {meta!r}"
            )
        return meta

    def write_meta(self, num_shards: int, backend: str) -> None:
        """Record a fresh store's layout, making the directory recoverable.

        The caller writes it only after every shard's generation-0
        snapshot is durable, so :attr:`recoverable` never observes a
        half-initialised directory.
        """
        if self.recoverable:
            raise ValueError(
                f"{self.data_dir} already holds a persisted store; "
                "recover it instead of attaching fresh graphs"
            )
        _atomic_write_json(
            self.meta_path,
            {"version": 1, "shards": num_shards, "backend": backend},
        )

    def validate_meta(
        self, expected_shards: Optional[int] = None, backend: Optional[str] = None
    ) -> Dict[str, object]:
        """Check ``meta.json`` against the configuration; return the meta.

        ``expected_shards`` guards against configuration drift: ids are
        routed by ``hash(area) % shards``, so reopening a 4-shard directory
        as 8 shards would silently misroute — it is refused instead.  A
        backend mismatch is configuration drift of the same kind and is
        refused with it: reopen a directory with the backend that wrote it.
        """
        meta = self._read_meta()
        num_shards = int(meta["shards"])
        if expected_shards is not None and expected_shards != num_shards:
            raise ValueError(
                f"data dir {self.data_dir} was persisted with {num_shards} "
                f"shard(s) but the configuration asks for {expected_shards}; "
                "re-sharding an existing data dir is not supported"
            )
        stored_backend = str(meta.get("backend", "inline"))
        if backend is not None and backend != stored_backend:
            raise ValueError(
                f"data dir {self.data_dir} was persisted with the "
                f"{stored_backend!r} shard backend but the configuration asks "
                f"for {backend!r}; reopen it with the backend that wrote it"
            )
        return meta

    # -- segments ------------------------------------------------------- #

    def segment(self, index: int, fault_hook=None) -> ShardPersistence:
        """Open shard ``index``'s segment under this store's policy.

        Not yet attached or recovered: the :class:`~repro.core.shard.Shard`
        built on it does that.
        """
        segment = self.segments[index] = ShardPersistence(
            self.data_dir / f"shard-{index:04d}",
            fsync=self.fsync,
            fault_hook=fault_hook,
            snapshot_interval=self.snapshot_interval,
        )
        return segment

    def close(self) -> None:
        """Graceful shutdown of every segment opened here."""
        for segment in self.segments.values():
            segment.close()

    def kill(self) -> None:
        """Simulate a process kill across every shard (tests only)."""
        if self.kill_hook is not None:
            self.kill_hook()
        for segment in self.segments.values():
            segment.kill()

    def health(self) -> Dict[str, object]:
        """Durable-store state for the layered health report.

        Per segment opened in this process: the current snapshot
        generation and the WAL depth behind it (records an unclean stop
        would replay).  A store whose shards live in worker processes (the
        process backend) reports only the layout — the workers own their
        segments, and report the same two numbers through ``stats``.
        """
        return {
            "path": str(self.data_dir),
            "fsync": self.fsync,
            "snapshot_interval": self.snapshot_interval,
            "shards": [
                {
                    "shard": index,
                    "generation": segment.generation,
                    "wal_records": segment.wal.records if segment.wal is not None else 0,
                }
                for index, segment in sorted(self.segments.items())
            ],
        }

    # -- standing-view registrations ------------------------------------ #

    def record_standing(
        self, name: Optional[str], text: str, push: Optional[bool] = None
    ) -> None:
        """Persist one standing-view registration.

        Idempotent, keyed by ``name`` (falling back to the query text for
        anonymous views).  ``push=None`` keeps a previously recorded push
        flag, so re-registration during recovery does not strip the
        middleware's push wiring from the record.
        """
        key = name if name is not None else text
        views = self.standing_registrations()
        existing = [v for v in views if (v["name"] or v["text"]) == key]
        if push is None:
            push = bool(existing[0]["push"]) if existing else False
        record = {"name": name, "text": text, "push": push}
        if existing == [record]:
            # unchanged (every view re-registered during recovery): no
            # rewrite, no fsync
            return
        views = [v for v in views if (v["name"] or v["text"]) != key]
        views.append(record)
        views.sort(key=lambda v: (v["name"] or v["text"]))
        _atomic_write_json(self.views_path, views)

    def standing_registrations(self) -> List[Dict[str, object]]:
        """The persisted standing-view registrations (possibly empty)."""
        if not self.views_path.exists():
            return []
        with open(self.views_path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def __repr__(self) -> str:
        return f"<StorePersistence {self.data_dir} segments={len(self.segments)}>"
